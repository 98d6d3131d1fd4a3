#include "serve/net.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/string_util.h"

namespace vdb {
namespace serve {
namespace {

Status Errno(const char* what) {
  return Status::IoError(StrFormat("%s: %s", what, std::strerror(errno)));
}

Result<sockaddr_in> MakeAddr(const std::string& host, int port) {
  if (port < 0 || port > 65535) {
    return Status::InvalidArgument(StrFormat("port %d out of range", port));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument(
        "not an IPv4 address: '" + host + "' (hostnames are not resolved)");
  }
  return addr;
}

Status SetTimeout(int fd, int optname, int timeout_ms) {
  if (timeout_ms <= 0) {
    return Status::Ok();
  }
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  if (setsockopt(fd, SOL_SOCKET, optname, &tv, sizeof(tv)) != 0) {
    return Errno("setsockopt timeout");
  }
  return Status::Ok();
}

}  // namespace

Result<int> ListenTcp(const std::string& host, int port, int backlog) {
  VDB_ASSIGN_OR_RETURN(sockaddr_in addr, MakeAddr(host, port));
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Errno("socket");
  }
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status s = Errno(("bind " + host + StrFormat(":%d", port)).c_str());
    CloseFd(fd);
    return s;
  }
  if (listen(fd, backlog) != 0) {
    Status s = Errno("listen");
    CloseFd(fd);
    return s;
  }
  return fd;
}

Result<int> AcceptConnection(int listen_fd) {
  for (;;) {
    int fd = accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) {
      return fd;
    }
    if (errno == EINTR) {
      continue;
    }
    return Errno("accept");
  }
}

Result<int> StartConnect(const std::string& host, int port) {
  VDB_ASSIGN_OR_RETURN(sockaddr_in addr, MakeAddr(host, port));
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) {
    return Errno("socket");
  }
  int rc = connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    Status s = Errno(("connect " + host + StrFormat(":%d", port)).c_str());
    CloseFd(fd);
    return s;
  }
  return fd;
}

Status FinishConnect(int fd, const std::string& host, int port) {
  int err = 0;
  socklen_t len = sizeof(err);
  if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
    err = errno;
  }
  if (err != 0) {
    return Status::IoError(StrFormat("connect %s:%d: %s", host.c_str(), port,
                                     std::strerror(err)));
  }
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags & ~O_NONBLOCK) != 0) {
    return Errno("fcntl F_SETFL");
  }
  return Status::Ok();
}

Result<int> ConnectTcp(const std::string& host, int port, int timeout_ms) {
  VDB_ASSIGN_OR_RETURN(int fd, StartConnect(host, port));
  pollfd pfd{fd, POLLOUT, 0};
  if (poll(&pfd, 1, timeout_ms > 0 ? timeout_ms : -1) <= 0) {
    CloseFd(fd);
    return Status::IoError(StrFormat("connect %s:%d timed out after %d ms",
                                     host.c_str(), port, timeout_ms));
  }
  Status connected = FinishConnect(fd, host, port);
  if (!connected.ok()) {
    CloseFd(fd);
    return connected;
  }
  return fd;
}

Result<int> LocalPort(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return Errno("getsockname");
  }
  return static_cast<int>(ntohs(addr.sin_port));
}

Status ConfigureSocket(int fd, int read_timeout_ms, int write_timeout_ms) {
  VDB_RETURN_IF_ERROR(SetTimeout(fd, SO_RCVTIMEO, read_timeout_ms));
  VDB_RETURN_IF_ERROR(SetTimeout(fd, SO_SNDTIMEO, write_timeout_ms));
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Status::Ok();
}

Status WriteAll(int fd, std::string_view data) {
  size_t written = 0;
  while (written < data.size()) {
    ssize_t n = send(fd, data.data() + written, data.size() - written,
                     MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::IoError("write timed out");
      }
      return Errno("send");
    }
    written += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Status ReadExact(int fd, char* buf, size_t n) {
  size_t got = 0;
  while (got < n) {
    ssize_t r = recv(fd, buf + got, n - got, 0);
    if (r == 0) {
      if (got == 0) {
        return Status::NotFound("connection closed by peer");
      }
      return Status::IoError(
          StrFormat("connection closed mid-frame (%zu of %zu bytes)", got,
                    n));
    }
    if (r < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::IoError("read timed out");
      }
      return Errno("recv");
    }
    got += static_cast<size_t>(r);
  }
  return Status::Ok();
}

Result<Frame> ReadFrame(int fd) {
  char header_bytes[kFrameHeaderSize];
  VDB_RETURN_IF_ERROR(ReadExact(fd, header_bytes, sizeof(header_bytes)));
  VDB_ASSIGN_OR_RETURN(
      FrameHeader header,
      DecodeFrameHeader(std::string_view(header_bytes, sizeof(header_bytes))));
  Frame frame;
  frame.header = header;
  frame.payload.resize(header.payload_size);
  if (header.payload_size > 0) {
    VDB_RETURN_IF_ERROR(
        ReadExact(fd, frame.payload.data(), frame.payload.size()));
  }
  VDB_RETURN_IF_ERROR(ValidatePayload(header, frame.payload));
  return frame;
}

Status SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0) {
    return Errno("fcntl F_GETFL");
  }
  if (fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    return Errno("fcntl F_SETFL O_NONBLOCK");
  }
  return Status::Ok();
}

IoOutcome ReadSome(int fd, char* buf, size_t n) {
  IoOutcome out;
  for (;;) {
    ssize_t r = recv(fd, buf, n, 0);
    if (r > 0) {
      out.kind = IoOutcome::kProgress;
      out.bytes = static_cast<size_t>(r);
      return out;
    }
    if (r == 0) {
      out.kind = IoOutcome::kEof;
      return out;
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      out.kind = IoOutcome::kWouldBlock;
      return out;
    }
    out.kind = IoOutcome::kError;
    out.status = Errno("recv");
    return out;
  }
}

IoOutcome WritevSome(int fd, const iovec* iov, int iovcnt) {
  IoOutcome out;
  for (;;) {
    msghdr msg{};
    msg.msg_iov = const_cast<iovec*>(iov);
    msg.msg_iovlen = static_cast<size_t>(iovcnt);
    ssize_t w = sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (w >= 0) {
      out.kind = IoOutcome::kProgress;
      out.bytes = static_cast<size_t>(w);
      return out;
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      out.kind = IoOutcome::kWouldBlock;
      return out;
    }
    out.kind = IoOutcome::kError;
    out.status = Errno("sendmsg");
    return out;
  }
}

IoOutcome AcceptSome(int listen_fd) {
  IoOutcome out;
  for (;;) {
    int fd = accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) {
      out.kind = IoOutcome::kProgress;
      out.bytes = static_cast<size_t>(fd);
      return out;
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      out.kind = IoOutcome::kWouldBlock;
      return out;
    }
    out.kind = IoOutcome::kError;
    out.status = Errno("accept");
    return out;
  }
}

Result<int> CreateEventFd() {
  int fd = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (fd < 0) {
    return Errno("eventfd");
  }
  return fd;
}

void SignalEventFd(int fd) {
  uint64_t one = 1;
  // A full eventfd counter (EAGAIN) already guarantees a pending wakeup.
  [[maybe_unused]] ssize_t n = write(fd, &one, sizeof(one));
}

void DrainEventFd(int fd) {
  uint64_t value;
  while (read(fd, &value, sizeof(value)) > 0) {
  }
}

void ShutdownFd(int fd) {
  if (fd >= 0) {
    shutdown(fd, SHUT_RDWR);
  }
}

void CloseFd(int fd) {
  if (fd >= 0) {
    close(fd);
  }
}

}  // namespace serve
}  // namespace vdb
