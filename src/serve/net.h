#ifndef VDB_SERVE_NET_H_
#define VDB_SERVE_NET_H_

#include <sys/uio.h>

#include <string>
#include <string_view>

#include "serve/wire.h"
#include "util/result.h"

namespace vdb {
namespace serve {

// Thin POSIX-socket helpers shared by Server and Client. Everything returns
// Status/Result like the rest of the library; no exceptions, no globals.
// The client side stays blocking with per-fd timeouts
// (SO_RCVTIMEO/SO_SNDTIMEO); the server side is nonblocking and driven by
// the epoll event loop in server.cc through the *Some helpers below.

// Binds and listens on host:port (port 0 picks an ephemeral port; read it
// back with LocalPort). Returns the listening fd.
Result<int> ListenTcp(const std::string& host, int port, int backlog);

// Blocking accept. Retries EINTR; any other failure (including the listener
// being shut down) is an IoError.
Result<int> AcceptConnection(int listen_fd);

// Blocking connect with a timeout. Returns the connected fd.
Result<int> ConnectTcp(const std::string& host, int port, int timeout_ms);

// ConnectTcp split in two for a caller waiting on many sockets at once.
// StartConnect returns a nonblocking socket whose connect is under way (or
// already done); once it polls writable, FinishConnect reports whether the
// connect succeeded and puts the socket back in blocking mode. The caller
// closes the fd either way.
Result<int> StartConnect(const std::string& host, int port);
Status FinishConnect(int fd, const std::string& host, int port);

// The port a bound socket actually listens on.
Result<int> LocalPort(int fd);

// Read/write timeouts in milliseconds (<= 0 means no timeout). Also sets
// TCP_NODELAY — the protocol is strict request/response, so Nagle only
// adds latency.
Status ConfigureSocket(int fd, int read_timeout_ms, int write_timeout_ms);

// Writes all of `data`, retrying short writes and EINTR. Timeouts and peer
// resets surface as IoError.
Status WriteAll(int fd, std::string_view data);

// Reads exactly `n` bytes. EOF mid-read, timeouts and errors are IoError;
// EOF before the first byte is kNotFound, so callers can tell a clean
// disconnect from a torn frame.
Status ReadExact(int fd, char* buf, size_t n);

// Reads one whole frame: header, payload, checksum validation. kNotFound
// means the peer closed cleanly between frames; kCorruption and
// kInvalidArgument mean the stream is unsynchronised and the connection
// should be dropped.
Result<Frame> ReadFrame(int fd);

// ---------------------------------------------------------------------------
// Nonblocking primitives for the event loop. Each attempt reports exactly
// one of: progress (some bytes moved), would-block (try again on the next
// readiness edge), EOF (peer closed), or a hard error.

Status SetNonBlocking(int fd);

struct IoOutcome {
  enum Kind {
    kProgress,    // `bytes` were read/written
    kWouldBlock,  // EAGAIN: the fd is not ready; wait for the next edge
    kEof,         // the peer closed its end (reads only)
    kError,       // hard failure (ECONNRESET, EPIPE, ...); see `status`
  };
  Kind kind = kWouldBlock;
  size_t bytes = 0;
  Status status;
};

// One nonblocking recv into buf[0..n). Retries EINTR only.
IoOutcome ReadSome(int fd, char* buf, size_t n);

// One nonblocking vectored send (MSG_NOSIGNAL). Short writes report as
// kProgress with the byte count; the caller advances its iovecs.
IoOutcome WritevSome(int fd, const iovec* iov, int iovcnt);

// Nonblocking accept: kProgress carries the new fd in `bytes`, kWouldBlock
// means the backlog is drained. Used with edge-triggered readiness, so the
// caller loops until kWouldBlock.
IoOutcome AcceptSome(int listen_fd);

// eventfd(2) wrapper for cross-thread wakeups of an epoll loop.
Result<int> CreateEventFd();
void SignalEventFd(int fd);
void DrainEventFd(int fd);

// shutdown(2) both directions, best effort. A reader blocked on the fd
// wakes with EOF — used for server drain.
void ShutdownFd(int fd);

// close(2), ignoring errors; negative fds are a no-op.
void CloseFd(int fd);

}  // namespace serve
}  // namespace vdb

#endif  // VDB_SERVE_NET_H_
