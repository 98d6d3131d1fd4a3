#include "serve/client.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "serve/net.h"
#include "util/string_util.h"

namespace vdb {
namespace serve {
bool RetryableTransportError(const Status& status) {
  return status.code() == StatusCode::kFailedPrecondition ||
         status.code() == StatusCode::kIoError ||
         status.code() == StatusCode::kCorruption;
}

Result<Client> Client::Connect(const std::string& host, int port,
                               ClientOptions options) {
  VDB_ASSIGN_OR_RETURN(int fd,
                       ConnectTcp(host, port, options.connect_timeout_ms));
  Status configured =
      ConfigureSocket(fd, options.read_timeout_ms, options.write_timeout_ms);
  if (!configured.ok()) {
    CloseFd(fd);
    return configured;
  }
  Client client(fd);
  client.host_ = host;
  client.port_ = port;
  client.options_ = options;
  return client;
}

Result<Client> Client::Dial(const std::string& host, int port,
                            ClientOptions options) {
  VDB_ASSIGN_OR_RETURN(int fd, StartConnect(host, port));
  Client client(fd);
  client.host_ = host;
  client.port_ = port;
  client.options_ = options;
  return client;
}

Status Client::FinishDial() {
  Status connected = FinishConnect(fd_, host_, port_);
  if (connected.ok()) {
    connected = ConfigureSocket(fd_, options_.read_timeout_ms,
                                options_.write_timeout_ms);
  }
  if (!connected.ok()) {
    Close();
  }
  return connected;
}

Client::~Client() { Close(); }

Client::Client(Client&& other) noexcept
    : fd_(other.fd_),
      host_(std::move(other.host_)),
      port_(other.port_),
      options_(other.options_),
      parser_(std::move(other.parser_)) {
  other.fd_ = -1;
}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    host_ = std::move(other.host_);
    port_ = other.port_;
    options_ = other.options_;
    parser_ = std::move(other.parser_);
    other.fd_ = -1;
  }
  return *this;
}

void Client::Close() {
  CloseFd(fd_);
  fd_ = -1;
  parser_ = FrameParser();
}

Status Client::Send(const Request& request) {
  if (fd_ < 0) {
    return Status::FailedPrecondition("client is not connected");
  }
  Status written = WriteAll(fd_, EncodeRequest(request));
  if (!written.ok()) {
    Close();
  }
  return written;
}

Result<std::optional<Response>> Client::ReceiveSome(Verb verb) {
  if (fd_ < 0) {
    return Status::FailedPrecondition("client is not connected");
  }
  Frame frame;
  Status error;
  FrameParser::Next next = parser_.TryNext(&frame, &error);
  if (next == FrameParser::Next::kNeedMore) {
    char buf[64 << 10];
    IoOutcome got = ReadSome(fd_, buf, sizeof(buf));
    if (got.kind != IoOutcome::kProgress) {
      // On this blocking socket "would block" means SO_RCVTIMEO expired.
      Status failure =
          got.kind == IoOutcome::kError ? got.status
          : got.kind == IoOutcome::kWouldBlock
              ? Status::IoError("read timed out")
          : parser_.buffered_bytes() == 0
              ? Status::IoError("server closed the connection")
              : Status::IoError(
                    StrFormat("connection closed mid-frame (%zu bytes in)",
                              parser_.buffered_bytes()));
      Close();
      return failure;
    }
    parser_.Feed(std::string_view(buf, got.bytes));
    next = parser_.TryNext(&frame, &error);
  }
  if (next == FrameParser::Next::kNeedMore) {
    return std::optional<Response>();
  }
  if (next == FrameParser::Next::kError) {
    Close();
    return error;
  }
  Result<Response> response = DecodeResponse(frame.header, frame.payload);
  if (!response.ok()) {
    Close();
    return response.status();
  }
  if (response->verb != verb && response->verb != Verb::kError) {
    Close();
    return Status::Corruption(
        "response verb does not match the request (stream out of sync)");
  }
  return std::optional<Response>(std::move(*response));
}

Result<Response> Client::Receive(Verb verb) {
  for (;;) {
    VDB_ASSIGN_OR_RETURN(std::optional<Response> response, ReceiveSome(verb));
    if (response) {
      return std::move(*response);
    }
  }
}

Result<Response> Client::CallOnce(const Request& request) {
  VDB_RETURN_IF_ERROR(Send(request));
  return Receive(request.verb);
}

Result<Response> Client::Call(const Request& request) {
  Result<Response> result = CallOnce(request);
  for (int attempt = 0;
       attempt < options_.max_retries && !result.ok() &&
       RetryableTransportError(result.status()) && port_ >= 0;
       ++attempt) {
    int backoff_ms =
        options_.retry_backoff_ms * (1 << std::min(attempt, 10));
    if (backoff_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    }
    Result<Client> fresh = Connect(host_, port_, options_);
    if (!fresh.ok()) {
      result = fresh.status();
      continue;
    }
    *this = std::move(*fresh);
    result = CallOnce(request);
  }
  return result;
}

Result<std::vector<Response>> Client::CallPipelined(
    const std::vector<Request>& requests) {
  for (const Request& request : requests) {
    VDB_RETURN_IF_ERROR(Send(request));
  }
  std::vector<Response> responses;
  responses.reserve(requests.size());
  for (const Request& request : requests) {
    VDB_ASSIGN_OR_RETURN(Response response, Receive(request.verb));
    responses.push_back(std::move(response));
  }
  return responses;
}

Result<std::string> Client::Ping(const std::string& token) {
  Request request;
  request.verb = Verb::kPing;
  request.ping_token = token;
  VDB_ASSIGN_OR_RETURN(Response response, Call(request));
  VDB_RETURN_IF_ERROR(response.status);
  return std::move(response.ping_token);
}

Result<StatsResponse> Client::Stats() {
  Request request;
  request.verb = Verb::kStats;
  VDB_ASSIGN_OR_RETURN(Response response, Call(request));
  VDB_RETURN_IF_ERROR(response.status);
  return std::move(response.stats);
}

Result<QueryResponse> Client::Query(const QueryRequest& query) {
  Request request;
  request.verb = Verb::kQuery;
  request.query = query;
  VDB_ASSIGN_OR_RETURN(Response response, Call(request));
  VDB_RETURN_IF_ERROR(response.status);
  return std::move(response.query);
}

Result<TreeResponse> Client::Tree(const TreeRequest& tree) {
  Request request;
  request.verb = Verb::kTree;
  request.tree = tree;
  VDB_ASSIGN_OR_RETURN(Response response, Call(request));
  VDB_RETURN_IF_ERROR(response.status);
  return std::move(response.tree);
}

Result<ListResponse> Client::List() {
  Request request;
  request.verb = Verb::kList;
  VDB_ASSIGN_OR_RETURN(Response response, Call(request));
  VDB_RETURN_IF_ERROR(response.status);
  return std::move(response.list);
}

Result<ReloadResponse> Client::Reload(const std::string& path) {
  Request request;
  request.verb = Verb::kReload;
  request.reload_path = path;
  VDB_ASSIGN_OR_RETURN(Response response, Call(request));
  VDB_RETURN_IF_ERROR(response.status);
  return std::move(response.reload);
}

Result<QueryFrameResponse> Client::QueryFrame(
    const QueryFrameRequest& query_frame) {
  Request request;
  request.verb = Verb::kQueryFrame;
  request.query_frame = query_frame;
  VDB_ASSIGN_OR_RETURN(Response response, Call(request));
  // Downgrade detection: a v2-era server cannot parse the v3 frame. Its
  // parser reports kInvalidArgument "unsupported wire version 3 ..." on a
  // kError response before dropping the connection; map that to a typed
  // kUnimplemented so callers can tell "server too old" from a bad request.
  if (response.verb == Verb::kError &&
      response.status.code() == StatusCode::kInvalidArgument &&
      response.status.message().find("unsupported wire version") !=
          std::string::npos) {
    return Status::Unimplemented(
        "server does not speak wire version 3 (QUERYFRAME): " +
        response.status.message());
  }
  VDB_RETURN_IF_ERROR(response.status);
  return std::move(response.query_frame);
}

}  // namespace serve
}  // namespace vdb
