#ifndef VDB_SERVE_CLIENT_H_
#define VDB_SERVE_CLIENT_H_

#include <optional>
#include <string>
#include <vector>

#include "serve/wire.h"
#include "util/result.h"

namespace vdb {
namespace serve {

struct ClientOptions {
  int connect_timeout_ms = 5'000;
  // How long one request may take end to end; also bounds how long a
  // RELOAD (the slowest verb) may keep the client waiting.
  int read_timeout_ms = 60'000;
  int write_timeout_ms = 10'000;
  // Reconnect-with-backoff (off by default): when a Call()'s transport
  // fails — ECONNRESET/EPIPE on a pooled connection whose backend
  // restarted, a torn frame, a poisoned fd from an earlier failure — the
  // client re-dials and retries the whole request up to `max_retries`
  // times, sleeping retry_backoff_ms, 2x, 4x, ... between attempts. Only
  // whole Calls retry, never the Send/Receive halves, where a replayed
  // request could desynchronize a pipelined stream. The cluster router's
  // connection pools turn this on; application errors the server itself
  // reports (non-OK Response status) are never retried.
  int max_retries = 0;
  int retry_backoff_ms = 10;
};

// Transport-level failures worth a reconnect: a dead fd (earlier poison),
// an I/O error (ECONNRESET/EPIPE/timeout), or a torn/garbled frame. A
// non-OK *response* never qualifies — the server answered, so retrying
// would re-run an application error.
bool RetryableTransportError(const Status& status);

// Blocking client for the catalog query service: one TCP connection, one
// outstanding request at a time. Used by the tests, vdbload, and anything
// else that wants typed access to the server.
//
// Error model: transport and protocol failures (connect, torn frames, bad
// checksums) surface from Call() itself and poison the connection — every
// later call fails until a new client is connected. Application errors the
// *server* reports (unknown video id, bad top_k, BUSY) arrive as a Response
// whose status is non-OK; the typed helpers forward that status, and the
// connection remains usable (except BUSY, where the server hangs up).
//
// Not thread-safe: share nothing, or one client per thread.
class Client {
 public:
  static Result<Client> Connect(const std::string& host, int port,
                                ClientOptions options = ClientOptions());

  // Connect split in two for a caller waiting on several sockets at once:
  // Dial starts the connect and returns without waiting; once fd() polls
  // writable, FinishDial reports whether the connect succeeded (and closes
  // the client if not). The caller bounds the wait itself.
  static Result<Client> Dial(const std::string& host, int port,
                             ClientOptions options = ClientOptions());
  Status FinishDial();

  ~Client();

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void Close();

  // The connection's socket (-1 once closed), so a caller holding several
  // clients can wait for whichever is ready first. Only poll it; reading or
  // writing it directly desynchronises the stream.
  int fd() const { return fd_; }

  // Sends one request frame and reads one response frame. The returned
  // Response may carry a non-OK status (an application error, or a BUSY /
  // malformed-frame report with verb kError). With max_retries > 0 a
  // transport failure reconnects and retries instead of sticking poisoned.
  Result<Response> Call(const Request& request);

  // Call() split for a caller waiting on several clients at once: Send
  // writes a request frame; then, each time fd() polls readable,
  // ReceiveSome reads what has arrived — without blocking — and returns
  // the response once its whole frame is in, nullopt while more is still
  // to come. `verb` is the request's: a response of any other verb (bar
  // kError) means the stream is out of sync. Transport failures poison the
  // connection exactly as Call does; nothing is retried.
  Status Send(const Request& request);
  Result<std::optional<Response>> ReceiveSome(Verb verb);

  // Sends every request back to back, then reads every response; the result
  // has the same length and order as `requests`. One torn frame poisons the
  // whole batch (the stream is unsynchronised beyond it).
  Result<std::vector<Response>> CallPipelined(
      const std::vector<Request>& requests);

  // Typed shorthands; each forwards a non-OK response status as the error.
  Result<std::string> Ping(const std::string& token);
  Result<StatsResponse> Stats();
  Result<QueryResponse> Query(const QueryRequest& request);
  Result<TreeResponse> Tree(const TreeRequest& request);
  Result<ListResponse> List();
  // path empty = reload the server's current catalog set from disk.
  Result<ReloadResponse> Reload(const std::string& path = "");
  // Query-by-frame (wire v3). Version-negotiation guard: an old (v2-only)
  // server rejects the v3 frame at the parser with kInvalidArgument
  // "unsupported wire version ..." and hangs up; this helper surfaces that
  // as a typed kUnimplemented ("server too old"), never kCorruption.
  Result<QueryFrameResponse> QueryFrame(const QueryFrameRequest& request);

 private:
  explicit Client(int fd) : fd_(fd) {}

  // Reads until the response to a request of `verb` is whole.
  Result<Response> Receive(Verb verb);

  // One send/receive round on the current connection, no retries.
  Result<Response> CallOnce(const Request& request);

  int fd_ = -1;
  // Where Connect() dialed, kept so Call() can re-dial on retry.
  std::string host_;
  int port_ = -1;
  ClientOptions options_;
  // Response bytes read but not yet decoded: a frame may arrive in pieces.
  FrameParser parser_;
};

}  // namespace serve
}  // namespace vdb

#endif  // VDB_SERVE_CLIENT_H_
