#pragma once
// server::Client — the thin connection `rct client` (and the tests and
// rctbench) use to talk to a running `rct serve`.
//
// One blocking socket, one LineReader (large reads straight into its
// buffer, one scan per byte, one copy per response).  Connect and send go
// through the server's own socket layer (socket.hpp), so the target spec is
// the listen spec: a unix socket path, or an all-digits TCP port (0-65535)
// on 127.0.0.1.
//
// Two tiers of API:
//
//   * roundtrip() — one send, one receive, no second chances.  Callers
//     that need wait-for-server semantics loop on connect() themselves.
//   * request()   — roundtrip wrapped in a RetryPolicy: reconnects after
//     a broken pipe / server restart, and backs off and resends when the
//     server sheds the request with a typed `overloaded` response.
//     Backoff is capped exponential with deterministic seeded jitter and
//     honors the server's `retry_after_ms` hint when it is larger.
//
// The retry loop is deliberately transport-level only: a response that
// arrives with any error code other than "overloaded" is a *successful*
// roundtrip from the client's point of view and is returned to the caller
// untouched.

#include <cstdint>
#include <string>

#include "server/line_reader.hpp"
#include "server/socket.hpp"

namespace rct::server {

/// Knobs for Client::request().  The defaults mean "no retries" so plain
/// callers keep roundtrip semantics; `rct client --retries N` turns the
/// resilience on.
struct RetryPolicy {
  int max_attempts = 1;             ///< total tries (1 = no retry)
  std::uint64_t budget_ms = 0;      ///< wall-clock cap on waiting (0 = none)
  std::uint64_t base_backoff_ms = 25;
  std::uint64_t max_backoff_ms = 2000;
  std::uint64_t jitter_seed = 0x9e3779b97f4a7c15ULL;  ///< deterministic jitter stream
};

class Client {
 public:
  Client() = default;
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects to `target` (unix path, or all-digits port on 127.0.0.1; a
  /// port above 65535 or an over-long path fails with the spec named).
  /// False (with error()) on failure; never throws.  Remembers the target
  /// so request() can reconnect after the server restarts.
  [[nodiscard]] bool connect(const std::string& target) {
    close();
    error_.clear();
    target_ = target;
    fd_ = connect_socket(target, error_);
    return fd_ >= 0;
  }

  [[nodiscard]] bool connected() const { return fd_ >= 0; }
  [[nodiscard]] const std::string& error() const { return error_; }

  /// Sends one request line (newline appended) and blocks for the one
  /// response line (stripped of its newline).  False on any socket error
  /// or a server that hung up mid-response.
  [[nodiscard]] bool roundtrip(const std::string& request_line, std::string& response_line);

  /// roundtrip() with resilience per `policy`: transport failures trigger
  /// reconnect + resend, `overloaded` responses trigger backoff + resend.
  /// Returns true when ANY response line was obtained (including a typed
  /// error the caller should surface); false only when every attempt died
  /// on the wire or the retry budget ran out.
  [[nodiscard]] bool request(const std::string& request_line, std::string& response_line,
                             const RetryPolicy& policy);

  /// Retries consumed by the last request() call (for stats/tests).
  [[nodiscard]] std::uint64_t last_retries() const { return last_retries_; }

  void close();

 private:
  /// Next jittered backoff for attempt number `attempt` (0-based retry
  /// index): uniform in [base/2, base] where base doubles per attempt and
  /// caps at max_backoff_ms.  xorshift64 over the policy seed keeps runs
  /// reproducible.
  [[nodiscard]] std::uint64_t backoff_ms(const RetryPolicy& policy, int attempt);

  int fd_ = -1;
  LineReader reader_;  ///< bytes read past the last consumed line
  std::string error_;
  std::string target_;  ///< last successful connect() spec, for reconnects
  std::uint64_t jitter_state_ = 0;  ///< xorshift64 state (lazily seeded)
  std::uint64_t last_retries_ = 0;
};

}  // namespace rct::server
