#include "server/client.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "server/protocol.hpp"

namespace rct::server {

Client::~Client() { close(); }

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  reader_.clear();
}

bool Client::roundtrip(const std::string& request_line, std::string& response_line) {
  if (fd_ < 0) {
    error_ = "not connected";
    return false;
  }
  std::string out = request_line;
  out.push_back('\n');
  if (!send_all(fd_, out)) {
    error_ = "send: " + std::string(std::strerror(errno));
    return false;
  }
  for (;;) {
    std::string_view line;
    if (reader_.next_line(line)) {
      response_line.assign(line);
      return true;
    }
    const ssize_t n = reader_.read_from(fd_);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      error_ = n == 0 ? "server closed the connection"
                      : "recv: " + std::string(std::strerror(errno));
      return false;
    }
  }
}

std::uint64_t Client::backoff_ms(const RetryPolicy& policy, int attempt) {
  std::uint64_t base = policy.base_backoff_ms;
  for (int i = 0; i < attempt && base < policy.max_backoff_ms; ++i) base *= 2;
  base = std::min(base, policy.max_backoff_ms);
  if (base == 0) return 0;
  // xorshift64 — fast, deterministic for a given seed, good enough to
  // decorrelate a fleet of batch clients hammering one recovering server.
  if (jitter_state_ == 0) jitter_state_ = policy.jitter_seed | 1;
  jitter_state_ ^= jitter_state_ << 13;
  jitter_state_ ^= jitter_state_ >> 7;
  jitter_state_ ^= jitter_state_ << 17;
  const std::uint64_t half = base / 2;
  return half + (half > 0 ? jitter_state_ % (half + 1) : 0);
}

bool Client::request(const std::string& request_line, std::string& response_line,
                     const RetryPolicy& policy) {
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t waited_ms = 0;
  last_retries_ = 0;
  const int attempts = std::max(policy.max_attempts, 1);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) ++last_retries_;
    // Reconnect after a broken pipe, a server restart, or a never-connected
    // client: the remembered target makes request() self-healing.
    if (fd_ < 0 && !target_.empty() && !connect(target_)) {
      // Server may still be coming back up; fall through to the backoff.
    }
    if (fd_ >= 0 && roundtrip(request_line, response_line)) {
      if (response_error_code(response_line) != "overloaded") return true;
      // Shed by admission control: honor the server's hint when it is
      // larger than our own schedule, then resend.
      if (attempt + 1 >= attempts) return true;  // exhausted — surface the typed error
      const std::uint64_t hint = response_retry_after_ms(response_line);
      const std::uint64_t wait = std::max(backoff_ms(policy, attempt), hint);
      if (policy.budget_ms != 0 && waited_ms + wait > policy.budget_ms) return true;
      waited_ms += wait;
      std::this_thread::sleep_for(std::chrono::milliseconds(wait));
      continue;
    }
    // Transport failure (send/recv error, server hung up, connect refused).
    close();
    if (attempt + 1 >= attempts) break;
    const std::uint64_t wait = backoff_ms(policy, attempt);
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    if (policy.budget_ms != 0 &&
        static_cast<std::uint64_t>(elapsed) + wait > policy.budget_ms)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(wait));
  }
  if (error_.empty()) error_ = "retries exhausted";
  return false;
}

}  // namespace rct::server
