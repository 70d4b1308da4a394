#include "obs/log.hpp"

#include <algorithm>
#include <chrono>

#include "obs/instruments.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace rct::obs::log {
namespace {

std::uint64_t wall_now_us() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                        std::chrono::system_clock::now().time_since_epoch())
                                        .count());
}

void append_field_value(std::string& out, const Field& field) {
  switch (field.kind) {
    case Field::Kind::kString:
      json::append_string(out, field.str);
      break;
    case Field::Kind::kFloat:
      json::append_number(out, field.f);
      break;
    case Field::Kind::kUint:
      out += std::to_string(field.u);
      break;
    case Field::Kind::kInt:
      out += std::to_string(field.i);
      break;
    case Field::Kind::kBool:
      out += field.b ? "true" : "false";
      break;
  }
}

}  // namespace

std::string_view level_name(Level level) {
  switch (level) {
    case Level::kDebug: return "debug";
    case Level::kInfo: return "info";
    case Level::kWarn: return "warn";
    case Level::kError: return "error";
    case Level::kOff: return "off";
  }
  return "info";
}

bool parse_level(std::string_view text, Level& out) {
  for (const Level l : {Level::kDebug, Level::kInfo, Level::kWarn, Level::kError, Level::kOff}) {
    if (text == level_name(l)) {
      out = l;
      return true;
    }
  }
  return false;
}

Logger::~Logger() { close(); }

bool Logger::open(const std::string& path) {
  std::FILE* next = nullptr;
  bool next_is_stderr = false;
  if (path == "-") {
    next = stderr;
    next_is_stderr = true;
  } else {
    next = std::fopen(path.c_str(), "w");
    if (next == nullptr) return false;
  }
  close();
  const std::lock_guard<std::mutex> lock(sink_mutex_);
  sink_ = next;
  sink_is_stderr_ = next_is_stderr;
  tokens_ = static_cast<double>(rate_);
  last_refill_ns_ = steady_now_ns();
  dropped_unreported_ = 0;
  dropped_total_.store(0, std::memory_order_relaxed);
  sink_armed_.store(true, std::memory_order_release);
  return true;
}

void Logger::close() {
  const std::lock_guard<std::mutex> lock(sink_mutex_);
  if (sink_ == nullptr) return;
  sink_armed_.store(false, std::memory_order_release);
  report_drops_locked();
  std::fflush(sink_);
  if (!sink_is_stderr_) std::fclose(sink_);
  sink_ = nullptr;
  sink_is_stderr_ = false;
}

void Logger::set_rate_limit(std::uint64_t events_per_second) {
  const std::lock_guard<std::mutex> lock(sink_mutex_);
  rate_ = events_per_second;
  tokens_ = static_cast<double>(rate_);
  last_refill_ns_ = steady_now_ns();
}

bool Logger::take_token_locked() {
  if (rate_ == 0) return true;
  const std::uint64_t now = steady_now_ns();
  const double elapsed_s = static_cast<double>(now - last_refill_ns_) * 1e-9;
  last_refill_ns_ = now;
  tokens_ = std::min(tokens_ + elapsed_s * static_cast<double>(rate_),
                     static_cast<double>(rate_));  // burst = 1 s of rate
  if (tokens_ < 1.0) return false;
  tokens_ -= 1.0;
  return true;
}

void Logger::report_drops_locked() {
  if (dropped_unreported_ == 0 || sink_ == nullptr) return;
  std::string line = "{\"ts_us\":" + std::to_string(wall_now_us()) +
                     ",\"level\":\"warn\",\"event\":\"obs.log.dropped\",\"count\":" +
                     std::to_string(dropped_unreported_) + "}\n";
  std::fwrite(line.data(), 1, line.size(), sink_);
  dropped_unreported_ = 0;
}

void Logger::emit(Level level, const char* event, std::initializer_list<Field> fields) {
  if (!enabled(level)) return;
  write_line(level, event, fields.begin(), fields.size());
}

void Logger::write_line(Level level, const char* event, const Field* fields,
                        std::size_t n_fields) {
  // Serialize outside the lock; the envelope keys come first and caller
  // fields are appended flat (reserved keys: ts_us, level, event).
  std::string line = "{\"ts_us\":" + std::to_string(wall_now_us()) + ",\"level\":\"";
  line += level_name(level);
  line += "\",\"event\":";
  json::append_string(line, event);
  for (std::size_t i = 0; i < n_fields; ++i) {
    line += ',';
    json::append_string(line, fields[i].key);
    line += ':';
    append_field_value(line, fields[i]);
  }
  line += "}\n";

  const std::lock_guard<std::mutex> lock(sink_mutex_);
  if (sink_ == nullptr) return;  // closed between the check and here
  if (!take_token_locked()) {
    ++dropped_unreported_;
    dropped_total_.fetch_add(1, std::memory_order_relaxed);
    counter(C::kObsLogDropped).add();
    return;
  }
  report_drops_locked();  // a token freed up; surface any shed interval first
  std::fwrite(line.data(), 1, line.size(), sink_);
}

Logger& logger() {
  static Logger instance;
  return instance;
}

}  // namespace rct::obs::log
