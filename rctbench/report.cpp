// Shared helpers: statistics, peak RSS, the JSON/sandwich oracle, the host
// fingerprint and a small JSON object writer for detail lines.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>

#include "bench.hpp"
#include "obs/trace.hpp"
#include "robust/fault.hpp"

namespace rctbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void check_sandwich(double lower, double exact, double elmore, std::string_view what) {
  // The same relative slack core::build_report allows on its own check.
  const double tol = 1e-6 * std::max(std::abs(elmore), 1e-18);
  if (!(exact >= lower - tol && exact <= elmore + tol)) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), ": exact %.12e outside [%.12e, %.12e]", exact, lower, elmore);
    throw OracleError(std::string(what) + buf);
  }
}

namespace {

/// Recursive-descent validator over one JSON text (see check_json).
class JsonChecker {
 public:
  JsonChecker(std::string_view text, std::string_view what) : s_(text), what_(what) {}

  std::size_t run() {
    skip_ws();
    value(0);
    skip_ws();
    if (i_ != s_.size()) fail("trailing bytes");
    return exact_rows_;
  }

 private:
  [[noreturn]] void fail(const char* msg) const {
    const std::size_t from = i_ > 40 ? i_ - 40 : 0;
    throw OracleError(std::string(what_) + ": invalid JSON (" + msg + ") at byte " +
                      std::to_string(i_) + " near '" +
                      std::string(s_.substr(from, std::min<std::size_t>(80, s_.size() - from))) +
                      "'");
  }
  [[nodiscard]] char peek() const { return i_ < s_.size() ? s_[i_] : '\0'; }
  void skip_ws() {
    while (i_ < s_.size() && std::string_view(" \n\t\r").find(s_[i_]) != std::string_view::npos)
      ++i_;
  }
  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++i_;
  }

  void value(int depth) {
    if (depth > 64) fail("nesting too deep");
    const char c = peek();
    if (c == '{') {
      object(depth);
    } else if (c == '[') {
      array(depth);
    } else if (c == '"') {
      (void)string();
    } else if (c == '-' || (c >= '0' && c <= '9')) {
      (void)number();
    } else if (s_.substr(i_, 4) == "true" || s_.substr(i_, 4) == "null") {
      i_ += 4;
    } else if (s_.substr(i_, 5) == "false") {
      i_ += 5;
    } else {
      fail("not a JSON value");
    }
  }

  void object(int depth) {
    expect('{');
    double elmore = std::numeric_limits<double>::quiet_NaN();
    double lower = elmore;
    double exact = elmore;
    bool has_exact = false;
    skip_ws();
    if (peek() == '}') {
      ++i_;
      return;
    }
    for (;;) {
      skip_ws();
      const std::string_view key = string();
      skip_ws();
      expect(':');
      skip_ws();
      const char c = peek();
      if (c == '-' || (c >= '0' && c <= '9')) {
        const double v = number();
        if (key == "elmore_s" || key == "elmore") elmore = v;
        if (key == "lower_bound_s" || key == "lower_bound") lower = v;
        if (key == "exact_delay_s" || key == "exact_delay") {
          exact = v;
          has_exact = true;
        }
      } else {
        value(depth + 1);
      }
      skip_ws();
      if (peek() == ',') {
        ++i_;
        continue;
      }
      expect('}');
      break;
    }
    if (has_exact) {
      if (std::isnan(elmore) || std::isnan(lower)) fail("exact row without its bounds");
      check_sandwich(lower, exact, elmore, what_);
      ++exact_rows_;
    }
  }

  void array(int depth) {
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++i_;
      return;
    }
    for (;;) {
      skip_ws();
      value(depth + 1);
      skip_ws();
      if (peek() == ',') {
        ++i_;
        continue;
      }
      expect(']');
      return;
    }
  }

  /// The raw (still escaped) contents of a string token.
  std::string_view string() {
    expect('"');
    const std::size_t start = i_;
    while (i_ < s_.size() && s_[i_] != '"') {
      const auto c = static_cast<unsigned char>(s_[i_]);
      if (c < 0x20) fail("control character in string");
      if (c == '\\') {
        ++i_;
        const char e = peek();
        if (e == 'u') {
          for (int k = 1; k <= 4; ++k)
            if (!std::isxdigit(static_cast<unsigned char>(i_ + k < s_.size() ? s_[i_ + k] : 0)))
              fail("bad \\u escape");
          i_ += 4;
        } else if (std::string_view("\"\\/bfnrt").find(e) == std::string_view::npos) {
          fail("bad escape");
        }
      }
      ++i_;
    }
    if (i_ >= s_.size()) fail("unterminated string");
    const std::string_view out = s_.substr(start, i_ - start);
    ++i_;
    return out;
  }

  double number() {
    const std::size_t start = i_;
    if (peek() == '-') ++i_;
    if (peek() == '0') {
      ++i_;
    } else if (peek() >= '1' && peek() <= '9') {
      while (peek() >= '0' && peek() <= '9') ++i_;
    } else {
      fail("bad number");
    }
    if (peek() == '.') {
      ++i_;
      if (!(peek() >= '0' && peek() <= '9')) fail("bad fraction");
      while (peek() >= '0' && peek() <= '9') ++i_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++i_;
      if (peek() == '+' || peek() == '-') ++i_;
      if (!(peek() >= '0' && peek() <= '9')) fail("bad exponent");
      while (peek() >= '0' && peek() <= '9') ++i_;
    }
    const std::string token(s_.substr(start, i_ - start));
    const double v = std::strtod(token.c_str(), nullptr);
    if (!std::isfinite(v)) fail("number overflows a double");
    return v;
  }

  std::string_view s_;
  std::string_view what_;
  std::size_t i_ = 0;
  std::size_t exact_rows_ = 0;
};

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

}  // namespace

std::size_t check_json(std::string_view text, std::string_view what) {
  return JsonChecker(text, what).run();
}

JsonObject& JsonObject::num(std::string_view k, double value) {
  key(k);
  char buf[40];
  if (std::isfinite(value))
    std::snprintf(buf, sizeof(buf), "%.9g", value);
  else
    std::snprintf(buf, sizeof(buf), "null");
  body_ += buf;
  return *this;
}

JsonObject& JsonObject::str(std::string_view k, std::string_view value) {
  key(k);
  body_ += '"';
  for (const char c : value) {
    if (c == '"' || c == '\\') body_ += '\\';
    body_ += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  body_ += '"';
  return *this;
}

JsonObject& JsonObject::raw(std::string_view k, std::string_view json) {
  key(k);
  body_ += json;
  return *this;
}

void JsonObject::key(std::string_view k) {
  if (body_.size() > 1) body_ += ',';
  body_ += '"';
  body_ += k;
  body_ += "\":";
}

std::string fingerprint_json() {
  const char* fault_env = std::getenv("RCT_FAULT");
  return JsonObject()
      .num("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)))
      .str("cpu", cpu_model())
      .str("build_type", RCTBENCH_BUILD_TYPE)
      .str("rct_obs", rct::obs::kTimingEnabled ? "ON" : "OFF")
      .str("rct_fault", RCT_FAULT_ENABLED ? "ON" : "OFF")
      .str("rct_fault_env", fault_env != nullptr ? fault_env : "")
      .str("compiler", __VERSION__)
      .done();
}

}  // namespace rctbench
