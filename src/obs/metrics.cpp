#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "obs/json.hpp"

namespace rct::obs {
namespace {

/// Relaxed CAS add for atomic<double> (fetch_add on floating atomics is
/// C++20 but this spells out the loop the TSan-checked path actually runs).
void atomic_add(std::atomic<double>& a, double d) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v < cur && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v > cur && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

/// Prometheus metric name for a dotted registry name: `rct_` prefix, every
/// character outside [a-zA-Z0-9_] mapped to '_'.
std::string prometheus_name(std::string_view name) {
  std::string out = "rct_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

}  // namespace

bool write_text(const std::string& path, std::string_view body) {
  if (path == "-") {
    std::fwrite(body.data(), 1, body.size(), stderr);
    return true;
  }
  std::ofstream out(path);
  if (!out) return false;
  out << body;
  return static_cast<bool>(out);
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)),
      buckets_(bounds_.size() + 1),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {
  if (!std::is_sorted(bounds_.begin(), bounds_.end()) ||
      std::adjacent_find(bounds_.begin(), bounds_.end()) != bounds_.end())
    throw std::invalid_argument("Histogram: bounds must be strictly increasing");
}

void Histogram::observe(double v) {
  // First bucket with bound >= v (le semantics); past-the-end = overflow.
  const std::size_t i = std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin();
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, v);
  atomic_min(min_, v);
  atomic_max(max_, v);
}

double Histogram::min() const {
  const double m = min_.load(std::memory_order_relaxed);
  return std::isfinite(m) ? m : 0.0;
}

double Histogram::max() const {
  const double m = max_.load(std::memory_order_relaxed);
  return std::isfinite(m) ? m : 0.0;
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
}

double Histogram::quantile(double q) const {
  q = std::clamp(q, 0.0, 1.0);
  // One coherent local copy of the counts: the total is derived from the
  // same loads that position the rank, so a concurrent observe() can only
  // shift the estimate by the in-flight samples, never corrupt it.
  const std::size_t n = bounds_.size();
  std::vector<std::uint64_t> counts(n + 1);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i <= n; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  if (total == 0) return 0.0;
  const double lo_obs = min();
  const double hi_obs = max();
  const double rank = q * static_cast<double>(total);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i <= n; ++i) {
    if (counts[i] == 0) continue;
    if (static_cast<double>(cum + counts[i]) >= rank) {
      // The open edges of the distribution (below the first bound, above
      // the last) have no finite bucket width; the observed extrema are
      // the tightest monotone caps available.
      const double lo = i == 0 ? std::min(lo_obs, bounds_.empty() ? lo_obs : bounds_[0])
                               : bounds_[i - 1];
      const double hi = i < n ? bounds_[i] : hi_obs;
      const double frac = (rank - static_cast<double>(cum)) / static_cast<double>(counts[i]);
      return std::clamp(lo + (hi - lo) * frac, lo_obs, hi_obs);
    }
    cum += counts[i];
  }
  return hi_obs;
}

const std::vector<double>& Histogram::default_latency_bounds() {
  // 1-2-5 series, 1 us .. 50 s: per-net analysis sits in the us..ms decades,
  // whole-batch phases in the ms..s decades.
  static const std::vector<double> kBounds = [] {
    std::vector<double> b;
    for (double decade = 1e-6; decade < 20.0; decade *= 10.0)
      for (const double m : {1.0, 2.0, 5.0}) b.push_back(decade * m);
    return b;
  }();
  return kBounds;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end())
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end())
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  return histogram(name, Histogram::default_latency_bounds());
}

Histogram& MetricsRegistry::histogram(std::string_view name, std::vector<double> upper_bounds) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end())
    it = histograms_
             .emplace(std::string(name), std::make_unique<Histogram>(std::move(upper_bounds)))
             .first;
  return *it->second;
}

std::uint64_t MetricsRegistry::counter_value(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

const Histogram* MetricsRegistry::find_histogram(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

void MetricsRegistry::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

std::string MetricsRegistry::to_json() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"schema_version\":1,\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out += ',';
    first = false;
    json::append_string(out, name);
    out += ':' + std::to_string(c->value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out += ',';
    first = false;
    json::append_string(out, name);
    out += ':';
    json::append_number(out, g->value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ',';
    first = false;
    json::append_string(out, name);
    out += ":{\"buckets\":[";
    const auto bounds = h->bounds();
    for (std::size_t i = 0; i <= bounds.size(); ++i) {
      if (i > 0) out += ',';
      out += "{\"le\":";
      if (i < bounds.size())
        json::append_number(out, bounds[i]);
      else
        out += "\"inf\"";
      out += ",\"count\":" + std::to_string(h->bucket_count(i)) + '}';
    }
    out += "],\"count\":" + std::to_string(h->count());
    out += ",\"sum\":";
    json::append_number(out, h->sum());
    out += ",\"min\":";
    json::append_number(out, h->min());
    out += ",\"max\":";
    json::append_number(out, h->max());
    out += ",\"p50\":";
    json::append_number(out, h->quantile(0.50));
    out += ",\"p95\":";
    json::append_number(out, h->quantile(0.95));
    out += ",\"p99\":";
    json::append_number(out, h->quantile(0.99));
    out += '}';
  }
  out += "}}";
  return out;
}

std::string MetricsRegistry::to_prometheus() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  const auto emit_header = [&out](const std::string& prom_name, const std::string& raw_name,
                                  const char* type) {
    out += "# HELP " + prom_name + " rct " + type + " " + raw_name + "\n";
    out += "# TYPE " + prom_name + " " + type + "\n";
  };
  const auto number = [](double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return std::string(buf);
  };
  for (const auto& [name, c] : counters_) {
    const std::string prom = prometheus_name(name);
    emit_header(prom, name, "counter");
    out += prom + ' ' + std::to_string(c->value()) + '\n';
  }
  for (const auto& [name, g] : gauges_) {
    const std::string prom = prometheus_name(name);
    emit_header(prom, name, "gauge");
    out += prom + ' ' + number(g->value()) + '\n';
  }
  for (const auto& [name, h] : histograms_) {
    const std::string prom = prometheus_name(name);
    emit_header(prom, name, "histogram");
    // Prometheus buckets are cumulative, ours are per-bucket: accumulate.
    const auto bounds = h->bounds();
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      cum += h->bucket_count(i);
      char le[40];
      std::snprintf(le, sizeof(le), "%g", bounds[i]);
      out += prom + "_bucket{le=\"" + le + "\"} " + std::to_string(cum) + '\n';
    }
    cum += h->bucket_count(bounds.size());
    out += prom + "_bucket{le=\"+Inf\"} " + std::to_string(cum) + '\n';
    out += prom + "_sum " + number(h->sum()) + '\n';
    // _count repeats the +Inf cumulative count (required equal by the
    // exposition format), not a separate count_ load that could race ahead.
    out += prom + "_count " + std::to_string(cum) + '\n';
  }
  return out;
}

MetricsRegistry& registry() {
  static MetricsRegistry instance;
  return instance;
}

}  // namespace rct::obs
