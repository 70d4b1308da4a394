#include "engine/parallel_parse.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "engine/thread_pool.hpp"
#include "obs/flight.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rctree/arena.hpp"

namespace rct::engine {
namespace {

obs::Counter& sections_total_counter() {
  static obs::Counter& c = obs::registry().counter("parse.sections.total");
  return c;
}
obs::Counter& sections_completed_counter() {
  static obs::Counter& c = obs::registry().counter("parse.sections.completed");
  return c;
}
obs::Histogram& index_histogram() {
  static obs::Histogram& h = obs::registry().histogram("parse.index.seconds");
  return h;
}
obs::Histogram& section_histogram() {
  static obs::Histogram& h = obs::registry().histogram("parse.nets.seconds");
  return h;
}

double wall_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// Scratch arena reused across the sections a worker parses; its blocks are
/// released when the worker thread exits (pool destruction).
Arena& worker_arena() {
  thread_local Arena arena;
  return arena;
}

/// Typed code of a shard's strict-mode error, for the flight recorder.
robust::Code error_code_of(const std::exception_ptr& error) {
  if (!error) return robust::Code::kNone;
  try {
    std::rethrow_exception(error);
  } catch (const robust::Error& e) {
    return e.code();
  } catch (...) {
    return robust::Code::kTaskFailure;
  }
}

/// spef::prepare_spef with the index striped across `pool`'s workers
/// (spef::stripe_count); serial when `pool` is null.
spef::ParsePlan prepare_on(ThreadPool* pool, std::string_view text,
                           const SpefParseOptions& options) {
  if (pool == nullptr) return spef::prepare_spef(text, options);
  return spef::prepare_spef(
      text, options, spef::stripe_count(text.size(), pool->thread_count()),
      [pool](std::size_t n, const std::function<void(std::size_t)>& fn) {
        pool->parallel_for(n, fn);
      });
}

/// One section parse with its observability shell: the per-thread arena
/// reused across calls, the completion counter, the parse.nets.seconds
/// sample and the flight recorder "parse" event.
spef::ShardResult parse_section_task(std::string_view text, const spef::ParsePlan& plan,
                                     std::size_t index, const SpefParseOptions& options) {
  // The flight event's clock is read only while the ring is armed.
  obs::flight::Recorder& fr = obs::flight::recorder();
  const bool flight = fr.enabled();
  const std::uint64_t flight_start_ns = flight ? obs::tracer().now_ns() : 0;
  spef::ShardResult result;
  {
    const obs::Span span("engine.parse.section", "engine", {}, &section_histogram());
    Arena& arena = worker_arena();
    result = spef::parse_spef_section(text, plan, index, options, arena);
    arena.reset();
  }
  sections_completed_counter().add();
  // One flight event per section: named by the net it carried (a section
  // holds at most one *D_NET), or its first line when the net was rejected.
  if (flight) {
    char fallback[32];
    std::string_view label;
    if (!result.nets.empty()) {
      label = result.nets.front().name;
    } else {
      std::snprintf(fallback, sizeof(fallback), "line %zu",
                    plan.layout.sections[index].first_line);
      label = fallback;
    }
    const bool failed = result.error != nullptr || result.nets_rejected != 0;
    fr.record(label, "parse",
              failed ? obs::flight::Outcome::kFailed : obs::flight::Outcome::kOk,
              error_code_of(result.error), obs::tracer().now_ns() - flight_start_ns);
  }
  return result;
}

}  // namespace

namespace detail {

ParsedSections parse_sections(ThreadPool* pool, std::string_view text,
                              const SpefParseOptions& options, ParseStats& stats,
                              const SectionHooks& hooks) {
  ParsedSections out;
  {
    std::optional<obs::Span> span;
    if (hooks.index_span != nullptr) span.emplace(hooks.index_span, "engine");
    const auto index_start = std::chrono::steady_clock::now();
    out.plan = prepare_on(pool, text, options);
    stats.index_seconds = wall_since(index_start);
  }
  if constexpr (obs::kTimingEnabled) index_histogram().observe(stats.index_seconds);

  const std::size_t n = out.plan.layout.sections.size();
  stats.sections = n;
  sections_total_counter().add(n);
  const bool fan_out = pool != nullptr && n >= 2;
  stats.threads = fan_out ? pool->thread_count() : 1;
  obs::log::info("engine.parse.start", {{"sections", static_cast<std::uint64_t>(n)},
                                        {"jobs", static_cast<std::uint64_t>(stats.threads)},
                                        {"bytes", static_cast<std::uint64_t>(text.size())}});
  if (hooks.indexed) hooks.indexed(n);

  std::optional<obs::Span> span;
  if (hooks.sections_span != nullptr) span.emplace(hooks.sections_span, "engine");
  const auto sections_start = std::chrono::steady_clock::now();
  out.sections.resize(n);
  // Every section writes only its preassigned slot: the file-order merge
  // walks slots, so scheduling never shows in the output.
  const auto parse_one = [&](std::size_t i) {
    out.sections[i] = parse_section_task(text, out.plan, i, options);
    if (hooks.parsed) hooks.parsed(i, out.sections[i]);
  };
  if (fan_out) {
    pool->parallel_for(n, parse_one);
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      parse_one(i);
      if (out.sections[i].error) break;  // strict: nothing later can be observed
    }
  }
  stats.sections_seconds = wall_since(sections_start);
  return out;
}

}  // namespace detail

std::string ParseStats::summary() const {
  const double mb = static_cast<double>(bytes) / 1e6;
  const double wall = total_seconds > 0.0 ? total_seconds : 1e-12;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "parse: %.1f MB, %zu net(s) from %zu section(s), %zu rejected, "
                "%zu thread(s); index %.3fs, sections %.3fs, total %.3fs wall "
                "(%.1f MB/s, %.0f nets/s)",
                mb, nets, sections, nets_rejected, threads, index_seconds, sections_seconds,
                total_seconds, mb / wall, static_cast<double>(nets) / wall);
  return buf;
}

ParsedSpef parse_spef_parallel(std::string_view text, const ParseOptions& options) {
  const auto total_start = std::chrono::steady_clock::now();
  const obs::Span span("engine.parse", "engine", options.spef.path);

  ParsedSpef out;
  out.stats.bytes = text.size();

  // Created before the index, which it stripes; the section count that
  // could have sized it is not known until the index is done.
  std::optional<ThreadPool> pool;
  if (options.jobs != 1) pool.emplace(options.jobs);

  auto [plan, sections] =
      detail::parse_sections(pool ? &*pool : nullptr, text, options.spef, out.stats);
  out.file = spef::merge_spef(std::move(plan), std::move(sections), options.spef);
  out.stats.nets = out.file.nets.size();
  out.stats.nets_rejected = out.file.nets_rejected;
  out.stats.total_seconds = wall_since(total_start);
  obs::log::info("engine.parse.done",
                 {{"nets", static_cast<std::uint64_t>(out.stats.nets)},
                  {"rejected", static_cast<std::uint64_t>(out.stats.nets_rejected)},
                  {"wall_s", out.stats.total_seconds}});
  return out;
}

ParsedSpef parse_spef_parallel_file(const std::string& path, const ParseOptions& options) {
  ParseOptions with_path = options;
  const MappedFile file = map_spef_file(path, with_path.spef);
  return parse_spef_parallel(file.view(), with_path);
}

}  // namespace rct::engine
