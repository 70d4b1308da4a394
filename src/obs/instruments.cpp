#include "obs/instruments.hpp"

namespace rct::obs {
namespace {

/// Ratio buckets (1-2-5 from 0.01% to 200%) for dimensionless relative gaps.
const std::vector<double>& ratio_bounds() {
  static const std::vector<double> bounds = {1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2,
                                             2e-2, 5e-2, 0.1,  0.2,  0.5,  1.0,  2.0};
  return bounds;
}

void* find_or_create(const Instrument& row) {
  if (row.kind == Kind::kCounter) return &registry().counter(row.name);
  if (row.kind == Kind::kGauge) return &registry().gauge(row.name);
  return &registry().histogram(row.name, row.kind == Kind::kRatio
                                             ? ratio_bounds()
                                             : Histogram::default_latency_bounds());
}

}  // namespace

void* detail::resolve(std::size_t i) {
  const Instrument& row = kInstruments[i];
  for (std::size_t j = 0; j < std::size(kInstruments); ++j)
    if (j == i || (row.group != Group::kNone && kInstruments[j].group == row.group))
      slots[j].store(find_or_create(kInstruments[j]), std::memory_order_release);
  return slots[i].load(std::memory_order_acquire);
}

std::uint64_t counter_value(C id) {
  const void* c = detail::slots[static_cast<std::size_t>(id)].load(std::memory_order_acquire);
  return c != nullptr ? static_cast<const Counter*>(c)->value() : 0;
}

const Histogram* find_histogram(H id) {
  return static_cast<const Histogram*>(
      detail::slots[static_cast<std::size_t>(id)].load(std::memory_order_acquire));
}

}  // namespace rct::obs
