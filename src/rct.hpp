#pragma once
// Umbrella header: the whole RC-tree timing toolkit with one include.
//
//   #include "rct.hpp"
//
// Layering (each header is independently includable):
//   obs      -> metrics registry + scoped tracing (no deps)
//   linalg   -> numeric kernels
//   rctree   -> circuit model, parsers, generators, transforms
//   moments  -> O(N) moment engine
//   analysis -> per-tree derived arrays for one report (TreeContext)
//   sim      -> exact / transient / distributed simulation
//   core     -> the paper's bounds and metrics
//   engine   -> parallel batch analysis (thread pool, net cache)

#include "analysis/tree_context.hpp"
#include "core/awe.hpp"
#include "core/bounds.hpp"
#include "core/elmore.hpp"
#include "core/generalized_input.hpp"
#include "core/metrics.hpp"
#include "core/penfield_rubinstein.hpp"
#include "core/pi_model.hpp"
#include "core/prima.hpp"
#include "core/report.hpp"
#include "core/variation.hpp"
#include "engine/batch.hpp"
#include "engine/net_cache.hpp"
#include "engine/thread_pool.hpp"
#include "moments/admittance.hpp"
#include "moments/central.hpp"
#include "moments/path_tracing.hpp"
#include "obs/instruments.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rctree/circuits.hpp"
#include "rctree/dot_export.hpp"
#include "rctree/generators.hpp"
#include "rctree/netlist_parser.hpp"
#include "rctree/rctree.hpp"
#include "rctree/spef.hpp"
#include "rctree/transform.hpp"
#include "rctree/units.hpp"
#include "sim/ac.hpp"
#include "sim/convolve.hpp"
#include "sim/distributed.hpp"
#include "sim/rlc_line.hpp"
#include "sim/exact.hpp"
#include "sim/mna.hpp"
#include "sim/sources.hpp"
#include "sim/transient.hpp"
#include "sim/waveform.hpp"
