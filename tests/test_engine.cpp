// Tests for src/engine: thread pool, content-addressed net cache, and the
// parallel batch analyzer.  The load-bearing guarantees:
//
//   * determinism — an N-thread batch is bit-identical to a 1-thread batch,
//   * caching — content-identical nets (names aside) skip recomputation,
//   * isolation — one net failing is reported per-net, never process-fatal.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "engine/batch.hpp"
#include "engine/net_cache.hpp"
#include "engine/thread_pool.hpp"
#include "helpers.hpp"
#include "obs/json.hpp"
#include "rctree/generators.hpp"
#include "rctree/spef.hpp"
#include "robust/error.hpp"

namespace rct::engine {
namespace {

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/// Same topology and R/C values, fresh node names.
using rct::testing::renamed;

SpefNet make_net(std::string name, RCTree tree) {
  SpefNet net;
  net.name = std::move(name);
  net.driver = tree.empty() ? "" : tree.name(tree.children_of_source().front());
  if (!tree.empty()) net.loads = tree.leaves();
  net.tree = std::move(tree);
  return net;
}

std::vector<SpefNet> random_nets(std::size_t count, std::size_t nodes) {
  std::vector<SpefNet> nets;
  nets.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    RCTree t = gen::random_tree(nodes, /*seed=*/1000 + i);
    nets.push_back(make_net(std::string("net").append(std::to_string(i)), renamed(t, "n" + std::to_string(i) + "_")));
  }
  return nets;
}

void expect_rows_identical(const std::vector<core::NodeReport>& a,
                           const std::vector<core::NodeReport>& b,
                           bool compare_names = true) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (compare_names) {
      EXPECT_EQ(a[i].node, b[i].node);
    }
    EXPECT_EQ(a[i].depth, b[i].depth);
    // Bit-identical, not approximately equal: the merge is deterministic and
    // each net's math is single-threaded, so nothing may perturb a ULP.
    EXPECT_EQ(a[i].elmore, b[i].elmore);
    EXPECT_EQ(a[i].sigma, b[i].sigma);
    EXPECT_EQ(a[i].skewness, b[i].skewness);
    EXPECT_EQ(a[i].lower_bound, b[i].lower_bound);
    EXPECT_EQ(a[i].single_pole, b[i].single_pole);
    EXPECT_EQ(a[i].prh_tmin, b[i].prh_tmin);
    EXPECT_EQ(a[i].prh_tmax, b[i].prh_tmax);
    EXPECT_EQ(a[i].exact_delay, b[i].exact_delay);
    EXPECT_EQ(a[i].exact_rise, b[i].exact_rise);
  }
}

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i)
    pool.submit([&count] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPool, ParallelForCoversEveryIndex) {
  ThreadPool pool(3);
  std::vector<int> hit(257, 0);
  pool.parallel_for(hit.size(), [&hit](std::size_t i) { hit[i] = 1; });
  for (std::size_t i = 0; i < hit.size(); ++i) EXPECT_EQ(hit[i], 1) << i;
}

TEST(ThreadPool, ParallelForRethrowsTheLowestFailingIndex) {
  // The striped index and the parallel JSON render run on parallel_for: a
  // failure on a worker (bad_alloc, say) must reach the caller, not leave a
  // silently missing stripe or part.
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  try {
    pool.parallel_for(64, [&ran](std::size_t i) {
      ran.fetch_add(1);
      if (i == 40 || i == 17) throw std::runtime_error("index " + std::to_string(i));
    });
    FAIL() << "parallel_for swallowed the exceptions";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "index 17");
  }
  EXPECT_EQ(ran.load(), 64);
  pool.parallel_for(4, [&ran](std::size_t) { ran.fetch_add(1); });  // still usable
  EXPECT_EQ(ran.load(), 68);
}

TEST(ThreadPool, SurvivesThrowingTasks) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 8; ++i)
    pool.submit([] { throw std::runtime_error("task failure"); });
  pool.submit([&count] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, WaitIdleOnIdlePoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
}

TEST(ThreadPool, TasksMaySubmitTasks) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.submit([&pool, &count] {
    for (int i = 0; i < 10; ++i)
      pool.submit([&count] { count.fetch_add(1); });
  });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 10);
}

// ---------------------------------------------------------------------------
// NetKey / NetCache
// ---------------------------------------------------------------------------

TEST(NetCache, KeyIgnoresNodeNames) {
  const RCTree a = gen::random_tree(30, 7);
  const RCTree b = renamed(a, "other_");
  const core::ReportOptions opt;
  EXPECT_EQ(NetKey::of(a, opt), NetKey::of(b, opt));
  EXPECT_EQ(NetKey::of(a, opt).hash, NetKey::of(b, opt).hash);
}

TEST(NetCache, KeySeesValueAndOptionChanges) {
  const RCTree a = gen::random_tree(30, 7);
  RCTreeBuilder b;
  for (NodeId i = 0; i < a.size(); ++i)
    b.add_node(a.name(i), a.parent(i), a.resistance(i),
               a.capacitance(i) * (i == 5 ? 1.0000001 : 1.0));
  const RCTree perturbed = std::move(b).build();
  core::ReportOptions opt;
  EXPECT_FALSE(NetKey::of(a, opt) == NetKey::of(perturbed, opt));
  core::ReportOptions other = opt;
  other.fraction = 0.4;
  EXPECT_FALSE(NetKey::of(a, opt) == NetKey::of(a, other));
}

TEST(NetCache, KeyHashSpreadsEvenlyOverShards) {
  // The low bits of NetKey::hash pick one of NetCache's 16 shards (and the
  // bucket inside it); no shard may carry more than 1.5x its share.
  std::array<int, 16> per_shard{};
  const core::ReportOptions opt;
  for (std::uint64_t seed = 0; seed < 4096; ++seed) {
    const RCTree tree = gen::random_tree(4 + seed % 29, seed);
    ++per_shard[NetKey::of(tree, opt).hash % per_shard.size()];
  }
  const int mean = 4096 / 16;
  for (std::size_t s = 0; s < per_shard.size(); ++s)
    EXPECT_LE(per_shard[s] * 2, mean * 3) << "shard " << s << " holds " << per_shard[s];
}

TEST(NetCache, HitReturnsRowsWithReboundNames) {
  const RCTree a = gen::random_tree(25, 11);
  const RCTree b = renamed(a, "copy_");
  const core::ReportOptions opt;
  NetCache cache;
  EXPECT_FALSE(cache.lookup(NetKey::of(a, opt)).has_value());
  const auto rows = core::build_report(a, opt);
  cache.insert(NetKey::of(a, opt), rows);
  EXPECT_EQ(cache.size(), 1u);
  const auto hit = cache.lookup(NetKey::of(b, opt));
  ASSERT_TRUE(hit.has_value());
  ASSERT_EQ(hit->size(), b.size());
  for (NodeId i = 0; i < b.size(); ++i) {
    EXPECT_EQ((*hit)[i].node, i);
    EXPECT_EQ((*hit)[i].elmore, rows[i].elmore);
  }
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(NetCache, ContentKeyIgnoresOptions) {
  const RCTree a = gen::random_tree(20, 13);
  core::ReportOptions opt;
  opt.fraction = 0.9;
  // Option changes separate the keys; node names stay out of them.
  EXPECT_FALSE(NetKey::of(a, {}) == NetKey::of(a, opt));
  EXPECT_EQ(NetKey::of(a, {}), NetKey::of(renamed(a, "x_"), {}));
}

TEST(NetCache, LruCapEvictsOldestAndCountsEvictions) {
  // One shard so the cap is exact, not split.
  NetCache cache(/*shards=*/1, /*max_entries=*/2);
  const core::ReportOptions opt;
  std::vector<RCTree> trees;
  std::vector<NetKey> keys;
  for (std::size_t i = 0; i < 3; ++i) {
    trees.push_back(gen::random_tree(20, /*seed=*/500 + i));
    keys.push_back(NetKey::of(trees[i], opt));
    cache.insert(keys[i], core::build_report(trees[i], opt));
  }
  // Third insert displaced the oldest (tree 0); the two newest remain.
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_FALSE(cache.lookup(keys[0]).has_value());
  EXPECT_TRUE(cache.lookup(keys[1]).has_value());
  EXPECT_TRUE(cache.lookup(keys[2]).has_value());
}

TEST(NetCache, LruLookupRefreshesRecency) {
  NetCache cache(/*shards=*/1, /*max_entries=*/2);
  const core::ReportOptions opt;
  std::vector<RCTree> trees;
  std::vector<NetKey> keys;
  for (std::size_t i = 0; i < 2; ++i) {
    trees.push_back(gen::random_tree(20, /*seed=*/600 + i));
    keys.push_back(NetKey::of(trees[i], opt));
    cache.insert(keys[i], core::build_report(trees[i], opt));
  }
  // Touch tree 0 so tree 1 becomes the LRU victim of the next insert.
  EXPECT_TRUE(cache.lookup(keys[0]).has_value());
  const RCTree third = gen::random_tree(20, /*seed=*/700);
  cache.insert(NetKey::of(third, opt), core::build_report(third, opt));
  EXPECT_TRUE(cache.lookup(keys[0]).has_value());
  EXPECT_FALSE(cache.lookup(keys[1]).has_value());
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(NetCache, UnboundedDefaultNeverEvicts) {
  NetCache cache(/*shards=*/1);  // max_entries defaults to 0 = unbounded
  const core::ReportOptions opt;
  for (std::size_t i = 0; i < 32; ++i) {
    const RCTree t = gen::random_tree(15, /*seed=*/800 + i);
    cache.insert(NetKey::of(t, opt), core::build_report(t, opt));
  }
  EXPECT_EQ(cache.size(), 32u);
  EXPECT_EQ(cache.evictions(), 0u);
}

/// A stand-in rendering: the cache never reads the bytes, only holds them.
std::shared_ptr<const Rendering> fake_rendering(const std::string& text, std::size_t rows) {
  auto r = std::make_shared<Rendering>();
  r->text = text;
  for (std::size_t i = 1; i <= rows; ++i)
    r->row_ends.push_back(text.size() * i / rows);
  return r;
}

TEST(NetCacheRender, EmptySlotUntilAttachedAndFlavorsAreSeparate) {
  const RCTree a = gen::random_tree(20, 31);
  const core::ReportOptions opt;
  const NetKey key = NetKey::of(a, opt);
  NetCache cache;
  EXPECT_EQ(cache.lookup_rendered(key, RenderFlavor::kReport).source, CacheSource::kMiss);
  cache.insert(key, core::build_report(a, opt));

  // An entry with no rendering answers with rows, as lookup() would.
  const NetCache::RenderedLookup plain = cache.lookup_rendered(key, RenderFlavor::kReport);
  EXPECT_EQ(plain.source, CacheSource::kMemory);
  EXPECT_EQ(plain.rendering, nullptr);
  ASSERT_TRUE(plain.rows.has_value());
  EXPECT_EQ(plain.rows->size(), a.size());
  EXPECT_EQ(cache.rendered_bytes(), 0u);

  const auto bytes = fake_rendering("report-bytes", a.size());
  EXPECT_EQ(cache.attach_rendering(key, RenderFlavor::kReport, bytes), bytes);
  EXPECT_EQ(cache.rendered_bytes(), bytes->bytes());
  const NetCache::RenderedLookup warm = cache.lookup_rendered(key, RenderFlavor::kReport);
  EXPECT_EQ(warm.source, CacheSource::kMemory);
  EXPECT_EQ(warm.rendering, bytes);
  EXPECT_FALSE(warm.rows.has_value());  // no row copy on a rendered hit
  // The other flavor's slot is still empty.
  const NetCache::RenderedLookup other = cache.lookup_rendered(key, RenderFlavor::kBounds);
  EXPECT_EQ(other.rendering, nullptr);
  EXPECT_TRUE(other.rows.has_value());
  // Every lookup above (rendered or not) counted as a hit.
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(NetCacheRender, MemoryLookupNeverReachesTheBackendAndCountsOnlyHits) {
  // A backend that holds every key and counts its loads.
  struct CountingBackend final : CacheBackend {
    std::vector<core::NodeReport> rows;
    int loads = 0;
    std::optional<std::vector<core::NodeReport>> load(const NetKey&) override {
      ++loads;
      return rows;
    }
    void save(const NetKey&, const std::vector<core::NodeReport>&) override {}
  };
  const RCTree a = gen::random_tree(20, 32);
  const core::ReportOptions opt;
  const NetKey key = NetKey::of(a, opt);
  auto backend = std::make_shared<CountingBackend>();
  backend->rows = core::build_report(a, opt);
  NetCache cache;
  cache.set_backend(backend);

  // A memory miss counts nothing and touches no backend...
  EXPECT_EQ(cache.lookup_memory(key, RenderFlavor::kReport).source, CacheSource::kMiss);
  EXPECT_EQ(backend->loads, 0);
  EXPECT_EQ(cache.hits() + cache.misses() + cache.backend_hits(), 0u);
  // ...so the full lookup that follows counts the request once.
  EXPECT_EQ(cache.lookup_rendered(key, RenderFlavor::kReport).source, CacheSource::kBackend);
  EXPECT_EQ(backend->loads, 1);
  EXPECT_EQ(cache.backend_hits(), 1u);
  // The promoted entry is now a memory hit, with rows until a rendering is
  // attached and the rendering after.
  const NetCache::RenderedLookup rows = cache.lookup_memory(key, RenderFlavor::kReport);
  EXPECT_EQ(rows.source, CacheSource::kMemory);
  ASSERT_TRUE(rows.rows.has_value());
  EXPECT_EQ(rows.rows->size(), a.size());
  const auto bytes = fake_rendering("report-bytes", a.size());
  (void)cache.attach_rendering(key, RenderFlavor::kReport, bytes);
  const NetCache::RenderedLookup rendered = cache.lookup_memory(key, RenderFlavor::kReport);
  EXPECT_EQ(rendered.rendering, bytes);
  EXPECT_FALSE(rendered.rows.has_value());
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_EQ(backend->loads, 1);
}

TEST(NetCacheRender, FirstAttachWinsAndMissingEntryStoresNothing) {
  const RCTree a = gen::random_tree(20, 32);
  const core::ReportOptions opt;
  const NetKey key = NetKey::of(a, opt);
  NetCache cache;
  const auto first = fake_rendering("first", a.size());
  const auto second = fake_rendering("second-longer", a.size());
  // No entry under the key yet: the candidate comes back, nothing is held.
  EXPECT_EQ(cache.attach_rendering(key, RenderFlavor::kBounds, first), first);
  EXPECT_EQ(cache.rendered_bytes(), 0u);

  cache.insert(key, core::build_report(a, opt));
  EXPECT_EQ(cache.attach_rendering(key, RenderFlavor::kBounds, first), first);
  EXPECT_EQ(cache.attach_rendering(key, RenderFlavor::kBounds, second), first);
  EXPECT_EQ(cache.lookup_rendered(key, RenderFlavor::kBounds).rendering, first);
  EXPECT_EQ(cache.rendered_bytes(), first->bytes());
}

TEST(NetCacheRender, ClearAndLruEvictionDropTheSlot) {
  const core::ReportOptions opt;
  const RCTree a = gen::random_tree(20, 33);
  const RCTree b = gen::random_tree(20, 34);
  const NetKey ka = NetKey::of(a, opt);
  const NetKey kb = NetKey::of(b, opt);

  NetCache cache;
  cache.insert(ka, core::build_report(a, opt));
  (void)cache.attach_rendering(ka, RenderFlavor::kReport, fake_rendering("a", a.size()));
  EXPECT_GT(cache.rendered_bytes(), 0u);
  EXPECT_EQ(cache.clear(), 1u);
  EXPECT_EQ(cache.rendered_bytes(), 0u);
  cache.insert(ka, core::build_report(a, opt));
  EXPECT_EQ(cache.lookup_rendered(ka, RenderFlavor::kReport).rendering, nullptr);

  // One shard, cap 1: inserting b evicts a together with its rendering.
  NetCache capped(/*shards=*/1, /*max_entries=*/1);
  capped.insert(ka, core::build_report(a, opt));
  (void)capped.attach_rendering(ka, RenderFlavor::kReport, fake_rendering("a", a.size()));
  (void)capped.attach_rendering(ka, RenderFlavor::kBounds, fake_rendering("ab", a.size()));
  capped.insert(kb, core::build_report(b, opt));
  EXPECT_EQ(capped.evictions(), 1u);
  EXPECT_EQ(capped.rendered_bytes(), 0u);
  capped.insert(ka, core::build_report(a, opt));  // evicts b; a comes back bare
  EXPECT_EQ(capped.lookup_rendered(ka, RenderFlavor::kReport).rendering, nullptr);
  EXPECT_EQ(capped.lookup_rendered(ka, RenderFlavor::kBounds).rendering, nullptr);
}

TEST(NetCacheRender, ConcurrentFirstHitsAttachExactlyOnce) {
  const RCTree a = gen::random_tree(40, 35);
  const core::ReportOptions opt;
  const NetKey key = NetKey::of(a, opt);
  NetCache cache;
  cache.insert(key, core::build_report(a, opt));

  constexpr std::size_t kThreads = 8;
  std::vector<std::shared_ptr<const Rendering>> served(kThreads);
  std::atomic<std::size_t> ready{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      NetCache::RenderedLookup hit = cache.lookup_rendered(key, RenderFlavor::kReport);
      if (hit.rendering == nullptr)
        hit.rendering = cache.attach_rendering(
            key, RenderFlavor::kReport, fake_rendering("thread-" + std::to_string(t), a.size()));
      served[t] = hit.rendering;
    });
  }
  for (std::thread& th : threads) th.join();
  for (const auto& r : served) EXPECT_EQ(r, served[0]);  // everyone answers from the winner
  EXPECT_EQ(cache.lookup_rendered(key, RenderFlavor::kReport).rendering, served[0]);
  EXPECT_EQ(cache.rendered_bytes(), served[0]->bytes());
  EXPECT_EQ(cache.hits(), kThreads + 1);
}

// ---------------------------------------------------------------------------
// Batch analyzer
// ---------------------------------------------------------------------------

TEST(Batch, MultiThreadResultBitIdenticalToSingleThread) {
  const std::vector<SpefNet> nets = random_nets(24, 30);
  for (const bool use_cache : {false, true}) {
    BatchOptions one;
    one.jobs = 1;
    one.use_cache = use_cache;
    BatchOptions four = one;
    four.jobs = 4;
    const BatchResult r1 = analyze_nets(nets, one);
    const BatchResult r4 = analyze_nets(nets, four);
    EXPECT_EQ(r1.stats.threads, 1u);
    EXPECT_EQ(r4.stats.threads, 4u);
    ASSERT_EQ(r1.nets.size(), nets.size());
    ASSERT_EQ(r4.nets.size(), nets.size());
    for (std::size_t i = 0; i < nets.size(); ++i) {
      EXPECT_EQ(r1.nets[i].name, nets[i].name);
      EXPECT_EQ(r4.nets[i].name, nets[i].name);
      EXPECT_TRUE(r4.nets[i].ok());
      expect_rows_identical(r1.nets[i].rows, r4.nets[i].rows);
    }
    // The deterministic renderers must agree byte for byte.
    const BatchResult* rs[] = {&r1, &r4};
    EXPECT_EQ(format_batch(*rs[0]), format_batch(*rs[1]));
    EXPECT_EQ(format_batch_json(*rs[0]), format_batch_json(*rs[1]));
  }
}

TEST(Batch, CacheHitsOnDuplicatedNets) {
  // One physical net stamped out ten times under different names — the
  // clock-mesh / repeated-macro pattern the cache exists for.
  const RCTree base = gen::random_tree(40, 3);
  std::vector<SpefNet> nets;
  for (int i = 0; i < 10; ++i)
    nets.push_back(make_net("stamp" + std::to_string(i), renamed(base, "s" + std::to_string(i) + "_")));
  nets.push_back(make_net("unique", renamed(gen::random_tree(40, 4), "u_")));

  BatchOptions opt;
  opt.jobs = 1;  // serial: hit/miss accounting is exact
  const BatchResult r = analyze_nets(nets, opt);
  EXPECT_EQ(r.stats.nets, 11u);
  EXPECT_EQ(r.stats.tasks_run, 2u);    // one per distinct content
  EXPECT_EQ(r.stats.cache_hits, 9u);   // all stamps but the first-executed
  EXPECT_EQ(r.stats.failures, 0u);
  // Exactly one stamp was computed; which one depends on pool scheduling.
  std::size_t computed = 0;
  for (int i = 0; i < 10; ++i) {
    if (!r.nets[i].from_cache) ++computed;
    expect_rows_identical(r.nets[0].rows, r.nets[i].rows, /*compare_names=*/false);
  }
  EXPECT_EQ(computed, 1u);
}

TEST(Batch, CachedRowsCarryPerNetNames) {
  // Six stamps of one net: at one job the first computes and five are
  // served from cache.  Whichever stamps hit, both renderers must print
  // each net's own load names, never those of the net that populated the
  // cache.
  const RCTree base = gen::random_tree(12, 9);
  const std::vector<std::string> prefixes = {"s0_", "s1_", "s2_", "s3_", "s4_", "s5_"};
  std::vector<SpefNet> nets;
  for (std::size_t i = 0; i < prefixes.size(); ++i)
    nets.push_back(make_net(std::string("net").append(std::to_string(i)), renamed(base, prefixes[i])));
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    BatchOptions opt;
    opt.jobs = jobs;
    const BatchResult r = analyze_nets(nets, opt);
    std::size_t from_cache = 0;
    for (std::size_t i = 0; i < nets.size(); ++i) {
      if (r.nets[i].from_cache) ++from_cache;
      BatchResult one;
      one.nets.push_back(r.nets[i]);
      const std::string text = format_batch(one);
      const std::string json = format_batch_json(one);
      ASSERT_FALSE(one.nets[0].loads.empty());
      for (const NodeId load : one.nets[0].loads) {
        const std::string name = prefixes[i] + std::to_string(load);
        EXPECT_NE(text.find("  load " + name + " "), std::string::npos) << name << "\n" << text;
        EXPECT_NE(json.find("{\"name\":\"" + name + "\","), std::string::npos) << name;
      }
      for (std::size_t k = 0; k < prefixes.size(); ++k) {
        if (k == i) continue;
        EXPECT_EQ(text.find(prefixes[k]), std::string::npos) << "jobs " << jobs << "\n" << text;
        EXPECT_EQ(json.find(prefixes[k]), std::string::npos) << "jobs " << jobs << "\n" << json;
      }
    }
    if (jobs == 1) {
      EXPECT_EQ(from_cache, nets.size() - 1);
    }
  }
}

TEST(Batch, LeavesOnlyRowsAreRejectedNotRenderedOutOfBounds) {
  // Both renderers index each load's row by node id, so a leaves-only
  // batch (fewer rows than nodes) is a typed rejection; the all-node batch
  // of the same 30-node net renders every load from its own row.
  const std::vector<SpefNet> nets = {make_net("net30", gen::random_tree(30, 31))};
  BatchOptions all;
  all.jobs = 1;
  const BatchResult r = analyze_nets(nets, all);
  ASSERT_TRUE(r.nets[0].ok());
  ASSERT_EQ(r.nets[0].rows.size(), 30u);
  const std::string text = format_batch(r);
  const std::string json = format_batch_json(r);
  for (const NodeId load : r.nets[0].loads) {
    EXPECT_EQ(r.nets[0].rows[load].node, load);
    const std::string name = nets[0].tree.name(load);
    EXPECT_NE(text.find("  load " + name + " "), std::string::npos) << name;
    EXPECT_NE(json.find("{\"name\":\"" + name + "\","), std::string::npos) << name;
  }

  BatchOptions leaves = all;
  leaves.report.leaves_only = true;
  const auto expect_unsupported = [](auto&& analyze) {
    try {
      (void)analyze();
      ADD_FAILURE() << "leaves_only batch was not rejected";
    } catch (const robust::Error& e) {
      EXPECT_EQ(e.code(), robust::Code::kUnsupported);
    }
  };
  expect_unsupported([&] { return analyze_nets(nets, leaves); });
  SpefFile file;
  file.nets = nets;
  expect_unsupported([&] { return analyze_batch(file, leaves); });
}

TEST(Batch, FailingNetIsIsolatedAndReported) {
  std::vector<SpefNet> nets = random_nets(3, 20);
  SpefNet broken;
  broken.name = "broken";
  broken.driver = "none";  // empty tree -> analyze_one throws -> per-net error
  nets.insert(nets.begin() + 1, broken);

  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    BatchOptions opt;
    opt.jobs = jobs;
    const BatchResult r = analyze_nets(nets, opt);
    ASSERT_EQ(r.nets.size(), 4u);
    EXPECT_EQ(r.stats.failures, 1u);
    EXPECT_FALSE(r.nets[1].ok());
    EXPECT_NE(r.nets[1].error.find("broken"), std::string::npos);
    EXPECT_TRUE(r.nets[1].rows.empty());
    for (const std::size_t i : {std::size_t{0}, std::size_t{2}, std::size_t{3}}) {
      EXPECT_TRUE(r.nets[i].ok()) << i;
      EXPECT_FALSE(r.nets[i].rows.empty()) << i;
    }
    // The failure is visible, not fatal, in both renderers.
    EXPECT_NE(format_batch(r).find("error:"), std::string::npos);
    EXPECT_NE(format_batch_json(r).find("\"error\":\"net 'broken'"), std::string::npos);
  }
}

TEST(Batch, AnalyzeBatchConsumesParsedSpef) {
  const char* spef =
      "*SPEF \"IEEE 1481-1998\"\n"
      "*DESIGN \"engine_test\"\n"
      "*T_UNIT 1 NS\n*C_UNIT 1 PF\n*R_UNIT 1 OHM\n"
      "*D_NET na 0.1\n*CONN\n*P d1 I\n*I p1 O\n"
      "*CAP\n1 m1 0.05\n2 p1 0.05\n"
      "*RES\n1 d1 m1 100\n2 m1 p1 100\n*END\n"
      "*D_NET nb 0.1\n*CONN\n*P d2 I\n*I p2 O\n"
      "*CAP\n1 m2 0.05\n2 p2 0.05\n"
      "*RES\n1 d2 m2 100\n2 m2 p2 100\n*END\n";
  BatchOptions opt;
  opt.jobs = 1;  // serial, so the duplicate is guaranteed to hit the cache
  const BatchResult r = analyze_batch(parse_spef(spef), opt);
  EXPECT_EQ(r.design, "engine_test");
  ASSERT_EQ(r.nets.size(), 2u);
  EXPECT_TRUE(r.nets[0].ok());
  EXPECT_TRUE(r.nets[1].ok());
  // nb is a renamed copy of na: the cache must catch it even via SPEF.
  EXPECT_EQ(r.stats.cache_hits, 1u);
  expect_rows_identical(r.nets[0].rows, r.nets[1].rows, /*compare_names=*/false);
  const std::string text = format_batch(r);
  EXPECT_NE(text.find("design 'engine_test': 2 net(s)"), std::string::npos);
  EXPECT_NE(text.find("*D_NET na"), std::string::npos);
  EXPECT_NE(text.find("load p1"), std::string::npos);
}

TEST(Batch, StatsObserveWork) {
  const std::vector<SpefNet> nets = random_nets(6, 25);
  BatchOptions opt;
  opt.jobs = 2;
  opt.use_cache = false;
  const BatchResult r = analyze_nets(nets, opt);
  EXPECT_EQ(r.stats.nets, 6u);
  EXPECT_EQ(r.stats.tasks_run, 6u);
  EXPECT_EQ(r.stats.cache_hits, 0u);
  EXPECT_GE(r.stats.total.wall_s, r.stats.analyze.wall_s);
  EXPECT_GE(r.stats.analyze.wall_s, 0.0);
  EXPECT_GE(r.stats.analyze.cpu_s, 0.0);
  const std::string s = r.stats.summary();
  EXPECT_NE(s.find("6 net(s)"), std::string::npos);
  EXPECT_NE(s.find("2 thread(s)"), std::string::npos);
}

/// A hand-built result: ok nets (some with exact rows, some degraded), a
/// retried net, failed nets with error records, names that need escaping,
/// and enough nets that the renderer splits them across 16 parts.
BatchResult hand_built_batch(std::size_t count) {
  BatchResult r;
  r.design = "hand \"built\"";
  for (std::size_t i = 0; i < count; ++i) {
    NetResult net;
    net.name = i % 97 == 5 ? "esc\\ape\"" + std::to_string(i) : "net" + std::to_string(i);
    net.driver = "drv";
    net.nodes = 2 + i % 5;
    net.total_capacitance = 1e-15 * static_cast<double>(i + 1);
    if (i % 50 == 7) {
      net.error = "net '" + net.name + "' has an empty RC tree";
      net.code = robust::Code::kEmptyTree;
      net.phase = "analyze";
    } else {
      for (std::size_t k = 0; k < 3; ++k) {
        core::NodeReport row{};
        row.node = k;
        row.elmore = 1e-12 * static_cast<double>(k + 1) / static_cast<double>(i + 1);
        row.sigma = row.elmore / 3.0;
        row.lower_bound = row.elmore - row.sigma;
        if (i % 3 == 0) row.exact_delay = 0.5 * (row.elmore + row.lower_bound);
        row.degraded = i % 11 == 0 && k == 1;
        net.rows.push_back(std::move(row));
      }
      net.loads = {2, 0};
      for (const NodeId load : net.loads)
        net.load_names.push_back("n" + std::to_string(i) + "_" + std::to_string(load));
      net.degraded = i % 11 == 0;
    }
    if (i == 13) {
      net.retried = true;
      net.degraded = true;
      net.timed_out = true;
    }
    r.nets.push_back(std::move(net));
  }
  return r;
}

TEST(Batch, JsonRenderIsIdenticalForEveryThreadCount) {
  for (const std::size_t count : {std::size_t{0}, std::size_t{40}, std::size_t{4200}}) {
    BatchResult batch = hand_built_batch(count);
    std::string reference;
    for (const std::size_t threads : {0u, 1u, 3u, 16u}) {
      batch.stats.threads = threads;
      const std::string json = format_batch_json(batch);
      if (threads == 0) {
        reference = json;
        std::string error;
        EXPECT_TRUE(json::parse(json, &error).has_value()) << error;
        continue;
      }
      EXPECT_EQ(reference, json) << count << " nets, " << threads << " threads";
    }
    if (count == 0) {
      EXPECT_EQ(reference, "{\"design\":\"hand \\\"built\\\"\",\"nets\":[]}");
    }
  }
}

}  // namespace
}  // namespace rct::engine
