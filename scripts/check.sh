#!/usr/bin/env bash
# Sanitizer + lint gate for the concurrent engine (and everything else).
#
#   0. Source lint: the hot analysis layers must not call the per-walk
#      RCTree accessors (use analysis::TreeContext arrays instead).
#   0b. Robustness lint: src/{rctree,core,engine} must throw typed
#      robust::Error (or std::invalid_argument for caller bugs), never bare
#      std::runtime_error — the engine's failure records depend on codes.
#   0c. JSON lint: src/ and tools/ hold no JSON escaper or append_json_*
#      helper outside src/obs/json.cpp (rct::json is the one writer).
#   1. ThreadSanitizer build; runs the engine tests (thread pool, net cache,
#      batch analyzer), the shared-TreeContext tests, the obs registry/tracer
#      tests, the robustness tests (deadline/retry/fault injection), the
#      timing-server tests (concurrent clients, disk store) and the CLI
#      batch/serve end-to-end tests under TSan.
#   2. Trace validation: the TSan-built CLI emits a Chrome trace + metrics
#      snapshot, checked against a small JSON schema (python3); the
#      Prometheus exposition is validated structurally twice — once from a
#      --metrics-out file and once scraped over GET /metrics from a live
#      TSan-built daemon (scripts/validate_prom.py).
#   2b. Chaos gate: a live TSan-built daemon with socket faults armed via
#      RCT_FAULT (mid-request disconnect, torn write); the retry client
#      must land every command and a disrupted report must match an
#      undisturbed rerun byte-for-byte.
#   3. AddressSanitizer+UBSan build; runs the full ctest suite, then drives
#      the ASan CLI over every deck in testdata/malformed (strict + lenient):
#      each must exit 1 with a diagnostic — never crash, never succeed;
#      finally re-runs the store-GC crash-recovery and socket-chaos suites
#      by name so a renamed/deleted suite cannot pass silently.
#   4. Perf gate (full runs only): rebuilds the benches in Release, re-runs
#      perf_batch / perf_report / perf_serve / perf_parse on the baseline
#      workloads and diffs against the committed BENCH_*.json with
#      scripts/perf_compare.py; a >PERF_THRESHOLD (default 10%) real_time
#      growth fails the gate.
#
# Usage: scripts/check.sh [--tsan-only|--asan-only|--perf-only]
# Build trees land in build-tsan/, build-asan/ and build-perf/ (gitignored).

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
MODE="${1:-all}"

# --- lint: no per-call tree walks in the derived-array consumers ------------
# RCTree::depth / RCTree::path_resistance / RCTree::subtree_capacitance cost
# O(depth) or O(subtree) per call; code in these layers must read the
# TreeContext arrays instead.  Add a file here (regex, one per line) only
# with a comment justifying the exemption.
LINT_DIRS=(src/core src/moments src/sim src/sta src/engine)
LINT_ALLOWLIST_RE='^$'  # no exemptions today
echo "== lint: per-call RCTree accessors in ${LINT_DIRS[*]} =="
LINT_HITS=$(grep -rnE '\.(depth|path_resistance|subtree_capacitance)\(' "${LINT_DIRS[@]}" \
  | grep -vE "$LINT_ALLOWLIST_RE" || true)
if [[ -n "$LINT_HITS" ]]; then
  echo "$LINT_HITS"
  echo "lint: per-call RCTree accessor in a derived-array layer; use"
  echo "      analysis::TreeContext (or extend LINT_ALLOWLIST_RE with a reason)"
  exit 1
fi

# --- lint: raw stderr writes in the engine and the server -------------------
# The engine and the serve daemon report through obs::log (structured,
# rate-limited, routable); a raw fprintf(stderr, ...) bypasses --log-out,
# breaks JSON-lines consumers and dodges the rate limiter.  The daemon case
# is worse: its stderr may be detached entirely.
echo "== lint: raw fprintf(stderr, ...) in src/engine src/server =="
STDERR_HITS=$(grep -rn 'fprintf(stderr' src/engine src/server || true)
if [[ -n "$STDERR_HITS" ]]; then
  echo "$STDERR_HITS"
  echo "lint: use obs::log::{debug,info,warn,error} instead of fprintf(stderr, ...)"
  exit 1
fi

# --- lint: untyped runtime_error throws in the robustness-covered layers ----
# Parsers, core analysis and the engine report failures as robust::Error so
# per-net records carry a code and category.  Lower layers (sim, linalg)
# are exempt: their exceptions get classified at the engine boundary.
ROBUST_DIRS=(src/rctree src/core src/engine)
echo "== lint: bare 'throw std::runtime_error' in ${ROBUST_DIRS[*]} =="
ROBUST_HITS=$(grep -rn 'throw std::runtime_error' "${ROBUST_DIRS[@]}" || true)
if [[ -n "$ROBUST_HITS" ]]; then
  echo "$ROBUST_HITS"
  echo "lint: use robust::Error with a typed Code instead of std::runtime_error"
  exit 1
fi

# --- lint: one JSON writer ---------------------------------------------------
# Every JSON byte rct writes goes through rct::json (src/obs/json.cpp); the
# six private escapers it replaced had already drifted apart.  A `\u%04x`
# escape or an append_json_* definition anywhere else is a second writer.
echo "== lint: JSON writers outside src/obs/json.cpp =="
JSON_HITS=$( (grep -rnFi '\\u%04x' src tools;
              grep -rnE '[A-Za-z0-9_>&*]\s+append_json_[A-Za-z0-9_]*\s*\(' src tools) \
  | grep -v '^src/obs/json\.cpp:' || true)
if [[ -n "$JSON_HITS" ]]; then
  echo "$JSON_HITS"
  echo "lint: write JSON with rct::json::append_{string,number,us} (src/obs/json.hpp)"
  exit 1
fi

configure_and_build() {
  local dir="$1" sanitize="$2"
  shift 2
  cmake -B "$dir" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DRCT_SANITIZE="$sanitize" \
    -DRCT_BUILD_BENCH=OFF -DRCT_BUILD_EXAMPLES=OFF
  cmake --build "$dir" -j"$JOBS" "$@"
}

if [[ "$MODE" == "all" || "$MODE" == "--tsan-only" ]]; then
  echo "== ThreadSanitizer: engine + analysis + obs + server tests =="
  configure_and_build build-tsan thread --target test_engine --target test_analysis \
    --target test_obs --target test_report_equivalence --target test_robust \
    --target test_server --target test_cli --target test_spef_parallel --target rct_cli
  (cd build-tsan &&
    TSAN_OPTIONS="halt_on_error=1" ./tests/test_engine &&
    TSAN_OPTIONS="halt_on_error=1" ./tests/test_spef_parallel &&
    TSAN_OPTIONS="halt_on_error=1" ./tests/test_analysis &&
    TSAN_OPTIONS="halt_on_error=1" ./tests/test_obs &&
    TSAN_OPTIONS="halt_on_error=1" ./tests/test_report_equivalence &&
    TSAN_OPTIONS="halt_on_error=1" ./tests/test_robust &&
    TSAN_OPTIONS="halt_on_error=1" ./tests/test_server &&
    TSAN_OPTIONS="halt_on_error=1" ./tests/test_cli \
      --gtest_filter='Cli.Batch*:Cli.SpefMetricsOut:Cli.Fault*:Cli.Serve*:Cli.Client*')

  echo "== trace/metrics schema validation (TSan-built CLI) =="
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tools/rct batch testdata/two_nets.spef \
    --jobs 4 --trace-out build-tsan/trace.json --metrics-out build-tsan/metrics.json \
    > /dev/null 2> /dev/null
  python3 - build-tsan/trace.json build-tsan/metrics.json <<'PY'
import json, sys
trace = json.load(open(sys.argv[1]))
assert trace["displayTimeUnit"] == "ms", "displayTimeUnit"
events = trace["traceEvents"]
assert isinstance(events, list) and events, "traceEvents empty"
cats = set()
for e in events:
    assert {"name", "ph", "pid", "tid"} <= e.keys(), f"missing keys: {e}"
    if e["ph"] == "M":
        continue
    assert e["ph"] == "X", f"unexpected phase {e['ph']}"
    assert isinstance(e["ts"], (int, float)) and isinstance(e["dur"], (int, float))
    assert e["dur"] >= 0, "negative duration"
    cats.add(e["cat"])
assert {"cli", "engine", "pool", "analysis", "core"} <= cats, f"layers missing: {cats}"

metrics = json.load(open(sys.argv[2]))
assert metrics["schema_version"] == 1, "schema_version"
for section in ("counters", "gauges", "histograms"):
    assert isinstance(metrics[section], dict), section
for name in ("engine.cache.hits", "engine.context.built", "pool.tasks.run"):
    assert name in metrics["counters"], f"counter missing: {name}"
for name in ("engine.net.analyze_seconds", "analysis.context.build_seconds"):
    hist = metrics["histograms"][name]
    assert hist["buckets"][-1]["le"] == "inf", f"{name}: no overflow bucket"
    assert sum(b["count"] for b in hist["buckets"]) == hist["count"], f"{name}: counts"
print(f"trace OK ({len(events)} events, layers: {sorted(cats)}); metrics OK "
      f"({len(metrics['counters'])} counters, {len(metrics['histograms'])} histograms)")
PY

  echo "== Prometheus exposition validation (TSan-built CLI) =="
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tools/rct batch testdata/two_nets.spef \
    --jobs 4 --metrics-format prom --metrics-out build-tsan/metrics.prom \
    > /dev/null 2> /dev/null
  python3 scripts/validate_prom.py build-tsan/metrics.prom

  echo "== live GET /metrics from a TSan-built daemon =="
  # The same structural validator, but against the HTTP telemetry listener
  # of a running (TSan-built) daemon instead of a --metrics-out file: start
  # the daemon with an ephemeral telemetry port, feed it one load+report,
  # scrape /metrics with python's stdlib (no curl in the image) and pipe
  # the body through validate_prom.py.
  SERVE_SOCK=build-tsan/check-serve.sock
  SERVE_OUT=build-tsan/check-serve.out
  rm -f "$SERVE_SOCK"
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tools/rct serve \
    --listen "$SERVE_SOCK" --http 0 > "$SERVE_OUT" 2>&1 &
  SERVE_PID=$!
  trap 'kill "$SERVE_PID" 2> /dev/null || true' EXIT
  for _ in $(seq 1 250); do
    if TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tools/rct client "$SERVE_SOCK" ping \
        > /dev/null 2>&1; then break; fi
    sleep 0.02
  done
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tools/rct client "$SERVE_SOCK" \
    load testdata/two_nets.spef > /dev/null
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tools/rct client "$SERVE_SOCK" \
    report net_a > /dev/null
  HTTP_PORT=$(sed -n 's#^telemetry on http://127\.0\.0\.1:##p' "$SERVE_OUT")
  [[ -n "$HTTP_PORT" ]] || { echo "FAIL: no telemetry announce line"; cat "$SERVE_OUT"; exit 1; }
  python3 - "$HTTP_PORT" <<'PY' | python3 scripts/validate_prom.py -
import sys, urllib.request
with urllib.request.urlopen(f"http://127.0.0.1:{sys.argv[1]}/metrics", timeout=10) as r:
    assert r.status == 200, f"GET /metrics: {r.status}"
    ct = r.headers.get("Content-Type", "")
    assert "version=0.0.4" in ct, f"Content-Type {ct!r}"
    sys.stdout.write(r.read().decode())
PY
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tools/rct client "$SERVE_SOCK" shutdown \
    > /dev/null
  wait "$SERVE_PID" 2> /dev/null || true
  trap - EXIT

  echo "== chaos: fault-injected daemon vs retry client (TSan) =="
  # A live daemon with socket-layer faults armed through RCT_FAULT: the
  # first response send hits a mid-request disconnect, a later one a torn
  # write.  The client's --retries reconnect+backoff must land every
  # command anyway, and a disrupted-then-retried report must be
  # byte-identical to an undisturbed rerun.
  CHAOS_SOCK=build-tsan/check-chaos.sock
  CHAOS_OUT=build-tsan/check-chaos.out
  rm -f "$CHAOS_SOCK"
  RCT_FAULT='server.conn.disconnect=throwx1; server.conn.write=throwx1' \
    TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tools/rct serve \
    --listen "$CHAOS_SOCK" > "$CHAOS_OUT" 2>&1 &
  CHAOS_PID=$!
  trap 'kill "$CHAOS_PID" 2> /dev/null || true' EXIT
  for _ in $(seq 1 250); do
    if TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tools/rct client "$CHAOS_SOCK" ping \
        --retries 5 > /dev/null 2>&1; then break; fi
    sleep 0.02
  done
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tools/rct client "$CHAOS_SOCK" \
    load testdata/two_nets.spef --retries 5 > /dev/null
  CHAOS_A=$(TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tools/rct client "$CHAOS_SOCK" \
    report net_a --retries 5)
  echo "$CHAOS_A" | grep -q '"ok":true' \
    || { echo "FAIL: chaos report did not succeed: $CHAOS_A"; exit 1; }
  # Both faults are consumed by now; two quiet reruns must agree with each
  # other AND with the row payload of the disrupted run.
  CHAOS_B=$(TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tools/rct client "$CHAOS_SOCK" \
    report net_a --retries 5)
  CHAOS_C=$(TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tools/rct client "$CHAOS_SOCK" \
    report net_a --retries 5)
  [[ "$CHAOS_B" == "$CHAOS_C" ]] \
    || { echo "FAIL: chaos reruns differ"; echo "$CHAOS_B"; echo "$CHAOS_C"; exit 1; }
  [[ "${CHAOS_A#*\"rows\"}" == "${CHAOS_B#*\"rows\"}" ]] \
    || { echo "FAIL: disrupted run's rows differ from the clean rerun"; exit 1; }
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tools/rct client "$CHAOS_SOCK" shutdown \
    --retries 5 > /dev/null
  wait "$CHAOS_PID" 2> /dev/null || true
  trap - EXIT
  echo "chaos daemon: all commands landed through injected socket faults"
fi

if [[ "$MODE" == "all" || "$MODE" == "--asan-only" ]]; then
  echo "== AddressSanitizer+UBSan: full suite =="
  configure_and_build build-asan address,undefined
  (cd build-asan &&
    ASAN_OPTIONS="detect_leaks=0" UBSAN_OPTIONS="halt_on_error=1" \
      ctest --output-on-failure -j"$JOBS")

  echo "== malformed corpus through the ASan CLI (strict + lenient) =="
  for deck in testdata/malformed/*.spef; do
    for args in "batch $deck" "batch $deck --lenient --jobs 4" \
                "batch $deck --lenient --parse-jobs 2" "validate $deck" \
                "validate $deck --parse-jobs 4"; do
      set +e
      ASAN_OPTIONS="detect_leaks=0" UBSAN_OPTIONS="halt_on_error=1" \
        ./build-asan/tools/rct $args > /dev/null 2> /dev/null
      status=$?
      set -e
      # Structured failure (1) or lenient success (0); anything else —
      # usage error, sanitizer abort, signal — fails the gate.
      if [[ "$status" -ne 0 && "$status" -ne 1 ]]; then
        echo "FAIL: rct $args exited $status (expected 0 or 1)"
        exit 1
      fi
    done
  done
  echo "malformed corpus: every deck handled without a crash"

  echo "== store GC crash-recovery + socket chaos under ASan =="
  # The DiskStoreGc suite injects a crash between the eviction journal
  # write and the first unlink, then recovers on reopen; the Chaos suite
  # drives torn writes / short reads / oversized lines over real sockets.
  # Already part of the full ctest run above, but gated by name so a
  # filter-level regression (renamed/deleted suite) cannot pass silently.
  (cd build-asan &&
    ASAN_OPTIONS="detect_leaks=0" UBSAN_OPTIONS="halt_on_error=1" \
      ./tests/test_server --gtest_filter='DiskStoreGc.*:Chaos.*' --gtest_fail_fast)
fi

if [[ "$MODE" == "all" || "$MODE" == "--perf-only" ]]; then
  PERF_THRESHOLD="${PERF_THRESHOLD:-0.10}"
  echo "== perf gate: committed BENCH_*.json baselines (threshold ${PERF_THRESHOLD}) =="
  cmake -B build-perf -S . \
    -DCMAKE_BUILD_TYPE=Release -DRCT_SANITIZE="" -DRCT_BUILD_BENCH=ON > /dev/null
  cmake --build build-perf -j"$JOBS" \
    --target perf_batch --target perf_report --target perf_serve --target perf_parse
  # Workloads must match the ones the committed baselines were generated
  # with — see each BENCH_*.json "context" block.  BENCH_obs.json is a
  # metrics snapshot, not a perf_compare-compatible benchmark file, so it
  # is deliberately not gated here.
  ./build-perf/bench/perf_batch 200 40 2 \
    --benchmark_out=build-perf/BENCH_batch.json > /dev/null
  ./build-perf/bench/perf_report \
    --benchmark_out=build-perf/BENCH_report.json > /dev/null
  ./build-perf/bench/perf_serve \
    --benchmark_out=build-perf/BENCH_serve.json > /dev/null
  ./build-perf/bench/perf_parse 20000 16 4 \
    --benchmark_out=build-perf/BENCH_parse.json > /dev/null
  for bench in batch report serve parse; do
    echo "-- perf_compare: BENCH_${bench}.json --"
    python3 scripts/perf_compare.py "BENCH_${bench}.json" \
      "build-perf/BENCH_${bench}.json" --threshold "$PERF_THRESHOLD"
  done
fi

echo "check.sh: all sanitizer passes green"
