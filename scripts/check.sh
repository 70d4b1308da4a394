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
#      batch analyzer), the TreeContext tests, the obs registry/tracer
#      tests, the robustness tests (deadline/retry/fault injection), the
#      timing-server tests (concurrent clients, disk store) and the CLI
#      batch/serve end-to-end tests under TSan.
#   2. Trace validation: the TSan-built CLI emits a Chrome trace + metrics
#      snapshot, checked against a small JSON schema (python3) that also
#      requires the fused path's engine.batch.index span; the
#      Prometheus exposition is validated structurally twice — once from a
#      --metrics-out file and once scraped over GET /metrics from a live
#      TSan-built daemon (scripts/validate_prom.py).
#   2b. Chaos gate: a live TSan-built daemon with socket faults armed via
#      RCT_FAULT (mid-request disconnect, torn write); the retry client
#      must land every command and a disrupted report must match an
#      undisturbed rerun byte-for-byte.
#   2c. Striped deck: python3 writes a deck of four index stripes; the
#      TSan-built `rct batch` must print identical stdout (--json and text)
#      at --jobs 1 and --jobs 4.
#   3. AddressSanitizer+UBSan build; runs the full ctest suite, then drives
#      the ASan CLI over every deck in testdata/malformed (strict + lenient):
#      each must exit 1 with a diagnostic — never crash, never succeed;
#      finally re-runs the store-GC crash-recovery, socket-chaos,
#      cached-render, short-row store round-trip, store version/range,
#      warm-read, fused-cache and SPEF line-scanner suites by name so a
#      renamed/deleted suite cannot pass silently.
#   4. Perf gate: in-process A/B of two builds of bench/probe (a shared
#      module with a private copy of the library) through
#      scripts/ab_gate.py, whose decision rule scripts/test_ab_gate.py
#      checks first on synthetic timings.  Three PIC Release trees:
#      build-perf (working tree, RCT_OBS=ON), build-perf-off (working tree,
#      RCT_OBS=OFF), both with warnings as errors, and build-perf-base
#      (`git archive HEAD` with the working tree's bench/ copied over it, so
#      both modules run one harness and only src/ differs).  obs mode fails
#      if the ON build reads >2% slower than the OFF build on
#      shared/line/16384 in each of 3 rounds; perf mode fails if the
#      working tree reads >5% slower than HEAD on any probe workload in
#      each of 3 rounds.  A module that fails to load or
#      set up, or a HEAD that cannot build the probe, exits 2.
#
# Usage: scripts/check.sh [--tsan-only|--asan-only|--perf-only]
# Build trees land in build-tsan/, build-asan/, build-perf/, build-perf-off/
# and build-perf-base/ (gitignored).

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
MODE="${1:-all}"

# --- lint: no per-call tree walks in the derived-array consumers ------------
# RCTree::depth / RCTree::path_resistance / RCTree::subtree_capacitance cost
# O(depth) or O(subtree) per call; code in these layers must read the
# TreeContext arrays instead.  Add a file here (regex, one per line) only
# with a comment justifying the exemption.
LINT_DIRS=(src/core src/moments src/sim src/engine)
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
# Parsers, core analysis, the simulator and the engine report failures as
# robust::Error so per-net records carry a code and category.  src/linalg is
# exempt: it has no rct_robust dependency, and its few throws get classified
# by the callers that catch them.
ROBUST_DIRS=(src/rctree src/core src/sim src/engine)
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
# The fused batch path's serial head (index + header pass) is its own span.
assert any(e["ph"] == "X" and e["name"] == "engine.batch.index" for e in events), \
    "span missing: engine.batch.index"

metrics = json.load(open(sys.argv[2]))
assert metrics["schema_version"] == 1, "schema_version"
for section in ("counters", "gauges", "histograms"):
    assert isinstance(metrics[section], dict), section
for name in ("engine.cache.hits", "engine.tasks.run", "pool.tasks.run"):
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
  # the body through validate_prom.py.  The daemon also writes its own
  # --trace-out, and one client-traced report (its tape crosses from the
  # connection thread to a pool worker under TSan) is stitched client-side;
  # both files are checked after shutdown.
  SERVE_SOCK=build-tsan/check-serve.sock
  SERVE_OUT=build-tsan/check-serve.out
  SERVE_TRACE=build-tsan/check-serve-trace.json
  CLIENT_TRACE=build-tsan/check-client-trace.json
  rm -f "$SERVE_SOCK" "$SERVE_TRACE" "$CLIENT_TRACE"
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tools/rct serve \
    --listen "$SERVE_SOCK" --http 0 --trace-out "$SERVE_TRACE" > "$SERVE_OUT" 2>&1 &
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
    --trace-out "$CLIENT_TRACE" report net_a > /dev/null
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
  SERVED=$(TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tools/rct client "$SERVE_SOCK" stats |
    python3 -c 'import json, sys; print(json.loads(sys.stdin.read())["requests"])')
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tools/rct client "$SERVE_SOCK" shutdown \
    > /dev/null
  wait "$SERVE_PID" 2> /dev/null || true
  trap - EXIT
  # `stats` counts itself; the shutdown request follows it.
  python3 - "$SERVE_TRACE" "$CLIENT_TRACE" "$((SERVED + 1))" <<'PY'
import json, sys
served = json.load(open(sys.argv[1]))["traceEvents"]
roots = [e for e in served if e["ph"] == "X" and e["name"] == "server.request"]
assert len(roots) == int(sys.argv[3]), \
    f"{len(roots)} server.request events for {sys.argv[3]} requests served"
stitched = json.load(open(sys.argv[2]))["traceEvents"]
names = {e["name"] for e in stitched if e["ph"] == "X" and e["pid"] == 2}
phases = {"server.request", "server.queue_wait", "server.cache.lookup",
          "server.context.build", "server.report.build", "server.render"}
assert phases <= names, f"stitched slice lacks {sorted(phases - names)}"
print(f"serve trace OK ({len(roots)} requests, one root span each); "
      f"stitched slice OK ({len(names)} server span names)")
PY

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

  echo "== striped deck: TSan-built rct batch stdout at --jobs 1 vs 4 =="
  # testdata/two_nets.spef is far below one index stripe.  This deck spans
  # four, so the striped index, the parallel JSON render and the worker-side
  # cache teardown all run under TSan; stdout must not depend on --jobs.
  python3 - build-tsan/striped.spef <<'PY'
import random, sys
rng = random.Random(19)
blocks = ['*SPEF "IEEE 1481-1998"\n*DESIGN "striped"\n*T_UNIT 1 NS\n*C_UNIT 1 PF\n'
          "*R_UNIT 1 OHM\n\n"]
def net(name, prefix, parents, caps, res):
    nodes = [f"{prefix}{k}" for k in range(1, len(parents) + 1)]
    lines = [f"*D_NET {name} {sum(caps):.6g}", "*CONN", "*P drv I"]
    lines += [f"*I {nodes[k]} O" for k in range(len(nodes)) if k not in parents]
    lines += ["*CAP"] + [f"{k + 1} {nodes[k]} {c:.6g}" for k, c in enumerate(caps)]
    lines += ["*RES"] + [f"{k + 1} {'drv' if p < 0 else nodes[p]} {nodes[k]} {r:.6g}"
                         for k, (p, r) in enumerate(zip(parents, res))]
    blocks.append("\n".join(lines + ["*END", "", ""]))
    return len(blocks[-1])
size, i = 0, 0
while size < 4 * 256 * 1024:
    n = rng.randint(4, 20)
    parents = [rng.randrange(-1, k) if k else -1 for k in range(n)]
    caps = [rng.uniform(0.001, 0.1) for _ in range(n)]
    res = [rng.uniform(5.0, 200.0) for _ in range(n)]
    size += net(f"net{i}", f"n{i}_", parents, caps, res)
    if i % 2 == 0:  # a renamed content twin: a row-cache hit
        size += net(f"twin{i}", f"t{i}_", parents, caps, res)
    i += 1
open(sys.argv[1], "w").write("".join(blocks))
PY
  for jobs in 1 4; do
    TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tools/rct batch build-tsan/striped.spef \
      --jobs "$jobs" --json > "build-tsan/striped.json.$jobs" 2> /dev/null
    TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tools/rct batch build-tsan/striped.spef \
      --jobs "$jobs" > "build-tsan/striped.text.$jobs" 2> /dev/null
  done
  cmp build-tsan/striped.json.1 build-tsan/striped.json.4
  cmp build-tsan/striped.text.1 build-tsan/striped.text.4
  echo "striped deck: $(wc -c < build-tsan/striped.spef) bytes, stdout identical at --jobs 1 and 4"
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
                "batch $deck --lenient --jobs 2" "validate $deck" \
                "validate $deck --jobs 4"; do
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

  echo "== store GC crash-recovery + socket chaos + cached render + fused cache + SPEF scanner under ASan =="
  # The DiskStoreGc suite injects a crash between the eviction journal
  # write and the first unlink, then recovers on reopen; the Chaos suite
  # drives torn writes / short reads / oversized lines over real sockets;
  # the ServerRender suite splices live node names into cached row bytes
  # shared by content twins; the store round-trip tests read the smallest
  # (moments-only) rows back, in process and across a server restart; the
  # store version/range tests rewrite an entry as an older build's (a
  # miss, then rewritten) and hand-build one whose row names a node past
  # its tree (corrupt, never rendered); the SpefFusedCache suite runs
  # content twins through the fused parse+analyze path, which frees each
  # parsed net on its worker; the Framing suite and the one-worker hand-off
  # test drive the socket line buffers and the stack-held pool completion
  # record; the warm-read tests answer memory hits on the calling thread
  # (beside a pinned worker, under a deadline, traced) and count each
  # report once on every cache path; the listen-spec tests drive the shared socket layer's error
  # paths (port range, long unix paths, a telemetry bind failure) and
  # SpefOpen the one deck opener; the SpefScanner suite parses pinned edge
  # cases from heap buffers of their exact size, so the line scanner's
  # reads near a line's (and the buffer's) end are bounds-checked.  Already
  # part of the full ctest run above, but gated by name so a filter-level
  # regression (renamed/deleted suite) cannot pass silently.
  (cd build-asan &&
    ASAN_OPTIONS="detect_leaks=0" UBSAN_OPTIONS="halt_on_error=1" \
      ./tests/test_server --gtest_filter='DiskStoreGc.*:Chaos.*:ServerRender.*:ReportSerialization.ShortMomentsOnlyRowsRoundTrip:Server.OlderStoreVersionIsAMissAndIsRewritten:Server.StoreRowNodeOutOfRangeIsCorruptAndRecomputed:Server.StoreServesShortBoundsRowsAfterRestart:Framing.*:Server.ConcurrentWarmReadsOnOneWorkerMatchSerialAnswers:Server.WarmReadAnswersWhileTheWorkerIsBusyAndIsNeverShed:Server.CacheCountersCountEachReportOnceOnEveryPath:Server.WarmReadHonorsTheRequestDeadline:Server.TracedWarmReadTapesItsPhasesWithoutAQueueWait:Server.MaxConnectionsDefaultIsFinite:DiskStore.EntryPathIsStableAcrossBuilds:Server.PortAboveRangeIsRejectedByListenerHttpAndClient:Server.OverlongUnixPathIsRejectedByListenerHttpAndClient:Server.TelemetryBindFailureLeavesNothingListening:SpefOpen.MissingPathIsFileOpenThroughEveryEntryPoint' \
        --gtest_fail_fast &&
    ASAN_OPTIONS="detect_leaks=0" UBSAN_OPTIONS="halt_on_error=1" \
      ./tests/test_spef_parallel --gtest_filter='SpefFusedCache.*' --gtest_fail_fast &&
    ASAN_OPTIONS="detect_leaks=0" UBSAN_OPTIONS="halt_on_error=1" \
      ./tests/test_spef --gtest_filter='SpefScanner.*' --gtest_fail_fast)
fi

if [[ "$MODE" == "all" || "$MODE" == "--perf-only" ]]; then
  echo "== perf gate: ab_gate.py decision rule on synthetic timings =="
  python3 scripts/test_ab_gate.py

  # HEAD's sources with the working tree's bench/ over them.  tar and cp -p
  # keep the files' times, so an unchanged HEAD does not rebuild.
  BASE=build-perf-base
  rm -rf "$BASE/src" && mkdir -p "$BASE/src"
  git archive HEAD | tar -x -C "$BASE/src"
  rm -rf "$BASE/src/bench" && cp -rp bench "$BASE/src/bench"

  # Position-independent code lets bench/probe link the static libraries
  # into a shared module; without it the probe target does not exist.
  # The working tree's two trees also build src/ warning-free (-Werror);
  # HEAD's tree does not, so a HEAD that still warns can serve as the base.
  build_probe() {  # build dir, source dir, RCT_OBS, RCT_WARNINGS_AS_ERRORS
    cmake -B "$1" -S "$2" -DCMAKE_BUILD_TYPE=Release -DRCT_SANITIZE="" \
      -DRCT_BUILD_BENCH=ON -DCMAKE_POSITION_INDEPENDENT_CODE=ON -DRCT_OBS="$3" \
      -DRCT_WARNINGS_AS_ERRORS="$4" > /dev/null &&
      cmake --build "$1" -j"$JOBS" --target probe
  }
  build_probe build-perf . ON ON
  build_probe build-perf-off . OFF ON
  if ! build_probe "$BASE/build" "$BASE/src" ON OFF; then
    echo "perf gate: HEAD's sources cannot build the working tree's bench/probe"
    exit 2
  fi

  echo "== obs overhead gate: RCT_OBS=ON vs a real RCT_OBS=OFF build (tolerance 2%) =="
  python3 scripts/ab_gate.py obs build-perf/bench/probe.so build-perf-off/bench/probe.so

  echo "== perf gate: the working tree vs HEAD, every probe workload (tolerance 5%) =="
  python3 scripts/ab_gate.py perf "$BASE/build/bench/probe.so" build-perf/bench/probe.so
fi

echo "check.sh: all sanitizer passes green"
