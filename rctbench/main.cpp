// rctbench — end-to-end benchmark of the rct library.
//
//   rctbench gen --workload W --seed N --deck DIR
//   rctbench run --workload W --seed N --seconds S --trace 0|1 --deck DIR --work DIR
//
// `run` prints the host fingerprint, a detail object, one line per metric
// (name, value, unit) and, last, the result object
//   {"correct":true,"attempted":N,"failed":N,"metrics":{name:{"value":v,"unit":u}}}
// A failed correctness check exits 1 without printing a result.  run.py
// wraps both subcommands (build, deck generation, clean-up).

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "rctbench: %s\nusage: rctbench gen --workload W --seed N --deck DIR\n"
               "       rctbench run --workload W --seed N --seconds S --trace 0|1 "
               "--deck DIR --work DIR\n",
               msg);
  std::exit(2);
}

std::string result_line(const rctbench::Result& r) {
  std::string metrics;
  for (const rctbench::Metric& m : r.metrics) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    if (!metrics.empty()) metrics += ',';
    metrics += "\"" + m.name + "\":{\"value\":" + buf + ",\"unit\":\"" + m.unit + "\"}";
  }
  return "{\"correct\":true,\"attempted\":" + std::to_string(r.attempted) +
         ",\"failed\":" + std::to_string(r.failed) + ",\"metrics\":{" + metrics + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage("missing subcommand");
  const std::string cmd = argv[1];
  rctbench::RunOptions opt;
  for (int i = 2; i < argc; i += 2) {
    if (i + 1 >= argc) usage("flag without a value");
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") opt.workload = value;
    else if (flag == "--seed") opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") opt.seconds = std::strtod(value.c_str(), nullptr);
    else if (flag == "--trace") opt.trace = value == "1";
    else if (flag == "--deck") opt.deck_dir = value;
    else if (flag == "--work") opt.work_dir = value;
    else usage(("unknown flag " + flag).c_str());
  }
  if (opt.workload.empty() || opt.deck_dir.empty()) usage("--workload and --deck are required");

  try {
    if (cmd == "gen") {
      rctbench::generate_deck(opt.workload, opt.seed, opt.deck_dir);
      return 0;
    }
    if (cmd != "run") usage("unknown subcommand");
    if (opt.work_dir.empty() || !(opt.seconds > 0.0)) usage("--work and --seconds > 0 required");
    rctbench::Result result;
    if (opt.workload == "batch_exact" || opt.workload == "batch_moments_stamped")
      result = rctbench::run_batch(opt);
    else if (opt.workload == "serve_mixed")
      result = rctbench::run_serve(opt);
    else
      usage("unknown workload");
    std::printf("# fingerprint %s\n# detail %s\n", rctbench::fingerprint_json().c_str(),
                result.detail_json.c_str());
    for (const rctbench::Metric& m : result.metrics)
      std::printf("# %-28s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    std::printf("%s\n", result_line(result).c_str());
    return 0;
  } catch (const rctbench::OracleError& e) {
    std::fprintf(stderr, "rctbench: correctness check failed: %s\n", e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rctbench: %s\n", e.what());
  }
  return 1;
}
