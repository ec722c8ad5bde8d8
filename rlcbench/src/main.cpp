// rlcbench — runs one workload and prints its metrics.
//
//   rlcbench --workload NAME --seed N --seconds S --trace 0|1
//            [--smoke] [--trace-dir DIR]
//
// --trace 0 is the untraced run (every end-to-end metric); --trace 1 the
// traced run (every per-layer metric; spans go to DIR/NAME.trace.json).
// --smoke shrinks every workload for the benchmark's own tests.
//
// Human-readable lines come first; the last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.h"

namespace {

using namespace rlcbench;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload bulk_fastest|fleet_balanced|fig7_replay --seed N "
               "--seconds S --trace 0|1 [--smoke] [--trace-dir DIR]\n",
               argv0);
  return 2;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

void print_result(const Result& r) {
  for (const std::string& p : r.problems) std::printf("  CHECK FAILED: %s\n", p.c_str());
  std::string line = "{\"correct\": ";
  line += r.correct() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(r.attempted);
  line += ", \"failed\": " + std::to_string(r.failed);
  line += ", \"metrics\": {";
  for (std::size_t k = 0; k < r.metrics.size(); ++k) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(r.metrics[k].value) ? r.metrics[k].value : 0.0);
    line += (k == 0 ? "" : ", ") + json_string(r.metrics[k].name) + ": {\"value\": " + value +
            ", \"unit\": " + json_string(r.metrics[k].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  bool have_workload = false;
  int trace = -1;
  for (int k = 1; k < argc; ++k) {
    const std::string arg = argv[k];
    const bool has_value = k + 1 < argc;
    if (arg == "--workload" && has_value) {
      if (!parse_kind(argv[++k], config.kind)) return usage(argv[0]);
      have_workload = true;
    } else if (arg == "--seed" && has_value) {
      config.seed = std::strtoull(argv[++k], nullptr, 0);
    } else if (arg == "--seconds" && has_value) {
      config.seconds = std::atof(argv[++k]);
    } else if (arg == "--trace" && has_value) {
      trace = std::atoi(argv[++k]);
    } else if (arg == "--trace-dir" && has_value) {
      config.trace_dir = argv[++k];
    } else if (arg == "--smoke") {
      config.smoke = true;
    } else {
      return usage(argv[0]);
    }
  }
  try {
    if (!have_workload || (trace != 0 && trace != 1) || !(config.seconds > 0.0)) {
      return usage(argv[0]);
    }
    print_result(trace == 1 ? run_traced(config) : run_end_to_end(config));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rlcbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
