// Shared pieces of the two run modes (end_to_end.cpp, layers.cpp).
#ifndef RLCBENCH_BENCH_H
#define RLCBENCH_BENCH_H

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/engine.h"
#include "workloads.h"

namespace rlcbench {

struct Config {
  Kind kind = Kind::bulk_fastest;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool smoke = false;
  std::string trace_dir;  // where the traced run writes its spans ("" = nowhere)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What a run prints as its last line.  `failed` counts slots whose outcome
// breaks the Engine's contract (an internal_error, or an answer that is not
// a finite positive delay/slew); contractual per-slot errors are answers.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  // failed output checks
  std::vector<Metric> metrics;
  bool correct() const { return failed == 0 && problems.empty(); }
};

// The untraced run: every end-to-end metric of BENCHMARK.json.
Result run_end_to_end(const Config& config);
// The traced run: every per-layer metric of BENCHMARK.json.
Result run_traced(const Config& config);

// A fresh Engine with the workload's cells characterized cold on one worker.
std::unique_ptr<api::Engine> cold_engine(const std::vector<double>& cell_sizes);

// Whether an answered slot's numbers are usable timing figures.
bool sane_answer(const api::Response& r);

double median(std::vector<double> values);

inline bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace rlcbench

#endif  // RLCBENCH_BENCH_H
