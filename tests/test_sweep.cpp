// Tests for the parallel scenario sweep runner: ordering, determinism across
// thread counts, and failure semantics.
#include "sim/sweep.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <string>

#include "circuit/netlist.h"
#include "sim/transient.h"
#include "util/error.h"
#include "util/units.h"
#include "waveform/pwl.h"

namespace rlceff::sim {
namespace {

using namespace rlceff::units;

// A per-index workload whose result depends on nothing but the index.
double busy_value(std::size_t i) {
  double acc = static_cast<double>(i) + 1.0;
  for (int k = 0; k < 200; ++k) acc = std::sin(acc) + static_cast<double>(i) * 1e-3;
  return acc;
}

TEST(Sweep, WorkerCountClampsToTasks) {
  EXPECT_EQ(0u, sweep_worker_count(0, 8));
  EXPECT_EQ(3u, sweep_worker_count(3, 8));
  EXPECT_EQ(2u, sweep_worker_count(7, 2));
  EXPECT_GE(sweep_worker_count(100, 0), 1u);  // hardware concurrency, at least one
}

TEST(Sweep, PreservesInputOrder) {
  std::vector<int> scenarios;
  for (int k = 0; k < 37; ++k) scenarios.push_back(k);
  const std::vector<int> results =
      run_sweep(scenarios, [](const int& s) { return 3 * s + 1; }, 4);
  ASSERT_EQ(scenarios.size(), results.size());
  for (int k = 0; k < 37; ++k) EXPECT_EQ(3 * k + 1, results[static_cast<std::size_t>(k)]);
}

TEST(Sweep, DeterministicAcrossThreadCounts) {
  std::vector<std::size_t> scenarios;
  for (std::size_t k = 0; k < 53; ++k) scenarios.push_back(k);
  auto task = [](const std::size_t& i) { return busy_value(i); };

  const std::vector<double> serial = run_sweep(scenarios, task, 1);
  for (unsigned n_threads : {2u, 3u, 8u}) {
    const std::vector<double> parallel = run_sweep(scenarios, task, n_threads);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t k = 0; k < serial.size(); ++k) {
      // Bitwise equality: scheduling must not leak into the results.
      EXPECT_EQ(serial[k], parallel[k]) << "index " << k << " threads " << n_threads;
    }
  }
}

TEST(Sweep, EmptyBatchReturnsEmpty) {
  const std::vector<int> none;
  EXPECT_TRUE(run_sweep(none, [](const int& s) { return s; }, 4).empty());
}

TEST(Sweep, MoreThreadsThanTasks) {
  std::vector<int> scenarios{1, 2, 3};
  const std::vector<int> results =
      run_sweep(scenarios, [](const int& s) { return s * s; }, 16);
  EXPECT_EQ((std::vector<int>{1, 4, 9}), results);
}

TEST(Sweep, LowestFailingIndexIsRethrown) {
  // Two failing tasks; the rethrown exception must be index 3's regardless of
  // thread count, and every non-failing task must still have run.
  for (unsigned n_threads : {1u, 2u, 5u}) {
    std::atomic<int> completed{0};
    try {
      run_indexed_sweep(
          20,
          [&](std::size_t i) {
            if (i == 11 || i == 3) throw Error("task " + std::to_string(i) + " failed");
            completed.fetch_add(1);
          },
          n_threads);
      FAIL() << "expected the sweep to rethrow";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("task 3"), std::string::npos) << e.what();
    }
    EXPECT_EQ(18, completed.load()) << "threads " << n_threads;
  }
}

TEST(Sweep, CollectIsolatesFailuresPerSlot) {
  // Unlike run_sweep, the collect variant never throws: failing slots carry
  // their own exception, every other slot ran its task.
  for (unsigned n_threads : {1u, 2u, 5u}) {
    std::vector<int> results(20, -1);
    const std::vector<std::exception_ptr> errors = run_indexed_sweep_collect(
        results.size(),
        [&](std::size_t i) {
          if (i == 3 || i == 11) throw Error("task " + std::to_string(i) + " failed");
          results[i] = 2 * static_cast<int>(i);
        },
        n_threads);
    ASSERT_EQ(results.size(), errors.size());
    for (std::size_t k = 0; k < results.size(); ++k) {
      if (k == 3 || k == 11) {
        ASSERT_TRUE(errors[k] != nullptr);
        EXPECT_EQ(-1, results[k]);
        try {
          std::rethrow_exception(errors[k]);
        } catch (const Error& e) {
          EXPECT_NE(std::string(e.what()).find("task " + std::to_string(k)),
                    std::string::npos)
              << e.what();
        }
      } else {
        EXPECT_TRUE(errors[k] == nullptr) << "index " << k << " threads " << n_threads;
        EXPECT_EQ(2 * static_cast<int>(k), results[k]);
      }
    }
  }
}

TEST(Sweep, CollectAllSuccessAndAllFailure) {
  const auto ok = run_indexed_sweep_collect(3, [](std::size_t) {}, 2);
  ASSERT_EQ(3u, ok.size());
  for (const std::exception_ptr& error : ok) EXPECT_TRUE(error == nullptr);

  const auto bad =
      run_indexed_sweep_collect(3, [](std::size_t) { throw Error("boom"); }, 2);
  ASSERT_EQ(3u, bad.size());
  for (const std::exception_ptr& error : bad) EXPECT_TRUE(error != nullptr);

  EXPECT_TRUE(run_indexed_sweep_collect(0, [](std::size_t) {}, 2).empty());
}

// End-to-end: a batch of independent transients gives identical waveform
// samples no matter how many workers ran it.
TEST(Sweep, ParallelTransientsMatchSerial) {
  struct Scenario {
    double resistance;
  };
  std::vector<Scenario> scenarios;
  for (double r : {200.0, 400.0, 800.0, 1600.0, 3200.0}) scenarios.push_back({r});

  auto final_voltage = [](const Scenario& s) {
    ckt::Netlist nl;
    const ckt::NodeId in = nl.node("in");
    const ckt::NodeId out = nl.node("out");
    nl.add_vsource(in, ckt::ground, wave::Pwl({{0.0, 0.0}, {1 * ps, 1.0}}));
    nl.add_resistor(in, out, s.resistance);
    nl.add_capacitor(out, ckt::ground, 0.5 * pf);
    TransientOptions opt;
    opt.t_stop = 0.8 * ns;
    opt.dt = 1 * ps;
    const std::array<ckt::NodeId, 1> probes{out};
    return simulate(nl, opt, probes).at(out).final_value();
  };

  const std::vector<double> serial = run_sweep(scenarios, final_voltage, 1);
  const std::vector<double> parallel = run_sweep(scenarios, final_voltage, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t k = 0; k < serial.size(); ++k) {
    EXPECT_EQ(serial[k], parallel[k]) << "scenario " << k;
  }
}

}  // namespace
}  // namespace rlceff::sim
