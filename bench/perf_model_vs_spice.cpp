// Performance benchmark backing the paper's "computationally efficient"
// claim: the full library-compatible modeling flow (moments -> Eq-3 fit ->
// breakpoint -> Ceff1/Ceff2 iterations -> two-ramp assembly) versus the
// transient simulation it replaces.
#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "bench_common.h"
#include "charlib/characterize.h"
#include "circuit/builders.h"
#include "circuit/mna.h"
#include "core/ceff.h"
#include "core/charge.h"
#include "core/driver_model.h"
#include "moments/admittance.h"
#include "moments/awe.h"
#include "sim/transient.h"
#include "tech/inverter.h"
#include "tech/testbench.h"
#include "tech/wire.h"
#include "testkit/alloc_count.h"
#include "testkit/generate.h"
#include "testkit/rng.h"

using namespace rlceff;
using namespace rlceff::units;

namespace {

const tech::WireParasitics& wire() {
  static const tech::WireParasitics w = *tech::find_paper_wire_case(5.0, 1.6);
  return w;
}

// ------------------------------------------------------------------------
// Transient engine numbers (BENCH_perf.json).
//
// The linear RLC line is the paper's "HSPICE" reference deck with the driver
// replaced by an ideal ramp: a purely linear circuit, so the cached engine
// factors its companion matrix once per run while the naive engine rebuilds
// and refactors it on every step (the pre-refactor behavior).
//
// The driver line puts the inverter back: a MOSFET deck, so both engines
// run Newton iterations.  The cached engine restores the static image and
// refactors only the columns from the first MOSFET terminal on (the driver
// output, the last column after RCM); the naive engine rebuilds and
// refactors the whole matrix every iteration.

struct TransientTiming {
  double ns_per_step = 0.0;
  double steps_per_s = 0.0;
  std::size_t steps = 0;
  std::size_t unknowns = 0;
};

// Best of five timed runs (after one warm-up) of a `steps`-step transient.
template <class Run>
TransientTiming time_steps(std::size_t steps, Run run) {
  using clock = std::chrono::steady_clock;
  double best_s = 1e300;
  (void)run();  // warm-up
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = clock::now();
    const auto samples = run();
    const auto t1 = clock::now();
    benchmark::DoNotOptimize(samples);
    best_s = std::min(best_s, std::chrono::duration<double>(t1 - t0).count());
  }
  TransientTiming timing;
  timing.steps = steps;
  timing.ns_per_step = best_s * 1e9 / static_cast<double>(steps);
  timing.steps_per_s = static_cast<double>(steps) / best_s;
  return timing;
}

TransientTiming time_linear_line(sim::AssemblyMode mode) {
  ckt::Netlist nl;
  const ckt::NodeId src = nl.node("src");
  nl.add_vsource(src, ckt::ground, wave::Pwl({{10 * ps, 0.0}, {110 * ps, 1.8}}));
  const ckt::LadderNodes line = ckt::append_rlc_ladder(
      nl, src, wire().resistance, wire().inductance, wire().capacitance, 120);
  nl.add_capacitor(line.far_end, ckt::ground, 20 * ff);

  sim::TransientOptions opt;
  opt.t_stop = 1.0 * ns;
  opt.dt = 0.25 * ps;
  opt.assembly = mode;
  const std::array<ckt::NodeId, 1> probes{line.far_end};

  TransientTiming timing =
      time_steps(static_cast<std::size_t>(opt.t_stop / opt.dt),
                 [&] { return sim::simulate(nl, opt, probes).at(line.far_end).size(); });
  timing.unknowns = ckt::MnaStructure(nl).unknown_count();
  return timing;
}

TransientTiming time_driver_line(sim::AssemblyMode mode) {
  const tech::Technology technology = tech::Technology::cmos180();
  const net::Net line = tech::line_net(wire(), 20 * ff);
  tech::DeckOptions deck;
  deck.segments = 120;
  deck.dt = 0.25 * ps;
  deck.t_stop = 1.0 * ns;
  deck.sim.assembly = mode;
  return time_steps(static_cast<std::size_t>(deck.t_stop / deck.dt), [&] {
    return tech::simulate_driver_net(technology, tech::Inverter{75.0}, 100 * ps, line,
                                     deck)
        .near_end.size();
  });
}

// The widest Newton deck the fleet runs: the coupled reference deck of
// randomized_fleet's net 141 (stream index 141 of its generator, a group of
// four nets) at fleet_balanced's Tier-C fidelity, 8 segments and 4 ps.
// That slot is the costliest of the fleet: RCM leaves the deck a
// half-bandwidth of 23, most of whose slots hold exact zeros, and the
// cached engine refactors from the first driver column on.  Each net is
// driven as the reference Tier C runs it: the victim rises, the named
// aggressors switch, the other nets hold quiet 75X drivers.
struct CoupledTiming {
  TransientTiming timing;
  std::size_t bandwidth = 0;
};

CoupledTiming time_coupled_driver() {
  testkit::Rng rng(testkit::mix_seed(0x20030603ull, 0xF1EE7, 141));
  const api::Request request = testkit::random_request(rng);
  const net::CoupledGroup& group = request.group;
  const tech::Technology technology = tech::Technology::cmos180();
  std::vector<tech::NetDrive> drives(group.size());
  for (tech::NetDrive& d : drives) d.edge = tech::DriveEdge::hold_low;
  drives[request.victim] = {tech::Inverter{request.cell_size}, request.input_slew,
                            tech::DriveEdge::rise};
  for (const api::Aggressor& a : request.aggressors) {
    drives[a.net] = {tech::Inverter{a.cell_size}, a.input_slew,
                     a.switching == core::AggressorSwitching::same_direction
                         ? tech::DriveEdge::rise
                     : a.switching == core::AggressorSwitching::opposite
                         ? tech::DriveEdge::fall
                         : tech::DriveEdge::hold_low};
  }
  tech::DeckOptions deck;
  deck.segments = 8;
  deck.dt = 4 * ps;
  deck.t_stop = 2 * ns;

  CoupledTiming out;
  out.timing = time_steps(static_cast<std::size_t>(deck.t_stop / deck.dt), [&] {
    return tech::simulate_coupled_group(technology, drives, group, deck)
        .nets[request.victim]
        .near_end.size();
  });
  // The same deck with every input held: only the source waveforms differ,
  // so the MNA structure is the one the timed runs factor.
  ckt::Netlist skeleton;
  std::vector<ckt::NodeId> outs;
  for (std::size_t k = 0; k < group.size(); ++k) {
    const ckt::NodeId in = skeleton.node("in:" + group.label_at(k));
    outs.push_back(skeleton.node("out:" + group.label_at(k)));
    skeleton.add_vsource(in, ckt::ground, wave::Pwl({{0.0, technology.vdd}}));
    tech::add_inverter(skeleton, technology, drives[k].cell, in, outs.back());
  }
  ckt::append_coupled_group(skeleton, outs, group, deck.segments);
  const ckt::MnaStructure structure(skeleton);
  out.timing.unknowns = structure.unknown_count();
  out.bandwidth = structure.bandwidth();
  return out;
}

// Exact structural counts, the same on every runner (CI bars them by
// equality).  The characterization deck (an inverter into a capacitor, its
// output watched) keeps one unknown: its input and rail nodes are held by
// grounded sources.  On the driver line (the inverter into the 120-segment
// line) a cached Newton iteration refactors only the columns from the first
// MOSFET terminal on, which RCM places last: the driver output.  The run
// stops at its measured edge, so its last factorization is a regular step's
// Newton iteration.
struct StructuralCounts {
  std::size_t characterization_unknowns = 0;
  std::size_t driver_refactored_columns = 0;
};

StructuralCounts structural_counts() {
  const tech::Technology technology = tech::Technology::cmos180();
  StructuralCounts counts;
  {
    ckt::Netlist nl;
    const ckt::NodeId in = nl.node("in");
    const ckt::NodeId out = nl.node("out");
    nl.add_vsource(in, ckt::ground, wave::Pwl({{0.0, technology.vdd}}));
    tech::add_inverter(nl, technology, tech::Inverter{100.0}, in, out);
    nl.add_capacitor(out, ckt::ground, 100 * ff);
    const std::array<ckt::NodeId, 1> watched{out};
    counts.characterization_unknowns = ckt::MnaStructure(nl, watched).unknown_count();
  }
  ckt::Netlist nl;
  const ckt::NodeId in = nl.node("in");
  const ckt::NodeId out = nl.node("out");
  nl.add_vsource(in, ckt::ground,
                 wave::Pwl({{10 * ps, technology.vdd}, {110 * ps, 0.0}}));
  tech::add_inverter(nl, technology, tech::Inverter{75.0}, in, out);
  const ckt::NetDeckNodes line =
      ckt::append_net(nl, out, tech::line_net(wire(), 20 * ff), 120);
  sim::TransientOptions opt;
  opt.t_stop = 1.0 * ns;
  opt.dt = 0.25 * ps;
  opt.edge_stop.vdd = technology.vdd;
  opt.edge_stop.watch = {out, line.leaves.front()};
  const std::array<ckt::NodeId, 1> probes{out};
  counts.driver_refactored_columns = sim::simulate(nl, opt, probes).factored_columns();
  return counts;
}

// Exact work counts of one cell's characterization: the 100X cell on the
// standard grid (77 decks), each deck run as characterize_driver runs it,
// one after another.  Time steps per cell, Newton iterations per step (DC
// points included) and MOSFET gate-term evaluations per iteration, summed
// over the decks: counts, the same on every runner.
struct CharacterizationCounts {
  std::uint64_t steps = 0;
  double newton_iterations_per_step = 0.0;
  double gate_evaluations_per_iteration = 0.0;
};

CharacterizationCounts characterization_counts() {
  const tech::Technology technology = tech::Technology::cmos180();
  const tech::Inverter cell{100.0};
  const charlib::CharacterizationGrid grid = charlib::CharacterizationGrid::standard();
  std::uint64_t steps = 0, iterations = 0, gate_evaluations = 0;
  for (double slew : grid.input_slews) {
    for (double c_load : grid.loads) {
      const sim::TransientResult run = tech::run_driver_cap_load(
          technology, cell, slew, c_load,
          charlib::characterization_deck(technology, cell, slew, c_load));
      steps += run.at(run.probes()[0]).size() - 1;
      iterations += run.newton_iterations();
      gate_evaluations += run.gate_evaluations();
    }
  }
  return {steps, static_cast<double>(iterations) / static_cast<double>(steps),
          static_cast<double>(gate_evaluations) / static_cast<double>(iterations)};
}

// Engine batch throughput: the Fig-7 sweep grid (7 lengths x 7 widths x 4
// slews, one driver) evaluated model-only through api::Engine::run_batch —
// the "library-based static timing engine" workload the facade serves.  A
// small on-the-fly characterization grid keeps this CI-friendly.  The heap
// allocations of a timed batch are counted too (this binary replaces the
// global operator new, testkit/alloc_count.h): unlike nanoseconds, the
// count is the same on every runner.
struct BatchTiming {
  std::size_t nets = 0;
  double nets_per_s = 0.0;
  double allocs_per_net = 0.0;
};

BatchTiming time_engine_batch() {
  api::Engine engine{tech::Technology::cmos180()};
  api::BatchOptions opt;
  // Pinned to one worker: engine_batch_nets_per_s is a trajectory metric, and
  // letting the pool width float with the runner's core count made the series
  // drift machine-to-machine.  Throughput here is per-core by definition.
  opt.n_threads = 1;
  opt.grid.input_slews = {50 * ps, 100 * ps, 200 * ps};
  opt.grid.loads = {50 * ff, 200 * ff, 500 * ff, 1 * pf, 2 * pf, 4 * pf};
  engine.warm_cache({100.0}, opt.grid);

  const tech::WireModel wires;
  std::vector<api::Request> requests;
  for (double l : {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0}) {
    for (double w : {0.8, 1.2, 1.6, 2.0, 2.5, 3.0, 3.5}) {
      for (double slew : {50.0, 100.0, 150.0, 200.0}) {
        api::Request r;
        r.cell_size = 100.0;
        r.input_slew = slew * ps;
        r.net = tech::line_net(wires.extract({l * mm, w * um}), 20 * ff);
        // Same last-iterate semantics as fig7_scatter: a Ceff solve that
        // runs out of its cap must not fail a slot, since a throughput
        // number over a batch with failed slots would be meaningless.
        r.require_convergence = false;
        requests.push_back(std::move(r));
      }
    }
  }

  using clock = std::chrono::steady_clock;
  double best_s = 1e300;
  std::uint64_t allocations = 0;
  (void)engine.run_batch(requests, opt);  // warm-up
  for (int rep = 0; rep < 3; ++rep) {
    const std::uint64_t allocations_before = testkit::allocation_count();
    const auto t0 = clock::now();
    const auto results = engine.run_batch(requests, opt);
    const auto t1 = clock::now();
    allocations = testkit::allocation_count() - allocations_before;
    for (const auto& outcome : results) {
      if (!outcome.ok()) {
        std::fprintf(stderr, "engine batch: unexpected failure [%s]: %s\n",
                     api::to_string(outcome.error().code),
                     outcome.error().message.c_str());
        std::exit(1);
      }
    }
    benchmark::DoNotOptimize(results.size());
    best_s = std::min(best_s, std::chrono::duration<double>(t1 - t0).count());
  }
  const auto nets = static_cast<double>(requests.size());
  return {requests.size(), nets / best_s, static_cast<double>(allocations) / nets};
}

void emit_perf_json() {
  const TransientTiming cached = time_linear_line(sim::AssemblyMode::cached);
  const TransientTiming naive = time_linear_line(sim::AssemblyMode::naive);
  const double speedup = naive.ns_per_step / cached.ns_per_step;
  const TransientTiming driver_cached = time_driver_line(sim::AssemblyMode::cached);
  const TransientTiming driver_naive = time_driver_line(sim::AssemblyMode::naive);
  const double refactor_speedup = driver_naive.ns_per_step / driver_cached.ns_per_step;
  const CoupledTiming coupled = time_coupled_driver();
  const StructuralCounts counts = structural_counts();
  const CharacterizationCounts characterization = characterization_counts();
  const BatchTiming batch = time_engine_batch();

  // Bench name "perf": BENCH_perf.json is shared with large_topology, which
  // merges its section into whatever this overwrite leaves behind (CI runs
  // this binary first, so these unprefixed metrics define the file).
  bench::write_bench_json(
      "BENCH_perf.json", "perf",
      {{"linear_line_unknowns", static_cast<double>(cached.unknowns), "count"},
       {"linear_line_steps", static_cast<double>(cached.steps), "count"},
       {"linear_line_cached_ns_per_step", cached.ns_per_step, "ns/step"},
       {"linear_line_cached_steps_per_s", cached.steps_per_s, "steps/s"},
       {"linear_line_naive_ns_per_step", naive.ns_per_step, "ns/step"},
       {"linear_line_naive_steps_per_s", naive.steps_per_s, "steps/s"},
       {"linear_line_factor_once_speedup", speedup, "x"},
       {"driver_line_cached_ns_per_step", driver_cached.ns_per_step, "ns/step"},
       {"driver_line_naive_ns_per_step", driver_naive.ns_per_step, "ns/step"},
       {"driver_line_refactor_speedup", refactor_speedup, "x"},
       {"driver_line_refactored_columns",
        static_cast<double>(counts.driver_refactored_columns), "count"},
       {"characterization_deck_unknowns",
        static_cast<double>(counts.characterization_unknowns), "count"},
       {"characterization_steps_per_cell", static_cast<double>(characterization.steps),
        "count"},
       {"characterization_newton_iterations_per_step",
        characterization.newton_iterations_per_step, "count"},
       {"characterization_gate_evaluations_per_iteration",
        characterization.gate_evaluations_per_iteration, "count"},
       {"coupled_driver_unknowns", static_cast<double>(coupled.timing.unknowns), "count"},
       {"coupled_driver_bandwidth", static_cast<double>(coupled.bandwidth), "count"},
       {"coupled_driver_cached_ns_per_step", coupled.timing.ns_per_step, "ns/step"},
       {"engine_batch_nets", static_cast<double>(batch.nets), "count"},
       {"engine_batch_nets_per_s", batch.nets_per_s, "nets/s"},
       {"engine_batch_allocs_per_net", batch.allocs_per_net, "allocs/net"}});

  std::printf("== factor-once transient engine (120-segment RLC line, %zu unknowns, "
              "%zu steps) ==\n",
              cached.unknowns, cached.steps);
  std::printf("  cached (factor once):      %8.1f ns/step  %10.0f steps/s\n",
              cached.ns_per_step, cached.steps_per_s);
  std::printf("  naive (refactor per step): %8.1f ns/step  %10.0f steps/s\n",
              naive.ns_per_step, naive.steps_per_s);
  std::printf("  speedup: %.2fx\n", speedup);
  std::printf("== Newton transient (Inverter 75 + 120-segment line, %zu steps) ==\n",
              driver_cached.steps);
  std::printf("  cached (MOSFET columns):   %8.1f ns/step\n", driver_cached.ns_per_step);
  std::printf("  naive (full refactor):     %8.1f ns/step\n", driver_naive.ns_per_step);
  std::printf("  speedup: %.2fx   columns a cached iteration refactors: %zu\n",
              refactor_speedup, counts.driver_refactored_columns);
  std::printf("  characterization deck (inverter into a capacitor): %zu unknown(s)\n",
              counts.characterization_unknowns);
  std::printf("  100X cell, standard grid: %llu steps, %.3f Newton iterations per step, "
              "%.3f gate-term evaluations per iteration\n",
              static_cast<unsigned long long>(characterization.steps),
              characterization.newton_iterations_per_step,
              characterization.gate_evaluations_per_iteration);
  std::printf("== Newton transient (coupled deck of fleet net 141, %zu unknowns, "
              "half-bandwidth %zu, %zu steps) ==\n",
              coupled.timing.unknowns, coupled.bandwidth, coupled.timing.steps);
  std::printf("  cached (driver columns):   %8.1f ns/step\n", coupled.timing.ns_per_step);
  std::printf("== api::Engine model-only batch (Fig-7 grid) ==\n");
  std::printf("  %zu nets: %.0f nets/s, %.1f heap allocations per net  (written to "
              "BENCH_perf.json)\n\n",
              batch.nets, batch.nets_per_s, batch.allocs_per_net);
  std::fflush(stdout);
}

void bm_moment_fit(benchmark::State& state) {
  for (auto _ : state) {
    const util::Series y = moments::distributed_line_admittance(
        wire().resistance, wire().inductance, wire().capacitance, 20 * ff);
    benchmark::DoNotOptimize(moments::RationalAdmittance(y));
  }
}
BENCHMARK(bm_moment_fit);

void bm_ceff_iterations(benchmark::State& state) {
  const util::Series y = moments::distributed_line_admittance(
      wire().resistance, wire().inductance, wire().capacitance, 20 * ff);
  const core::ChargeModel load{moments::RationalAdmittance(y)};
  const charlib::CharacterizedDriver& driver = *bench::library().find(100.0);
  const auto transition = [&](double c) { return driver.output_transition(100 * ps, c); };
  for (auto _ : state) {
    const auto it1 = core::iterate_ceff1(load, 0.65, transition);
    const auto it2 = core::iterate_ceff2(load, 0.65, it1.ramp_time, transition);
    benchmark::DoNotOptimize(it2.ceff);
  }
}
BENCHMARK(bm_ceff_iterations);

void bm_full_model_flow(benchmark::State& state) {
  const charlib::CharacterizedDriver& driver = *bench::library().find(100.0);
  for (auto _ : state) {
    const auto model =
        core::model_driver_output(driver, 100 * ps, tech::line_net(wire(), 20 * ff));
    benchmark::DoNotOptimize(model.t50);
  }
}
BENCHMARK(bm_full_model_flow);

void bm_awe_far_end(benchmark::State& state) {
  const charlib::CharacterizedDriver& driver = *bench::library().find(100.0);
  const auto model =
      core::model_driver_output(driver, 100 * ps, tech::line_net(wire(), 20 * ff));
  const util::Series h = moments::distributed_transfer(
      wire().resistance, wire().inductance, wire().capacitance, 20 * ff);
  const moments::AweModel awe = moments::AweModel::make(h, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(awe.response(model.waveform, 1 * ns, 5 * ps));
  }
}
BENCHMARK(bm_awe_far_end);

void bm_reference_transient(benchmark::State& state) {
  tech::DeckOptions deck;
  deck.segments = 120;
  deck.dt = 0.25 * ps;
  deck.t_stop = 1.0 * ns;
  for (auto _ : state) {
    const auto sim = tech::simulate_driver_net(bench::technology(),
                                               tech::Inverter{100.0}, 100 * ps,
                                               tech::line_net(wire(), 20 * ff), deck);
    benchmark::DoNotOptimize(sim.near_end.size());
  }
}
BENCHMARK(bm_reference_transient)->Unit(benchmark::kMillisecond);

void bm_far_end_replay_sim(benchmark::State& state) {
  const charlib::CharacterizedDriver& driver = *bench::library().find(100.0);
  const auto model =
      core::model_driver_output(driver, 100 * ps, tech::line_net(wire(), 20 * ff));
  tech::DeckOptions deck;
  deck.segments = 120;
  deck.dt = 0.25 * ps;
  deck.t_stop = 1.0 * ns;
  for (auto _ : state) {
    const auto sim =
        tech::simulate_source_net(model.waveform, tech::line_net(wire(), 20 * ff), deck);
    benchmark::DoNotOptimize(sim.leaves.front().size());
  }
}
BENCHMARK(bm_far_end_replay_sim)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  if (bench::list_metrics_requested(argc, argv)) {
    // Keep in sync with emit_perf_json (the key-set smoke diffs this list
    // against the checked-in BENCH_perf.json).
    bench::list_metrics(
        "", {"linear_line_unknowns", "linear_line_steps",
             "linear_line_cached_ns_per_step", "linear_line_cached_steps_per_s",
             "linear_line_naive_ns_per_step", "linear_line_naive_steps_per_s",
             "linear_line_factor_once_speedup", "driver_line_cached_ns_per_step",
             "driver_line_naive_ns_per_step", "driver_line_refactor_speedup",
             "driver_line_refactored_columns", "characterization_deck_unknowns",
             "characterization_steps_per_cell",
             "characterization_newton_iterations_per_step",
             "characterization_gate_evaluations_per_iteration",
             "coupled_driver_unknowns", "coupled_driver_bandwidth",
             "coupled_driver_cached_ns_per_step", "engine_batch_nets",
             "engine_batch_nets_per_s",
             "engine_batch_allocs_per_net"});
    return 0;
  }
  emit_perf_json();
  // --perf-json-only: stop after the engine numbers (used by CI, which does
  // not want to characterize a library).
  for (int k = 1; k < argc; ++k) {
    if (std::strcmp(argv[k], "--perf-json-only") == 0) return 0;
  }
  bench::warm_library({100.0});
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
