#include "testkit/oracles.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "circuit/builders.h"
#include "core/coupled_experiment.h"
#include "sim/scenario_block.h"
#include "testkit/faults.h"
#include "moments/admittance.h"
#include "sim/transient.h"
#include "tech/testbench.h"
#include "tier/envelope.h"
#include "util/units.h"

namespace rlceff::testkit {

namespace {

using namespace rlceff::units;

constexpr double kCells[] = {25.0, 50.0, 75.0, 100.0, 150.0, 200.0};

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

void expect(bool cond, const std::string& message) {
  if (!cond) throw Error("oracle: " + message);
}

void expect_close(double a, double b, double rel_tol, const std::string& what) {
  const double scale = std::max({std::abs(a), std::abs(b), 1e-300});
  expect(std::abs(a - b) <= rel_tol * scale,
         what + ": " + fmt(a) + " vs " + fmt(b) + " (rel err " +
             fmt(std::abs(a - b) / scale) + " > " + fmt(rel_tol) + ")");
}

void expect_waveforms_equal(const wave::Waveform& a, const wave::Waveform& b,
                            double tol, const std::string& what) {
  expect(a.size() == b.size(), what + ": sample counts differ (" +
                                   std::to_string(a.size()) + " vs " +
                                   std::to_string(b.size()) + ")");
  for (std::size_t k = 0; k < a.size(); ++k) {
    expect(a.time(k) == b.time(k), what + ": sample times diverge at index " +
                                       std::to_string(k));
    const double dv = std::abs(a.value(k) - b.value(k));
    expect(dv <= tol, what + ": values diverge at t = " + fmt(a.time(k)) + " (|dv| = " +
                          fmt(dv) + " > " + fmt(tol) + ")");
  }
}

// Equivalence oracles do not need settled edges — any window exercises the
// engine — so the horizon stays short and independent of the (possibly slow)
// RC settling of the instance.
double short_horizon(const net::Net& net, double input_slew) {
  const net::NetMetrics m = net.metrics();
  return 20 * ps + input_slew + 6.0 * m.time_of_flight + 0.35 * ns;
}

tech::DeckOptions equivalence_deck(const OracleOptions& options, double t_stop) {
  tech::DeckOptions deck;
  deck.segments = options.segments;
  deck.dt = options.dt;
  deck.t_stop = t_stop;
  deck.sim.solver = options.solver;
  return deck;
}

}  // namespace

void check_net_invariants(const net::Net& net, const OracleOptions& options) {
  const double c_total = net.total_capacitance();
  expect(std::isfinite(c_total) && c_total > 0.0, "net has no capacitance");

  const std::size_t leaves = net.leaf_count();
  expect(leaves >= 1, "net has no leaves");

  const net::NetMetrics m = net.metrics();
  expect(m.time_of_flight > 0.0, "metrics: non-positive time of flight");
  expect(m.z0 > 0.0, "metrics: non-positive Z0");
  expect(m.path_resistance >= 0.0, "metrics: negative path resistance");
  expect(m.dominant_leaf < leaves, "metrics: dominant leaf index " +
                                       std::to_string(m.dominant_leaf) +
                                       " out of range (net has " +
                                       std::to_string(leaves) + " leaves)");
  expect_close(m.total_capacitance(), c_total, 1e-12,
               "metrics total capacitance vs branch sum");

  // m1 of the driving-point admittance equals the total capacitance for any
  // net with no DC path to ground — the moment layer's conservation law.
  const util::Series y = moments::net_admittance(net);
  expect(y.size() >= 2, "net_admittance: truncated below order 2");
  expect(std::abs(y[0]) <= 1e-9 * c_total, "net_admittance: nonzero DC admittance");
  expect_close(y[1], c_total, 1e-9, "net_admittance m1 vs total capacitance");

  // The compiled deck must carry exactly the net's capacitance and expose
  // one far node per leaf.
  ckt::Netlist nl;
  const ckt::NodeId out = nl.node("out");
  const ckt::NetDeckNodes nodes = ckt::append_net(nl, out, net, options.segments);
  expect(nodes.leaves.size() == leaves,
         "compiled deck leaf count " + std::to_string(nodes.leaves.size()) +
             " vs net leaf count " + std::to_string(leaves));
  expect_close(nl.total_capacitance(), c_total, 1e-9,
               "compiled deck capacitance vs net capacitance");
}

void check_cached_vs_naive(const net::Net& net, Rng rng, const OracleOptions& options) {
  const double input_slew = rng.uniform(25 * ps, 300 * ps);
  tech::DeckOptions cached = equivalence_deck(options, short_horizon(net, input_slew));
  cached.sim.assembly = sim::AssemblyMode::cached;
  cached.sim.debug_cached_stamp_skew = options.stamp_skew;
  tech::DeckOptions naive = cached;
  naive.sim.assembly = sim::AssemblyMode::naive;
  naive.sim.debug_cached_stamp_skew = 0.0;

  tech::NetSimResult fast, ref;
  if (rng.chance(0.5)) {
    // Nonlinear path: MOSFET driver, memcpy'd static image + restamping.
    const tech::Technology technology = tech::Technology::cmos180();
    const tech::Inverter cell{rng.pick(kCells)};
    fast = tech::simulate_driver_net(technology, cell, input_slew, net, cached);
    ref = tech::simulate_driver_net(technology, cell, input_slew, net, naive);
  } else {
    // Linear path: ideal source replay, factor-once fast path.
    const wave::Pwl source = wave::ramp(10 * ps, input_slew, 0.0, 1.8);
    fast = tech::simulate_source_net(source, net, cached);
    ref = tech::simulate_source_net(source, net, naive);
  }

  expect_waveforms_equal(fast.near_end, ref.near_end, 0.0, "cached vs naive near end");
  for (std::size_t k = 0; k < fast.leaves.size(); ++k) {
    expect_waveforms_equal(fast.leaves[k], ref.leaves[k], 0.0,
                           "cached vs naive leaf " + std::to_string(k));
  }
}

void check_cached_vs_naive(const net::CoupledGroup& group, Rng rng,
                           const OracleOptions& options) {
  const tech::Technology technology = tech::Technology::cmos180();
  double t_stop = 0.0;
  std::vector<tech::NetDrive> drives(group.size());
  for (std::size_t k = 0; k < group.size(); ++k) {
    drives[k].cell = tech::Inverter{rng.pick(kCells)};
    drives[k].input_slew = rng.uniform(25 * ps, 200 * ps);
    const tech::DriveEdge edges[] = {tech::DriveEdge::rise, tech::DriveEdge::fall,
                                     tech::DriveEdge::hold_low};
    drives[k].edge = edges[rng.uniform_index(3)];
    t_stop = std::max(t_stop, short_horizon(group.net_at(k), drives[k].input_slew));
  }
  // At least one edge must switch or the deck just sits at DC.
  drives[0].edge = tech::DriveEdge::rise;

  tech::DeckOptions cached = equivalence_deck(options, t_stop);
  cached.sim.assembly = sim::AssemblyMode::cached;
  cached.sim.debug_cached_stamp_skew = options.stamp_skew;
  tech::DeckOptions naive = cached;
  naive.sim.assembly = sim::AssemblyMode::naive;
  naive.sim.debug_cached_stamp_skew = 0.0;

  const tech::CoupledSimResult fast =
      tech::simulate_coupled_group(technology, drives, group, cached);
  const tech::CoupledSimResult ref =
      tech::simulate_coupled_group(technology, drives, group, naive);
  for (std::size_t k = 0; k < group.size(); ++k) {
    expect_waveforms_equal(fast.nets[k].near_end, ref.nets[k].near_end, 0.0,
                           "coupled cached vs naive near end of '" + group.label_at(k) +
                               "'");
    for (std::size_t j = 0; j < fast.nets[k].leaves.size(); ++j) {
      expect_waveforms_equal(fast.nets[k].leaves[j], ref.nets[k].leaves[j], 0.0,
                             "coupled cached vs naive leaf " + std::to_string(j) +
                                 " of '" + group.label_at(k) + "'");
    }
  }
}

void check_solver_equivalence(const net::Net& net, Rng rng,
                              const OracleOptions& options) {
  const double input_slew = rng.uniform(25 * ps, 300 * ps);
  const tech::DeckOptions deck =
      equivalence_deck(options, short_horizon(net, input_slew));
  const wave::Pwl source = wave::ramp(10 * ps, input_slew, 0.0, 1.8);

  auto run = [&](sim::SolverKind kind, sim::AssemblyMode assembly) {
    tech::DeckOptions d = deck;
    d.sim.solver = kind;
    d.sim.assembly = assembly;
    return tech::simulate_source_net(source, net, d);
  };

  // Dense partial-pivoting LU is the reference backend.
  const tech::NetSimResult dense = run(sim::SolverKind::dense, sim::AssemblyMode::cached);
  const tech::NetSimResult banded =
      run(sim::SolverKind::banded, sim::AssemblyMode::cached);
  const tech::NetSimResult sparse =
      run(sim::SolverKind::sparse, sim::AssemblyMode::cached);

  // Different factorizations (band pivoting, dense partial pivoting, sparse
  // Gilbert-Peierls with its own pivot order) agree to rounding, not bitwise;
  // 1e-10 V on a 1.8 V swing is far below any physical signal and far above
  // accumulated LU noise.
  auto against_dense = [&](const tech::NetSimResult& a, const std::string& which) {
    expect_waveforms_equal(a.near_end, dense.near_end, 1e-10,
                           which + " vs dense near end");
    for (std::size_t k = 0; k < a.leaves.size(); ++k) {
      expect_waveforms_equal(a.leaves[k], dense.leaves[k], 1e-10,
                             which + " vs dense leaf " + std::to_string(k));
    }
  };
  against_dense(banded, "banded");
  against_dense(sparse, "sparse");

  // The factor-once contract extends to the sparse image: cached assembly
  // (static image + memcpy restore) must reproduce naive per-step assembly
  // bitwise, exactly like the dense and banded paths.
  const tech::NetSimResult naive = run(sim::SolverKind::sparse, sim::AssemblyMode::naive);
  expect_waveforms_equal(sparse.near_end, naive.near_end, 0.0,
                         "sparse cached vs naive near end");
  for (std::size_t k = 0; k < sparse.leaves.size(); ++k) {
    expect_waveforms_equal(sparse.leaves[k], naive.leaves[k], 0.0,
                           "sparse cached vs naive leaf " + std::to_string(k));
  }
}

void check_charge_conservation(const net::Net& net, Rng rng,
                               const OracleOptions& options) {
  const double v_final = 1.0;
  const double rs = rng.log_uniform(25.0, 300.0);
  const double tr = rng.uniform(20 * ps, 200 * ps);
  const double t_start = 10 * ps;
  const net::NetMetrics m = net.metrics();
  const double c_total = net.total_capacitance();
  const double t_stop =
      t_start + tr + 10.0 * (rs + m.path_resistance) * c_total + 14.0 * m.time_of_flight;

  const wave::Pwl source = wave::ramp(t_start, tr, 0.0, v_final);
  ckt::Netlist nl;
  const ckt::NodeId src = nl.node("src");
  const ckt::NodeId near = nl.node("near");
  nl.add_vsource(src, ckt::ground, source);
  nl.add_resistor(src, near, rs);
  const ckt::NetDeckNodes nodes = ckt::append_net(nl, near, net, options.segments);

  sim::TransientOptions sim_options;
  sim_options.t_stop = t_stop;
  sim_options.dt = options.dt;
  sim_options.solver = options.solver;
  std::vector<ckt::NodeId> probes;
  probes.push_back(near);
  for (ckt::NodeId leaf : nodes.leaves) {
    if (std::find(probes.begin(), probes.end(), leaf) == probes.end()) {
      probes.push_back(leaf);
    }
  }
  const sim::TransientResult result = sim::simulate(nl, sim_options, probes);

  // (a) Every probed node settles on the source rail.
  for (ckt::NodeId probe : probes) {
    const double v_end = result.at(probe).final_value();
    expect(std::abs(v_end - v_final) <= 5e-3 * v_final,
           "node did not settle: final value " + fmt(v_end) + " vs rail " +
               fmt(v_final) + " (t_stop " + fmt(t_stop) + " s)");
  }

  // (b) The charge delivered through the source resistor equals the charge
  // stored on the (purely capacitive) net: integral of (v_src - v_near)/Rs.
  const wave::Waveform& w = result.at(near);
  double charge = 0.0;
  for (std::size_t k = 1; k < w.size(); ++k) {
    const double i0 = (source.value_at(w.time(k - 1)) - w.value(k - 1)) / rs;
    const double i1 = (source.value_at(w.time(k)) - w.value(k)) / rs;
    charge += 0.5 * (i0 + i1) * (w.time(k) - w.time(k - 1));
  }
  expect_close(charge, c_total * v_final, 1e-2,
               "delivered charge vs C_total * V (charge conservation)");
}

void check_engine_outcome(api::Engine& engine, const api::Request& request,
                          const api::BatchOptions& options) {
  const api::Outcome<api::Response> strict = engine.model(request, options);

  if (!strict.ok()) {
    const api::ErrorInfo& e = strict.error();
    expect(e.code != api::ErrorCode::internal_error,
           "engine escaped with internal_error: " + e.message);
    expect(e.code != api::ErrorCode::invalid_request,
           "generator-valid request rejected as invalid_request: " + e.message);
    // The clamp range of every Ceff solve brackets its root, and the solver
    // keeps its iterates inside that bracket: a generator-valid net
    // converges well inside the iteration cap (at most 31 of 60 passes on
    // the first 4096 randomized-fleet nets).
    expect(e.code != api::ErrorCode::convergence_failure,
           "generator-valid request failed to converge: " + e.message);
    expect(e.scenario == request.label,
           "failure attributed to '" + e.scenario + "' instead of '" + request.label +
               "'");
  } else {
    const api::Response& r = strict.value();
    expect(r.model.ceff1.converged, "successful outcome with non-converged Ceff1");
    expect(r.model.kind == core::ModelKind::one_ramp || r.model.ceff2.converged,
           "successful two-ramp outcome with non-converged Ceff2");
    expect(std::isfinite(r.model_near.delay) && std::isfinite(r.model_near.slew),
           "non-finite modeled edge metrics");
    expect(r.model_near.slew > 0.0, "non-positive modeled slew");
    // For coupled requests the model runs on the Miller-decoupled net, whose
    // capacitance includes every attached coupling cap at its aggressor's
    // factor (up to 2x) — bound Ceff against *that* net, not the bare victim.
    double c_total = 0.0;
    if (request.coupled()) {
      std::vector<double> factors(request.group.size(), 1.0);
      for (const api::Aggressor& a : request.aggressors) {
        factors[a.net] = core::miller_factor(a.switching);
      }
      c_total = request.group.decoupled_net(request.victim, factors)
                    .total_capacitance();
    } else {
      c_total = request.net.total_capacitance();
    }
    expect(r.model.ceff1.ceff > 0.0 && r.model.ceff1.ceff <= 1.2 * c_total,
           "Ceff1 " + fmt(r.model.ceff1.ceff) + " outside (0, 1.2 * C_total = " +
               fmt(1.2 * c_total) + "]");
  }

  // require_convergence only *gates*: with the gate off the same request must
  // succeed, and the results must be bitwise identical (the flag must never
  // change the physics).
  if (!strict.ok()) return;
  api::Request lenient = request;
  lenient.require_convergence = false;
  const api::Outcome<api::Response> loose = engine.model(lenient, options);
  expect(loose.ok(), "require_convergence=false failed where strict succeeded: " +
                         (loose.ok() ? std::string() : loose.error().message));
  expect(loose.value().model_near.delay == strict.value().model_near.delay &&
             loose.value().model_near.slew == strict.value().model_near.slew &&
             loose.value().model.ceff1.ceff == strict.value().model.ceff1.ceff,
         "require_convergence flag changed converged results");
}

namespace {

void scale_loads(net::Branch& branch, double factor) {
  branch.c_load *= factor;
  for (net::Branch& child : branch.children) scale_loads(child, factor);
}

void scale_route(net::Branch& branch, double factor) {
  for (net::Section& s : branch.sections) {
    s.resistance *= factor;
    s.inductance *= factor;
    s.capacitance *= factor;
  }
  for (net::Branch& child : branch.children) scale_route(child, factor);
}

}  // namespace

void check_monotone_delay(api::Engine& engine, const net::Net& net, double cell_size,
                          double input_slew, const api::BatchOptions& options) {
  auto delay_of = [&](const net::Net& variant, core::ModelSelection selection,
                      bool add_flight) -> std::pair<bool, double> {
    api::Request request;
    request.label = "monotone";
    request.cell_size = cell_size;
    request.input_slew = input_slew;
    request.net = variant;
    request.model.selection = selection;
    const api::Outcome<api::Response> outcome = engine.model(request, options);
    if (!outcome.ok()) return {false, 0.0};
    const api::Response& r = outcome.value();
    return {true, r.model_near.delay + (add_flight ? r.model.tf : 0.0)};
  };

  auto check_growing = [&](auto&& grow, double factor, core::ModelSelection selection,
                           bool add_flight, double rel_slack, const char* what) {
    net::Branch branch = net.root();
    double previous = 0.0;
    bool have_previous = false;
    for (int step = 0; step < 3; ++step) {
      if (step > 0) grow(branch, factor);
      const auto [ok, delay] = delay_of(net::Net(branch), selection, add_flight);
      if (!ok) return;  // convergence surface is check_engine_outcome's job
      if (have_previous) {
        // The slack absorbs table-interpolation kinks and the truncated
        // 5-moment fit's charge wobble; a real inversion (swapped tables,
        // sign errors, dropped load) shows up far beyond it.
        const double slack = rel_slack * std::abs(previous) + 2 * ps;
        expect(delay >= previous - slack,
               std::string(what) + ": delay shrank from " + fmt(previous) + " s to " +
                   fmt(delay) + " s when the " + what + " grew");
      }
      previous = delay;
      have_previous = true;
    }
  };

  // Load growth can only flip the Eq 9 selection one-ramp-ward, which jumps
  // the near-end delay *up* — the automatic flow stays monotone at the
  // driver output.
  check_growing([](net::Branch& b, double f) { scale_loads(b, f); }, 2.0,
                core::ModelSelection::automatic, false, 0.03, "receiver load");
  // Length growth is different: the *physical* near-end delay saturates once
  // the line is longer than the transition's diffusion/flight horizon (the
  // driver only sees Z0 until the far end answers), so the near-end number
  // may legitimately wobble flat-to-down as moments truncate.  What must
  // never speed up is the modeled far-end arrival: near-end t50 plus the
  // dominant-path flight time.  Pin the one-ramp column so the Eq 9
  // selection flip (which legitimately drops the near-end t50) stays out of
  // the sweep.
  check_growing([](net::Branch& b, double f) { scale_route(b, f); }, 1.5,
                core::ModelSelection::force_one_ramp, true, 0.10, "route length");
}

void check_batch_invariance(api::Engine& engine, std::vector<api::Request> requests,
                            const api::BatchOptions& options, Rng rng) {
  auto run = [&](std::span<const api::Request> batch, unsigned n_threads) {
    api::BatchOptions opt = options;
    opt.n_threads = n_threads;
    return engine.run_batch(batch, opt);
  };

  const std::vector<api::Outcome<api::Response>> serial = run(requests, 1);
  const std::vector<api::Outcome<api::Response>> wide = run(requests, 4);

  auto expect_same_slot = [&](const api::Outcome<api::Response>& a,
                              const api::Outcome<api::Response>& b,
                              const std::string& what) {
    expect(a.ok() == b.ok(), what + ": ok flags differ");
    if (!a.ok()) {
      expect(a.error().code == b.error().code, what + ": error codes differ");
      return;
    }
    expect(a.value().model_near.delay == b.value().model_near.delay &&
               a.value().model_near.slew == b.value().model_near.slew &&
               a.value().model.ceff1.ceff == b.value().model.ceff1.ceff,
           what + ": results differ bitwise");
  };

  for (std::size_t k = 0; k < requests.size(); ++k) {
    expect_same_slot(serial[k], wide[k],
                     "thread-count invariance, slot '" + requests[k].label + "'");
  }

  // Deterministic permutation: rotate by a random offset, then swap a few
  // random pairs.  results[i] must still correspond to requests[i].
  std::vector<std::size_t> order(requests.size());
  for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
  std::rotate(order.begin(), order.begin() + rng.uniform_index(order.size()),
              order.end());
  for (int swap = 0; swap < 4; ++swap) {
    std::swap(order[rng.uniform_index(order.size())],
              order[rng.uniform_index(order.size())]);
  }
  std::vector<api::Request> permuted;
  permuted.reserve(requests.size());
  for (std::size_t index : order) permuted.push_back(requests[index]);
  const std::vector<api::Outcome<api::Response>> shuffled = run(permuted, 3);
  for (std::size_t k = 0; k < order.size(); ++k) {
    expect_same_slot(serial[order[k]], shuffled[k],
                     "permutation invariance, slot '" + permuted[k].label + "'");
  }
}

void check_chaos_batch(api::Engine& engine, std::uint64_t seed,
                       const api::BatchOptions& options, std::size_t slots) {
  expect(slots >= 1, "chaos batch needs at least one slot");
  Rng rng(seed);
  std::vector<api::Request> clean;
  clean.reserve(slots);
  for (std::size_t k = 0; k < slots; ++k) {
    api::Request request = random_request(rng);
    request.label += "-x" + std::to_string(k);
    clean.push_back(std::move(request));
  }

  api::BatchOptions serial = options;
  serial.n_threads = 1;
  serial.debug_slot_fault = nullptr;
  const std::vector<api::Outcome<api::Response>> baseline =
      engine.run_batch(clean, serial);

  const FaultPlan plan(seed);
  std::vector<api::Request> faulted = clean;
  std::vector<SlotFault> faults(slots);
  for (std::size_t k = 0; k < slots; ++k) faults[k] = plan.apply(k, faulted[k]);

  api::BatchOptions chaos_serial = serial;
  chaos_serial.debug_slot_fault = plan.hook();
  api::BatchOptions chaos_wide = chaos_serial;
  chaos_wide.n_threads = 4;
  const std::vector<api::Outcome<api::Response>> narrow =
      engine.run_batch(faulted, chaos_serial);
  const std::vector<api::Outcome<api::Response>> wide =
      engine.run_batch(faulted, chaos_wide);

  auto same_slot = [&](const api::Outcome<api::Response>& a,
                       const api::Outcome<api::Response>& b,
                       const std::string& what) {
    expect(a.ok() == b.ok(), what + ": ok flags differ");
    if (!a.ok()) {
      expect(a.error().code == b.error().code,
             what + ": error codes differ (" +
                 std::string(api::to_string(a.error().code)) + " vs " +
                 api::to_string(b.error().code) + ")");
      return;
    }
    expect(a.value().model_near.delay == b.value().model_near.delay &&
               a.value().model_near.slew == b.value().model_near.slew &&
               a.value().model.ceff1.ceff == b.value().model.ceff1.ceff &&
               a.value().fidelity == b.value().fidelity &&
               a.value().degraded == b.value().degraded &&
               a.value().attempts.size() == b.value().attempts.size(),
           what + ": results differ bitwise");
  };

  auto check_contract = [&](const SlotFault& fault, const api::Request& request,
                            const api::Outcome<api::Response>& outcome,
                            const api::Outcome<api::Response>& base,
                            const std::string& what) {
    const FaultExpectation e = expectation(fault);
    if (e.must_fail) {
      expect(!outcome.ok(), what + ": expected a failed outcome, got success");
      const api::ErrorInfo& err = outcome.error();
      // A slot that fails even unfaulted may surface its own (structured)
      // failure before the injected one bites — e.g. a model_error raised
      // ahead of a forced non-convergence or of the reference sim's step
      // budget.  The injected code is only owed by otherwise-healthy slots.
      if (!base.ok() && err.code == base.error().code) return;
      expect(err.code == e.code,
             what + ": expected " + std::string(api::to_string(e.code)) +
                 ", got " + api::to_string(err.code) + " (" + err.message + ")");
      if (*e.message_needle != '\0') {
        expect(err.message.find(e.message_needle) != std::string::npos,
               what + ": message '" + err.message + "' lacks '" +
                   e.message_needle + "'");
      }
      if (e.max_elapsed_s > 0.0) {
        expect(err.elapsed_s <= e.max_elapsed_s,
               what + ": slot exited after " + fmt(err.elapsed_s) +
                   " s, promptness bound " + fmt(e.max_elapsed_s) + " s");
      }
      return;
    }
    if (!e.expect_degraded) return;
    expect(outcome.ok(),
           what + ": expected a degraded success, got failure" +
               (outcome.ok() ? std::string()
                             : std::string(" [") +
                                   api::to_string(outcome.error().code) +
                                   "]: " + outcome.error().message));
    const api::Response& r = outcome.value();
    expect(r.degraded, what + ": fallback answer not flagged degraded");
    expect(r.fidelity == api::Fidelity::moments_only,
           what + ": degraded model-only request must land on the moments floor");
    expect(!r.attempts.empty() &&
               r.attempts.front().code == api::ErrorCode::deadline_exceeded,
           what + ": attempt trail does not lead with deadline_exceeded");
    // The floor's documented envelope: the cell table evaluated at Ctotal —
    // a converged zero-iteration one-ramp answer with finite metrics.
    expect(r.model.kind == core::ModelKind::one_ramp && r.model.ceff1.converged &&
               r.model.ceff1.iterations == 0,
           what + ": floor answer is not the zero-iteration one-ramp estimate");
    if (!request.coupled()) {
      expect(r.model.ceff1.ceff == request.net.total_capacitance(),
             what + ": floor Ceff is not the net's total capacitance");
    }
    expect(std::isfinite(r.model_near.delay) && r.model_near.slew > 0.0,
           what + ": degraded answer has non-finite metrics");
  };

  for (std::size_t k = 0; k < slots; ++k) {
    const SlotFault& fault = faults[k];
    const std::string where = "chaos slot " + std::to_string(k) + " [" +
                              std::string(to_string(fault.kind)) + "]";
    if (fault.kind == FaultKind::none) {
      // Healthy slots must be bitwise unaffected by their faulty neighbors,
      // at any thread count.
      same_slot(baseline[k], narrow[k], where + " vs baseline (serial)");
      same_slot(baseline[k], wide[k], where + " vs baseline (wide)");
    } else {
      check_contract(fault, faulted[k], narrow[k], baseline[k], where + " (serial)");
      check_contract(fault, faulted[k], wide[k], baseline[k], where + " (wide)");
      same_slot(narrow[k], wide[k], where + " serial vs wide");
    }
  }
}

namespace {

std::uint64_t dbits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_wave_bitwise(const wave::Waveform& a, const wave::Waveform& b,
                         const std::string& what) {
  expect(a.size() == b.size(), what + ": sample counts differ (" +
                                   std::to_string(a.size()) + " vs " +
                                   std::to_string(b.size()) + ")");
  for (std::size_t k = 0; k < a.size(); ++k) {
    expect(dbits(a.time(k)) == dbits(b.time(k)) &&
               dbits(a.value(k)) == dbits(b.value(k)),
           what + ": waveform sample " + std::to_string(k) + " differs bitwise");
  }
}

// A far_end_replay slot over `net` — the scenario-batching unit of work.
// require_convergence stays off so hard random instances fail (identically
// on both paths) at the replay measurement, not at the model gate.  Without
// kept waveforms the replay ends at its last measured crossing.
api::Request replay_request(std::string label, const net::Net& net,
                            double cell_size, double input_slew,
                            sim::SolverKind solver, bool keep_waveforms) {
  api::Request r;
  r.label = std::move(label);
  r.cell_size = cell_size;
  r.input_slew = input_slew;
  r.net = net;
  r.far_end_replay = true;
  r.keep_waveforms = keep_waveforms;
  r.require_convergence = false;
  r.solver = solver;
  return r;
}

// Full bitwise slot identity, far end and waveform included (stricter than
// check_batch_invariance's near-end compare, which predates the replay path).
// `waves` off compares the edges alone, for a stopped run against a
// full-horizon one.
void expect_identical_replay_slot(const api::Outcome<api::Response>& a,
                                  const api::Outcome<api::Response>& b,
                                  const std::string& what, bool waves = true) {
  expect(a.ok() == b.ok(), what + ": ok flags differ");
  if (!a.ok()) {
    expect(a.error().code == b.error().code,
           what + ": error codes differ (" +
               std::string(api::to_string(a.error().code)) + " vs " +
               api::to_string(b.error().code) + ")");
    return;
  }
  const api::Response& ra = a.value();
  const api::Response& rb = b.value();
  expect(dbits(ra.model_near.delay) == dbits(rb.model_near.delay) &&
             dbits(ra.model_near.slew) == dbits(rb.model_near.slew),
         what + ": near-end metrics differ bitwise");
  expect(ra.has_model_far == rb.has_model_far, what + ": has_model_far differs");
  if (!ra.has_model_far) return;
  expect(dbits(ra.model_far.delay) == dbits(rb.model_far.delay) &&
             dbits(ra.model_far.slew) == dbits(rb.model_far.slew),
         what + ": far-end metrics differ bitwise");
  expect(ra.solver == rb.solver, what + ": replay solvers differ");
  if (!waves) return;
  expect_wave_bitwise(ra.model_far_wave, rb.model_far_wave,
                      what + ": far-end waveform");
}

// Rebuilds `src` element-for-element in declaration order.  perturb_index
// picks one value across resistors/capacitors/inductors (in that order) to
// bump by one ULP; -1 reproduces the netlist exactly.
ckt::Netlist rebuild_netlist(const ckt::Netlist& src, std::ptrdiff_t perturb_index) {
  auto tweak = [&perturb_index](double v) {
    return perturb_index-- == 0
               ? std::nextafter(v, std::numeric_limits<double>::infinity())
               : v;
  };
  ckt::Netlist out;
  while (out.node_count() < src.node_count()) out.add_node();
  for (const ckt::Resistor& r : src.resistors()) {
    out.add_resistor(r.a, r.b, tweak(r.resistance));
  }
  for (const ckt::Capacitor& c : src.capacitors()) {
    out.add_capacitor(c.a, c.b, tweak(c.capacitance));
  }
  for (const ckt::Inductor& l : src.inductors()) {
    out.add_inductor(l.a, l.b, tweak(l.inductance));
  }
  for (const ckt::MutualInductor& m : src.mutual_inductors()) {
    out.add_mutual_inductor(m.la, m.lb, m.mutual);
  }
  for (const ckt::VSource& v : src.vsources()) {
    out.add_vsource(v.pos, v.neg, v.voltage);
  }
  for (const ckt::Mosfet& f : src.mosfets()) {
    out.add_mosfet(f.drain, f.gate, f.source, f.params, f.width, f.is_pmos);
  }
  return out;
}

}  // namespace

void check_batched_replay_equivalence(api::Engine& engine, std::uint64_t seed,
                                      const api::BatchOptions& options,
                                      sim::SolverKind solver) {
  Rng rng(seed);
  // A few equal-topology classes (members share net + driver, differ only in
  // slew — one factorization group each) plus a singleton that must stay on
  // the scalar path.  Both shapes must be invisible in the numbers.
  std::vector<api::Request> requests;
  const std::size_t classes = 2 + rng.uniform_index(2);
  for (std::size_t c = 0; c < classes; ++c) {
    Rng net_rng = rng.split();
    const net::Net net = instantiate(random_net_recipe(net_rng));
    const double cell = rng.pick(kCells);
    const std::size_t members = 2 + rng.uniform_index(3);
    for (std::size_t m = 0; m < members; ++m) {
      requests.push_back(replay_request(
          "replay-eq-" + std::to_string(c) + "-" + std::to_string(m), net, cell,
          rng.uniform(25 * ps, 300 * ps), solver, true));
    }
  }
  {
    Rng net_rng = rng.split();
    const net::Net net = instantiate(random_net_recipe(net_rng));
    requests.push_back(replay_request("replay-eq-singleton", net, rng.pick(kCells),
                                      rng.uniform(25 * ps, 300 * ps), solver, true));
  }

  api::BatchOptions batched = options;
  batched.batch_scenarios = true;
  batched.n_threads = 1 + static_cast<unsigned>(rng.uniform_index(8));
  api::BatchOptions per_slot = options;
  per_slot.batch_scenarios = false;
  per_slot.n_threads = 1 + static_cast<unsigned>(rng.uniform_index(8));

  // Kept waveforms run every replay to the full horizon; dropped, each
  // replay ends at its last measured crossing, and its edges must still be
  // the full-horizon ones bitwise.
  const bool keep = rng.chance(0.5);
  const std::vector<api::Request> full = requests;
  for (api::Request& r : requests) r.keep_waveforms = keep;
  const std::string mode = keep ? "waveforms kept" : "waveforms dropped";

  const std::vector<api::Outcome<api::Response>> a =
      engine.run_batch(requests, batched);
  const std::vector<api::Outcome<api::Response>> b =
      engine.run_batch(requests, per_slot);
  for (std::size_t k = 0; k < requests.size(); ++k) {
    expect_identical_replay_slot(
        a[k], b[k],
        "batched-vs-per-slot, slot '" + requests[k].label + "' (" +
            sim::to_string(solver) + ", " + mode + ", " +
            std::to_string(batched.n_threads) + " vs " +
            std::to_string(per_slot.n_threads) + " threads)");
  }
  if (keep) return;
  const std::vector<api::Outcome<api::Response>> c = engine.run_batch(full, per_slot);
  for (std::size_t k = 0; k < requests.size(); ++k) {
    expect_identical_replay_slot(
        a[k], c[k],
        "stopped-vs-full-horizon, slot '" + requests[k].label + "' (" +
            sim::to_string(solver) + ")",
        false);
  }
}

void check_adversarial_grouping(std::uint64_t seed, const OracleOptions& options) {
  Rng rng(seed);
  Rng net_rng = rng.split();
  const net::Net net = instantiate(random_net_recipe(net_rng));
  const wave::Pwl source(
      {{10 * ps, 0.0}, {10 * ps + rng.uniform(25 * ps, 300 * ps), 1.8}});
  const tech::DeckOptions deck =
      equivalence_deck(options, short_horizon(net, 100 * ps));
  const tech::SourceNetDeck compiled = tech::compile_source_net(source, net, deck);
  const sim::TransientOptions sim_opt = tech::sim_options(deck);
  const ckt::Netlist& a = compiled.netlist;
  const std::uint64_t hash_a = sim::scenario_group_hash(a, sim_opt);

  const ckt::Netlist twin = rebuild_netlist(a, -1);
  expect(sim::scenario_group_equal(a, twin),
         "adversarial grouping: an identical rebuild must group with its twin");
  expect(hash_a == sim::scenario_group_hash(twin, sim_opt),
         "adversarial grouping: identical rebuilds hash apart");

  const std::size_t values =
      a.resistors().size() + a.capacitors().size() + a.inductors().size();
  expect(values > 0, "adversarial grouping: compiled deck has no RLC elements");
  const ckt::Netlist ulp = rebuild_netlist(
      a, static_cast<std::ptrdiff_t>(rng.uniform_index(values)));
  expect(!sim::scenario_group_equal(a, ulp),
         "adversarial grouping: a one-ULP element perturbation shares a "
         "factorization group");
  expect(hash_a != sim::scenario_group_hash(ulp, sim_opt),
         "adversarial grouping: a one-ULP element perturbation collides with "
         "the group hash");

  ckt::Netlist edged = rebuild_netlist(a, -1);
  edged.add_resistor(1 + rng.uniform_index(a.node_count() - 1), ckt::ground, 1e6);
  expect(!sim::scenario_group_equal(a, edged),
         "adversarial grouping: one extra topology edge shares a "
         "factorization group");
  expect(hash_a != sim::scenario_group_hash(edged, sim_opt),
         "adversarial grouping: one extra topology edge collides with the "
         "group hash");
}

void check_chaos_replay_group(api::Engine& engine, std::uint64_t seed,
                              const api::BatchOptions& options,
                              std::size_t slots) {
  expect(slots >= 2, "chaos replay group needs at least two slots");
  Rng rng(seed);
  Rng net_rng = rng.split();
  const net::Net net = instantiate(random_net_recipe(net_rng));
  const double cell = rng.pick(kCells);
  std::vector<api::Request> clean;
  clean.reserve(slots);
  for (std::size_t k = 0; k < slots; ++k) {
    clean.push_back(replay_request("chaos-replay-" + std::to_string(k), net, cell,
                                   rng.uniform(25 * ps, 300 * ps),
                                   sim::SolverKind::automatic, true));
  }

  const std::size_t victim = rng.uniform_index(slots);
  constexpr FaultKind kMenu[] = {FaultKind::worker_throw,
                                 FaultKind::instant_deadline,
                                 FaultKind::step_budget};
  SlotFault fault;
  fault.kind = rng.pick(kMenu);
  // Dropped waveforms put every lane on the measured-edge stop: the mates
  // retire at their own last crossing, the victim at its budget.
  const bool keep = rng.chance(0.5);
  for (api::Request& r : clean) r.keep_waveforms = keep;

  api::BatchOptions base = options;
  base.batch_scenarios = true;
  base.n_threads = 1;
  base.debug_slot_fault = nullptr;
  const std::vector<api::Outcome<api::Response>> baseline =
      engine.run_batch(clean, base);

  std::vector<api::Request> faulted = clean;
  switch (fault.kind) {
    case FaultKind::instant_deadline:
      // Below any clock granularity; a wall-limited slot is also ineligible
      // to defer, so the group shrinks to N-1 lanes before it runs.
      faulted[victim].budget.wall_limit_s = 1e-12;
      break;
    case FaultKind::step_budget:
      // Unlike the plain chaos lane (which forces the reference path), this
      // budget meters the *deferred replay*: the victim joins the block and
      // its lane must be retired inside it.  Any replay runs well past ten
      // steps before its far end completes, stopped or not.
      faulted[victim].budget.max_transient_steps = 10;
      break;
    default:
      break;
  }

  api::BatchOptions chaos_serial = base;
  if (fault.kind == FaultKind::worker_throw) {
    chaos_serial.debug_slot_fault = [victim](std::size_t slot,
                                             util::ExecTracker&) {
      if (slot == victim) {
        throw std::runtime_error("injected worker fault (slot " +
                                 std::to_string(slot) + ")");
      }
    };
  }
  api::BatchOptions chaos_wide = chaos_serial;
  chaos_wide.n_threads = 4;
  const std::vector<api::Outcome<api::Response>> narrow =
      engine.run_batch(faulted, chaos_serial);
  const std::vector<api::Outcome<api::Response>> wide =
      engine.run_batch(faulted, chaos_wide);

  const FaultExpectation e = expectation(fault);
  for (const auto* run : {&narrow, &wide}) {
    const char* mode = run == &narrow ? "serial" : "wide";
    for (std::size_t k = 0; k < slots; ++k) {
      const std::string where = "chaos replay group slot " + std::to_string(k) +
                                " [" +
                                (k == victim ? to_string(fault.kind) : "mate") +
                                ", " + mode +
                                (keep ? ", waveforms kept]" : ", waveforms dropped]");
      if (k != victim) {
        expect_identical_replay_slot(baseline[k], (*run)[k],
                                     where + " vs clean baseline");
        continue;
      }
      expect(!(*run)[k].ok(), where + ": expected a failed outcome, got success");
      // A victim that fails even unfaulted may surface its own code first;
      // mate isolation above is checked in full either way.
      if (!baseline[k].ok() &&
          (*run)[k].error().code == baseline[k].error().code) {
        continue;
      }
      const api::ErrorInfo& err = (*run)[k].error();
      expect(err.code == e.code,
             where + ": expected " + std::string(api::to_string(e.code)) +
                 ", got " + api::to_string(err.code) + " (" + err.message + ")");
      if (*e.message_needle != '\0') {
        expect(err.message.find(e.message_needle) != std::string::npos,
               where + ": message '" + err.message + "' lacks '" +
                   e.message_needle + "'");
      }
    }
  }
}

void check_nan_stamp_fault(const net::Net& net, Rng rng,
                           const OracleOptions& options) {
  const double input_slew = rng.uniform(25 * ps, 300 * ps);
  tech::DeckOptions deck = equivalence_deck(options, short_horizon(net, input_slew));
  deck.sim.assembly = sim::AssemblyMode::cached;
  const wave::Pwl source = wave::ramp(10 * ps, input_slew, 0.0, 1.8);

  // The unpoisoned deck must simulate cleanly: this oracle tests the guard,
  // not the instance.
  tech::simulate_source_net(source, net, deck);

  deck.sim.debug_cached_stamp_nan = true;
  bool caught = false;
  try {
    tech::simulate_source_net(source, net, deck);
  } catch (const SingularMatrixError&) {
    caught = true;
  }
  expect(caught,
         "NaN-poisoned cached stamp escaped: the simulator returned waveforms "
         "instead of raising SingularMatrixError");
}

namespace {

// True when `w` crosses all three rising-edge levels of [0, vdd].
bool completes_edge(const wave::Waveform& w, double vdd) {
  for (double level : wave::rising_edge_levels(0.0, vdd)) {
    if (!w.first_crossing(level).has_value()) return false;
  }
  return true;
}

wave::Waveform first_samples(const wave::Waveform& w, std::size_t n) {
  return wave::Waveform(std::vector<double>(w.times().begin(), w.times().begin() + n),
                        std::vector<double>(w.values().begin(), w.values().begin() + n));
}

// One probe of a deck run three ways: with the measured-edge stop on, with
// it off (to t_stop), and with it on over an unreachable rail.
struct StopProbe {
  std::string name;
  const wave::Waveform* stopped;
  const wave::Waveform* full;
  const wave::Waveform* never;
  bool watched;  // the deck watches this node for the stop
};

// The sim::EdgeStop contract over one deck's probes: every stopped waveform
// is a bitwise prefix of the full-horizon one; an unreachable rail runs to
// t_stop; and when every watched edge completes, the run ends at the first
// sample holding all of them, with bitwise-equal edge timings.  Otherwise the
// run is the full-horizon run.
void expect_stop_contract(const std::vector<StopProbe>& probes, double vdd,
                          const std::string& what) {
  bool complete = true;
  for (const StopProbe& p : probes) {
    const std::string where = what + " " + p.name;
    expect(p.stopped->size() <= p.full->size(),
           where + ": the stopped run outlasts the full-horizon run");
    for (std::size_t k = 0; k < p.stopped->size(); ++k) {
      expect(dbits(p.stopped->time(k)) == dbits(p.full->time(k)) &&
                 dbits(p.stopped->value(k)) == dbits(p.full->value(k)),
             where + ": stopped sample " + std::to_string(k) +
                 " differs bitwise from the full-horizon run");
    }
    expect_wave_bitwise(*p.never, *p.full, where + ": unreachable-rail run vs full");
    if (p.watched) complete = complete && completes_edge(*p.full, vdd);
  }
  if (!complete) {
    for (const StopProbe& p : probes) {
      expect_wave_bitwise(*p.stopped, *p.full,
                          what + " " + p.name + ": an incomplete edge stopped early");
    }
    return;
  }
  bool complete_one_sample_earlier = true;
  for (const StopProbe& p : probes) {
    if (!p.watched) continue;
    const std::string where = what + " " + p.name;
    const wave::EdgeTiming a = wave::measure_rising_edge(*p.stopped, 0.0, vdd);
    const wave::EdgeTiming b = wave::measure_rising_edge(*p.full, 0.0, vdd);
    expect(dbits(a.t10) == dbits(b.t10) && dbits(a.t50) == dbits(b.t50) &&
               dbits(a.t90) == dbits(b.t90),
           where + ": stopped edge timings differ bitwise from the full-horizon run");
    complete_one_sample_earlier =
        complete_one_sample_earlier &&
        completes_edge(first_samples(*p.stopped, p.stopped->size() - 1), vdd);
  }
  expect(!complete_one_sample_earlier,
         what + ": the run went on past the sample completing every watched edge");
}

}  // namespace

void check_measured_edge_stop(const net::Net& net, Rng rng,
                              const OracleOptions& options) {
  const tech::Technology technology = tech::Technology::cmos180();
  const double vdd = technology.vdd;
  const double cell = rng.pick(kCells);
  const double input_slew = rng.uniform(25 * ps, 300 * ps);
  // Horizons long enough for the slowest instance to finish its edges: the
  // experiment harness's settle heuristic.
  const net::NetMetrics metrics = net.metrics();
  tech::DeckOptions deck = equivalence_deck(options, 0.0);
  deck.t_stop = core::settle_horizon(deck.t_start, input_slew, cell, metrics);
  const wave::Pwl ramp = wave::ramp(deck.t_start, input_slew, 0.0, vdd);

  enum class Deck { driver, source, cap_load, block };
  const Deck kind = static_cast<Deck>(rng.uniform_index(4));
  if (kind == Deck::block) {
    // Lanes of one net (one to four, so a one-lane block is covered), each
    // with its own slew and horizon; one may end before its edge completes.
    // Every lane must stop exactly where sim::simulate stops the same deck
    // alone.
    const std::size_t lanes = 1 + rng.uniform_index(4);
    const std::size_t short_lane = rng.chance(0.5) ? rng.uniform_index(lanes) : lanes;
    std::vector<tech::DeckOptions> lane_decks(lanes, deck);
    std::vector<tech::SourceNetDeck> compiled;
    compiled.reserve(lanes);
    std::vector<sim::BlockScenario> scenarios;
    scenarios.reserve(lanes);
    for (std::size_t k = 0; k < lanes; ++k) {
      const double slew = rng.uniform(25 * ps, 300 * ps);
      lane_decks[k].t_stop = k == short_lane
                                 ? deck.t_start + 0.5 * slew
                                 : core::settle_horizon(deck.t_start, slew, cell, metrics);
      lane_decks[k].sim.edge_stop.vdd = vdd;
      compiled.push_back(tech::compile_source_net(
          wave::ramp(deck.t_start, slew, 0.0, vdd), net, lane_decks[k]));
    }
    for (std::size_t k = 0; k < lanes; ++k) {
      scenarios.push_back({&compiled[k].netlist, lane_decks[k].t_stop, nullptr});
    }
    const std::vector<sim::BlockOutcome> block = sim::simulate_block(
        scenarios, tech::sim_options(lane_decks[0], compiled[0]), compiled[0].probes);
    for (std::size_t k = 0; k < lanes; ++k) {
      const std::string where = "block lane " + std::to_string(k);
      expect(block[k].result.has_value(), where + " failed");
      const sim::TransientResult& lane = block[k].result.value();
      const sim::TransientResult alone =
          sim::simulate(compiled[k].netlist, tech::sim_options(lane_decks[k], compiled[k]),
                        compiled[k].probes);
      for (ckt::NodeId node : compiled[k].probes) {
        expect_wave_bitwise(lane.at(node), alone.at(node),
                            where + " vs the stopped scalar run, node " +
                                std::to_string(node));
      }
    }
    return;
  }

  auto run = [&](double rail) {
    tech::DeckOptions d = deck;
    d.sim.edge_stop.vdd = rail;
    const tech::Inverter inverter{cell};
    switch (kind) {
      case Deck::driver:
        return tech::simulate_driver_net(technology, inverter, input_slew, net, d);
      case Deck::source:
        return tech::simulate_source_net(ramp, net, d);
      default: {
        tech::NetSimResult r;
        r.near_end = tech::simulate_driver_cap_load(technology, inverter, input_slew,
                                                    net.total_capacitance(), d);
        return r;
      }
    }
  };
  const tech::NetSimResult stopped = run(vdd);
  const tech::NetSimResult full = run(0.0);
  const tech::NetSimResult never = run(10.0 * vdd);

  std::vector<StopProbe> probes;
  probes.push_back({"near end", &stopped.near_end, &full.near_end, &never.near_end, true});
  for (std::size_t k = 0; k < stopped.leaves.size(); ++k) {
    probes.push_back({"leaf " + std::to_string(k), &stopped.leaves[k], &full.leaves[k],
                      &never.leaves[k], true});
  }
  for (std::size_t k = 0; k < stopped.probes.size(); ++k) {
    probes.push_back({"probe '" + stopped.probes[k].first + "'", &stopped.probes[k].second,
                      &full.probes[k].second, &never.probes[k].second, false});
  }
  const char* names[] = {"driver deck", "source deck", "cap-load deck"};
  expect_stop_contract(probes, vdd, names[static_cast<int>(kind)]);
}

void check_measured_edge_stop(const net::CoupledGroup& group, Rng rng,
                              const OracleOptions& options) {
  const tech::Technology technology = tech::Technology::cmos180();
  const double vdd = technology.vdd;
  const double t_start = tech::DeckOptions{}.t_start;
  double t_stop = 0.0;
  std::vector<tech::NetDrive> drives(group.size());
  for (std::size_t k = 0; k < group.size(); ++k) {
    drives[k].cell = tech::Inverter{rng.pick(kCells)};
    drives[k].input_slew = rng.uniform(25 * ps, 200 * ps);
    const tech::DriveEdge edges[] = {tech::DriveEdge::rise, tech::DriveEdge::fall,
                                     tech::DriveEdge::hold_low};
    drives[k].edge = edges[rng.uniform_index(3)];
    t_stop = std::max(t_stop, core::settle_horizon(t_start, drives[k].input_slew,
                                                   drives[k].cell.size,
                                                   group.net_at(k).metrics(),
                                                   group.coupling_capacitance_at(k)));
  }
  drives[0].edge = tech::DriveEdge::rise;  // at least one watched net

  auto run = [&](double rail) {
    tech::DeckOptions d = equivalence_deck(options, t_stop);
    d.sim.edge_stop.vdd = rail;
    return tech::simulate_coupled_group(technology, drives, group, d);
  };
  const tech::CoupledSimResult stopped = run(vdd);
  const tech::CoupledSimResult full = run(0.0);
  const tech::CoupledSimResult never = run(10.0 * vdd);

  std::vector<StopProbe> probes;
  for (std::size_t k = 0; k < group.size(); ++k) {
    const std::string net = "'" + group.label_at(k) + "'";
    const bool rises = drives[k].edge == tech::DriveEdge::rise;
    const tech::NetSimResult& s = stopped.nets[k];
    const tech::NetSimResult& f = full.nets[k];
    const tech::NetSimResult& n = never.nets[k];
    probes.push_back({net + " near end", &s.near_end, &f.near_end, &n.near_end, rises});
    for (std::size_t j = 0; j < s.leaves.size(); ++j) {
      probes.push_back({net + " leaf " + std::to_string(j), &s.leaves[j], &f.leaves[j],
                        &n.leaves[j], rises});
    }
  }
  expect_stop_contract(probes, vdd, "coupled deck");
}

void check_group_invariants(const net::CoupledGroup& group, std::size_t victim,
                            const OracleOptions& options) {
  double per_net_sum = 0.0;
  for (std::size_t k = 0; k < group.size(); ++k) {
    per_net_sum += group.coupling_capacitance_at(k);
  }
  double cap_sum = 0.0;
  for (const net::CouplingCap& cc : group.coupling_caps()) cap_sum += cc.capacitance;
  expect_close(per_net_sum, 2.0 * cap_sum, 1e-12,
               "per-net coupling capacitance vs 2x element sum");

  const double victim_cap = group.net_at(victim).total_capacitance();
  const double attached = group.coupling_capacitance_at(victim);

  // Quiet folding (all 1x) grounds every attached coupling cap.
  expect_close(group.decoupled_net(victim).total_capacitance(), victim_cap + attached,
               1e-12, "quiet Miller folding capacitance");

  // 0x folding drops every coupling cap: the victim net unchanged.
  const std::vector<double> zero(group.size(), 0.0);
  expect(group.decoupled_net(victim, zero).total_capacitance() == victim_cap,
         "0x Miller folding changed the victim net");

  // 2x folding doubles the attached charge.
  const std::vector<double> twice(group.size(), 2.0);
  expect_close(group.decoupled_net(victim, twice).total_capacitance(),
               victim_cap + 2.0 * attached, 1e-12, "2x Miller folding capacitance");

  // The one-net group is the degenerate case: identical compiled deck.
  const net::CoupledGroup single = net::CoupledGroup::single(group.net_at(victim));
  ckt::Netlist nl_single, nl_direct;
  const ckt::NodeId from_single = nl_single.node("out");
  const ckt::NodeId from_direct = nl_direct.node("out");
  const std::vector<ckt::NodeId> from{from_single};
  ckt::append_coupled_group(nl_single, from, single, options.segments);
  ckt::append_net(nl_direct, from_direct, group.net_at(victim), options.segments);
  expect(nl_single.node_count() == nl_direct.node_count() &&
             nl_single.resistors().size() == nl_direct.resistors().size() &&
             nl_single.capacitors().size() == nl_direct.capacitors().size() &&
             nl_single.inductors().size() == nl_direct.inductors().size(),
         "single-net group compiled a different deck shape than append_net");
  for (std::size_t k = 0; k < nl_single.resistors().size(); ++k) {
    expect(nl_single.resistors()[k].resistance == nl_direct.resistors()[k].resistance,
           "single-net group resistor " + std::to_string(k) + " differs");
  }
  for (std::size_t k = 0; k < nl_single.capacitors().size(); ++k) {
    expect(nl_single.capacitors()[k].capacitance ==
               nl_direct.capacitors()[k].capacitance,
           "single-net group capacitor " + std::to_string(k) + " differs");
  }
  for (std::size_t k = 0; k < nl_single.inductors().size(); ++k) {
    expect(nl_single.inductors()[k].inductance == nl_direct.inductors()[k].inductance,
           "single-net group inductor " + std::to_string(k) + " differs");
  }
}

void check_miller_envelope(const tech::Technology& technology,
                           charlib::CellLibrary& library, const GroupRecipe& recipe,
                           Rng rng, const OracleOptions& options) {
  core::CoupledExperimentCase scenario;
  scenario.label = "miller-" + describe(recipe);
  scenario.group = instantiate(recipe);
  scenario.victim = rng.uniform_index(scenario.group.size());
  scenario.driver_size = rng.pick(kCells);
  scenario.input_slew = rng.uniform(50 * ps, 200 * ps);
  core::AggressorDrive drive;
  for (std::size_t k = 0; k < scenario.group.size(); ++k) {
    drive.driver_size = rng.pick(kCells);
    drive.input_slew = rng.uniform(50 * ps, 200 * ps);
    drive.switching = rng.chance(0.5) ? core::AggressorSwitching::opposite
                                      : core::AggressorSwitching::same_direction;
    scenario.aggressors.push_back(drive);
  }

  core::CoupledExperimentOptions opt;
  opt.deck.segments = options.segments;
  opt.deck.dt = options.dt;
  opt.grid.input_slews = {50 * ps, 100 * ps, 200 * ps};
  opt.grid.loads = {20 * ff, 50 * ff,  200 * ff, 500 * ff,
                    1 * pf,  2 * pf,   4 * pf};
  opt.include_noise = true;

  const core::CoupledExperimentResult r =
      core::run_coupled_experiment(technology, library, scenario, opt);

  expect(std::isfinite(r.ref_far.delay) && r.ref_far.slew > 0.0,
         "coupled reference produced a degenerate far-end edge");
  // The 0x/2x Miller factors are a worst-case bound, not a fit: with a slow
  // opposing aggressor the decoupled delay legitimately overshoots the
  // coupled simulation by tens of percent.  The envelope guards against
  // catastrophic breakage (dropped coupling, wrong sign, broken replay),
  // not against the approximation's documented error.
  const double envelope = 0.5 * std::abs(r.ref_far.delay) + 15 * ps;
  expect(std::abs(r.model_far.delay - r.ref_far.delay) <= envelope,
         "Miller-decoupled far-end delay " + fmt(r.model_far.delay) +
             " s outside the envelope of the coupled simulation " +
             fmt(r.ref_far.delay) + " s (envelope " + fmt(envelope) + " s)");
  expect(r.peak_noise >= 0.0 && r.peak_noise <= technology.vdd,
         "quiet-victim peak noise " + fmt(r.peak_noise) + " V outside [0, Vdd]");
}

namespace {

// Strips the flags a tiered request may not carry (the cascade owns the
// reference decision) and any reference-only extras.
api::Request model_only(const api::Request& request) {
  api::Request out = request;
  out.reference = false;
  out.one_ramp_baseline = false;
  out.keep_waveforms = false;
  out.tier = tier::TierPolicy::reference;
  return out;
}

}  // namespace

void check_tier_identity(api::Engine& engine, const api::Request& request,
                         const api::BatchOptions& options) {
  const api::Request legacy = model_only(request);
  api::Request forced = legacy;
  forced.tier = tier::TierPolicy::force_ceff;

  const api::Outcome<api::Response> base = engine.model(legacy, options);
  const api::Outcome<api::Response> tiered = engine.model(forced, options);
  if (base.ok() != tiered.ok()) {
    expect(false, std::string("force_ceff changed the outcome of the legacy path: ") +
                      (base.ok() ? "legacy ok, tiered failed: " + tiered.error().message
                                 : "legacy failed, tiered ok"));
  }
  if (!base.ok()) {
    expect(base.error().code == tiered.error().code,
           "force_ceff changed the failure code of the legacy path");
    return;
  }
  const api::Response& b = base.value();
  const api::Response& t = tiered.value();
  auto same = [&](double x, double y, const char* what) {
    expect(x == y, std::string("force_ceff diverged from the legacy path on ") +
                       what + ": " + fmt(x) + " vs " + fmt(y));
  };
  same(b.model_near.delay, t.model_near.delay, "near-end delay");
  same(b.model_near.slew, t.model_near.slew, "near-end slew");
  same(b.model.t50, t.model.t50, "model t50");
  same(b.model.ceff1.ceff, t.model.ceff1.ceff, "Ceff1");
  same(b.model.ceff1.ramp_time, t.model.ceff1.ramp_time, "Tr1");
  same(b.delay_pushout_model, t.delay_pushout_model, "model pushout");
  expect(b.model.kind == t.model.kind, "force_ceff changed the model kind");
  // Provenance stamps: the default policy reports the legacy mapping, the
  // forced policy reports Tier B with no escalations.
  expect(b.fidelity == api::Fidelity::ceff_model && b.tier == tier::Tier::ceff &&
             b.tier_escalations == 0,
         "default-policy response carries a non-legacy tier stamp");
  expect(t.fidelity == api::Fidelity::ceff_model && t.tier == tier::Tier::ceff &&
             t.tier_escalations == 0,
         "force_ceff response mis-stamped its tier provenance");
}

void check_tier_envelope(api::Engine& engine, const api::Request& request,
                         const api::BatchOptions& options) {
  api::Request routed = model_only(request);
  routed.tier = tier::TierPolicy::balanced;

  api::Request reference = model_only(request);
  reference.reference = true;
  reference.noise = request.coupled();

  const api::Outcome<api::Response> routed_out = engine.model(routed, options);
  if (!routed_out.ok()) return;  // outcome taxonomy is check_engine_outcome's
  const api::Outcome<api::Response> ref_out = engine.model(reference, options);
  if (!ref_out.ok()) return;

  const api::Response& r = routed_out.value();
  const api::Response& c = ref_out.value();
  if (r.tier == tier::Tier::reference) return;  // served by the reference itself

  const tier::Envelope env = tier::envelope(r.tier, request.coupled());
  const double noise = r.has_noise_bound ? r.noise_bound : -1.0;
  const double ref_noise =
      (request.coupled() && c.has_reference) ? c.peak_noise : -1.0;
  const tier::EnvelopeCheck check =
      tier::check_envelope(env, r.model_near.delay, r.model_near.slew,
                           c.ref_near.delay, c.ref_near.slew, noise, ref_noise);
  const std::string tag =
      std::string("tier ") + tier::to_string(r.tier) +
      (request.coupled() ? " (coupled)" : "") + " vs reference: ";
  expect(check.delay_ok, tag + "delay " + fmt(r.model_near.delay) +
                             " s outside the envelope of " + fmt(c.ref_near.delay) +
                             " s (rel " + fmt(env.delay_rel) + ", abs " +
                             fmt(env.delay_abs) + " s)");
  expect(check.slew_ok, tag + "slew " + fmt(r.model_near.slew) +
                            " s outside the envelope of " + fmt(c.ref_near.slew) +
                            " s (rel " + fmt(env.slew_rel) + ", abs " +
                            fmt(env.slew_abs) + " s)");
  expect(check.noise_ok, tag + "noise bound " + fmt(noise) +
                             " V under-states the simulated quiet-victim peak " +
                             fmt(ref_noise) + " V by more than " +
                             fmt(env.noise_abs) + " V");
}

namespace {

// Fuzzed validation: build a small valid branch tree, then plant one defect
// at a random path and require the error message to name that location.
net::Branch small_valid_branch(Rng& rng, std::size_t depth) {
  net::Branch branch;
  const std::size_t n_sections = 1 + rng.uniform_index(2);
  for (std::size_t k = 0; k < n_sections; ++k) {
    branch.sections.push_back({rng.log_uniform(10.0, 500.0),
                               rng.log_uniform(0.1 * nh, 5 * nh),
                               rng.log_uniform(50 * ff, 1 * pf),
                               net::SectionKind::distributed});
  }
  if (depth == 0) {
    branch.c_load = rng.log_uniform(5 * ff, 100 * ff);
    return branch;
  }
  const std::size_t fanout = 2;
  for (std::size_t k = 0; k < fanout; ++k) {
    branch.children.push_back(small_valid_branch(rng, depth - 1));
  }
  return branch;
}

struct BranchSite {
  net::Branch* branch;
  std::string path;
};

void collect_sites(net::Branch& branch, const std::string& path,
                   std::vector<BranchSite>& out) {
  out.push_back({&branch, path});
  for (std::size_t k = 0; k < branch.children.size(); ++k) {
    collect_sites(branch.children[k], path + "/" + std::to_string(k), out);
  }
}

template <class Fn>
void expect_error_naming(Fn&& fn, const std::vector<std::string>& needles,
                         const std::string& what) {
  try {
    fn();
  } catch (const Error& e) {
    const std::string message = e.what();
    for (const std::string& needle : needles) {
      expect(message.find(needle) != std::string::npos,
             what + ": error message does not name '" + needle + "' (got: \"" +
                 message + "\")");
    }
    return;
  }
  throw Error("oracle: " + what + ": defective input was accepted");
}

}  // namespace

void check_validation_reporting(Rng rng) {
  net::Branch root = small_valid_branch(rng, 1 + rng.uniform_index(2));
  std::vector<BranchSite> sites;
  collect_sites(root, "root", sites);
  const BranchSite site = sites[rng.uniform_index(sites.size())];
  const std::size_t section = rng.uniform_index(site.branch->sections.size());
  const std::string section_name = "section " + std::to_string(section);

  switch (rng.uniform_index(8)) {
    case 0:
      site.branch->sections[section].resistance = -rng.log_uniform(1.0, 100.0);
      expect_error_naming([&] { net::Net probe{root}; },
                          {section_name, "'" + site.path + "'", "resistance"},
                          "negative section resistance");
      break;
    case 1:
      site.branch->sections[section].inductance = -rng.log_uniform(0.1 * nh, 1 * nh);
      expect_error_naming([&] { net::Net probe{root}; },
                          {section_name, "'" + site.path + "'", "inductance"},
                          "negative section inductance");
      break;
    case 2:
      site.branch->sections[section].capacitance = 0.0;
      expect_error_naming([&] { net::Net probe{root}; },
                          {section_name, "'" + site.path + "'", "capacitance"},
                          "zero distributed capacitance");
      break;
    case 3:
      site.branch->c_load = -rng.log_uniform(1 * ff, 100 * ff);
      expect_error_naming([&] { net::Net probe{root}; },
                          {"'" + site.path + "'", "load"}, "negative receiver load");
      break;
    case 4: {
      for (BranchSite& s : sites) s.branch->probe.clear();
      sites.front().branch->probe = "dup";
      site.branch->probe = "dup";
      if (site.branch == sites.front().branch) {
        sites.back().branch->probe = "dup";
      }
      expect_error_naming([&] { net::Net probe{root}; }, {"duplicate probe", "'dup'"},
                          "duplicate probe name");
      break;
    }
    case 5: {
      site.branch->children.push_back(net::Branch{});  // phantom leaf
      const std::string child_path =
          site.path + "/" + std::to_string(site.branch->children.size() - 1);
      expect_error_naming([&] { net::Net probe{root}; },
                          {"'" + child_path + "'", "empty"}, "empty branch");
      break;
    }
    case 6: {
      // Coupled-group addressing defects.
      net::CoupledGroup group;
      group.add_net(net::Net(root), "alpha");
      net::Branch other = small_valid_branch(rng, 0);
      group.add_net(net::Net(other), "beta");
      const std::size_t sections_in_beta = group.section_count(1);
      expect_error_naming(
          [&] {
            group.couple_capacitance({0, 0}, {1, sections_in_beta + 2}, 10 * ff);
          },
          {"'beta'", "section " + std::to_string(sections_in_beta + 2),
           std::to_string(sections_in_beta) + " sections"},
          "coupling section out of range");
      expect_error_naming([&] { group.couple_capacitance({0, 0}, {0, 1}, 10 * ff); },
                          {"same net"}, "coupling both ends on one net");
      expect_error_naming([&] { group.couple_capacitance({0, 0}, {1, 0}, 0.0); },
                          {"'alpha'", "'beta'", "non-physical"},
                          "zero coupling capacitance");
      group.couple_inductance({0, 0}, {1, 0}, 0.6);
      expect_error_naming([&] { group.couple_inductance({0, 0}, {1, 0}, 0.55); },
                          {"'alpha'", "'beta'", "accumulates"},
                          "accumulated mutual coupling past passivity");
      break;
    }
    default: {
      // Engine request validation.
      api::Request request;
      request.label = "defective";
      request.cell_size = -1.0;
      expect_error_naming(
          [&] {
            api::Engine engine;
            api::Outcome<api::Response> outcome = engine.model(request);
            expect(!outcome.ok() &&
                       outcome.error().code == api::ErrorCode::invalid_request,
                   "negative cell size not rejected as invalid_request");
            throw Error(outcome.error().message);
          },
          {"'defective'", "cell size"}, "negative cell size");
      break;
    }
  }
}

}  // namespace rlceff::testkit
