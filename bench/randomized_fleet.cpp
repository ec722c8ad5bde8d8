// Randomized-fleet throughput + tier-cascade trajectory: the property
// harness's generator feeding the production batch path.
//
// Where BENCH_perf.json's engine_batch_nets_per_s measures the Fig-7 grid
// (one topology, swept parameters), this bench measures what a timing
// service actually sees: a mixed batch of generated uniform lines, tapered
// routes, branched trees, and coupled groups (testkit::random_request) run
// through api::Engine::run_batch.  Slots that fail to converge are counted,
// not hidden — the number of clean slots is part of the trajectory.
//
// Four passes, all pinned to one worker so the numbers are per-core and do
// not drift with the runner's thread count:
//
//   1. balanced   — TierPolicy::balanced end to end: per-tier hit rates,
//                   escalation counts, latency percentiles, fleet nets/s;
//   2. tier A     — the slots the router actually served analytically,
//                   tiled to a large batch and re-run force_analytical: the
//                   closed-form throughput claim (>1M nets/s);
//   3. tier B     — the whole fleet force_ceff: the legacy model-only speed,
//                   and the Ceff table passes per model (ceff1 + ceff2 +
//                   ceff3 iterations, as rlcbench's
//                   core.ceff_iterations_per_call counts them);
//   4. tier C     — a small force_reference sample at reduced deck fidelity:
//                   transient nets/s, and the reference numbers behind the
//                   envelope-violation count the CI gate consumes.
//
// --calibrate widens pass 4 to every net and prints the observed worst-case
// relative/absolute errors per (tier, coupled) class — the numbers the
// checked-in envelopes in src/tier/envelope.cpp are set from (observed
// worst case plus margin).
//
// Usage: randomized_fleet [--nets N] [--seed S] [--calibrate]
//        [--envelope-sample K]
// Writes the "fleet." and "tier." sections of BENCH_perf.json.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "bench_common.h"
#include "testkit/generate.h"
#include "testkit/rng.h"
#include "tier/envelope.h"
#include "tier/tier.h"

using namespace rlceff;
using namespace rlceff::units;

namespace {

using clock_type = std::chrono::steady_clock;

double seconds_since(clock_type::time_point t0) {
  return std::chrono::duration<double>(clock_type::now() - t0).count();
}

// Best-of-`reps` wall time for one run_batch call (after one warm-up, whose
// outcomes land in `warm` when it is given).
double time_batch(const std::vector<api::Request>& requests,
                  const api::BatchOptions& options, int reps,
                  std::vector<api::Outcome<api::Response>>* warm = nullptr) {
  std::vector<api::Outcome<api::Response>> first =
      bench::engine().run_batch(requests, options);
  if (warm) *warm = std::move(first);
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = clock_type::now();
    const auto results = bench::engine().run_batch(requests, options);
    best = std::min(best, seconds_since(t0));
    if (results.size() != requests.size()) std::abort();
  }
  return best;
}

// Worst observed error of one (tier, coupled) class, for --calibrate.
struct ErrorEnvelope {
  std::size_t count = 0;
  double delay_rel = 0.0, delay_abs = 0.0;
  double slew_rel = 0.0, slew_abs = 0.0;
  double noise_short = 0.0;  // worst (simulated peak - closed-form bound)
  void fold(double value, double reference, double& rel, double& abs) {
    abs = std::max(abs, std::abs(value - reference));
    if (reference != 0.0)
      rel = std::max(rel, std::abs(value - reference) / std::abs(reference));
  }
};

}  // namespace

int main(int argc, char** argv) {
  if (bench::list_metrics_requested(argc, argv)) {
    // Keep in sync with fleet_metrics/tier_metrics below (the key-set smoke
    // diffs this list against the checked-in BENCH_perf.json).
    bench::list_metrics("fleet",
                        {"nets", "coupled_nets", "ok_fraction", "nets_per_s",
                         "slot_p50_us", "slot_p95_us", "slot_p99_us",
                         "degraded_fraction"});
    bench::list_metrics("tier",
                        {"a_hit_rate", "b_hit_rate", "c_hit_rate",
                         "escalations_per_net", "a_nets_per_s", "b_nets_per_s",
                         "b_ceff_passes_per_call", "c_nets_per_s",
                         "envelope_checked", "envelope_violations"});
    return 0;
  }
  std::size_t n_nets = 256;
  std::uint64_t seed = 0x20030603ull;
  std::size_t envelope_sample = 48;
  bool calibrate = false;
  for (int k = 1; k < argc; ++k) {
    if (std::strcmp(argv[k], "--nets") == 0 && k + 1 < argc) {
      n_nets = static_cast<std::size_t>(std::atoll(argv[++k]));
    } else if (std::strcmp(argv[k], "--seed") == 0 && k + 1 < argc) {
      seed = std::strtoull(argv[++k], nullptr, 0);
    } else if (std::strcmp(argv[k], "--envelope-sample") == 0 && k + 1 < argc) {
      envelope_sample = static_cast<std::size_t>(std::atoll(argv[++k]));
    } else if (std::strcmp(argv[k], "--calibrate") == 0) {
      calibrate = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--nets N] [--seed S] [--calibrate] "
                   "[--envelope-sample K]\n",
                   argv[0]);
      return 1;
    }
  }

  // The generator draws cell sizes from a fixed six-size menu; warming them
  // up front keeps the timed regions pure model evaluation.
  bench::warm_library({25.0, 50.0, 75.0, 100.0, 150.0, 200.0});

  // One worker: every number below is per-core throughput by definition
  // (the batch pool scales embarrassingly; core count is not the claim).
  api::BatchOptions options;
  options.n_threads = 1;
  // Tier C / envelope fidelity: coarse enough that the reference sample
  // stays CI-friendly, fine enough that the envelope check is meaningful.
  options.deck.segments = 24;
  options.deck.dt = 1 * ps;

  std::vector<api::Request> requests;
  requests.reserve(n_nets);
  for (std::size_t k = 0; k < n_nets; ++k) {
    testkit::Rng rng(testkit::mix_seed(seed, 0xF1EE7, k));
    api::Request request = testkit::random_request(rng);
    request.label += "-" + std::to_string(k);
    request.degrade.enabled = true;
    requests.push_back(std::move(request));
  }

  // ---- Pass 1: the balanced cascade end to end -------------------------
  std::vector<api::Request> balanced = requests;
  for (api::Request& r : balanced) r.tier = tier::TierPolicy::balanced;

  const auto t0 = clock_type::now();
  const std::vector<api::Outcome<api::Response>> fleet =
      bench::engine().run_batch(balanced, options);
  const double fleet_s = seconds_since(t0);

  std::size_t ok = 0, coupled = 0, degraded = 0, escalations = 0;
  std::size_t served_a = 0, served_b = 0, served_c = 0;
  std::vector<std::size_t> a_slots;
  std::vector<double> slot_s;
  slot_s.reserve(fleet.size());
  for (std::size_t k = 0; k < fleet.size(); ++k) {
    if (requests[k].coupled()) ++coupled;
    if (!fleet[k].ok()) {
      slot_s.push_back(fleet[k].error().elapsed_s);
      continue;
    }
    const api::Response& r = fleet[k].value();
    ++ok;
    if (r.degraded) ++degraded;
    escalations += r.tier_escalations;
    slot_s.push_back(r.elapsed_s);
    switch (r.tier) {
      case tier::Tier::analytical: ++served_a; a_slots.push_back(k); break;
      case tier::Tier::ceff: ++served_b; break;
      case tier::Tier::reference: ++served_c; break;
    }
  }
  const double fleet_nets_per_s = static_cast<double>(n_nets) / fleet_s;
  const double denom = ok ? static_cast<double>(ok) : 1.0;
  const double a_hit = static_cast<double>(served_a) / denom;
  const double b_hit = static_cast<double>(served_b) / denom;
  const double c_hit = static_cast<double>(served_c) / denom;

  // Nearest-rank percentiles over the per-slot wall times the API stamps on
  // every outcome (success or failure alike).
  std::sort(slot_s.begin(), slot_s.end());
  const auto pct = [&slot_s](double p) {
    if (slot_s.empty()) return 0.0;
    const double rank = p / 100.0 * static_cast<double>(slot_s.size() - 1);
    return slot_s[static_cast<std::size_t>(rank + 0.5)];
  };
  const double p50 = pct(50.0), p95 = pct(95.0), p99 = pct(99.0);
  const double degraded_fraction =
      static_cast<double>(degraded) / static_cast<double>(n_nets);

  // ---- Pass 2: Tier-A throughput on the slots the router admitted ------
  // Tiling the admitted subset to a few thousand slots keeps the timed
  // region long enough to resolve microsecond-per-net costs.
  double a_nets_per_s = 0.0;
  if (!a_slots.empty()) {
    std::vector<api::Request> tiled;
    const std::size_t target = std::max<std::size_t>(4096, a_slots.size());
    tiled.reserve(target);
    while (tiled.size() < target) {
      for (std::size_t slot : a_slots) {
        if (tiled.size() >= target) break;
        api::Request r = requests[slot];
        r.tier = tier::TierPolicy::force_analytical;
        tiled.push_back(std::move(r));
      }
    }
    a_nets_per_s = static_cast<double>(tiled.size()) / time_batch(tiled, options, 3);
  }

  // ---- Pass 3: Tier-B throughput over the whole fleet ------------------
  std::vector<api::Request> forced_b = requests;
  for (api::Request& r : forced_b) r.tier = tier::TierPolicy::force_ceff;
  std::vector<api::Outcome<api::Response>> b_outcomes;
  const double b_nets_per_s = static_cast<double>(forced_b.size()) /
                              time_batch(forced_b, options, 3, &b_outcomes);
  std::size_t b_models = 0, b_passes = 0;
  for (const api::Outcome<api::Response>& o : b_outcomes) {
    if (!o.ok()) continue;
    const core::DriverOutputModel& m = o.value().model;
    int passes = m.ceff1.iterations;
    if (m.kind != core::ModelKind::one_ramp) passes += m.ceff2.iterations;
    if (m.kind == core::ModelKind::three_ramp) passes += m.ceff3.iterations;
    ++b_models;
    b_passes += static_cast<std::size_t>(passes);
  }
  const double b_passes_per_call =
      b_models ? static_cast<double>(b_passes) / static_cast<double>(b_models) : 0.0;

  // ---- Pass 4: Tier-C sample + envelope audit --------------------------
  // The reference pass serves two jobs: transient nets/s on a sample, and
  // the per-slot error measurements behind tier.envelope_violations (the CI
  // gate) or the --calibrate report.  Escalated-to-C balanced slots compare
  // C against C and are skipped, as in the property oracle.
  std::vector<std::size_t> audit;
  for (std::size_t k = 0; k < fleet.size() && audit.size() < (calibrate ? n_nets : envelope_sample); ++k) {
    if (!fleet[k].ok()) continue;
    if (fleet[k].value().tier == tier::Tier::reference) continue;
    audit.push_back(k);
  }
  std::vector<api::Request> ref_requests;
  ref_requests.reserve(audit.size());
  for (std::size_t slot : audit) {
    api::Request r = requests[slot];
    r.tier = tier::TierPolicy::force_reference;
    r.noise = r.coupled();
    ref_requests.push_back(std::move(r));
  }
  const auto t1 = clock_type::now();
  const std::vector<api::Outcome<api::Response>> refs =
      bench::engine().run_batch(ref_requests, options);
  const double ref_s = seconds_since(t1);
  const double c_nets_per_s =
      refs.empty() ? 0.0 : static_cast<double>(refs.size()) / ref_s;

  std::size_t envelope_checked = 0, envelope_violations = 0;
  ErrorEnvelope observed[2][2];  // [tier a=0 / b=1][single=0 / coupled=1]
  for (std::size_t j = 0; j < audit.size(); ++j) {
    if (!refs[j].ok()) continue;  // reference taxonomy is the testkit's job
    const api::Response& r = fleet[audit[j]].value();
    const api::Response& c = refs[j].value();
    if (!c.has_reference) continue;  // nothing simulated to audit against
    const bool is_coupled = requests[audit[j]].coupled();
    const tier::Envelope env = tier::envelope(r.tier, is_coupled);
    const double noise = r.has_noise_bound ? r.noise_bound : -1.0;
    const double ref_noise =
        (is_coupled && c.has_reference) ? c.peak_noise : -1.0;
    ++envelope_checked;
    const tier::EnvelopeCheck check =
        tier::check_envelope(env, r.model_near.delay, r.model_near.slew,
                             c.ref_near.delay, c.ref_near.slew, noise, ref_noise);
    if (!check.ok()) {
      ++envelope_violations;
      std::fprintf(stderr,
                   "envelope violation [%s, tier %s%s]: delay %g vs %g, "
                   "slew %g vs %g%s\n",
                   requests[audit[j]].label.c_str(), tier::to_string(r.tier),
                   is_coupled ? ", coupled" : "", r.model_near.delay,
                   c.ref_near.delay, r.model_near.slew, c.ref_near.slew,
                   check.noise_ok ? "" : " (noise bound understated)");
    }
    ErrorEnvelope& worst =
        observed[r.tier == tier::Tier::analytical ? 0 : 1][is_coupled ? 1 : 0];
    ++worst.count;
    worst.fold(r.model_near.delay, c.ref_near.delay, worst.delay_rel,
               worst.delay_abs);
    worst.fold(r.model_near.slew, c.ref_near.slew, worst.slew_rel,
               worst.slew_abs);
    if (noise >= 0.0 && ref_noise >= 0.0)
      worst.noise_short = std::max(worst.noise_short, ref_noise - noise);
  }

  // ---- Report ----------------------------------------------------------
  std::printf("randomized fleet: %zu nets (%zu coupled), %zu ok, %.2f ms total, "
              "%.0f nets/s (balanced cascade, 1 worker, warm cache)\n",
              n_nets, coupled, ok, 1e3 * fleet_s, fleet_nets_per_s);
  std::printf("  tiers served: A %zu (%.0f%%), B %zu (%.0f%%), C %zu (%.0f%%); "
              "%zu escalations\n",
              served_a, 1e2 * a_hit, served_b, 1e2 * b_hit, served_c,
              1e2 * c_hit, escalations);
  std::printf("  per-slot latency: p50 %.1f us, p95 %.1f us, p99 %.1f us; "
              "degraded %.1f%% (%zu slots)\n",
              1e6 * p50, 1e6 * p95, 1e6 * p99, 1e2 * degraded_fraction, degraded);
  std::printf("  forced-tier throughput: A %.0f nets/s (tiled x%zu), "
              "B %.0f nets/s, C %.0f nets/s (%zu-net sample)\n",
              a_nets_per_s, a_slots.empty() ? 0 : std::max<std::size_t>(4096, a_slots.size()),
              b_nets_per_s, c_nets_per_s, refs.size());
  std::printf("  tier B Ceff solver: %.2f table passes per model (%zu models)\n",
              b_passes_per_call, b_models);
  std::printf("  envelope audit: %zu checked, %zu violations\n",
              envelope_checked, envelope_violations);

  if (calibrate) {
    std::printf("\n== envelope calibration (worst observed vs Tier C, %zu nets, "
                "seed 0x%llx) ==\n",
                n_nets, static_cast<unsigned long long>(seed));
    const char* tier_name[2] = {"analytical (A)", "ceff (B)"};
    const char* class_name[2] = {"single", "coupled"};
    for (int t = 0; t < 2; ++t) {
      for (int c = 0; c < 2; ++c) {
        const ErrorEnvelope& w = observed[t][c];
        std::printf("  %-14s %-7s  n=%-4zu delay rel %.3f abs %.2f ps | "
                    "slew rel %.3f abs %.2f ps | noise short %.3f V\n",
                    tier_name[t], class_name[c], w.count, w.delay_rel,
                    1e12 * w.delay_abs, w.slew_rel, 1e12 * w.slew_abs,
                    w.noise_short);
      }
    }
    std::printf("  (set src/tier/envelope.cpp to these plus margin)\n");
  }

  const std::vector<bench::BenchMetric> fleet_metrics = {
      {"nets", static_cast<double>(n_nets), "nets"},
      {"coupled_nets", static_cast<double>(coupled), "nets"},
      {"ok_fraction", static_cast<double>(ok) / static_cast<double>(n_nets), ""},
      {"nets_per_s", fleet_nets_per_s, "nets/s"},
      {"slot_p50_us", 1e6 * p50, "us"},
      {"slot_p95_us", 1e6 * p95, "us"},
      {"slot_p99_us", 1e6 * p99, "us"},
      {"degraded_fraction", degraded_fraction, ""}};
  const std::vector<bench::BenchMetric> tier_metrics = {
      {"a_hit_rate", a_hit, ""},
      {"b_hit_rate", b_hit, ""},
      {"c_hit_rate", c_hit, ""},
      {"escalations_per_net", static_cast<double>(escalations) / denom, ""},
      {"a_nets_per_s", a_nets_per_s, "nets/s"},
      {"b_nets_per_s", b_nets_per_s, "nets/s"},
      {"b_ceff_passes_per_call", b_passes_per_call, "count"},
      {"c_nets_per_s", c_nets_per_s, "nets/s"},
      {"envelope_checked", static_cast<double>(envelope_checked), "nets"},
      {"envelope_violations", static_cast<double>(envelope_violations), "nets"}};
  bench::update_bench_json("BENCH_perf.json", "perf", "fleet", fleet_metrics);
  bench::update_bench_json("BENCH_perf.json", "perf", "tier", tier_metrics);
  return 0;
}
