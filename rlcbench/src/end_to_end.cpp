// The untraced run: set-up, closed-loop timed batches on one Engine worker,
// then the output checks and the accuracy audit (outside the timed region).
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>

#include "bench.h"
#include "tier/envelope.h"
#include "trace.h"

namespace rlcbench {

using namespace rlceff;

namespace {

constexpr int kSetups = 6;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// FNV-1a over the bits of every returned delay, slew, tier and error code.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t v) {
    for (int k = 0; k < 8; ++k) {
      h ^= (v >> (8 * k)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
};

std::uint64_t digest(const std::vector<api::Outcome<api::Response>>& results) {
  Digest d;
  for (const auto& o : results) {
    if (!o.ok()) {
      d.add(std::uint64_t{0xe0} + static_cast<std::uint64_t>(o.error().code));
      continue;
    }
    const api::Response& r = o.value();
    d.add(r.model_near.delay);
    d.add(r.model_near.slew);
    d.add(static_cast<std::uint64_t>(r.tier));
    d.add(static_cast<std::uint64_t>(r.fidelity));
    if (r.has_model_far) {
      d.add(r.model_far.delay);
      d.add(r.model_far.slew);
    }
  }
  return d.h;
}

double percentile(std::vector<double>& values, double p) {
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())) - 1.0);
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

struct AuditReport {
  std::size_t audited = 0;
  std::size_t skipped = 0;  // served degraded/failed, or no reference answer
  std::size_t violations = 0;
  double delay_err_max_pct = 0.0;
  double slew_err_max_pct = 0.0;
};

// Serves the fixed audit set under the workload's policy and compares each
// answer with its transient-reference twin.  Untimed, so it may use every
// core.  Fleet workloads also hold each answer to its tier's envelope.
AuditReport audit(api::Engine& engine, const Workload& w, std::vector<std::string>& problems) {
  api::BatchOptions options = w.options;
  options.n_threads = 4;
  std::vector<api::Request> twins;
  for (const api::Request& r : w.audit) twins.push_back(reference_twin(r));
  const auto served = engine.run_batch(w.audit, options);
  const auto refs = engine.run_batch(twins, options);
  const bool envelopes = w.kind != Kind::fig7_replay;

  AuditReport report;
  for (std::size_t j = 0; j < w.audit.size(); ++j) {
    if (!served[j].ok() || served[j].value().degraded || !refs[j].ok() ||
        !refs[j].value().has_reference) {
      ++report.skipped;
      continue;
    }
    const api::Response& s = served[j].value();
    const api::Response& c = refs[j].value();
    ++report.audited;
    const double d = 100.0 * std::abs(s.model_near.delay - c.ref_near.delay) /
                     std::abs(c.ref_near.delay);
    const double e = 100.0 * std::abs(s.model_near.slew - c.ref_near.slew) /
                     std::abs(c.ref_near.slew);
    report.delay_err_max_pct = std::max(report.delay_err_max_pct, d);
    report.slew_err_max_pct = std::max(report.slew_err_max_pct, e);
    if (!envelopes || s.tier == tier::Tier::reference) continue;
    const bool coupled = w.audit[j].coupled();
    const tier::EnvelopeCheck check = tier::check_envelope(
        tier::envelope(s.tier, coupled), s.model_near.delay, s.model_near.slew,
        c.ref_near.delay, c.ref_near.slew, s.has_noise_bound ? s.noise_bound : -1.0,
        coupled ? c.peak_noise : -1.0);
    if (!check.ok()) {
      ++report.violations;
      problems.push_back("envelope violation on audit net " + w.audit[j].label);
    }
  }
  if (report.audited == 0) problems.push_back("accuracy audit compared no nets");
  return report;
}

bool same_wave(const wave::Waveform& a, const wave::Waveform& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (!same_bits(a.time(k), b.time(k)) || !same_bits(a.value(k), b.value(k))) return false;
  }
  return true;
}

// fig7_replay: re-runs two of the batch's groups with batch_scenarios off and
// requires the batched far-end waveforms (and the timed batch's far-end
// figures) to match them bit for bit.
void check_batching(api::Engine& engine, const Workload& w, std::uint64_t seed,
                    const std::vector<api::Outcome<api::Response>>& timed,
                    std::vector<std::string>& problems) {
  const std::size_t first = seed % w.groups.size();
  const std::size_t second = (first + w.groups.size() / 2) % w.groups.size();
  std::vector<std::size_t> slots = w.groups[first];
  if (second != first) {
    slots.insert(slots.end(), w.groups[second].begin(), w.groups[second].end());
  }
  std::vector<api::Request> requests;
  for (std::size_t i : slots) {
    requests.push_back(w.batch[i]);
    requests.back().keep_waveforms = true;
  }
  api::BatchOptions on = w.options;
  api::BatchOptions off = w.options;
  off.batch_scenarios = false;
  const auto batched = engine.run_batch(requests, on);
  const auto per_slot = engine.run_batch(requests, off);
  std::size_t mismatches = 0;
  for (std::size_t j = 0; j < slots.size(); ++j) {
    const auto& t = timed[slots[j]];
    const bool ok = batched[j].ok() && per_slot[j].ok() && t.ok() &&
                    batched[j].value().has_model_far &&
                    same_wave(batched[j].value().model_far_wave,
                              per_slot[j].value().model_far_wave) &&
                    same_bits(t.value().model_far.delay, per_slot[j].value().model_far.delay) &&
                    same_bits(t.value().model_far.slew, per_slot[j].value().model_far.slew);
    if (!ok) ++mismatches;
  }
  std::printf("  batching check: %zu replays in %zu groups, %zu not bitwise equal "
              "with batch_scenarios off\n",
              slots.size(), first == second ? std::size_t{1} : std::size_t{2}, mismatches);
  if (mismatches != 0) {
    problems.push_back(std::to_string(mismatches) +
                       " batched replays differ from their per-slot runs");
  }
}

}  // namespace

std::unique_ptr<api::Engine> cold_engine(const std::vector<double>& cell_sizes) {
  auto engine = std::make_unique<api::Engine>();
  engine->warm_cache(cell_sizes, one_worker_grid(), 1);
  return engine;
}

bool sane_answer(const api::Response& r) {
  const bool near = std::isfinite(r.model_near.delay) && std::isfinite(r.model_near.slew) &&
                    r.model_near.slew > 0.0;
  const bool far = !r.has_model_far ||
                   (std::isfinite(r.model_far.delay) && r.model_far.slew > 0.0);
  return near && far;
}

double median(std::vector<double> values) {
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  if (values.size() % 2 == 1) return values[mid];
  const double upper = values[mid];
  return 0.5 * (upper + *std::max_element(values.begin(), values.begin() + mid));
}

Result run_end_to_end(const Config& config) {
  Result result;

  // ---- set-up: fresh Engine, cold cells, input generation.  Half the
  // set-ups run before the timed batches and half after, and the fastest is
  // reported: each repeats the same work, so outside load only slows it down,
  // and spread over the run they meet the host at different moments.  The
  // set-ups after the batches rebuild the same Engine state and inputs.
  std::vector<double> setup_s;
  std::unique_ptr<api::Engine> engine;
  Workload w;
  auto set_up = [&] {
    engine.reset();
    w = Workload{};
    const auto t0 = Clock::now();
    engine = cold_engine(cell_sizes(config.kind));
    w = make_workload(config.kind, config.seed, config.smoke);
    setup_s.push_back(seconds_since(t0));
  };
  for (int rep = 0; rep < kSetups / 2; ++rep) set_up();

  // ---- warm-up, then closed-loop batches until the run length is spent.
  (void)engine->run_batch(w.warmup, w.options);
  // Every batch repeats the same inputs, so the run reports the best batch's
  // throughput and each slot's best elapsed time over the batches, for the
  // same reason (the best-of-N rule of the bench/ gauges).  A slot's best
  // needs one quiet moment as long as the slot, not as long as a batch.
  std::vector<double> batch_rate;
  std::vector<double> slot_best(w.batch.size(), std::numeric_limits<double>::infinity());
  std::vector<api::Outcome<api::Response>> first;
  std::uint64_t answered = 0, degraded = 0, batches = 0, first_digest = 0;
  double wall = 0.0;
  do {
    const auto t0 = Clock::now();
    auto results = engine->run_batch(w.batch, w.options);
    const double batch_wall = seconds_since(t0);
    wall += batch_wall;
    std::uint64_t batch_answered = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& o = results[i];
      ++result.attempted;
      double elapsed_s = 0.0;
      if (o.ok()) {
        ++batch_answered;
        if (o.value().degraded) ++degraded;
        if (!sane_answer(o.value())) ++result.failed;
        elapsed_s = o.value().elapsed_s;
      } else {
        if (o.error().code == api::ErrorCode::internal_error) ++result.failed;
        elapsed_s = o.error().elapsed_s;
      }
      slot_best[i] = std::min(slot_best[i], elapsed_s);
    }
    answered += batch_answered;
    batch_rate.push_back(static_cast<double>(batch_answered) / batch_wall);
    const std::uint64_t d = digest(results);
    if (batches++ == 0) {
      first_digest = d;
      if (w.kind == Kind::fig7_replay) first = std::move(results);
    } else if (d != first_digest) {
      result.problems.push_back("batch answers changed between repeats of one input");
    }
  } while (wall < config.seconds);
  // Read before the checks, so the figure is the timed run's, not the audit's.
  const double rss_mb = peak_rss_mb();
  for (int rep = kSetups / 2; rep < kSetups; ++rep) set_up();

  const double attempted = static_cast<double>(result.attempted);
  const double nets_per_s = *std::max_element(batch_rate.begin(), batch_rate.end());
  std::vector<double> slot_order = slot_best;
  const double p50 = percentile(slot_order, 50.0);
  const double p95 = percentile(slot_order, 95.0);
  const std::size_t beyond_p95 = static_cast<std::size_t>(std::count_if(
      slot_best.begin(), slot_best.end(), [&](double s) { return s > p95; }));

  // ---- output checks and the accuracy audit (untimed).
  const auto checks_t0 = Clock::now();
  if (w.kind == Kind::fig7_replay) {
    check_batching(*engine, w, config.seed, first, result.problems);
  }
  const AuditReport acc = audit(*engine, w, result.problems);
  const double checks_s = seconds_since(checks_t0);

  std::printf("rlcbench %s seed=%llu: %llu batches x %zu nets, one worker, closed loop "
              "(%.2f s of run_batch wall)\n",
              to_string(w.kind), static_cast<unsigned long long>(config.seed),
              static_cast<unsigned long long>(batches), w.batch.size(), wall);
  std::printf("  slots %llu: per-slot best p50 %.2f us, p95 %.2f us "
              "(%zu of the %zu slots beyond p95), best batch %.1f nets/s\n",
              static_cast<unsigned long long>(result.attempted), 1e6 * p50, 1e6 * p95,
              beyond_p95, w.batch.size(), nets_per_s);
  std::sort(batch_rate.begin(), batch_rate.end());
  std::printf("  batch nets/s:");
  for (double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    std::printf(" %.6g", batch_rate[static_cast<std::size_t>(
                             q * static_cast<double>(batch_rate.size() - 1))]);
  }
  std::printf(" (min, p10, q1, median, q3, p90, max)\n");
  std::printf("  answered %llu, degraded %llu, contract failures %llu\n",
              static_cast<unsigned long long>(answered),
              static_cast<unsigned long long>(degraded),
              static_cast<unsigned long long>(result.failed));
  std::printf("  accuracy audit: %zu nets (%zu skipped), max |error| delay %.3f %%, "
              "slew %.3f %%, %zu envelope violations\n",
              acc.audited, acc.skipped, acc.delay_err_max_pct, acc.slew_err_max_pct,
              acc.violations);
  std::printf("  setup runs (s):");
  for (double s : setup_s) std::printf(" %.3f", s);
  std::printf("; checks and audit %.2f s\n", checks_s);
  std::printf("  digest 0x%016llx\n", static_cast<unsigned long long>(first_digest));

  result.metrics = {
      {"nets_per_s", nets_per_s, "nets/s"},
      {"slot_p50_us", 1e6 * p50, "us"},
      {"slot_p95_us", 1e6 * p95, "us"},
      {"answered_fraction", static_cast<double>(answered) / attempted, "fraction"},
      {"undegraded_fraction", 1.0 - static_cast<double>(degraded) / attempted, "fraction"},
      {"delay_err_max_pct", acc.delay_err_max_pct, "%"},
      {"slew_err_max_pct", acc.slew_err_max_pct, "%"},
      {"setup_s", *std::min_element(setup_s.begin(), setup_s.end()), "s"},
      {"peak_rss_mb", rss_mb, "MB"},
  };
  return result;
}

}  // namespace rlcbench
