// Cooperative execution budgets: deadlines, transient step budgets, and
// cancellation for the whole stack.
//
// An ExecBudget is the declarative spec a caller attaches to a request: an
// optional wall-clock limit, a transient step budget, and an optional
// CancelToken.  An ExecTracker arms that spec at slot start and is threaded
// *by pointer* down through the option structs (api::Request ->
// sim::TransientOptions / core::CeffIterationOptions /
// util::FixedPointOptions); the step and iteration loops call its cheap
// checkpoints so an exceeded budget surfaces as a DeadlineError /
// BudgetError promptly instead of running the loop out.
//
// Cost contract: with no budget attached (the default everywhere) every
// checkpoint is a single predictable branch, so unbudgeted runs are
// unaffected.  An armed deadline reads the steady clock once per checkpoint;
// checkpoints sit at loop granularity (one transient step, one Newton or
// fixed-point iteration), each of which costs far more than a clock read.
//
// Iteration ceilings are not budget dimensions: every iterative loop runs at
// most its ceiling (iter_defaults below, the default of each max_iter
// option; the transient's Newton loop has no option), and running out keeps
// the loop's own semantics (a converged = false result from the Ceff fixed
// points, ConvergenceError from Newton).
//
// Threading: one ExecTracker belongs to one slot and is checked from that
// slot's worker thread only.  The CancelToken is the only cross-thread
// piece: it is a shared atomic flag, safe to set from any thread (e.g. a
// server's admission controller) while workers poll it.
#ifndef RLCEFF_UTIL_BUDGET_H
#define RLCEFF_UTIL_BUDGET_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "util/error.h"

namespace rlceff {

// Raised when a wall-clock deadline expires (or a CancelToken fires, see
// CancelledError).  Maps to api::ErrorCode::deadline_exceeded.
class DeadlineError : public Error {
public:
  explicit DeadlineError(const std::string& what) : Error(what) {}
};

// Raised when the transient step budget is exhausted.  Maps to
// api::ErrorCode::resource_exhausted.
class BudgetError : public Error {
public:
  explicit BudgetError(const std::string& what) : Error(what) {}
};

// Cancellation is "the caller ran out of time for this answer", so it is a
// DeadlineError (same api::ErrorCode) with a distinguishable type: the
// engine's degradation ladder must not spend further work on a cancelled
// slot, while a plain deadline may still buy a cheaper estimate.
class CancelledError : public DeadlineError {
public:
  explicit CancelledError(const std::string& what) : DeadlineError(what) {}
};

namespace util {

// Shared cancellation flag.  Default-constructed tokens are null: never
// cancelled, cost one branch to poll.  source() makes a real token whose
// copies all observe the same flag.
class CancelToken {
public:
  CancelToken() = default;

  static CancelToken source() {
    CancelToken t;
    t.flag_ = std::make_shared<std::atomic<bool>>(false);
    return t;
  }

  bool valid() const { return flag_ != nullptr; }

  // Requests cancellation; safe from any thread, no-op on a null token.
  void request_cancel() const {
    if (flag_) flag_->store(true, std::memory_order_release);
  }

  bool cancel_requested() const {
    return flag_ && flag_->load(std::memory_order_acquire);
  }

private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

// The default iteration ceilings of every iterative loop in the library, in
// one place (they used to be unrelated magic numbers in three headers).
namespace iter_defaults {
inline constexpr int fixed_point = 100;  // util::FixedPointOptions::max_iter
inline constexpr int ceff = 60;          // core::CeffIterationOptions::max_iter
inline constexpr int newton = 100;       // the transient's Newton loop
}  // namespace iter_defaults

// Declarative budget spec.  Zero / negative limits and a null token mean
// "unlimited" for that dimension; a default ExecBudget is fully unlimited.
struct ExecBudget {
  double wall_limit_s = 0.0;             // wall-clock limit from arm time
  std::int64_t max_transient_steps = 0;  // accepted time steps across all sims
  CancelToken cancel;

  bool limited() const {
    return wall_limit_s > 0.0 || max_transient_steps > 0 || cancel.valid();
  }
};

// A budget armed at a start instant, checked cooperatively from the loops of
// one slot.  Not thread-safe (per-slot, single worker); only the embedded
// CancelToken may be touched from other threads.
class ExecTracker {
public:
  ExecTracker() = default;  // unlimited: every checkpoint is one branch
  explicit ExecTracker(const ExecBudget& spec) { arm(spec); }

  // (Re)arms the spec with the deadline measured from now.
  void arm(const ExecBudget& spec) {
    spec_ = spec;
    limited_ = spec.limited();
    steps_used_ = 0;
    if (spec_.wall_limit_s > 0.0) {
      deadline_ = std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(spec_.wall_limit_s));
      has_deadline_ = true;
    } else {
      has_deadline_ = false;
    }
  }

  const ExecBudget& spec() const { return spec_; }
  bool limited() const { return limited_; }
  std::int64_t steps_used() const { return steps_used_; }

  // Checkpoint: raises CancelledError / DeadlineError when the token fired
  // or the deadline passed.  `where` names the loop for the error message.
  void check(const char* where) {
    if (!limited_) return;
    if (spec_.cancel.cancel_requested()) {
      throw CancelledError(std::string(where) + ": cancelled by caller");
    }
    if (has_deadline_ && std::chrono::steady_clock::now() > deadline_) {
      throw DeadlineError(std::string(where) + ": deadline of " +
                          std::to_string(spec_.wall_limit_s * 1e3) + " ms exceeded");
    }
  }

  // Step-loop checkpoint: charges `n` accepted transient steps against
  // max_transient_steps, then runs check().
  void charge_transient_steps(std::int64_t n, const char* where) {
    if (!limited_) return;
    steps_used_ += n;
    if (spec_.max_transient_steps > 0 && steps_used_ > spec_.max_transient_steps) {
      throw BudgetError(std::string(where) + ": transient step budget of " +
                        std::to_string(spec_.max_transient_steps) + " exhausted");
    }
    check(where);
  }

private:
  ExecBudget spec_;
  std::chrono::steady_clock::time_point deadline_{};
  std::int64_t steps_used_ = 0;
  bool has_deadline_ = false;
  bool limited_ = false;
};

}  // namespace util
}  // namespace rlceff

#endif  // RLCEFF_UTIL_BUDGET_H
