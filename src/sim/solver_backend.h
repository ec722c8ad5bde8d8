// Internal solver backends of the transient stepper (sim/transient.cpp),
// which runs both sim::simulate and the blocked sim::simulate_block.
//
// This is the factor-once contract in one place: a LinearSolver assembles a
// "working" matrix, snapshots/restores it at memcpy cost, factors it in
// place, and then runs allocation-free substitution sweeps — either one RHS
// at a time (solve_into) or a whole n x k scenario block (solve_block).
// Each backend runs both through one substitution kernel templated on the
// lane count, solve_into being its compile-time one-lane instance, so a
// lane's result does not depend on how many lanes shared the sweep.
//
// Not installed API: everything here lives in sim::detail and may change
// freely; callers outside src/sim use sim/transient.h and
// sim/scenario_block.h.
#ifndef RLCEFF_SIM_SOLVER_BACKEND_H
#define RLCEFF_SIM_SOLVER_BACKEND_H

#include <algorithm>
#include <cstddef>
#include <memory>
#include <optional>
#include <span>

#include "circuit/mna.h"
#include "circuit/netlist.h"
#include "sim/transient.h"
#include "util/linalg.h"
#include "util/sparse.h"

namespace rlceff::sim::detail {

// Uniform interface over the banded, dense, and sparse factorizations.
//
// The engine assembles into a "working" matrix.  save_static()/load_static()
// snapshot and restore the working values (a memcpy, never an allocation),
// so the linear-device stamps survive across Newton iterations and time
// steps.  factor() destroys the working values in place and returns how
// many columns it factored (all n, or the kept tail below); solve_into()
// then runs the substitution sweeps on a caller-owned buffer with zero heap
// traffic.  solve_block() does the same for `lanes` right-hand sides stored
// as an n x stride row-major block, with every lane's operation sequence
// identical to solve_into on that lane alone.
//
// entry(r, c) resolves working entry (r, c) once, for the stamps a Newton
// loop repeats every iteration: accumulating through the pointer equals
// add(r, c, v), and it stays valid across clear(), load_static() and
// factor() for the solver's lifetime.
//
// save_static(first) also promises that between load_static() and factor()
// only columns first..n-1 change.  A backend may then, once it has factored
// a matrix restored from that image in full, restore and refactor only
// those columns: the banded backend does, and its factors stay bitwise
// those of a full factorization.  Dense and sparse refactor every column,
// which meets the same contract.  save_static() and clear() drop the kept
// columns.
class LinearSolver {
public:
  virtual ~LinearSolver() = default;
  virtual void clear() = 0;
  virtual void add(std::size_t r, std::size_t c, double v) = 0;
  virtual double* entry(std::size_t r, std::size_t c) = 0;
  virtual void save_static(std::size_t first) = 0;
  virtual void load_static() = 0;
  virtual std::size_t factor() = 0;
  // x holds the rhs on entry and the solution on exit.
  virtual void solve_into(std::span<double> x) = 0;
  // Blocked multi-RHS variant; lane s of unknown i lives at x[i * stride + s].
  virtual void solve_block(std::span<double> x, std::size_t lanes,
                           std::size_t stride) = 0;
};

class BandedSolver final : public LinearSolver {
public:
  BandedSolver(std::size_t n, std::size_t bw) : n_(n), bw_(bw), a_(n, bw, bw) {}
  void clear() override {
    a_.set_zero();
    loaded_ = kept_ = false;
  }
  void add(std::size_t r, std::size_t c, double v) override { a_.add(r, c, v); }
  double* entry(std::size_t r, std::size_t c) override { return a_.entry(r, c); }
  void save_static(std::size_t first) override {
    // Lazy: only the nonlinear cached path pays for the second matrix.
    if (!static_image_) static_image_.emplace(n_, bw_, bw_);
    static_image_->copy_values_from(a_);
    first_ = std::min(first, n_);
    loaded_ = kept_ = false;
  }
  void load_static() override {
    a_.copy_values_from(*static_image_, kept_ ? first_ : 0);
    loaded_ = true;
  }
  std::size_t factor() override {
    const std::size_t first = kept_ ? first_ : 0;
    a_.factor_from(first);
    kept_ = loaded_;
    return n_ - first;
  }
  void solve_into(std::span<double> x) override { a_.solve_into(x); }
  void solve_block(std::span<double> x, std::size_t lanes,
                   std::size_t stride) override {
    a_.solve_block(x, lanes, stride);
  }
  std::size_t row_swaps() const { return a_.row_swaps(); }

private:
  std::size_t n_;
  std::size_t bw_;
  util::BandedMatrix a_;
  std::optional<util::BandedMatrix> static_image_;
  std::size_t first_ = 0;  // first column that can change after save_static
  bool loaded_ = false;    // a_ was restored from static_image_
  bool kept_ = false;      // a_'s columns before first_ hold the image's factors
};

class DenseSolver final : public LinearSolver {
public:
  explicit DenseSolver(std::size_t n) : n_(n), a_(n, n) {}
  void clear() override { a_.set_zero(); }
  void add(std::size_t r, std::size_t c, double v) override { a_(r, c) += v; }
  // load_static's copy assignment keeps a_'s storage: the sizes are equal.
  double* entry(std::size_t r, std::size_t c) override { return &a_(r, c); }
  void save_static(std::size_t /*first*/) override { static_image_ = a_; }
  void load_static() override { a_ = static_image_; }
  std::size_t factor() override {
    util::lu_factor_into(a_, f_);
    return n_;
  }
  void solve_into(std::span<double> x) override { util::lu_solve_into(f_, x); }
  void solve_block(std::span<double> x, std::size_t lanes,
                   std::size_t stride) override {
    util::lu_solve_block(f_, x, lanes, stride);
  }

private:
  std::size_t n_;
  util::DenseMatrix a_;
  util::DenseMatrix static_image_;
  util::LuFactors f_;
};

// The compressed-sparse backend: the MNA image is a CSC matrix over the
// fixed pattern MnaStructure derives from the device list, and the
// factorization is the fill-reducing sparse LU from util/sparse.h.  The
// static image is a second values array restored by memcpy, so the cached
// assembly contract (identical stamp sequence into identical storage) holds
// bitwise just like the dense/banded backends.  The budget tracker is
// threaded into factor/solve so one large factorization honors deadlines and
// cancellation from the inside (null for scenario blocks, whose budgets are
// per lane).
class SparseSolver final : public LinearSolver {
public:
  SparseSolver(const ckt::MnaStructure& structure, util::ExecTracker* budget)
      : a_(structure.unknown_count(), structure.sparse_pattern()), budget_(budget) {
    lu_.analyze(a_);
  }
  void clear() override { a_.set_zero(); }
  void add(std::size_t r, std::size_t c, double v) override { a_.add(r, c, v); }
  double* entry(std::size_t r, std::size_t c) override {
    return &a_.values()[a_.position(r, c)];
  }
  void save_static(std::size_t /*first*/) override {
    if (!static_image_) {
      static_image_.emplace(a_);
    } else {
      static_image_->copy_values_from(a_);
    }
  }
  void load_static() override { a_.copy_values_from(*static_image_); }
  std::size_t factor() override {
    lu_.factor(a_, budget_);
    return a_.size();
  }
  void solve_into(std::span<double> x) override { lu_.solve_into(x, budget_); }
  void solve_block(std::span<double> x, std::size_t lanes,
                   std::size_t stride) override {
    lu_.solve_block(x, lanes, stride);
  }

private:
  util::SparseMatrix a_;
  std::optional<util::SparseMatrix> static_image_;
  util::SparseLu lu_;
  util::ExecTracker* budget_;
};

// The backend options.solver selects for this structure, by the heuristic
// behind SolverKind::automatic (see sim::selected_solver for the contract).
SolverKind resolve_solver_kind(const ckt::MnaStructure& structure,
                               const TransientOptions& options);

// A backend of a resolved kind (not automatic).  `budget` reaches the
// sparse factor and solve (see SparseSolver).
std::unique_ptr<LinearSolver> make_solver(const ckt::MnaStructure& structure,
                                          SolverKind kind, util::ExecTracker* budget);

// Stamps every matrix entry of the reduced system (ckt::MnaStructure) that
// depends only on (h, gmin): gmin loading of the unknown nodes, resistors,
// companion conductances of capacitors and folded R-L branches, and the
// branch incidence rows of the inductors and voltage sources that keep one.
// An entry whose row or column is a known node is not stamped: the stepper
// moves its known term to the right-hand side.  h <= 0 selects DC
// (capacitors open, inductors shorted).  `cached_path` gates the property-harness fault hooks
// (TransientOptions::debug_cached_stamp_*), which poison only the cached
// assembly path.
void assemble_static_stamps(LinearSolver& solver, const ckt::Netlist& nl,
                            const ckt::MnaStructure& structure, double h,
                            double gmin, const TransientOptions& opt,
                            bool cached_path);

}  // namespace rlceff::sim::detail

#endif  // RLCEFF_SIM_SOLVER_BACKEND_H
