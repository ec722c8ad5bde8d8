#include "sim/solver_backend.h"

#include <algorithm>
#include <limits>

namespace rlceff::sim::detail {

namespace {

using ckt::ground;
using ckt::NodeId;

// Banded-vs-others predicate: RCM kept the band narrow enough that the
// banded LU wins outright.  It stores all O(n * bw) band slots but works on
// their nonzeros only: a factor is one scan of the band plus an update per
// (nonzero multiplier, nonzero U entry) pair of each step, and a solve is
// one multiply-add per stored nonzero of L and U.  The absolute cap keeps
// big decks whose *relative* band happens to be narrow (a bushy clock tree
// can RCM to bw ~ n / 15) off the band path, where the O(n * bw) storage
// and its scan alone would run to gigabytes; those fall through to the
// sparse/dense choice below.
bool bandwidth_is_narrow(std::size_t n, std::size_t bw) {
  return bw <= std::min<std::size_t>(512, std::max<std::size_t>(8, n / 4));
}

// Sparse-vs-dense predicate for wide-bandwidth systems: per step the
// factor-once paths cost one substitution sweep — O(L+U nonzeros) sparse
// (a small multiple of the pattern for fill-reduced circuit matrices)
// versus O(n^2) dense — so sparse wins once the system is large enough
// that the estimated fill-bloated pattern is well under the dense triangle.
// Small systems stay dense: flat arrays beat index chasing there.
bool sparse_is_cheaper(std::size_t n, std::size_t nnz) {
  return n >= 128 && 8 * nnz < n * n / 2;
}

void stamp_conductance(LinearSolver& solver, const ckt::MnaStructure& structure,
                       NodeId a, NodeId b, double g) {
  if (a != ground) {
    const std::size_t ia = structure.node_index(a);
    solver.add(ia, ia, g);
    if (b != ground) solver.add(ia, structure.node_index(b), -g);
  }
  if (b != ground) {
    const std::size_t ib = structure.node_index(b);
    solver.add(ib, ib, g);
    if (a != ground) solver.add(ib, structure.node_index(a), -g);
  }
}

}  // namespace

SolverKind resolve_solver_kind(const ckt::MnaStructure& structure,
                               const TransientOptions& options) {
  if (options.solver != SolverKind::automatic) return options.solver;
  const std::size_t n = structure.unknown_count();
  if (bandwidth_is_narrow(n, structure.bandwidth())) return SolverKind::banded;
  if (sparse_is_cheaper(n, structure.pattern_nonzeros())) return SolverKind::sparse;
  return SolverKind::dense;
}

std::unique_ptr<LinearSolver> make_solver(const ckt::MnaStructure& structure,
                                          SolverKind kind, util::ExecTracker* budget) {
  const std::size_t n = structure.unknown_count();
  switch (kind) {
    case SolverKind::banded:
      return std::make_unique<BandedSolver>(n, structure.bandwidth());
    case SolverKind::sparse:
      return std::make_unique<SparseSolver>(structure, budget);
    default:
      return std::make_unique<DenseSolver>(n);
  }
}

void assemble_static_stamps(LinearSolver& solver, const ckt::Netlist& nl,
                            const ckt::MnaStructure& structure, double h,
                            double gmin, const TransientOptions& opt,
                            bool cached_path) {
  const bool dc = h <= 0.0;

  for (NodeId n = 1; n < nl.node_count(); ++n) {
    solver.add(structure.node_index(n), structure.node_index(n), gmin);
  }

  for (const ckt::Resistor& r : nl.resistors()) {
    stamp_conductance(solver, structure, r.a, r.b, 1.0 / r.resistance);
  }

  if (!dc) {
    // Property-harness fault injection: skew the cached-path capacitor
    // stamps so the cached-vs-naive oracle must fire (see
    // TransientOptions).  skew == 0 leaves the stamps bit-identical.
    const double skew = cached_path ? 1.0 + opt.debug_cached_stamp_skew : 1.0;
    bool first_cap = true;
    for (const ckt::Capacitor& c : nl.capacitors()) {
      double g = skew * 2.0 * c.capacitance / h;
      if (first_cap && cached_path && opt.debug_cached_stamp_nan) {
        g = std::numeric_limits<double>::quiet_NaN();
      }
      first_cap = false;
      stamp_conductance(solver, structure, c.a, c.b, g);
    }
  }

  for (std::size_t k = 0; k < nl.inductors().size(); ++k) {
    const ckt::Inductor& l = nl.inductors()[k];
    const std::size_t j = structure.inductor_index(k);
    const double req = dc ? 0.0 : 2.0 * l.inductance / h;
    // Branch equation: (va - vb) - req * i = e_n.
    if (l.a != ground) {
      solver.add(j, structure.node_index(l.a), 1.0);
      solver.add(structure.node_index(l.a), j, 1.0);
    }
    if (l.b != ground) {
      solver.add(j, structure.node_index(l.b), -1.0);
      solver.add(structure.node_index(l.b), j, -1.0);
    }
    solver.add(j, j, -req);
  }

  // Mutual inductance couples the two branch equations: the companion term
  // M * di_other/dt adds -req_m * i_other to each row, symmetrically.  In
  // DC both inductors are shorts and the mutual contributes nothing.
  if (!dc) {
    for (const ckt::MutualInductor& m : nl.mutual_inductors()) {
      const double req = 2.0 * m.mutual / h;
      const std::size_t ja = structure.inductor_index(m.la);
      const std::size_t jb = structure.inductor_index(m.lb);
      solver.add(ja, jb, -req);
      solver.add(jb, ja, -req);
    }
  }

  for (std::size_t k = 0; k < nl.vsources().size(); ++k) {
    const ckt::VSource& v = nl.vsources()[k];
    const std::size_t j = structure.vsource_index(k);
    if (v.pos != ground) {
      solver.add(j, structure.node_index(v.pos), 1.0);
      solver.add(structure.node_index(v.pos), j, 1.0);
    }
    if (v.neg != ground) {
      solver.add(j, structure.node_index(v.neg), -1.0);
      solver.add(structure.node_index(v.neg), j, -1.0);
    }
  }
}

}  // namespace rlceff::sim::detail
