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

// Accumulates g between solution rows a and b: rows and columns past the
// unknowns (ground, known nodes) take no matrix entry.
void stamp_conductance(LinearSolver& solver, std::size_t n, std::size_t a,
                       std::size_t b, double g) {
  if (a < n) {
    solver.add(a, a, g);
    if (b < n) solver.add(a, b, -g);
  }
  if (b < n) {
    solver.add(b, b, g);
    if (a < n) solver.add(b, a, -g);
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
  const std::size_t n = structure.unknown_count();
  const auto row = [&](NodeId node) {
    return node == ground ? ckt::MnaStructure::npos : structure.node_index(node);
  };

  for (NodeId node = 1; node < nl.node_count(); ++node) {
    const std::size_t i = row(node);
    if (i < n) solver.add(i, i, gmin);
  }

  for (std::size_t k = 0; k < nl.resistors().size(); ++k) {
    if (structure.resistor_folded(k)) continue;
    const ckt::Resistor& r = nl.resistors()[k];
    stamp_conductance(solver, n, row(r.a), row(r.b), 1.0 / r.resistance);
  }

  if (!dc) {
    // Property-harness fault injection: skew the cached-path capacitor
    // stamps so the cached-vs-naive oracle must fire (see
    // TransientOptions).  skew == 0 leaves the stamps bit-identical.  The
    // NaN poisons the first capacitor that stamps the matrix (one on a
    // known node stamps nothing).
    const double skew = cached_path ? 1.0 + opt.debug_cached_stamp_skew : 1.0;
    bool poison = cached_path && opt.debug_cached_stamp_nan;
    for (const ckt::Capacitor& c : nl.capacitors()) {
      const std::size_t a = row(c.a);
      const std::size_t b = row(c.b);
      double g = skew * 2.0 * c.capacitance / h;
      if (poison && (a < n || b < n)) {
        g = std::numeric_limits<double>::quiet_NaN();
        poison = false;
      }
      stamp_conductance(solver, n, a, b, g);
    }
  }

  // Folded series R-L branches: the trapezoidal companion conductance
  // 1/(R + 2L/h); in DC the inductor is a short.
  for (const ckt::MnaStructure::FoldedBranch& b : structure.folded_branches()) {
    const double r = nl.resistors()[b.resistor].resistance;
    const double req = dc ? 0.0 : 2.0 * nl.inductors()[b.inductor].inductance / h;
    stamp_conductance(solver, n, row(b.from), row(b.to), 1.0 / (r + req));
  }

  for (std::size_t k = 0; k < nl.inductors().size(); ++k) {
    const std::size_t j = structure.inductor_index(k);
    if (j == ckt::MnaStructure::npos) continue;
    const ckt::Inductor& l = nl.inductors()[k];
    const double req = dc ? 0.0 : 2.0 * l.inductance / h;
    // Branch equation: (va - vb) - req * i = e_n.
    if (const std::size_t a = row(l.a); a < n) {
      solver.add(j, a, 1.0);
      solver.add(a, j, 1.0);
    }
    if (const std::size_t b = row(l.b); b < n) {
      solver.add(j, b, -1.0);
      solver.add(b, j, -1.0);
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

  // Sources that keep a branch row (a source that holds a known node has
  // none: its node's value is on the right-hand side).
  for (std::size_t k = 0; k < nl.vsources().size(); ++k) {
    const std::size_t j = structure.vsource_index(k);
    if (j == ckt::MnaStructure::npos) continue;
    const ckt::VSource& v = nl.vsources()[k];
    if (const std::size_t p = row(v.pos); p < n) {
      solver.add(j, p, 1.0);
      solver.add(p, j, 1.0);
    }
    if (const std::size_t q = row(v.neg); q < n) {
      solver.add(j, q, -1.0);
      solver.add(q, j, -1.0);
    }
  }
}

}  // namespace rlceff::sim::detail
