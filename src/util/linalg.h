// Dense and banded linear algebra.
//
// The MNA simulator factors its matrix once per (step size, gmin) for linear
// circuits, and per Newton iteration for MOSFET circuits.  For small circuits
// the dense LU is fine; for discretized transmission lines (hundreds of
// unknowns, nearly tridiagonal after RCM ordering) the banded LU works only
// on the band's nonzeros: a factorization costs the sum over its elimination
// steps of (nonzero multipliers) x (nonzero U entries) updates plus one scan
// of the band, a solve costs one multiply-add per stored nonzero of L and U
// and one division per unknown, and a Newton iteration refactors only the
// columns its MOSFET stamps change (BandedMatrix::factor_from).
#ifndef RLCEFF_UTIL_LINALG_H
#define RLCEFF_UTIL_LINALG_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace rlceff::util {

// Row-major dense matrix.
class DenseMatrix {
public:
  DenseMatrix() = default;
  DenseMatrix(std::size_t rows, std::size_t cols);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double operator()(std::size_t r, std::size_t c) const { return a_[r * cols_ + c]; }
  double& operator()(std::size_t r, std::size_t c) { return a_[r * cols_ + c]; }

  void set_zero();

private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> a_;
};

// LU factorization with partial pivoting (PA = LU), stored in place.
struct LuFactors {
  DenseMatrix lu;
  std::vector<std::size_t> perm;
};

// Factors a square matrix into a caller-owned workspace; throws
// SingularMatrixError when a pivot vanishes.  When `f` was already sized for
// an n x n system no memory is allocated, so a transient engine can refactor
// every Newton iteration without touching the heap.
void lu_factor_into(const DenseMatrix& a, LuFactors& f);

// In-place solve: x holds b on entry and the solution on exit.  Allocates
// nothing.
void lu_solve_into(const LuFactors& f, std::span<double> x);

// Blocked multi-RHS solve over one factorization.  `x` is an n x stride
// row-major block holding `lanes` right-hand sides: lane s of unknown i lives
// at x[i * stride + s] (lanes <= stride; the extra columns are untouched, and
// x may start at any column of a wider block).  lu_solve_into is the
// one-lane instance of the same substitution kernel, so every lane's result
// is bitwise-identical to an independent single-RHS solve, while the inner
// loops run contiguously across lanes and vectorize.
void lu_solve_block(const LuFactors& f, std::span<double> x, std::size_t lanes,
                    std::size_t stride);

// Convenience: factor and solve in one call.
std::vector<double> solve_dense(const DenseMatrix& a, std::span<const double> b);

// Banded matrix in LAPACK-style band storage with room for pivoting fill.
// Entry (r, c) is stored when |r - c| is within (lower, upper) bandwidth.
//
// Factorization and substitution touch only the band's nonzeros: each
// elimination step packs its nonzero multipliers and nonzero U entries, and
// the sweeps run over those lists.  This is exact.  A band entry that is not
// a multiplier is built by add() sums and -= updates from +0.0, so it is
// never -0.0, and subtracting a +-0.0 product from it changes nothing: for
// finite values the factors equal the full-band loop's bit for bit, and so
// does every solution entry, except that with -0.0 entries in the
// right-hand side an exactly-zero result may differ in sign.
class BandedMatrix {
public:
  // n unknowns with `lower` subdiagonals and `upper` superdiagonals.
  BandedMatrix(std::size_t n, std::size_t lower, std::size_t upper);

  std::size_t size() const { return n_; }
  std::size_t lower() const { return kl_; }
  std::size_t upper() const { return ku_; }

  // In-band accumulate; throws if (r, c) is outside the band.
  void add(std::size_t r, std::size_t c, double v);
  // The stored entry (r, c), for restamping hot paths that resolve an entry
  // once and then accumulate through it: it stays valid for the matrix's
  // lifetime, and a write through it skips add()'s checks, so its column
  // must not be factored.  Throws if (r, c) is outside the band.
  double* entry(std::size_t r, std::size_t c);
  double get(std::size_t r, std::size_t c) const;
  bool in_band(std::size_t r, std::size_t c) const;

  void set_zero();

  // Copies the numeric values of columns first..n-1 of `other` (same
  // n/lower/upper shape, not factored) into this matrix without allocating;
  // columns before `first` keep what they hold.  Those columns are one
  // contiguous tail of band storage, so a cached static assembly is restored
  // each Newton iteration at memcpy cost instead of re-stamping every device.
  // The copied columns are unfactored.
  void copy_values_from(const BandedMatrix& other, std::size_t first = 0);

  // Factors in place (partial pivoting, fill confined to kl extra
  // superdiagonals).  The matrix must have been built with `upper` at least
  // its true upper bandwidth; factorization uses ku_total = ku + kl
  // internally.  factor() is factor_from(0).  The first factorization of a
  // matrix sizes its packed factor lists; no later one allocates.
  void factor();

  // Refactors columns first..n-1 from their current (unfactored) values,
  // reusing the pivots and multipliers stored in columns 0..first-1 by an
  // earlier factorization.  Requires exactly those columns to hold factors:
  // after a factorization, restore columns from `first` on with
  // copy_values_from(image, first) and change only those columns.  The
  // result is bitwise the full factorization of the whole matrix, because
  // a column's factors depend only on its own values and the columns before
  // it (see the kernel in linalg.cpp).
  void factor_from(std::size_t first);

  // In-place solve: x holds b on entry and the solution on exit.  Allocates
  // nothing, so the per-step cost of a pre-factored system is one
  // substitution sweep over the stored nonzeros of L and U.
  void solve_into(std::span<double> x) const;

  // Blocked multi-RHS solve (see lu_solve_block): `lanes` right-hand sides in
  // an n x stride row-major block, each lane bitwise-identical to solve_into
  // on that lane alone (both run one substitution kernel).  Up to 16 lanes
  // run the kernel instance of exactly that width, a wider block its
  // runtime-width instance; no instance touches a column past the last lane.
  void solve_block(std::span<double> x, std::size_t lanes, std::size_t stride) const;

  // Elimination steps of the current factorization whose pivot came from a
  // row below the diagonal: 0 for a diagonally dominant matrix.
  std::size_t row_swaps() const;

private:
  template <class Lanes, class Stride>
  void substitute(double* x, Lanes lanes, Stride stride) const;

  double& at(std::size_t r, std::size_t c);
  const double& at(std::size_t r, std::size_t c) const;

  std::size_t n_;
  std::size_t kl_;
  std::size_t ku_;        // user-declared upper bandwidth
  std::size_t ku_tot_;    // ku_ + kl_ (pivoting fill)
  std::size_t ld_;        // leading dimension of band storage
  std::size_t lw_;        // L slot width: min(kl_, n_ - 1)
  std::size_t uw_;        // U slot width: min(ku_tot_, n_ - 1)
  std::size_t factored_ = 0;        // leading columns holding LU factors
  std::vector<double> ab_;          // band storage, column-major in bands
  std::vector<std::size_t> pivot_;  // row swaps applied during factorization

  // The factors' nonzeros, packed per elimination step k into fixed slots
  // (empty until the first factorization).  L: rows k + l_off_[k * lw_ + t]
  // for t < l_count_[k], whose multipliers are read in place from column k.
  // U: columns k + u_off_[k * uw_ + t] for t < u_count_[k], ascending, with
  // their values copied to u_val_ (row k of band storage is strided).
  std::vector<std::uint16_t> l_count_;
  std::vector<std::uint16_t> l_off_;
  std::vector<std::uint16_t> u_count_;
  std::vector<std::uint16_t> u_off_;
  std::vector<double> u_val_;
};

}  // namespace rlceff::util

#endif  // RLCEFF_UTIL_LINALG_H
