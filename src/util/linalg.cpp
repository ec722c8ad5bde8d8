#include "util/linalg.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <type_traits>
#include <utility>

#include "util/error.h"

namespace rlceff::util {

namespace {
constexpr double pivot_floor = 1e-300;

using OneLane = std::integral_constant<std::size_t, 1>;

// The widest block BandedMatrix::solve_block runs at a compile-time lane
// count; the banded substitution's `#pragma GCC unroll 16` spells it.
constexpr std::size_t kMaxWidth = 16;

// Calls fn(std::integral_constant<std::size_t, lanes>{}), lanes in
// [1, sizeof...(W)].
template <class Fn, std::size_t... W>
void with_width(std::size_t lanes, Fn& fn, std::index_sequence<W...>) {
  (void)((lanes == W + 1 && (fn(std::integral_constant<std::size_t, W + 1>{}), true)) || ...);
}

// The one substitution sweep behind lu_solve_into and lu_solve_block: lane s
// of unknown i lives at x[i * stride + s].  `Lanes` is std::size_t for
// blocks or OneLane, the compile-time one-lane instance lu_solve_into runs,
// whose lane loops collapse to scalar code.  Every lane executes the same
// operation sequence, so a lane's result is bitwise-identical whichever
// instance solved it; the __restrict row pointers (distinct rows of x are
// disjoint) let the block instance's lane loops vectorize.
template <class Lanes>
void lu_substitute(const LuFactors& f, double* x, Lanes lanes, Lanes stride) {
  const std::size_t n = f.lu.rows();
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t p = f.perm[k];
    double* __restrict xk = x + k * stride;
    if (p != k) {
      double* __restrict xp = x + p * stride;
      for (std::size_t s = 0; s < lanes; ++s) std::swap(xk[s], xp[s]);
    }
    for (std::size_t i = k + 1; i < n; ++i) {
      const double m = f.lu(i, k);
      double* __restrict xi = x + i * stride;
      for (std::size_t s = 0; s < lanes; ++s) xi[s] -= m * xk[s];
    }
  }
  for (std::size_t k = n; k-- > 0;) {
    double* __restrict xk = x + k * stride;
    for (std::size_t j = k + 1; j < n; ++j) {
      const double m = f.lu(k, j);
      const double* __restrict xj = x + j * stride;
      for (std::size_t s = 0; s < lanes; ++s) xk[s] -= m * xj[s];
    }
    const double d = f.lu(k, k);
    for (std::size_t s = 0; s < lanes; ++s) xk[s] /= d;
  }
}

}  // namespace

DenseMatrix::DenseMatrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), a_(rows * cols, 0.0) {}

void DenseMatrix::set_zero() { std::fill(a_.begin(), a_.end(), 0.0); }

void lu_factor_into(const DenseMatrix& a, LuFactors& f) {
  ensure(a.rows() == a.cols(), "lu_factor: matrix must be square");
  const std::size_t n = a.rows();
  f.lu = a;  // same-shape copy reuses the workspace's storage
  f.perm.resize(n);
  DenseMatrix& lu = f.lu;

  for (std::size_t k = 0; k < n; ++k) {
    std::size_t prow = k;
    double pmax = std::abs(lu(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      const double v = std::abs(lu(i, k));
      if (v > pmax) {
        pmax = v;
        prow = i;
      }
    }
    if (pmax < pivot_floor) throw SingularMatrixError("lu_factor: singular matrix");
    f.perm[k] = prow;
    if (prow != k) {
      // Swap only the active columns: the stored multipliers are per-step
      // elimination records, and lu_substitute replays swap-then-eliminate in the
      // same order.  Swapping the L part too would break that replay.
      for (std::size_t j = k; j < n; ++j) std::swap(lu(k, j), lu(prow, j));
    }
    const double inv = 1.0 / lu(k, k);
    for (std::size_t i = k + 1; i < n; ++i) {
      const double m = lu(i, k) * inv;
      lu(i, k) = m;
      if (m == 0.0) continue;
      for (std::size_t j = k + 1; j < n; ++j) lu(i, j) -= m * lu(k, j);
    }
  }
}

void lu_solve_into(const LuFactors& f, std::span<double> x) {
  ensure(x.size() == f.lu.rows(), "lu_solve: rhs size mismatch");
  lu_substitute(f, x.data(), OneLane{}, OneLane{});
}

void lu_solve_block(const LuFactors& f, std::span<double> x, std::size_t lanes,
                    std::size_t stride) {
  ensure(lanes > 0 && lanes <= stride, "lu_solve_block: bad lane count");
  ensure(x.size() >= f.lu.rows() * stride - (stride - lanes),
         "lu_solve_block: rhs block size mismatch");
  lu_substitute(f, x.data(), lanes, stride);
}

std::vector<double> solve_dense(const DenseMatrix& a, std::span<const double> b) {
  LuFactors f;
  lu_factor_into(a, f);
  std::vector<double> x(b.begin(), b.end());
  lu_solve_into(f, x);
  return x;
}

BandedMatrix::BandedMatrix(std::size_t n, std::size_t lower, std::size_t upper)
    : n_(n),
      kl_(lower),
      ku_(upper),
      ku_tot_(upper + lower),
      ld_(2 * lower + upper + 1),
      lw_(n > 0 ? std::min(lower, n - 1) : 0),
      uw_(n > 0 ? std::min(upper + lower, n - 1) : 0),
      ab_(n * ld_, 0.0),
      pivot_(n, 0) {
  ensure(n > 0, "BandedMatrix: empty matrix");
  ensure(uw_ <= std::numeric_limits<std::uint16_t>::max(),
         "BandedMatrix: band too wide for 16-bit packed factor offsets");
}

bool BandedMatrix::in_band(std::size_t r, std::size_t c) const {
  if (r >= n_ || c >= n_) return false;
  if (r >= c) return r - c <= kl_;
  return c - r <= ku_;
}

double& BandedMatrix::at(std::size_t r, std::size_t c) {
  return ab_[c * ld_ + (ku_tot_ + r - c)];
}

const double& BandedMatrix::at(std::size_t r, std::size_t c) const {
  return ab_[c * ld_ + (ku_tot_ + r - c)];
}

void BandedMatrix::add(std::size_t r, std::size_t c, double v) {
  ensure(c >= factored_, "BandedMatrix: modifying a factored column");
  ensure(in_band(r, c), "BandedMatrix: entry outside declared band");
  at(r, c) += v;
}

double* BandedMatrix::entry(std::size_t r, std::size_t c) {
  ensure(in_band(r, c), "BandedMatrix: entry outside declared band");
  return &at(r, c);
}

double BandedMatrix::get(std::size_t r, std::size_t c) const {
  if (r >= c ? (r - c > kl_) : (c - r > ku_tot_)) return 0.0;
  return at(r, c);
}

void BandedMatrix::set_zero() {
  std::fill(ab_.begin(), ab_.end(), 0.0);
  factored_ = 0;
}

void BandedMatrix::copy_values_from(const BandedMatrix& other, std::size_t first) {
  ensure(n_ == other.n_ && kl_ == other.kl_ && ku_ == other.ku_,
         "BandedMatrix: copy_values_from shape mismatch");
  ensure(other.factored_ == 0, "BandedMatrix: copying from a factored matrix");
  ensure(first <= n_, "BandedMatrix: copy_values_from column out of range");
  const auto off = static_cast<std::ptrdiff_t>(first * ld_);
  std::copy(other.ab_.begin() + off, other.ab_.end(), ab_.begin() + off);
  factored_ = std::min(factored_, first);
}

void BandedMatrix::factor() { factor_from(0); }

// Right-looking partial-pivoting LU over the band's nonzeros.  Step k picks
// the pivot of column k, swaps rows k and the pivot row across columns
// k..k+ku_tot and stores the multipliers m(i, k) below the diagonal.  It
// packs two lists: L, the rows whose multiplier is nonzero, and U, the
// columns whose entry of row k (now final) is nonzero, with their values.
// Then it updates only the cross product, a(i, j) -= m(i, k) * a(k, j).
//
// For finite matrices this is the full-band loop bit for bit: an entry that
// is not a stored multiplier is never -0.0 (it starts as +0.0 and receives
// only add() sums and -= updates), so a skipped update by a +-0.0 product
// would have left it unchanged.  The updates of one step touch distinct
// entries, so their order does not matter; each entry still receives its
// updates in ascending k.
//
// A column's factors depend only on its own values and the columns before
// it, so factor_from(first) keeps columns 0..first-1 and the L lists of
// their steps.  The kept steps whose swaps and updates reach column `first`
// (k >= first - ku_tot) are replayed on columns first.. from their stored
// pivots and multipliers: each keeps the U entries before `first` and
// re-packs the rest.  Then the elimination continues from step `first`.
// Every entry of the recomputed columns gets the same operations in the
// same ascending-k order as in factor(), so the factors are bitwise
// identical.
void BandedMatrix::factor_from(std::size_t first) {
  ensure(first <= n_ && factored_ == first,
         "BandedMatrix: factor_from(first) needs the columns before `first` "
         "factored and the rest not (factor() needs an unfactored matrix)");
  if (l_count_.empty()) {
    l_count_.assign(n_, 0);
    l_off_.assign(n_ * lw_, 0);
    u_count_.assign(n_, 0);
    u_off_.assign(n_ * uw_, 0);
    u_val_.assign(n_ * uw_, 0.0);
  }
  for (std::size_t k = first > ku_tot_ ? first - ku_tot_ : 0; k < n_; ++k) {
    const bool kept = k < first;
    const std::size_t ilast = std::min(n_ - 1, k + kl_);
    const std::size_t jlast = std::min(n_ - 1, k + ku_tot_);
    const std::size_t jfirst = kept ? first : k + 1;
    if (!kept) {
      std::size_t prow = k;
      double pmax = std::abs(at(k, k));
      for (std::size_t i = k + 1; i <= ilast; ++i) {
        const double v = std::abs(at(i, k));
        if (v > pmax) {
          pmax = v;
          prow = i;
        }
      }
      if (pmax < pivot_floor) throw SingularMatrixError("BandedMatrix: singular matrix");
      pivot_[k] = prow;
    }
    const std::size_t prow = pivot_[k];
    if (prow != k) {
      for (std::size_t j = kept ? first : k; j <= jlast; ++j) {
        std::swap(at(k, j), at(prow, j));
      }
    }
    std::uint16_t* const l_off = l_off_.data() + k * lw_;
    if (!kept) {
      const double inv = 1.0 / at(k, k);
      std::size_t nl = 0;
      for (std::size_t i = k + 1; i <= ilast; ++i) {
        const double m = at(i, k) *= inv;
        if (m != 0.0) l_off[nl++] = static_cast<std::uint16_t>(i - k);
      }
      l_count_[k] = static_cast<std::uint16_t>(nl);
    }
    // U: a kept step keeps its entries before `first`.  The rest of row k is
    // packed, and each nonzero entry updates its column at the rows of L.
    // Column c of band storage is contiguous: (&at(k, c))[t] is a(k + t, c).
    std::uint16_t* const u_off = u_off_.data() + k * uw_;
    double* const u_val = u_val_.data() + k * uw_;
    std::size_t nu = 0;
    if (kept) {
      while (nu < u_count_[k] && k + u_off[nu] < first) ++nu;
    }
    const double* const mult = &at(k, k);
    const std::size_t nl = l_count_[k];
    for (std::size_t j = jfirst; j <= jlast; ++j) {
      double* const col = &at(k, j);
      const double u = *col;
      if (u == 0.0) continue;
      u_off[nu] = static_cast<std::uint16_t>(j - k);
      u_val[nu++] = u;
      for (std::size_t s = 0; s < nl; ++s) col[l_off[s]] -= mult[l_off[s]] * u;
    }
    u_count_[k] = static_cast<std::uint16_t>(nu);
  }
  factored_ = n_;
}

// One kernel for both solves, like lu_substitute, sweeping the packed lists
// of factor_from.  A skipped x_i -= m * x_k with m == 0 could only have
// turned x_i == -0.0 into +0.0, so without a -0.0 in the right-hand side
// the sweep is the full-band one bit for bit, and with one only the sign of
// an exactly-zero result can differ, which no measurement reads.
//
// OneLane with a unit stride is solve_into's instance; solve_block runs the
// compile-time instance of its lane count up to kMaxWidth, or the
// std::size_t instance for a wider block.  At a fixed width every lane loop
// is unrolled in full (the pragmas' 16 is kMaxWidth) into straight-line
// vector code, and the row being updated lives in registers, so a row costs
// its multiply-adds and divisions instead of loop control.  A block wider
// than kMaxWidth, whose cost is its divisions, works on its rows in place.
// Every lane runs the one-lane operation sequence: the same subtractions, of
// the same values, in the same order.
template <class Lanes, class Stride>
void BandedMatrix::substitute(double* x, Lanes width, Stride stride) const {
  const std::size_t lanes = width;  // a constant at a fixed width
  constexpr bool fixed = !std::is_same_v<Lanes, std::size_t>;
  for (std::size_t k = 0; k < n_; ++k) {
    const std::size_t p = pivot_[k];
    double* __restrict xk = x + k * stride;
    if (p != k) {
      double* __restrict xp = x + p * stride;
      #pragma GCC unroll 16
      for (std::size_t s = 0; s < lanes; ++s) std::swap(xk[s], xp[s]);
    }
    const double* const mult = &at(k, k);
    const std::uint16_t* const l_off = l_off_.data() + k * lw_;
    // v: row k, final once its earlier rows updated it.
    const auto update = [&](const auto& v) {
      for (std::size_t t = 0, nl = l_count_[k]; t < nl; ++t) {
        const double m = mult[l_off[t]];
        double* __restrict xi = xk + l_off[t] * stride;
        #pragma GCC unroll 16
        for (std::size_t s = 0; s < lanes; ++s) xi[s] -= m * v[s];
      }
    };
    if constexpr (fixed) {
      double v[Lanes::value];
      #pragma GCC unroll 16
      for (std::size_t s = 0; s < lanes; ++s) v[s] = xk[s];
      update(v);
    } else {
      update(xk);
    }
  }
  for (std::size_t k = n_; k-- > 0;) {
    double* __restrict xk = x + k * stride;
    const std::uint16_t* const u_off = u_off_.data() + k * uw_;
    const double* const u_val = u_val_.data() + k * uw_;
    const double d = at(k, k);
    // acc: row k while it is solved.
    const auto solve_row = [&](auto& acc) {
      for (std::size_t t = 0, nu = u_count_[k]; t < nu; ++t) {
        const double m = u_val[t];
        const double* __restrict xj = xk + u_off[t] * stride;
        #pragma GCC unroll 16
        for (std::size_t s = 0; s < lanes; ++s) acc[s] -= m * xj[s];
      }
      #pragma GCC unroll 16
      for (std::size_t s = 0; s < lanes; ++s) xk[s] = acc[s] / d;
    };
    if constexpr (fixed) {
      double acc[Lanes::value];
      #pragma GCC unroll 16
      for (std::size_t s = 0; s < lanes; ++s) acc[s] = xk[s];
      solve_row(acc);
    } else {
      solve_row(xk);
    }
  }
}

void BandedMatrix::solve_into(std::span<double> x) const {
  ensure(factored_ == n_, "BandedMatrix: solve before factor");
  ensure(x.size() == n_, "BandedMatrix: rhs size mismatch");
  substitute(x.data(), OneLane{}, OneLane{});
}

std::size_t BandedMatrix::row_swaps() const {
  std::size_t swaps = 0;
  for (std::size_t k = 0; k < factored_; ++k) swaps += pivot_[k] != k ? 1 : 0;
  return swaps;
}

void BandedMatrix::solve_block(std::span<double> x, std::size_t lanes,
                               std::size_t stride) const {
  ensure(factored_ == n_, "BandedMatrix: solve before factor");
  ensure(lanes > 0 && lanes <= stride, "BandedMatrix: bad lane count");
  ensure(x.size() >= n_ * stride - (stride - lanes),
         "BandedMatrix: rhs block size mismatch");
  // The instance of exactly `lanes` lanes, so no instance touches a column
  // past the block's last lane.
  const auto run = [&](auto width) { substitute(x.data(), width, stride); };
  if (lanes > kMaxWidth) {
    run(lanes);
  } else {
    with_width(lanes, run, std::make_index_sequence<kMaxWidth>{});
  }
}

}  // namespace rlceff::util
