// Unit tests for dense/banded/sparse LU and the ordering heuristics.
#include "util/linalg.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "test_helpers.h"
#include "util/budget.h"
#include "util/error.h"
#include "util/ordering.h"
#include "util/sparse.h"

namespace rlceff::util {
namespace {

using rlceff::testing::expect_rel_near;
using rlceff::testing::uniform;

// Solves A x = b with a factored band matrix, into a copy of b.
std::vector<double> solved(const BandedMatrix& a, std::vector<double> x) {
  a.solve_into(x);
  return x;
}

// An ensure message names its source file from the checkout root (the build
// maps the source directory away), so two builds of one commit print the
// same text wherever they were built.
TEST(Ensure, MessageNamesTheSourceFileFromTheCheckoutRoot) {
  try {
    BandedMatrix empty(0, 1, 1);
    FAIL() << "an empty BandedMatrix was accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_EQ(0u, what.rfind("src/util/linalg.cpp:", 0)) << what;
    EXPECT_NE(std::string::npos, what.find(": BandedMatrix: empty matrix")) << what;
  }
}

TEST(DenseLu, SolvesKnownSystem) {
  DenseMatrix a(2, 2);
  a(0, 0) = 2.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 3.0;
  const std::vector<double> b{5.0, 10.0};
  const auto x = solve_dense(a, b);
  EXPECT_NEAR(1.0, x[0], 1e-12);
  EXPECT_NEAR(3.0, x[1], 1e-12);
}

TEST(DenseLu, PivotsOnZeroDiagonal) {
  DenseMatrix a(2, 2);
  a(0, 0) = 0.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 0.0;
  const std::vector<double> b{2.0, 3.0};
  const auto x = solve_dense(a, b);
  EXPECT_NEAR(3.0, x[0], 1e-12);
  EXPECT_NEAR(2.0, x[1], 1e-12);
}

TEST(DenseLu, SingularThrows) {
  DenseMatrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 2.0;
  a(1, 1) = 4.0;
  const std::vector<double> b{1.0, 2.0};
  EXPECT_THROW(solve_dense(a, b), SingularMatrixError);
}

TEST(DenseLu, RandomSystemsResidualSmall) {
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t m = 3 + static_cast<std::size_t>(trial % 8);
    DenseMatrix a(m, m);
    for (std::size_t r = 0; r < m; ++r) {
      for (std::size_t c = 0; c < m; ++c) a(r, c) = uniform(-1.0, 1.0);
      a(r, r) += 3.0;  // diagonal dominance guarantees solvability
    }
    std::vector<double> x_true(m);
    for (double& v : x_true) v = uniform(-2.0, 2.0);
    std::vector<double> b(m, 0.0);
    for (std::size_t r = 0; r < m; ++r) {
      for (std::size_t c = 0; c < m; ++c) b[r] += a(r, c) * x_true[c];
    }
    const auto x = solve_dense(a, b);
    for (std::size_t k = 0; k < m; ++k) EXPECT_NEAR(x_true[k], x[k], 1e-9);
  }
}

TEST(BandedLu, MatchesDenseOnRandomBandedSystems) {
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t m = 6 + static_cast<std::size_t>(trial % 10);
    const std::size_t bw = 1 + static_cast<std::size_t>(trial % 3);
    DenseMatrix dense(m, m);
    BandedMatrix banded(m, bw, bw);
    for (std::size_t r = 0; r < m; ++r) {
      for (std::size_t c = 0; c < m; ++c) {
        const std::size_t dist = r > c ? r - c : c - r;
        if (dist > bw) continue;
        double v = uniform(-1.0, 1.0);
        if (r == c) v += 3.0;
        dense(r, c) = v;
        banded.add(r, c, v);
      }
    }
    std::vector<double> b(m);
    for (double& v : b) v = uniform(-2.0, 2.0);
    const auto x_dense = solve_dense(dense, b);
    banded.factor();
    const auto x_band = solved(banded, b);
    for (std::size_t k = 0; k < m; ++k) EXPECT_NEAR(x_dense[k], x_band[k], 1e-9);
  }
}

TEST(DenseLu, FactorIntoReusesWorkspaceAndMatchesOneShot) {
  LuFactors workspace;
  for (int trial = 0; trial < 3; ++trial) {
    const std::size_t m = 5;
    DenseMatrix a(m, m);
    for (std::size_t r = 0; r < m; ++r) {
      for (std::size_t c = 0; c < m; ++c) a(r, c) = uniform(-1.0, 1.0);
      a(r, r) += 4.0;
    }
    std::vector<double> b(m);
    for (double& v : b) v = uniform(-2.0, 2.0);

    lu_factor_into(a, workspace);
    std::vector<double> x = b;
    lu_solve_into(workspace, x);
    const auto x_ref = solve_dense(a, b);
    for (std::size_t k = 0; k < m; ++k) EXPECT_NEAR(x_ref[k], x[k], 1e-12);
  }
}

TEST(BandedLu, CopyValuesFromRestoresAndRefactors) {
  // The transient engine's cached-static pattern: keep an unfactored image,
  // restore it into the working matrix, perturb, factor, solve — repeatedly.
  const std::size_t m = 10;
  BandedMatrix image(m, 1, 1);
  DenseMatrix dense_base(m, m);
  for (std::size_t k = 0; k < m; ++k) {
    image.add(k, k, 3.0 + 0.1 * static_cast<double>(k));
    dense_base(k, k) = 3.0 + 0.1 * static_cast<double>(k);
    if (k + 1 < m) {
      image.add(k, k + 1, -1.0);
      image.add(k + 1, k, -1.0);
      dense_base(k, k + 1) = -1.0;
      dense_base(k + 1, k) = -1.0;
    }
  }
  std::vector<double> b(m, 1.0);

  BandedMatrix work(m, 1, 1);
  for (int round = 0; round < 3; ++round) {
    const double extra = 0.5 * static_cast<double>(round);
    work.copy_values_from(image);
    work.add(0, 0, extra);  // "restamped" dynamic entry
    work.factor();
    const auto x = solved(work, b);

    DenseMatrix dense = dense_base;
    dense(0, 0) += extra;
    const auto x_ref = solve_dense(dense, b);
    for (std::size_t k = 0; k < m; ++k) expect_rel_near(x_ref[k], x[k], 1e-12);
  }
}

TEST(BandedLu, CopyValuesFromRejectsShapeMismatch) {
  BandedMatrix a(5, 1, 1);
  BandedMatrix b(5, 2, 2);
  EXPECT_THROW(a.copy_values_from(b), Error);
}

TEST(BandedLu, RejectsOutOfBandEntry) {
  BandedMatrix a(5, 1, 1);
  EXPECT_THROW(a.add(0, 3, 1.0), Error);
}

TEST(BandedLu, SingularThrows) {
  BandedMatrix a(2, 1, 1);
  a.add(0, 0, 1.0);
  a.add(0, 1, 2.0);
  a.add(1, 0, 2.0);
  a.add(1, 1, 4.0);
  EXPECT_THROW(a.factor(), SingularMatrixError);
}

TEST(BandedLu, PivotingWithinBandWorks) {
  // Tridiagonal with a weak diagonal that forces row swaps.
  const std::size_t m = 8;
  BandedMatrix a(m, 1, 1);
  DenseMatrix d(m, m);
  for (std::size_t k = 0; k < m; ++k) {
    const double diag = 1e-3;
    a.add(k, k, diag);
    d(k, k) = diag;
    if (k + 1 < m) {
      a.add(k, k + 1, 2.0);
      a.add(k + 1, k, 1.5);
      d(k, k + 1) = 2.0;
      d(k + 1, k) = 1.5;
    }
  }
  std::vector<double> b(m, 1.0);
  a.factor();
  const auto x_band = solved(a, b);
  const auto x_dense = solve_dense(d, b);
  for (std::size_t k = 0; k < m; ++k) expect_rel_near(x_dense[k], x_band[k], 1e-9);
}

// ---- banded kernel vs the classic right-looking loop -------------------------

// The plain right-looking partial-pivoting band LU, the loop the library ran
// before factor_from existed, kept here as the bitwise reference: same band
// storage, same pivot rule, same skip of exactly-zero multipliers.
struct RightLookingBand {
  std::size_t n, kl, ku_tot, ld;
  std::vector<double> ab;
  std::vector<std::size_t> pivot;

  RightLookingBand(std::size_t n_, std::size_t lower, std::size_t upper)
      : n(n_), kl(lower), ku_tot(upper + lower), ld(2 * lower + upper + 1),
        ab(n_ * ld, 0.0), pivot(n_, 0) {}

  double& at(std::size_t r, std::size_t c) { return ab[c * ld + (ku_tot + r - c)]; }

  void factor() {
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t ilast = std::min(n - 1, k + kl);
      std::size_t prow = k;
      double pmax = std::abs(at(k, k));
      for (std::size_t i = k + 1; i <= ilast; ++i) {
        const double v = std::abs(at(i, k));
        if (v > pmax) {
          pmax = v;
          prow = i;
        }
      }
      if (pmax < 1e-300) throw SingularMatrixError("reference: singular matrix");
      pivot[k] = prow;
      const std::size_t jlast = std::min(n - 1, k + ku_tot);
      if (prow != k) {
        for (std::size_t j = k; j <= jlast; ++j) std::swap(at(k, j), at(prow, j));
      }
      const double inv = 1.0 / at(k, k);
      for (std::size_t i = k + 1; i <= ilast; ++i) {
        const double m = at(i, k) * inv;
        at(i, k) = m;
        if (m == 0.0) continue;
        for (std::size_t j = k + 1; j <= jlast; ++j) at(i, j) -= m * at(k, j);
      }
    }
  }

  std::vector<double> solve(std::vector<double> x) {
    for (std::size_t k = 0; k < n; ++k) {
      if (pivot[k] != k) std::swap(x[k], x[pivot[k]]);
      for (std::size_t i = k + 1; i <= std::min(n - 1, k + kl); ++i) x[i] -= at(i, k) * x[k];
    }
    for (std::size_t k = n; k-- > 0;) {
      for (std::size_t j = k + 1; j <= std::min(n - 1, k + ku_tot); ++j) {
        x[k] -= at(k, j) * x[j];
      }
      x[k] /= at(k, k);
    }
    return x;
  }
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// The kernel tests draw from their own generator, reseeded per test, so a
// test's cases do not depend on which tests ran before it.
std::mt19937 band_gen;

double draw(double lo, double hi) {
  return std::uniform_real_distribution<double>(lo, hi)(band_gen);
}

// A random band with planted exact zeros (zero multipliers), -0.0 entries,
// and columns whose weak diagonal forces an off-diagonal pivot.  `zeros` is
// the fraction of planted zeros off the diagonal: 0.4 by default, and 0.8
// for the fill of a real MNA band after RCM (61-86% of its slots hold exact
// zeros).  The diagonal keeps the default fraction, as an MNA row has a zero
// diagonal only at a source or inductor branch.
struct BandCase {
  std::size_t n, kl, ku;
  std::vector<std::tuple<std::size_t, std::size_t, double>> entries;
  double zeros = 0.4;
};

// An exact zero with probability `zeros` (a quarter of them -0.0), else
// uniform in [-1, 1].
double random_entry(double zeros) {
  const double u = draw(0.0, 1.0);
  if (u < zeros) return u < 0.75 * zeros ? 0.0 : -0.0;
  return draw(-1.0, 1.0);
}

BandCase random_band_case(std::size_t n, std::size_t kl, std::size_t ku,
                          double zeros = 0.4) {
  BandCase bc{n, kl, ku, {}, zeros};
  for (std::size_t c = 0; c < n; ++c) {
    const bool weak = draw(0.0, 1.0) < 0.3;
    for (std::size_t r = c > ku ? c - ku : 0; r <= std::min(n - 1, c + kl); ++r) {
      double v = random_entry(r == c ? 0.4 : zeros);
      if (r == c) v = weak ? 1e-3 * v : v + (v < 0.0 ? -2.0 : 2.0);
      bc.entries.emplace_back(r, c, v);
    }
  }
  return bc;
}

void load(BandedMatrix& a, const BandCase& bc) {
  for (const auto& [r, c, v] : bc.entries) a.add(r, c, v);
}

void load(RightLookingBand& a, const BandCase& bc) {
  for (const auto& [r, c, v] : bc.entries) a.at(r, c) += v;
}

// Factors the reference; false when it is singular.
bool factors(RightLookingBand& ref) {
  try {
    ref.factor();
    return true;
  } catch (const SingularMatrixError&) {
    return false;
  }
}

// Every stored entry (the band plus the pivoting fill), bitwise, and solves
// against the reference: a random right-hand side, the same with planted
// +0.0 entries, and with planted -0.0 and +0.0 entries.  The first two must
// match bit for bit.  With -0.0 in the right-hand side the packed sweep may
// differ only in the sign of an exactly zero result (see
// BandedMatrix::solve_into), so the third compares under == and bitwise on
// every nonzero.
void expect_factors_equal(const BandedMatrix& a, RightLookingBand& ref) {
  const std::size_t n = a.size();
  for (std::size_t c = 0; c < n; ++c) {
    for (std::size_t r = c > ref.ku_tot ? c - ref.ku_tot : 0;
         r <= std::min(n - 1, c + ref.kl); ++r) {
      ASSERT_EQ(bits(ref.at(r, c)), bits(a.get(r, c))) << "(" << r << ", " << c << ")";
    }
  }
  std::vector<double> b(n);
  for (double& v : b) v = draw(-2.0, 2.0);
  constexpr std::size_t kinds = 3;
  std::vector<std::vector<double>> rhs(kinds, b);
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 3 == 1) rhs[1][i] = 0.0;
    if (i % 3 != 0) rhs[2][i] = i % 3 == 1 ? -0.0 : 0.0;
  }
  for (std::size_t s = 0; s < kinds; ++s) {
    const std::vector<double> x_ref = ref.solve(rhs[s]);
    const std::vector<double> x = solved(a, rhs[s]);
    for (std::size_t k = 0; k < n; ++k) {
      if (s == 2 && x[k] == 0.0) {
        ASSERT_EQ(0.0, x_ref[k]) << "rhs " << s << " unknown " << k;
      } else {
        ASSERT_EQ(bits(x_ref[k]), bits(x[k])) << "rhs " << s << " unknown " << k;
      }
    }
  }
}

TEST(BandedLu, FactorsBitwiseMatchClassicLoop) {
  band_gen.seed(1);
  // Most sparse cases are singular, so they get more trials.
  for (const auto& [zeros, trials] : {std::pair{0.4, 300}, std::pair{0.8, 1500}}) {
    int factored = 0;
    int off_diagonal_pivots = 0;
    int zero_multipliers = 0;
    for (int trial = 0; trial < trials; ++trial) {
      const auto n = static_cast<std::size_t>(draw(1.0, 40.0));
      const auto kl = static_cast<std::size_t>(draw(0.0, 6.0));
      const auto ku = trial % 2 == 0 ? kl : static_cast<std::size_t>(draw(0.0, 6.0));
      SCOPED_TRACE(::testing::Message() << "zeros " << zeros << " trial " << trial
                                        << " n " << n << " kl " << kl << " ku " << ku);
      const BandCase bc = random_band_case(n, kl, ku, zeros);
      BandedMatrix a(n, kl, ku);
      RightLookingBand ref(n, kl, ku);
      load(a, bc);
      load(ref, bc);
      if (!factors(ref)) {
        EXPECT_THROW(a.factor(), SingularMatrixError);
        continue;
      }
      a.factor();
      expect_factors_equal(a, ref);
      ++factored;
      for (std::size_t k = 0; k < n; ++k) {
        off_diagonal_pivots += ref.pivot[k] != k;
        for (std::size_t i = k + 1; i <= std::min(n - 1, k + kl); ++i) {
          zero_multipliers += ref.at(i, k) == 0.0;
        }
      }
    }
    // The cases really exercise pivoting and the zero-multiplier skip.
    EXPECT_GT(factored, 100) << "zeros " << zeros;
    EXPECT_GT(off_diagonal_pivots, 100) << "zeros " << zeros;
    EXPECT_GT(zero_multipliers, 100) << "zeros " << zeros;
  }
}

// Factors `bc`, replaces the values of columns q..n-1 (every row, those
// above q included) with those of `changed`, refactors from q, and compares
// with a fresh factorization of the changed matrix.  Returns false when the
// changed matrix is singular (the refactor must then throw as well).
bool expect_partial_refactor_matches(const BandCase& bc, const BandCase& changed,
                                     std::size_t q) {
  BandedMatrix image(bc.n, bc.kl, bc.ku);
  load(image, changed);
  BandedMatrix a(bc.n, bc.kl, bc.ku);
  load(a, bc);
  a.factor();
  a.copy_values_from(image, q);
  RightLookingBand ref(bc.n, bc.kl, bc.ku);
  load(ref, changed);
  if (!factors(ref)) {
    EXPECT_THROW(a.factor_from(q), SingularMatrixError);
    return false;
  }
  a.factor_from(q);
  expect_factors_equal(a, ref);

  // The same through restamping: restore the original columns q.. and add
  // the changes into them.
  BandedMatrix original(bc.n, bc.kl, bc.ku);
  load(original, bc);
  a.copy_values_from(original, q);
  for (std::size_t k = 0; k < bc.entries.size(); ++k) {
    const auto& [r, c, v] = changed.entries[k];
    if (c >= q) a.add(r, c, v - std::get<2>(bc.entries[k]));
  }
  a.factor_from(q);
  RightLookingBand ref2(bc.n, bc.kl, bc.ku);
  load(ref2, bc);
  for (std::size_t k = 0; k < bc.entries.size(); ++k) {
    const auto& [r, c, v] = changed.entries[k];
    if (c >= q) ref2.at(r, c) += v - std::get<2>(bc.entries[k]);
  }
  EXPECT_TRUE(factors(ref2));
  expect_factors_equal(a, ref2);
  return true;
}

// `bc` with the values of columns >= q redrawn.
BandCase change_columns_from(const BandCase& bc, std::size_t q) {
  BandCase changed = bc;
  for (auto& [r, c, v] : changed.entries) {
    if (c < q) continue;
    v = random_entry(bc.zeros);
    if (r == c) v += v < 0.0 ? -2.0 : 2.0;
  }
  return changed;
}

TEST(BandedLu, FactorFromMatchesFreshFactorization) {
  band_gen.seed(2);
  for (const auto& [zeros, trials] : {std::pair{0.4, 60}, std::pair{0.8, 150}}) {
    int compared = 0;
    for (int trial = 0; trial < trials; ++trial) {
      const auto n = static_cast<std::size_t>(draw(2.0, 30.0));
      const auto kl = static_cast<std::size_t>(draw(1.0, 5.0));
      const auto ku = trial % 2 == 0 ? kl : static_cast<std::size_t>(draw(0.0, 5.0));
      const BandCase bc = random_band_case(n, kl, ku, zeros);
      RightLookingBand probe(n, kl, ku);
      load(probe, bc);
      if (!factors(probe)) continue;
      for (const std::size_t q : {std::size_t{0}, std::size_t{1}, n / 2, n - 1, n}) {
        SCOPED_TRACE(::testing::Message() << "zeros " << zeros << " trial " << trial
                                          << " n " << n << " kl " << kl << " ku " << ku
                                          << " q " << q);
        compared += expect_partial_refactor_matches(bc, change_columns_from(bc, q), q);
      }
    }
    EXPECT_GT(compared, 200) << "zeros " << zeros;
  }
}

TEST(BandedLu, FactorFromKeepsPrefixPivotOntoChangedRow) {
  band_gen.seed(3);
  // Column q - 1 has a tiny diagonal and pivots onto row q, so the kept
  // prefix's row swap moves a row of the refactored part.
  const std::size_t n = 12, bw = 2, q = 6;
  BandCase bc{n, bw, bw, {}};
  for (std::size_t c = 0; c < n; ++c) {
    for (std::size_t r = c > bw ? c - bw : 0; r <= std::min(n - 1, c + bw); ++r) {
      double v = 0.3 * draw(-1.0, 1.0);
      if (r == c) v = c == q - 1 ? 1e-6 : 4.0;
      if (c == q - 1 && r < c) v = 0.0;  // keeps the weak diagonal un-updated
      if (c == q - 1 && r == q) v = 10.0;
      bc.entries.emplace_back(r, c, v);
    }
  }
  BandedMatrix a(n, bw, bw);
  load(a, bc);
  a.factor();
  ASSERT_EQ(10.0, a.get(q - 1, q - 1));  // the pivot came from row q
  EXPECT_TRUE(expect_partial_refactor_matches(bc, change_columns_from(bc, q), q));
}

TEST(BandedLu, FactorFromRejectsUnfactoredPrefix) {
  BandedMatrix a(4, 1, 1);
  for (std::size_t k = 0; k < 4; ++k) a.add(k, k, 2.0);
  EXPECT_THROW(a.factor_from(2), Error);  // columns 0..1 hold no factors
  a.factor();
  EXPECT_THROW(a.add(3, 3, 1.0), Error);  // factored column
  EXPECT_THROW(a.factor_from(2), Error);  // columns 2..3 were not restored
  BandedMatrix image(4, 1, 1);
  for (std::size_t k = 0; k < 4; ++k) image.add(k, k, 2.0);
  a.copy_values_from(image, 2);
  EXPECT_THROW(a.add(1, 1, 1.0), Error);  // still factored
  a.add(3, 3, 1.0);
  a.factor_from(2);
  EXPECT_EQ(3.0, a.get(3, 3));
}

// ---- compressed-sparse LU ---------------------------------------------------

// A random MNA-shaped pattern: diagonal plus symmetric off-diagonal pairs.
std::vector<std::pair<std::size_t, std::size_t>> random_pattern(std::size_t m,
                                                                std::size_t extra) {
  std::vector<std::pair<std::size_t, std::size_t>> pos;
  for (std::size_t k = 0; k < m; ++k) pos.emplace_back(k, k);
  for (std::size_t k = 0; k + 1 < m; ++k) {
    pos.emplace_back(k, k + 1);
    pos.emplace_back(k + 1, k);
  }
  for (std::size_t k = 0; k < extra; ++k) {
    const auto a = static_cast<std::size_t>(uniform(0.0, static_cast<double>(m)));
    const auto b = static_cast<std::size_t>(uniform(0.0, static_cast<double>(m)));
    if (a == b) continue;
    pos.emplace_back(a, b);
    pos.emplace_back(b, a);
  }
  return pos;
}

TEST(SparseLu, MatchesDenseOnRandomSparseSystems) {
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t m = 8 + static_cast<std::size_t>(3 * trial);
    SparseMatrix a(m, random_pattern(m, m / 2));
    DenseMatrix dense(m, m);
    for (std::size_t c = 0; c < m; ++c) {
      for (std::size_t p = a.col_ptr()[c]; p < a.col_ptr()[c + 1]; ++p) {
        const std::size_t r = a.row_ind()[p];
        double v = uniform(-1.0, 1.0);
        if (r == c) v += 4.0;
        a.add(r, c, v);
        dense(r, c) += v;
      }
    }
    std::vector<double> b(m);
    for (double& v : b) v = uniform(-2.0, 2.0);

    SparseLu lu;
    lu.analyze(a);
    lu.factor(a);
    std::vector<double> x = b;
    lu.solve_into(x);
    const auto x_ref = solve_dense(dense, b);
    for (std::size_t k = 0; k < m; ++k) EXPECT_NEAR(x_ref[k], x[k], 1e-9);
  }
}

TEST(SparseLu, PivotsOnZeroDiagonal) {
  // A vsource-style block: zero diagonal in the branch row forces pivoting.
  SparseMatrix a(3, {{0, 0}, {1, 1}, {2, 2}, {0, 2}, {2, 0}, {0, 1}, {1, 0}});
  a.add(0, 0, 1e-12);  // gmin only
  a.add(1, 1, 2.0);
  a.add(0, 1, -1.0);
  a.add(1, 0, -1.0);
  a.add(0, 2, 1.0);
  a.add(2, 0, 1.0);
  // a(2, 2) stays 0: branch row.
  SparseLu lu;
  lu.analyze(a);
  lu.factor(a);
  std::vector<double> x{0.0, 0.0, 1.5};  // force node 0 to 1.5 V
  lu.solve_into(x);
  EXPECT_NEAR(1.5, x[0], 1e-12);
  EXPECT_NEAR(0.75, x[1], 1e-9);
}

TEST(SparseLu, StaticImageRestampRefactorMatchesDense) {
  // The transient engine's cached pattern on the sparse image: snapshot the
  // static stamps, restore by memcpy, perturb one position, refactor, solve.
  const std::size_t m = 12;
  SparseMatrix a(m, random_pattern(m, 4));
  DenseMatrix dense_base(m, m);
  for (std::size_t c = 0; c < m; ++c) {
    for (std::size_t p = a.col_ptr()[c]; p < a.col_ptr()[c + 1]; ++p) {
      const std::size_t r = a.row_ind()[p];
      double v = uniform(-1.0, 1.0);
      if (r == c) v += 4.0;
      a.add(r, c, v);
      dense_base(r, c) += v;
    }
  }
  SparseMatrix image(a);
  std::vector<double> b(m, 1.0);

  SparseLu lu;
  lu.analyze(a);
  for (int round = 0; round < 3; ++round) {
    const double extra = 0.5 * static_cast<double>(round);
    a.copy_values_from(image);
    a.add(0, 0, extra);
    lu.factor(a);
    std::vector<double> x = b;
    lu.solve_into(x);

    DenseMatrix dense = dense_base;
    dense(0, 0) += extra;
    const auto x_ref = solve_dense(dense, b);
    for (std::size_t k = 0; k < m; ++k) expect_rel_near(x_ref[k], x[k], 1e-9);
  }
}

TEST(SparseLu, SingularThrows) {
  SparseMatrix a(2, {{0, 0}, {0, 1}, {1, 0}, {1, 1}});
  a.add(0, 0, 1.0);
  a.add(0, 1, 2.0);
  a.add(1, 0, 2.0);
  a.add(1, 1, 4.0);
  SparseLu lu;
  lu.analyze(a);
  EXPECT_THROW(lu.factor(a), SingularMatrixError);
}

TEST(SparseLu, RejectsOutOfPatternEntry) {
  SparseMatrix a(3, {{0, 0}, {1, 1}, {2, 2}});
  EXPECT_THROW(a.add(0, 2, 1.0), Error);
}

TEST(SparseLu, FactorHonorsCancellation) {
  // A pre-fired CancelToken must surface from *inside* the numeric factor
  // (the satellite-4 checkpoint), not only between transient steps.
  const std::size_t m = 200;
  SparseMatrix a(m, random_pattern(m, 40));
  for (std::size_t c = 0; c < m; ++c) {
    for (std::size_t p = a.col_ptr()[c]; p < a.col_ptr()[c + 1]; ++p) {
      a.add(a.row_ind()[p], c, a.row_ind()[p] == c ? 4.0 : -0.3);
    }
  }
  SparseLu lu;
  lu.analyze(a);

  ExecBudget budget;
  budget.cancel = CancelToken::source();
  budget.cancel.request_cancel();
  ExecTracker tracker(budget);
  EXPECT_THROW(lu.factor(a, &tracker), CancelledError);
}

TEST(MinimumDegree, PermutationIsBijective) {
  SparsityGraph g(12);
  g.add_edge(0, 5);
  g.add_edge(5, 9);
  g.add_edge(2, 3);
  g.add_edge(9, 11);
  const auto perm = minimum_degree_ordering(g);
  std::vector<bool> seen(perm.size(), false);
  for (std::size_t p : perm) {
    ASSERT_LT(p, perm.size());
    EXPECT_FALSE(seen[p]);
    seen[p] = true;
  }
}

TEST(MinimumDegree, StarGraphEliminatesLeavesFirst) {
  // Leaves have degree 1, the hub degree n-1: the hub cannot be ordered
  // before the leaves have brought its degree down to a tie (position n-2 at
  // the earliest, where the tie-break by index lets the hub in).  This is
  // the zero-fill elimination order for a star.
  SparsityGraph g(8);
  for (std::size_t k = 1; k < 8; ++k) g.add_edge(0, k);
  const auto perm = minimum_degree_ordering(g);
  EXPECT_GE(perm[0], 6u);
}

TEST(Rcm, ReducesLadderBandwidthToOne) {
  // A path graph numbered randomly should renumber to bandwidth 1.
  const std::size_t m = 40;
  std::vector<std::size_t> shuffle(m);
  for (std::size_t k = 0; k < m; ++k) shuffle[k] = k;
  for (std::size_t k = m; k-- > 1;) {
    std::swap(shuffle[k], shuffle[static_cast<std::size_t>(
                              rlceff::testing::uniform(0.0, static_cast<double>(k)))]);
  }
  SparsityGraph g(m);
  for (std::size_t k = 0; k + 1 < m; ++k) g.add_edge(shuffle[k], shuffle[k + 1]);
  const auto perm = reverse_cuthill_mckee(g);
  EXPECT_EQ(1u, bandwidth(g, perm));
}

TEST(Rcm, PermutationIsBijective) {
  SparsityGraph g(10);
  g.add_edge(0, 5);
  g.add_edge(5, 9);
  g.add_edge(2, 3);
  const auto perm = reverse_cuthill_mckee(g);
  std::vector<bool> seen(perm.size(), false);
  for (std::size_t p : perm) {
    ASSERT_LT(p, perm.size());
    EXPECT_FALSE(seen[p]);
    seen[p] = true;
  }
}

TEST(Rcm, StarGraphBandwidth) {
  // A star graph's hub is adjacent to everything; the best achievable
  // bandwidth is n - 2 (hub one position from an end) and RCM reaches it.
  SparsityGraph g(6);
  for (std::size_t k = 1; k < 6; ++k) g.add_edge(0, k);
  const auto perm = reverse_cuthill_mckee(g);
  EXPECT_EQ(4u, bandwidth(g, perm));
}

}  // namespace
}  // namespace rlceff::util
