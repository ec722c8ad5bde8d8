#include "util/sparse.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "util/error.h"
#include "util/ordering.h"

namespace rlceff::util {

namespace {
constexpr std::size_t npos = static_cast<std::size_t>(-1);

// Diagonal-preference threshold for pivoting: the natural diagonal wins
// whenever it is within this factor of the column's largest candidate.
// MNA diagonals are the physically meaningful pivots (conductance sums), so
// preferring them keeps fill low; 0.1 is the customary threshold that still
// bounds element growth.
constexpr double kDiagonalPreference = 0.1;
}  // namespace

SparseMatrix::SparseMatrix(std::size_t n,
                           std::vector<std::pair<std::size_t, std::size_t>> positions)
    : n_(n) {
  for (const auto& [r, c] : positions) {
    ensure(r < n && c < n, "SparseMatrix: position out of range");
  }
  // CSC: sort by (col, row), merge duplicates.
  std::sort(positions.begin(), positions.end(),
            [](const auto& a, const auto& b) {
              return a.second != b.second ? a.second < b.second : a.first < b.first;
            });
  positions.erase(std::unique(positions.begin(), positions.end()), positions.end());

  col_ptr_.assign(n_ + 1, 0);
  row_ind_.reserve(positions.size());
  for (const auto& [r, c] : positions) {
    ++col_ptr_[c + 1];
    row_ind_.push_back(r);
  }
  for (std::size_t c = 0; c < n_; ++c) col_ptr_[c + 1] += col_ptr_[c];
  values_.assign(row_ind_.size(), 0.0);
}

void SparseMatrix::set_zero() { std::fill(values_.begin(), values_.end(), 0.0); }

std::size_t SparseMatrix::position(std::size_t r, std::size_t c) const {
  ensure(r < n_ && c < n_, "SparseMatrix: position out of range");
  const auto begin = row_ind_.begin() + static_cast<std::ptrdiff_t>(col_ptr_[c]);
  const auto end = row_ind_.begin() + static_cast<std::ptrdiff_t>(col_ptr_[c + 1]);
  const auto it = std::lower_bound(begin, end, r);
  if (it == end || *it != r) {
    ensure(false, "SparseMatrix: (" + std::to_string(r) + ", " + std::to_string(c) +
                      ") outside the pattern");
  }
  return static_cast<std::size_t>(it - row_ind_.begin());
}

void SparseMatrix::copy_values_from(const SparseMatrix& other) {
  ensure(n_ == other.n_ && row_ind_.size() == other.row_ind_.size(),
         "SparseMatrix::copy_values_from: pattern mismatch");
  std::memcpy(values_.data(), other.values_.data(), values_.size() * sizeof(double));
}

void SparseLu::analyze(const SparseMatrix& a) {
  n_ = a.size();
  ensure(n_ > 0, "SparseLu::analyze: empty matrix");

  // Fill-reducing column ordering from the pattern graph.  The pattern is
  // structurally symmetric for MNA (every stamp has its transpose position),
  // so one symmetric ordering serves both rows and columns.
  SparsityGraph graph(n_);
  for (std::size_t c = 0; c < n_; ++c) {
    for (std::size_t p = a.col_ptr()[c]; p < a.col_ptr()[c + 1]; ++p) {
      const std::size_t r = a.row_ind()[p];
      if (r != c) graph.add_edge(r, c);
    }
  }
  const std::vector<std::size_t> perm = minimum_degree_ordering(graph);
  q_.assign(n_, 0);
  for (std::size_t old = 0; old < n_; ++old) q_[perm[old]] = old;

  pinv_.assign(n_, npos);
  lp_.assign(n_ + 1, 0);
  up_.assign(n_ + 1, 0);
  x_.assign(n_, 0.0);
  xi_.assign(n_, 0);
  mark_.assign(n_, 0);
  dfs_stack_.assign(n_, 0);
  dfs_ptr_.assign(n_, 0);
  work_.assign(n_, 0.0);
  stamp_ = 0;

  // Grow-only factor storage: start at a generous multiple of the pattern so
  // typical refactors never reallocate even on the first call.
  const std::size_t guess = 4 * a.nnz() + n_;
  li_.reserve(guess);
  lx_.reserve(guess);
  ui_.reserve(guess);
  ux_.reserve(guess);
  factored_ = false;
}

void SparseLu::factor(const SparseMatrix& a, ExecTracker* budget) {
  ensure(analyzed() && a.size() == n_, "SparseLu::factor: analyze() first");
  li_.clear();
  lx_.clear();
  ui_.clear();
  ux_.clear();
  std::fill(pinv_.begin(), pinv_.end(), npos);
  factored_ = false;

  for (std::size_t k = 0; k < n_; ++k) {
    if (budget != nullptr && (k & 63) == 0) budget->check("sparse factor");
    lp_[k] = li_.size();
    up_[k] = ui_.size();
    const std::size_t col = q_[k];

    // Reach of A(:, col) over the columns of L built so far: iterative DFS,
    // emitting xi_[top..n) in topological order for the triangular solve.
    // L row indices stay *original* until the final remap, matching x_.
    ++stamp_;
    std::size_t top = n_;
    for (std::size_t p = a.col_ptr()[col]; p < a.col_ptr()[col + 1]; ++p) {
      const std::size_t start = a.row_ind()[p];
      if (mark_[start] == stamp_) continue;
      mark_[start] = stamp_;
      std::size_t head = 0;
      dfs_stack_[0] = start;
      dfs_ptr_[0] = pinv_[start] == npos ? 0 : lp_[pinv_[start]] + 1;
      while (true) {
        const std::size_t j = dfs_stack_[head];
        const std::size_t jcol = pinv_[j];
        const std::size_t pend = jcol == npos ? 0 : lp_[jcol + 1];
        bool descended = false;
        for (std::size_t pc = dfs_ptr_[head]; pc < pend; ++pc) {
          const std::size_t child = li_[pc];
          if (mark_[child] == stamp_) continue;
          mark_[child] = stamp_;
          dfs_ptr_[head] = pc + 1;
          ++head;
          dfs_stack_[head] = child;
          dfs_ptr_[head] = pinv_[child] == npos ? 0 : lp_[pinv_[child]] + 1;
          descended = true;
          break;
        }
        if (descended) continue;
        xi_[--top] = j;
        if (head == 0) break;
        --head;
      }
    }

    // Scatter the numeric column, then the sparse triangular solve
    // x = L \ A(:, col) in the topological order the DFS produced.
    for (std::size_t p = top; p < n_; ++p) x_[xi_[p]] = 0.0;
    for (std::size_t p = a.col_ptr()[col]; p < a.col_ptr()[col + 1]; ++p) {
      x_[a.row_ind()[p]] = a.values()[p];
    }
    for (std::size_t p = top; p < n_; ++p) {
      const std::size_t j = xi_[p];
      const std::size_t jcol = pinv_[j];
      if (jcol == npos) continue;  // not yet pivotal: stays in this column
      const double xj = x_[j];     // L has unit diagonal
      for (std::size_t pc = lp_[jcol] + 1; pc < lp_[jcol + 1]; ++pc) {
        x_[li_[pc]] -= lx_[pc] * xj;
      }
    }

    // Pivot: largest candidate among not-yet-pivotal rows, the natural
    // diagonal preferred when competitive (keeps fill near the symbolic
    // estimate and the choice value-stable).
    std::size_t pivot_row = npos;
    double a_max = -1.0;
    for (std::size_t p = top; p < n_; ++p) {
      const std::size_t i = xi_[p];
      if (pinv_[i] != npos) continue;
      const double t = std::abs(x_[i]);
      if (t > a_max) {
        a_max = t;
        pivot_row = i;
      }
    }
    if (pivot_row == npos || !(a_max > 0.0)) {
      throw SingularMatrixError("sparse LU: no acceptable pivot in column " +
                                std::to_string(col));
    }
    if (pinv_[col] == npos && std::abs(x_[col]) >= kDiagonalPreference * a_max) {
      pivot_row = col;
    }
    const double pivot = x_[pivot_row];
    pinv_[pivot_row] = k;
    li_.push_back(pivot_row);
    lx_.push_back(1.0);

    for (std::size_t p = top; p < n_; ++p) {
      const std::size_t i = xi_[p];
      if (i != pivot_row) {
        if (pinv_[i] != npos) {
          ui_.push_back(pinv_[i]);
          ux_.push_back(x_[i]);
        } else {
          li_.push_back(i);
          lx_.push_back(x_[i] / pivot);
        }
      }
      x_[i] = 0.0;
    }
    ui_.push_back(k);  // U diagonal closes the column
    ux_.push_back(pivot);
  }
  lp_[n_] = li_.size();
  up_[n_] = ui_.size();

  // Remap L's row indices from original to pivot order; from here on L is a
  // proper unit lower triangle and solve_into needs no indirection.
  for (std::size_t& i : li_) i = pinv_[i];
  factored_ = true;
}

// The substitution sweeps, through the permuted workspace.  A zero entry
// skips its column's updates (skipping an update is not bitwise-neutral in
// IEEE arithmetic, -0 - -0 == +0, so the skip is part of the contract).
// The budget is checkpointed every 4096 rows of the forward sweep.
void SparseLu::solve_into(std::span<double> x, ExecTracker* budget) const {
  ensure(factored_, "SparseLu::solve_into: factor() first");
  ensure(x.size() == n_, "SparseLu::solve_into: size mismatch");
  double* w = work_.data();
  for (std::size_t i = 0; i < n_; ++i) w[pinv_[i]] = x[i];
  for (std::size_t k = 0; k < n_; ++k) {
    if (budget != nullptr && (k & 4095) == 0) budget->check("sparse solve");
    const double v = w[k];
    if (v == 0.0) continue;
    for (std::size_t p = lp_[k] + 1; p < lp_[k + 1]; ++p) w[li_[p]] -= lx_[p] * v;
  }
  for (std::size_t k = n_; k-- > 0;) {
    const double v = (w[k] /= ux_[up_[k + 1] - 1]);
    if (v == 0.0) continue;
    for (std::size_t p = up_[k]; p + 1 < up_[k + 1]; ++p) w[ui_[p]] -= ux_[p] * v;
  }
  for (std::size_t k = 0; k < n_; ++k) x[q_[k]] = w[k];
}

}  // namespace rlceff::util
