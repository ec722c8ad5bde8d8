#include "charlib/table.h"

#include <algorithm>

#include "util/error.h"

namespace rlceff::charlib {

namespace {

// Index of the cell whose [axis[i], axis[i+1]] segment is used for
// interpolation at x (clamped to the edge segments for extrapolation).
std::size_t segment_index(std::span<const double> axis, double x) {
  if (axis.size() == 1) return 0;
  const auto it = std::upper_bound(axis.begin(), axis.end(), x);
  std::size_t hi = static_cast<std::size_t>(it - axis.begin());
  hi = std::clamp<std::size_t>(hi, 1, axis.size() - 1);
  return hi - 1;
}

double weight(std::span<const double> axis, std::size_t seg, double x) {
  if (axis.size() == 1) return 0.0;
  return (x - axis[seg]) / (axis[seg + 1] - axis[seg]);
}

}  // namespace

Table2D::Table2D(std::vector<double> row_axis, std::vector<double> col_axis,
                 std::vector<double> values)
    : rows_(std::move(row_axis)), cols_(std::move(col_axis)), vals_(std::move(values)) {
  ensure(!rows_.empty() && !cols_.empty(), "Table2D: empty axis");
  ensure(vals_.size() == rows_.size() * cols_.size(), "Table2D: value count mismatch");
  ensure(std::is_sorted(rows_.begin(), rows_.end()), "Table2D: row axis must be sorted");
  ensure(std::is_sorted(cols_.begin(), cols_.end()), "Table2D: col axis must be sorted");
}

double Table2D::at(std::size_t r, std::size_t c) const {
  ensure(r < rows_.size() && c < cols_.size(), "Table2D: index out of range");
  return vals_[r * cols_.size() + c];
}

double Table2D::lookup(double row_value, double col_value) const {
  ensure(!vals_.empty(), "Table2D: empty table");
  const std::size_t r = segment_index(rows_, row_value);
  const std::size_t c = segment_index(cols_, col_value);
  const double wr = weight(rows_, r, row_value);
  const double wc = weight(cols_, c, col_value);

  // segment_index clamps to the edge segments, so all four corners are in
  // range without at()'s per-read check.
  const std::size_t r1 = rows_.size() == 1 ? r : r + 1;
  const std::size_t c1 = cols_.size() == 1 ? c : c + 1;
  const std::size_t n_cols = cols_.size();
  const double v00 = vals_[r * n_cols + c];
  const double v01 = vals_[r * n_cols + c1];
  const double v10 = vals_[r1 * n_cols + c];
  const double v11 = vals_[r1 * n_cols + c1];
  return v00 * (1.0 - wr) * (1.0 - wc) + v01 * (1.0 - wr) * wc + v10 * wr * (1.0 - wc) +
         v11 * wr * wc;
}

}  // namespace rlceff::charlib
