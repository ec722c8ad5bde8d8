#include "net/net.h"

#include <cmath>

#include "lint/structural.h"
#include "util/error.h"

namespace rlceff::net {

namespace {

double branch_capacitance(const Branch& branch) {
  double c = branch.c_load;
  for (const Section& s : branch.sections) c += s.capacitance;
  for (const Branch& child : branch.children) c += branch_capacitance(child);
  return c;
}

std::size_t count_leaves(const Branch& branch) {
  if (branch.children.empty()) return 1;
  std::size_t n = 0;
  for (const Branch& child : branch.children) n += count_leaves(child);
  return n;
}

struct PathState {
  double r = 0.0;
  double l = 0.0;
  double c = 0.0;
};

void walk_metrics(const Branch& branch, PathState path, std::size_t& leaf_counter,
                  NetMetrics& out) {
  for (const Section& s : branch.sections) {
    path.r += s.resistance;
    path.l += s.inductance;
    path.c += s.capacitance;
    out.wire_capacitance += s.capacitance;
  }
  out.load_capacitance += branch.c_load;
  if (branch.children.empty()) {
    const std::size_t leaf = leaf_counter++;
    if (path.l <= 0.0 || path.c <= 0.0) return;
    const double tf = std::sqrt(path.l * path.c);
    if (tf > out.time_of_flight) {
      out.time_of_flight = tf;
      out.z0 = std::sqrt(path.l / path.c);
      out.path_resistance = path.r;
      out.path_load = branch.c_load;
      out.dominant_leaf = leaf;
    }
    return;
  }
  for (const Branch& child : branch.children) {
    walk_metrics(child, path, leaf_counter, out);
  }
}

}  // namespace

Net::Net(Branch root) : root_(std::move(root)) {
  // One validator for both reporting modes: the same structural checks
  // lint::lint_net collects into a report raise DiagnosticError here (first
  // error-severity finding, same walk order the pre-lint validation used).
  lint::validate_branch_tree(root_);
}

Net Net::uniform_line(double resistance, double inductance, double capacitance,
                      double c_load_far, std::string probe) {
  Branch root;
  root.sections.push_back(
      {resistance, inductance, capacitance, SectionKind::distributed});
  root.c_load = c_load_far;
  root.probe = std::move(probe);
  return Net(std::move(root));
}

Net Net::multi_section(std::vector<Section> sections, double c_load_far,
                       std::string probe) {
  ensure(!sections.empty(), "net::Net::multi_section: empty section list");
  Branch root;
  root.sections = std::move(sections);
  root.c_load = c_load_far;
  root.probe = std::move(probe);
  return Net(std::move(root));
}

const Branch& Net::root() const {
  ensure(!empty(), "net::Net: accessing an empty (default-constructed) net");
  return root_;
}

std::size_t Net::leaf_count() const { return count_leaves(root()); }

double Net::total_capacitance() const { return branch_capacitance(root()); }

NetMetrics Net::metrics() const {
  NetMetrics out;
  std::size_t leaf_counter = 0;
  walk_metrics(root(), {}, leaf_counter, out);
  ensure(out.total_capacitance() > 0.0, "net::Net::metrics: net has no capacitance");
  ensure(out.time_of_flight > 0.0,
         "net::Net::metrics: no root-to-leaf path with both L and C");
  return out;
}

namespace {

// Fallback dominant-path pick for pure-RC nets: the root-to-leaf route with
// the largest Elmore weight R_path * (C_path/2 + C_leaf).  Strict > with a
// negative initial best keeps the first (depth-first) leaf on ties, matching
// walk_metrics' deterministic leaf order.
void walk_relaxed(const Branch& branch, PathState path, std::size_t& leaf_counter,
                  double& best, NetMetrics& out) {
  for (const Section& s : branch.sections) {
    path.r += s.resistance;
    path.c += s.capacitance;
  }
  if (branch.children.empty()) {
    const std::size_t leaf = leaf_counter++;
    const double weight = path.r * (0.5 * path.c + branch.c_load);
    if (weight > best) {
      best = weight;
      out.path_resistance = path.r;
      out.path_load = branch.c_load;
      out.dominant_leaf = leaf;
    }
    return;
  }
  for (const Branch& child : branch.children) {
    walk_relaxed(child, path, leaf_counter, best, out);
  }
}

}  // namespace

NetMetrics Net::metrics_relaxed() const {
  NetMetrics out;
  std::size_t leaf_counter = 0;
  walk_metrics(root(), {}, leaf_counter, out);
  ensure(out.total_capacitance() > 0.0, "net::Net::metrics: net has no capacitance");
  if (out.time_of_flight > 0.0) return out;  // identical to metrics()
  leaf_counter = 0;
  double best = -1.0;
  walk_relaxed(root(), {}, leaf_counter, best, out);
  return out;
}

}  // namespace rlceff::net
