// Bandwidth-reducing node ordering.
//
// MNA matrices of discretized transmission lines are nearly banded when the
// unknowns are numbered along the line, but netlists are built in arbitrary
// order.  Reverse Cuthill-McKee recovers a small bandwidth so the banded LU
// can be used.
#ifndef RLCEFF_UTIL_ORDERING_H
#define RLCEFF_UTIL_ORDERING_H

#include <cstddef>
#include <vector>

namespace rlceff::util {

// Undirected sparsity graph over n vertices.
class SparsityGraph {
public:
  explicit SparsityGraph(std::size_t n) : adj_(n) {}

  std::size_t size() const { return adj_.size(); }
  void add_edge(std::size_t a, std::size_t b);
  const std::vector<std::size_t>& neighbors(std::size_t v) const { return adj_[v]; }

private:
  std::vector<std::vector<std::size_t>> adj_;
};

// Returns perm such that new_index = perm[old_index].  Starts each component
// from a minimum-degree vertex, performs Cuthill-McKee BFS with neighbors
// visited in increasing degree, and reverses the result.  Equal degrees go
// by ascending vertex index.
std::vector<std::size_t> reverse_cuthill_mckee(const SparsityGraph& g);

// Fill-reducing elimination ordering for the sparse LU (AMD-style greedy
// minimum degree on the elimination graph): repeatedly eliminates a vertex
// of minimum current degree (ties broken by smallest vertex index, so the
// ordering is platform-deterministic) and turns its remaining neighborhood
// into a clique.  Returns perm with new_index = perm[old_index], same
// convention as reverse_cuthill_mckee.
std::vector<std::size_t> minimum_degree_ordering(const SparsityGraph& g);

// Bandwidth of the permuted graph: max |perm[a] - perm[b]| over edges.
std::size_t bandwidth(const SparsityGraph& g, const std::vector<std::size_t>& perm);

}  // namespace rlceff::util

#endif  // RLCEFF_UTIL_ORDERING_H
