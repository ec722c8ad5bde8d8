#include "util/ordering.h"

#include <algorithm>
#include <queue>
#include <set>
#include <utility>

#include "util/error.h"

namespace rlceff::util {

void SparsityGraph::add_edge(std::size_t a, std::size_t b) {
  ensure(a < adj_.size() && b < adj_.size(), "SparsityGraph: vertex out of range");
  if (a == b) return;
  // Keep adjacency lists duplicate-free; degrees drive the BFS tie-break.
  if (std::find(adj_[a].begin(), adj_[a].end(), b) == adj_[a].end()) {
    adj_[a].push_back(b);
    adj_[b].push_back(a);
  }
}

std::vector<std::size_t> reverse_cuthill_mckee(const SparsityGraph& g) {
  const std::size_t n = g.size();
  std::vector<bool> visited(n, false);
  std::vector<std::size_t> order;
  order.reserve(n);

  // Vertices sorted by degree; used both to seed components and to break ties.
  // Stable sorts break equal degrees by vertex index, so the ordering is the
  // same on every standard library, and a driver deck's output (the lowest
  // index of its line's two degree-1 ends) seeds the search and lands last.
  std::vector<std::size_t> by_degree(n);
  for (std::size_t v = 0; v < n; ++v) by_degree[v] = v;
  std::stable_sort(by_degree.begin(), by_degree.end(), [&](std::size_t a, std::size_t b) {
    return g.neighbors(a).size() < g.neighbors(b).size();
  });

  std::queue<std::size_t> frontier;
  for (std::size_t seed : by_degree) {
    if (visited[seed]) continue;
    visited[seed] = true;
    frontier.push(seed);
    while (!frontier.empty()) {
      const std::size_t v = frontier.front();
      frontier.pop();
      order.push_back(v);
      std::vector<std::size_t> next;
      for (std::size_t w : g.neighbors(v)) {
        if (!visited[w]) {
          visited[w] = true;
          next.push_back(w);
        }
      }
      std::stable_sort(next.begin(), next.end(), [&](std::size_t a, std::size_t b) {
        return g.neighbors(a).size() < g.neighbors(b).size();
      });
      for (std::size_t w : next) frontier.push(w);
    }
  }

  std::reverse(order.begin(), order.end());
  std::vector<std::size_t> perm(n);
  for (std::size_t pos = 0; pos < n; ++pos) perm[order[pos]] = pos;
  return perm;
}

std::vector<std::size_t> minimum_degree_ordering(const SparsityGraph& g) {
  const std::size_t n = g.size();
  // Working elimination graph: sorted adjacency sets so neighborhood merges
  // and membership tests stay deterministic and cheap at circuit degrees.
  std::vector<std::set<std::size_t>> adj(n);
  for (std::size_t v = 0; v < n; ++v) {
    adj[v].insert(g.neighbors(v).begin(), g.neighbors(v).end());
  }

  // (degree, vertex) heap as an ordered set: min element is the next pivot,
  // smallest index winning ties by the pair ordering.  `degree[w]` mirrors
  // the key currently stored for w so refreshes can erase by exact key.
  std::vector<std::size_t> degree(n);
  std::set<std::pair<std::size_t, std::size_t>> by_degree;
  for (std::size_t v = 0; v < n; ++v) {
    degree[v] = adj[v].size();
    by_degree.insert({degree[v], v});
  }

  std::vector<std::size_t> perm(n);
  for (std::size_t pos = 0; pos < n; ++pos) {
    const std::size_t v = by_degree.begin()->second;
    by_degree.erase(by_degree.begin());
    perm[v] = pos;

    // Eliminating v fills in a clique over its remaining neighbors.
    const std::vector<std::size_t> frontier(adj[v].begin(), adj[v].end());
    for (std::size_t w : frontier) adj[w].erase(v);
    for (std::size_t a : frontier) {
      for (std::size_t b : frontier) {
        if (a < b) {
          adj[a].insert(b);
          adj[b].insert(a);
        }
      }
    }
    for (std::size_t w : frontier) {
      by_degree.erase({degree[w], w});
      degree[w] = adj[w].size();
      by_degree.insert({degree[w], w});
    }
    adj[v].clear();
  }
  return perm;
}

std::size_t bandwidth(const SparsityGraph& g, const std::vector<std::size_t>& perm) {
  ensure(perm.size() == g.size(), "bandwidth: permutation size mismatch");
  std::size_t bw = 0;
  for (std::size_t v = 0; v < g.size(); ++v) {
    for (std::size_t w : g.neighbors(v)) {
      const std::size_t a = perm[v];
      const std::size_t b = perm[w];
      bw = std::max(bw, a > b ? a - b : b - a);
    }
  }
  return bw;
}

}  // namespace rlceff::util
