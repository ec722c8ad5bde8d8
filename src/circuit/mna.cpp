#include "circuit/mna.h"

#include "util/error.h"

namespace rlceff::ckt {

MnaStructure::MnaStructure(const Netlist& netlist, std::span<const NodeId> keep) {
  const std::size_t n_nodes = netlist.node_count();
  const std::size_t n_v = netlist.vsources().size();
  const std::size_t n_l = netlist.inductors().size();
  const std::vector<Resistor>& resistors = netlist.resistors();
  const std::vector<Inductor>& inductors = netlist.inductors();

  // Terminal incidences per node, by device kind; `other` counts capacitor,
  // source and MOSFET terminals and kept nodes, any of which blocks a fold.
  std::vector<std::size_t> n_res(n_nodes, 0);
  std::vector<std::size_t> n_ind(n_nodes, 0);
  std::vector<std::size_t> other(n_nodes, 0);
  std::vector<std::size_t> res_at(n_nodes, 0);
  std::vector<std::size_t> ind_at(n_nodes, 0);
  for (std::size_t k = 0; k < resistors.size(); ++k) {
    for (NodeId n : {resistors[k].a, resistors[k].b}) {
      ++n_res[n];
      res_at[n] = k;
    }
  }
  for (std::size_t k = 0; k < n_l; ++k) {
    for (NodeId n : {inductors[k].a, inductors[k].b}) {
      ++n_ind[n];
      ind_at[n] = k;
    }
  }
  for (const Capacitor& c : netlist.capacitors()) {
    for (NodeId n : {c.a, c.b}) ++other[n];
  }
  for (const VSource& v : netlist.vsources()) {
    for (NodeId n : {v.pos, v.neg}) ++other[n];
  }
  for (const Mosfet& m : netlist.mosfets()) {
    for (NodeId n : {m.drain, m.gate, m.source}) ++other[n];
  }
  for (NodeId n : keep) {
    ensure(n < n_nodes, "MnaStructure: kept node out of range");
    ++other[n];
  }
  std::vector<bool> coupled(n_l, false);
  for (const MutualInductor& m : netlist.mutual_inductors()) {
    coupled[m.la] = coupled[m.lb] = true;
  }

  // Known nodes: each node exactly one grounded source holds.
  std::vector<std::size_t> holders(n_nodes, 0);
  for (const VSource& v : netlist.vsources()) {
    if (v.neg == ground && v.pos != ground) ++holders[v.pos];
  }
  constexpr std::size_t kFree = npos - 1;  // a node that stays an unknown
  node_to_index_.assign(n_nodes, kFree);
  vsource_to_index_.assign(n_v, kFree);
  for (std::size_t k = 0; k < n_v; ++k) {
    const VSource& v = netlist.vsources()[k];
    if (v.neg != ground || v.pos == ground || holders[v.pos] != 1) continue;
    node_to_index_[v.pos] = held_by_.size();  // offset by unknown_count_ below
    held_by_.push_back(k);
    vsource_to_index_[k] = npos;
  }

  // Folds, by ascending node.  Each device folds at most once, so a
  // branch's outer nodes never fold themselves (their only R or L is taken).
  resistor_folded_.assign(resistors.size(), false);
  inductor_to_index_.assign(n_l, kFree);
  for (NodeId n = 1; n < n_nodes; ++n) {
    if (n_res[n] != 1 || n_ind[n] != 1 || other[n] != 0) continue;
    const std::size_t r = res_at[n];
    const std::size_t l = ind_at[n];
    if (resistor_folded_[r] || inductor_to_index_[l] == npos || coupled[l]) continue;
    const NodeId from = resistors[r].a == n ? resistors[r].b : resistors[r].a;
    const NodeId to = inductors[l].a == n ? inductors[l].b : inductors[l].a;
    if (from == to) continue;
    folded_.push_back({from, to, r, l});
    resistor_folded_[r] = true;
    inductor_to_index_[l] = npos;
    node_to_index_[n] = npos;
  }

  // Natural (pre-permutation) indices: free nodes, then the sources and
  // inductors that keep their branch rows.
  std::vector<std::size_t> natural(n_nodes, npos);
  std::size_t count = 0;
  for (NodeId n = 1; n < n_nodes; ++n) {
    if (node_to_index_[n] == kFree) natural[n] = count++;
  }
  for (std::size_t& v : vsource_to_index_) {
    if (v == kFree) v = count++;
  }
  for (std::size_t& l : inductor_to_index_) {
    if (l == kFree) l = count++;
  }
  unknown_count_ = count;

  // Coupling graph of the Jacobian over the unknowns: every stamp couples
  // the unknowns it touches; a known or folded node couples nothing.
  util::SparsityGraph graph(unknown_count_);
  auto couple = [&](std::size_t a, std::size_t b) {
    if (a != npos && b != npos) graph.add_edge(a, b);
  };
  auto couple_nodes = [&](NodeId a, NodeId b) { couple(natural[a], natural[b]); };

  for (std::size_t k = 0; k < resistors.size(); ++k) {
    if (!resistor_folded_[k]) couple_nodes(resistors[k].a, resistors[k].b);
  }
  for (const Capacitor& c : netlist.capacitors()) couple_nodes(c.a, c.b);
  for (const FoldedBranch& b : folded_) couple_nodes(b.from, b.to);
  for (std::size_t k = 0; k < n_l; ++k) {
    const std::size_t branch = inductor_to_index_[k];
    if (branch == npos) continue;
    couple(natural[inductors[k].a], branch);
    couple(natural[inductors[k].b], branch);
    couple_nodes(inductors[k].a, inductors[k].b);
  }
  // A mutual inductance couples the two inductor branch equations directly
  // (a coupled inductor never folds).
  for (const MutualInductor& m : netlist.mutual_inductors()) {
    graph.add_edge(inductor_to_index_[m.la], inductor_to_index_[m.lb]);
  }
  for (std::size_t k = 0; k < n_v; ++k) {
    const std::size_t branch = vsource_to_index_[k];
    if (branch == npos) continue;
    couple(natural[netlist.vsources()[k].pos], branch);
    couple(natural[netlist.vsources()[k].neg], branch);
  }
  for (const Mosfet& m : netlist.mosfets()) {
    couple_nodes(m.drain, m.source);
    couple_nodes(m.drain, m.gate);
    couple_nodes(m.source, m.gate);
  }

  const std::vector<std::size_t> perm = util::reverse_cuthill_mckee(graph);
  bandwidth_ = util::bandwidth(graph, perm);

  // Keep the permuted coupling edges: they (plus all diagonals) are the
  // fixed pattern of the sparse image.
  for (std::size_t v = 0; v < unknown_count_; ++v) {
    for (std::size_t w : graph.neighbors(v)) {
      if (v < w) {
        const std::size_t a = perm[v];
        const std::size_t b = perm[w];
        edges_.emplace_back(a < b ? a : b, a < b ? b : a);
      }
    }
  }
  pattern_nonzeros_ = unknown_count_ + 2 * edges_.size();

  for (NodeId n = 1; n < n_nodes; ++n) {
    std::size_t& index = node_to_index_[n];
    if (natural[n] != npos) {
      index = perm[natural[n]];
    } else if (index != npos) {
      index += unknown_count_;  // known row
    }
  }
  for (std::size_t& v : vsource_to_index_) {
    if (v != npos) v = perm[v];
  }
  for (std::size_t& l : inductor_to_index_) {
    if (l != npos) l = perm[l];
  }
}

std::vector<std::pair<std::size_t, std::size_t>> MnaStructure::sparse_pattern() const {
  std::vector<std::pair<std::size_t, std::size_t>> positions;
  positions.reserve(pattern_nonzeros_);
  for (std::size_t k = 0; k < unknown_count_; ++k) positions.emplace_back(k, k);
  for (const auto& [a, b] : edges_) {
    positions.emplace_back(a, b);
    positions.emplace_back(b, a);
  }
  return positions;
}

std::size_t MnaStructure::node_index(NodeId n) const {
  ensure(n != ground, "MnaStructure: ground has no unknown");
  ensure(n < node_to_index_.size(), "MnaStructure: node out of range");
  return node_to_index_[n];
}

std::size_t MnaStructure::vsource_index(std::size_t k) const {
  ensure(k < vsource_to_index_.size(), "MnaStructure: vsource out of range");
  return vsource_to_index_[k];
}

std::size_t MnaStructure::inductor_index(std::size_t k) const {
  ensure(k < inductor_to_index_.size(), "MnaStructure: inductor out of range");
  return inductor_to_index_[k];
}

}  // namespace rlceff::ckt
