// Modified nodal analysis structure.
//
// Maps a Netlist onto the unknown vector of its reduced trapezoidal system
// [node voltages (ground excluded), voltage-source branch currents, inductor
// branch currents], computes the coupling (sparsity) graph of the MNA
// Jacobian, and derives a reverse Cuthill-McKee permutation so discretized
// lines factor as narrow bands.  Two rules keep rows out of the system:
//
//   - Folded branches.  A node with exactly one resistor, exactly one
//     inductor and nothing else on it (no capacitor, source or MOSFET
//     terminal, no mutual coupling on the inductor, not a kept node) folds
//     with its R-L pair into one branch between the pair's outer nodes.  The
//     stepper stamps it as a trapezoidal companion, a conductance
//     1/(R + 2L/h) plus a history current (Dommel's nodal companion), so
//     neither the middle node nor the inductor current is an unknown.
//   - Known nodes.  A node held by a grounded ideal source (negative end at
//     ground, no other grounded source on the same node) is known at every
//     time: its KCL row and the source's branch current leave the system,
//     and every stamp that couples an unknown to it moves to the right-hand
//     side.
//
// Both are exact algebra on the same discrete system.  Floating sources,
// mutually coupled inductors and pure-L sections keep their branch rows.
#ifndef RLCEFF_CIRCUIT_MNA_H
#define RLCEFF_CIRCUIT_MNA_H

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "circuit/netlist.h"
#include "util/ordering.h"

namespace rlceff::ckt {

class MnaStructure {
public:
  // No row: a folded node, a folded inductor or a source that holds a known
  // node.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  // A series R-L pair folded into one branch from `from` (the resistor's
  // outer node) to `to` (the inductor's outer node); its current flows
  // from -> to.  Either end may be ground or a known node.
  struct FoldedBranch {
    NodeId from;
    NodeId to;
    std::size_t resistor;  // index into Netlist::resistors()
    std::size_t inductor;  // index into Netlist::inductors()
  };

  // `keep` lists nodes that must stay in the system, as probes and
  // measured-edge watch nodes must (a folded node has no value to record).
  explicit MnaStructure(const Netlist& netlist, std::span<const NodeId> keep = {});

  std::size_t unknown_count() const { return unknown_count_; }
  std::size_t bandwidth() const { return bandwidth_; }

  // Source-held nodes.  A solution block of unknown_count() + known_count()
  // rows holds their values after the unknowns (see node_index).
  std::size_t known_count() const { return held_by_.size(); }

  // The grounded source that holds known row unknown_count() + k.
  std::size_t known_source(std::size_t k) const { return held_by_[k]; }

  const std::vector<FoldedBranch>& folded_branches() const { return folded_; }

  // True for a resistor that is part of a folded branch.
  bool resistor_folded(std::size_t k) const { return resistor_folded_[k]; }

  // Stored entries of the Jacobian (permuted unknown indices).
  std::size_t pattern_nonzeros() const { return pattern_nonzeros_; }

  // Every (row, col) position any stamp can touch, in permuted indices: all
  // diagonals plus both orientations of every coupling edge.  This is the
  // fixed pattern of the sparse MNA image; it is derived from the device
  // list, not from an assembly dry run, so DC assembly (which skips
  // capacitor and mutual-inductor stamps) and transient assembly share one
  // image.
  std::vector<std::pair<std::size_t, std::size_t>> sparse_pattern() const;

  // Row of node n's value in the solution block: its unknown index (below
  // unknown_count()), unknown_count() + k for the k-th known node, or npos
  // for a folded node.  n must not be ground.
  std::size_t node_index(NodeId n) const;

  // Branch-current unknown of voltage source k, or npos when it holds a
  // known node.
  std::size_t vsource_index(std::size_t k) const;
  // Branch-current unknown of inductor k, or npos when it is folded.
  std::size_t inductor_index(std::size_t k) const;

private:
  std::size_t unknown_count_ = 0;
  std::size_t bandwidth_ = 0;
  std::size_t pattern_nonzeros_ = 0;
  std::vector<std::size_t> node_to_index_;      // [node] -> row (see node_index)
  std::vector<std::size_t> vsource_to_index_;   // [vsource k] -> permuted unknown
  std::vector<std::size_t> inductor_to_index_;  // [inductor k] -> permuted unknown
  std::vector<std::size_t> held_by_;            // [known k] -> vsource index
  std::vector<FoldedBranch> folded_;
  std::vector<bool> resistor_folded_;           // [resistor k]
  std::vector<std::pair<std::size_t, std::size_t>> edges_;  // permuted, a < b
};

}  // namespace rlceff::ckt

#endif  // RLCEFF_CIRCUIT_MNA_H
