// Modified nodal analysis structure.
//
// Maps a Netlist onto an unknown vector [node voltages (ground excluded),
// voltage-source branch currents, inductor branch currents], computes the
// coupling (sparsity) graph of the MNA Jacobian, and derives a reverse
// Cuthill-McKee permutation so discretized lines factor as narrow bands.
#ifndef RLCEFF_CIRCUIT_MNA_H
#define RLCEFF_CIRCUIT_MNA_H

#include <cstddef>
#include <utility>
#include <vector>

#include "circuit/netlist.h"
#include "util/ordering.h"

namespace rlceff::ckt {

class MnaStructure {
public:
  explicit MnaStructure(const Netlist& netlist);

  std::size_t unknown_count() const { return unknown_count_; }
  std::size_t bandwidth() const { return bandwidth_; }

  // Stored entries of the Jacobian (permuted unknown indices).
  std::size_t pattern_nonzeros() const { return pattern_nonzeros_; }

  // Every (row, col) position any stamp can touch, in permuted indices: all
  // diagonals plus both orientations of every coupling edge.  This is the
  // fixed pattern of the sparse MNA image; it is derived from the device
  // list, not from an assembly dry run, so DC assembly (which skips
  // capacitor and mutual-inductor stamps) and transient assembly share one
  // image.
  std::vector<std::pair<std::size_t, std::size_t>> sparse_pattern() const;

  // Unknown index of a node voltage; node must not be ground.
  std::size_t node_index(NodeId n) const;

  std::size_t vsource_index(std::size_t k) const;
  std::size_t inductor_index(std::size_t k) const;

private:
  std::size_t unknown_count_ = 0;
  std::size_t bandwidth_ = 0;
  std::size_t pattern_nonzeros_ = 0;
  std::vector<std::size_t> node_to_index_;      // [node] -> permuted unknown
  std::vector<std::size_t> vsource_to_index_;   // [vsource k] -> permuted unknown
  std::vector<std::size_t> inductor_to_index_;  // [inductor k] -> permuted unknown
  std::vector<std::pair<std::size_t, std::size_t>> edges_;  // permuted, a < b
};

}  // namespace rlceff::ckt

#endif  // RLCEFF_CIRCUIT_MNA_H
