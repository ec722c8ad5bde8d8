// Interconnect intermediate representation (IR).
//
// A net::Net is the one description of an interconnect that every layer of
// the flow consumes:
//   * ckt::append_net compiles it into a discretized simulation deck,
//   * moments::net_admittance expands its driving-point admittance series,
//   * core::model_driver_output runs the paper's Ceff flow on it,
//   * core::run_experiment simulates and models it side by side.
//
// The shape is a tree of branches.  Each branch is a route of uniform wire
// sections (near to far), ends in an optional lumped load (a receiver), may
// carry a named probe at its far end, and fans out into child branches.  A
// uniform line, a width-tapered multi-section route, and a branched clock
// tree are all the same type — new topologies are constructor calls, not new
// subsystems.
//
// Sections come in two flavors that only differ above the deck level:
//   * distributed — an ideal uniform RLC line; moments use the exact
//     Telegrapher's expansion (what the paper's uniform-line flow does),
//   * lumped — one series (R, L) element with the shunt C at its far end;
//     moments use the RLC-tree recursion (what the tree flow does).  An RLC
//     tree is a Branch tree with one lumped section per branch (receiver
//     loads folded into the leaf capacitances, or set as c_load); a branch
//     with R = L = C = 0 is a pure junction and carries no section.
// Both are discretized into the same pi-section ladders when compiled into a
// deck, so the simulated reference is identical either way.
#ifndef RLCEFF_NET_NET_H
#define RLCEFF_NET_NET_H

#include <cstddef>
#include <string>
#include <vector>

namespace rlceff::net {

enum class SectionKind {
  distributed,  // exact uniform-line moments (paper Sec. 3)
  lumped,       // single-lump tree moments (paper Sec. 3 tree extension)
};

// One uniform stretch of wire: total series resistance/inductance and total
// shunt capacitance.
struct Section {
  double resistance = 0.0;   // [ohm]
  double inductance = 0.0;   // [H]
  double capacitance = 0.0;  // [F]
  SectionKind kind = SectionKind::distributed;
};

struct Branch {
  std::vector<Section> sections;  // route from the parent junction, near to far
  double c_load = 0.0;            // lumped (receiver) load at the far end [F]
  std::string probe;              // optional name for the far-end node
  std::vector<Branch> children;   // sub-branches hanging off the far end
};

// Transmission-line view of a net: the dominant root-to-leaf path (largest
// time of flight) supplies the characteristic impedance, flight time, and
// loss resistance that Eq 1, Eq 8 and Eq 9 consume.  For a uniform line these
// reduce to the WireParasitics values.
struct NetMetrics {
  double z0 = 0.0;                // sqrt(L_path / C_path) of the dominant path
  double time_of_flight = 0.0;    // max over leaves of sqrt(L_path * C_path)
  double path_resistance = 0.0;   // series R along the dominant path
  double wire_capacitance = 0.0;  // every section capacitance in the net
  double load_capacitance = 0.0;  // every lumped load in the net
  double path_load = 0.0;         // lumped load at the dominant leaf
  std::size_t dominant_leaf = 0;  // depth-first leaf index of the dominant path

  double total_capacitance() const { return wire_capacitance + load_capacitance; }
};

class Net {
public:
  // An empty net; invalid for simulation/modeling until assigned.  Exists so
  // scenario structs can default-construct; every accessor that needs a
  // topology throws on an empty net.
  Net() = default;

  // Validates and adopts an explicit branch tree (heterogeneous topologies).
  explicit Net(Branch root);

  // A uniform distributed line with a far-end receiver load.
  static Net uniform_line(double resistance, double inductance, double capacitance,
                          double c_load_far, std::string probe = "far");

  // A route of uniform sections in series, near to far (non-uniform
  // width/length routes, e.g. a width-tapered global wire), terminated by a
  // receiver load.
  static Net multi_section(std::vector<Section> sections, double c_load_far,
                           std::string probe = "far");

  bool empty() const { return root_.sections.empty() && root_.children.empty(); }
  const Branch& root() const;  // throws on an empty net

  std::size_t leaf_count() const;
  double total_capacitance() const;

  // Dominant-path metrics; throws when the net has no capacitance or no
  // root-to-leaf path carrying both inductance and capacitance.
  NetMetrics metrics() const;

  // metrics() with the L-C-path requirement relaxed: a net with no
  // inductance anywhere (pure RC — exactly the nets the Tier-A closed-form
  // screen wants most) reports z0 == time_of_flight == 0 and takes the
  // dominant path as the largest-Elmore-weight root-to-leaf route instead of
  // the largest-flight-time one.  Still throws when the net has no
  // capacitance at all.
  NetMetrics metrics_relaxed() const;

private:
  Branch root_;
};

}  // namespace rlceff::net

#endif  // RLCEFF_NET_NET_H
