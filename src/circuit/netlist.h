// Circuit netlist.
//
// A flat netlist of the device types the reproduction needs: R, L, C,
// piecewise-linear voltage sources, and alpha-power MOSFETs.  Node 0 is
// ground.  Deck-building helpers for RLC ladders and pi loads live in
// builders.h; the inverter driver cell is composed by rlceff::tech.
#ifndef RLCEFF_CIRCUIT_NETLIST_H
#define RLCEFF_CIRCUIT_NETLIST_H

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "circuit/mosfet.h"
#include "waveform/pwl.h"

namespace rlceff::ckt {

using NodeId = std::size_t;
inline constexpr NodeId ground = 0;

struct Resistor {
  NodeId a;
  NodeId b;
  double resistance;
};

struct Capacitor {
  NodeId a;  // positive plate
  NodeId b;
  double capacitance;
};

struct Inductor {
  NodeId a;  // current is measured flowing a -> b
  NodeId b;
  double inductance;
};

struct VSource {
  NodeId pos;
  NodeId neg;
  wave::Pwl voltage;  // evaluated at simulation time
};

// Mutual inductance (a SPICE K element) between two existing inductors,
// identified by their indices in inductors().  The mutual adds M * di/dt of
// each branch to the other branch's voltage; passivity requires
// |M| < sqrt(La * Lb).
struct MutualInductor {
  std::size_t la;  // index into inductors()
  std::size_t lb;
  double mutual;   // M [H]
};

struct Mosfet {
  NodeId drain;
  NodeId gate;
  NodeId source;
  MosfetParams params;
  double width;   // drawn gate width [m]
  bool is_pmos;
};

class Netlist {
public:
  Netlist();

  // Creates (or returns) the node with the given name.  "0" and "gnd" map to
  // ground.
  NodeId node(const std::string& name);
  // Creates an anonymous node.
  NodeId add_node();

  std::size_t node_count() const { return node_count_; }

  void add_resistor(NodeId a, NodeId b, double resistance);
  void add_capacitor(NodeId a, NodeId b, double capacitance);
  void add_inductor(NodeId a, NodeId b, double inductance);
  void add_mutual_inductor(std::size_t la, std::size_t lb, double mutual);
  std::size_t add_vsource(NodeId pos, NodeId neg, wave::Pwl voltage);
  void add_mosfet(NodeId drain, NodeId gate, NodeId source, const MosfetParams& params,
                  double width, bool is_pmos);

  const std::vector<Resistor>& resistors() const { return resistors_; }
  const std::vector<Capacitor>& capacitors() const { return capacitors_; }
  const std::vector<Inductor>& inductors() const { return inductors_; }
  const std::vector<MutualInductor>& mutual_inductors() const { return mutuals_; }
  const std::vector<VSource>& vsources() const { return vsources_; }
  const std::vector<Mosfet>& mosfets() const { return mosfets_; }

  // Sum of all capacitance with at least one terminal not at ground is not
  // meaningful; this is the plain sum of capacitor values, which for loads
  // referenced to ground equals the total load capacitance.
  double total_capacitance() const;

private:
  NodeId check(NodeId n) const;

  std::size_t node_count_ = 1;  // ground pre-exists
  std::unordered_map<std::string, NodeId> names_;
  std::vector<Resistor> resistors_;
  std::vector<Capacitor> capacitors_;
  std::vector<Inductor> inductors_;
  std::vector<MutualInductor> mutuals_;
  std::vector<VSource> vsources_;
  std::vector<Mosfet> mosfets_;
};

}  // namespace rlceff::ckt

#endif  // RLCEFF_CIRCUIT_NETLIST_H
