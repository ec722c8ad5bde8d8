#include "circuit/netlist.h"

#include <cmath>

#include "lint/diagnostic.h"
#include "util/error.h"

namespace rlceff::ckt {

Netlist::Netlist() {
  names_["0"] = ground;
  names_["gnd"] = ground;
}

NodeId Netlist::node(const std::string& name) {
  const auto it = names_.find(name);
  if (it != names_.end()) return it->second;
  const NodeId id = node_count_++;
  names_.emplace(name, id);
  return id;
}

NodeId Netlist::add_node() { return node_count_++; }

NodeId Netlist::check(NodeId n) const {
  ensure(n < node_count_, "Netlist: node id out of range");
  return n;
}

void Netlist::add_resistor(NodeId a, NodeId b, double resistance) {
  lint::ensure_diag(resistance > 0.0, lint::Code::nonpositive_resistance, "",
                    "Netlist: resistance must be positive");
  resistors_.push_back({check(a), check(b), resistance});
}

void Netlist::add_capacitor(NodeId a, NodeId b, double capacitance) {
  lint::ensure_diag(capacitance >= 0.0, lint::Code::nonpositive_capacitance, "",
                    "Netlist: capacitance must be non-negative");
  if (capacitance == 0.0) return;
  capacitors_.push_back({check(a), check(b), capacitance});
}

void Netlist::add_inductor(NodeId a, NodeId b, double inductance) {
  lint::ensure_diag(inductance > 0.0, lint::Code::negative_inductance, "",
                    "Netlist: inductance must be positive");
  inductors_.push_back({check(a), check(b), inductance});
}

void Netlist::add_mutual_inductor(std::size_t la, std::size_t lb, double mutual) {
  ensure(la < inductors_.size() && lb < inductors_.size(),
         "Netlist: mutual inductor references an unknown inductor");
  ensure(la != lb, "Netlist: mutual inductor must couple two distinct inductors");
  const double limit =
      std::sqrt(inductors_[la].inductance * inductors_[lb].inductance);
  lint::ensure_diag(std::isfinite(mutual) && mutual != 0.0 && std::abs(mutual) < limit,
                    lint::Code::mutual_overcoupled, "",
                    "Netlist: mutual inductance must satisfy 0 < |M| < sqrt(La*Lb)");
  // K elements on the same inductor pair sum; the aggregate must stay under
  // the passivity limit too.
  double total = std::abs(mutual);
  for (const MutualInductor& m : mutuals_) {
    if ((m.la == la && m.lb == lb) || (m.la == lb && m.lb == la)) {
      total += std::abs(m.mutual);
    }
  }
  lint::ensure_diag(total < limit, lint::Code::mutual_overcoupled, "",
                    "Netlist: mutual inductance on this inductor pair accumulates "
                    "past sqrt(La*Lb) (non-passive)");
  mutuals_.push_back({la, lb, mutual});
}

std::size_t Netlist::add_vsource(NodeId pos, NodeId neg, wave::Pwl voltage) {
  ensure(!voltage.empty(), "Netlist: voltage source needs a waveform");
  vsources_.push_back({check(pos), check(neg), std::move(voltage)});
  return vsources_.size() - 1;
}

void Netlist::add_mosfet(NodeId drain, NodeId gate, NodeId source,
                         const MosfetParams& params, double width, bool is_pmos) {
  ensure(width > 0.0, "Netlist: MOSFET width must be positive");
  mosfets_.push_back({check(drain), check(gate), check(source), params, width, is_pmos});
}

double Netlist::total_capacitance() const {
  double total = 0.0;
  for (const Capacitor& c : capacitors_) total += c.capacitance;
  return total;
}

}  // namespace rlceff::ckt
