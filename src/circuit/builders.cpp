#include "circuit/builders.h"

#include <cmath>

#include "util/error.h"

namespace rlceff::ckt {

LadderNodes append_rlc_ladder(Netlist& netlist, NodeId from, double r_total,
                              double l_total, double c_total, std::size_t segments) {
  ensure(segments > 0, "append_rlc_ladder: need at least one segment");
  ensure(r_total > 0.0 && l_total >= 0.0 && c_total > 0.0,
         "append_rlc_ladder: non-physical parasitics");

  const double n = static_cast<double>(segments);
  const double r_seg = r_total / n;
  const double l_seg = l_total / n;
  const double c_seg = c_total / n;

  LadderNodes out;
  out.near_end = from;
  netlist.add_capacitor(from, ground, 0.5 * c_seg);
  out.taps.reserve(segments + 1);
  out.taps.push_back(from);

  NodeId prev = from;
  for (std::size_t k = 0; k < segments; ++k) {
    NodeId next = netlist.add_node();
    if (l_seg > 0.0) {
      // Series R then L within the segment needs one more internal node.
      const NodeId mid = netlist.add_node();
      netlist.add_resistor(prev, mid, r_seg);
      netlist.add_inductor(mid, next, l_seg);
    } else {
      netlist.add_resistor(prev, next, r_seg);
    }
    // Interior nodes receive C/N (half from each adjacent segment); the far
    // end receives the final half-segment below.
    const double shunt = (k + 1 == segments) ? 0.5 * c_seg : c_seg;
    netlist.add_capacitor(next, ground, shunt);
    out.taps.push_back(next);
    prev = next;
  }
  out.far_end = prev;
  return out;
}

NodeId append_pi_load(Netlist& netlist, NodeId from, double c_near, double r,
                      double c_far) {
  netlist.add_capacitor(from, ground, c_near);
  const NodeId far = netlist.add_node();
  netlist.add_resistor(from, far, r);
  netlist.add_capacitor(far, ground, c_far);
  return far;
}

namespace {

void compile_branch(Netlist& netlist, NodeId from, const net::Branch& branch,
                    std::size_t segments, NetDeckNodes& out) {
  NodeId far = from;
  for (const net::Section& section : branch.sections) {
    SectionDeckNodes deck;
    const std::size_t first_inductor = netlist.inductors().size();
    if (section.resistance > 0.0 && section.capacitance > 0.0) {
      LadderNodes ladder =
          append_rlc_ladder(netlist, far, section.resistance, section.inductance,
                            section.capacitance, segments);
      far = ladder.far_end;
      deck.taps = std::move(ladder.taps);
      deck.tap_weights.assign(deck.taps.size(), 1.0 / static_cast<double>(segments));
      deck.tap_weights.front() *= 0.5;
      deck.tap_weights.back() *= 0.5;
      for (std::size_t k = first_inductor; k < netlist.inductors().size(); ++k) {
        deck.inductors.push_back(k);
      }
      out.sections.push_back(std::move(deck));
      continue;
    }
    // Degenerate lumped sections (validation keeps these out of distributed
    // routes): stamp whatever series impedance is present as single lumps so
    // the deck matches what moments::net_admittance models, then the shunt.
    if (section.resistance > 0.0 && section.inductance > 0.0) {
      const NodeId mid = netlist.add_node();
      const NodeId next = netlist.add_node();
      netlist.add_resistor(far, mid, section.resistance);
      netlist.add_inductor(mid, next, section.inductance);
      far = next;
    } else if (section.resistance > 0.0) {
      const NodeId next = netlist.add_node();
      netlist.add_resistor(far, next, section.resistance);
      far = next;
    } else if (section.inductance > 0.0) {
      const NodeId next = netlist.add_node();
      netlist.add_inductor(far, next, section.inductance);
      far = next;
    }
    if (section.capacitance > 0.0) {
      netlist.add_capacitor(far, ground, section.capacitance);
    }
    deck.taps.push_back(far);
    deck.tap_weights.push_back(1.0);
    for (std::size_t k = first_inductor; k < netlist.inductors().size(); ++k) {
      deck.inductors.push_back(k);
    }
    out.sections.push_back(std::move(deck));
  }
  if (branch.c_load > 0.0) netlist.add_capacitor(far, ground, branch.c_load);
  if (!branch.probe.empty()) out.probes.emplace_back(branch.probe, far);
  if (branch.children.empty()) {
    out.leaves.push_back(far);
    return;
  }
  for (const net::Branch& child : branch.children) {
    compile_branch(netlist, far, child, segments, out);
  }
}

}  // namespace

NetDeckNodes append_net(Netlist& netlist, NodeId from, const net::Net& net,
                        std::size_t segments_per_section) {
  ensure(segments_per_section > 0, "append_net: need at least one segment");
  NetDeckNodes out;
  out.near_end = from;
  compile_branch(netlist, from, net.root(), segments_per_section, out);
  return out;
}

CoupledDeckNodes append_coupled_group(Netlist& netlist, std::span<const NodeId> from,
                                      const net::CoupledGroup& group,
                                      std::size_t segments_per_section) {
  ensure(!group.empty(), "append_coupled_group: empty group");
  ensure(from.size() == group.size(),
         "append_coupled_group: need one driving node per net");

  CoupledDeckNodes out;
  out.nets.reserve(group.size());
  for (std::size_t k = 0; k < group.size(); ++k) {
    out.nets.push_back(
        append_net(netlist, from[k], group.net_at(k), segments_per_section));
  }

  auto section_of = [&](const net::SectionRef& r) -> const SectionDeckNodes& {
    return out.nets[r.net].sections[r.section];
  };

  for (const net::CouplingCap& cc : group.coupling_caps()) {
    const SectionDeckNodes& a = section_of(cc.a);
    const SectionDeckNodes& b = section_of(cc.b);
    // Group validation restricts coupling to distributed sections, which all
    // discretize with the same segment count, so the ladders align tap for
    // tap.
    ensure(a.taps.size() == b.taps.size(),
           "append_coupled_group: coupled sections discretized differently");
    for (std::size_t k = 0; k < a.taps.size(); ++k) {
      netlist.add_capacitor(a.taps[k], b.taps[k], cc.capacitance * a.tap_weights[k]);
    }
  }

  for (const net::MutualCoupling& mc : group.mutual_couplings()) {
    const SectionDeckNodes& a = section_of(mc.a);
    const SectionDeckNodes& b = section_of(mc.b);
    ensure(a.inductors.size() == b.inductors.size() && !a.inductors.empty(),
           "append_coupled_group: mutually coupled sections discretized differently");
    for (std::size_t k = 0; k < a.inductors.size(); ++k) {
      const double la = netlist.inductors()[a.inductors[k]].inductance;
      const double lb = netlist.inductors()[b.inductors[k]].inductance;
      netlist.add_mutual_inductor(a.inductors[k], b.inductors[k],
                                  mc.k * std::sqrt(la * lb));
    }
  }
  return out;
}

}  // namespace rlceff::ckt
