#include "sim/scenario_block.h"

#include <bit>
#include <cstdint>

namespace rlceff::sim {

namespace {

using ckt::Netlist;

// --------------------------------------------------------------- grouping ---

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

bool same_bits(double a, double b) { return bits(a) == bits(b); }

// FNV-1a over whole 64-bit words: one xor and one multiply per word.
// Collisions are harmless (the exhaustive confirms decide), so this only
// needs to spread well enough that unrelated topologies rarely share a
// bucket; the xor-shift folds each word's high bits into the low ones the
// multiply mixes upward.
struct Fnv64 {
  std::uint64_t h = 1469598103934665603ull;
  void mix(std::uint64_t v) {
    h ^= v ^ (v >> 32);
    h *= 1099511628211ull;
  }
  void mix(double v) { mix(bits(v)); }
};

}  // namespace

std::uint64_t scenario_group_hash(const Netlist& netlist,
                                  const TransientOptions& options) {
  Fnv64 f;
  f.mix(static_cast<std::uint64_t>(netlist.node_count()));
  f.mix(static_cast<std::uint64_t>(netlist.resistors().size()));
  for (const ckt::Resistor& r : netlist.resistors()) {
    f.mix(static_cast<std::uint64_t>(r.a));
    f.mix(static_cast<std::uint64_t>(r.b));
    f.mix(r.resistance);
  }
  f.mix(static_cast<std::uint64_t>(netlist.capacitors().size()));
  for (const ckt::Capacitor& c : netlist.capacitors()) {
    f.mix(static_cast<std::uint64_t>(c.a));
    f.mix(static_cast<std::uint64_t>(c.b));
    f.mix(c.capacitance);
  }
  f.mix(static_cast<std::uint64_t>(netlist.inductors().size()));
  for (const ckt::Inductor& l : netlist.inductors()) {
    f.mix(static_cast<std::uint64_t>(l.a));
    f.mix(static_cast<std::uint64_t>(l.b));
    f.mix(l.inductance);
  }
  f.mix(static_cast<std::uint64_t>(netlist.mutual_inductors().size()));
  for (const ckt::MutualInductor& m : netlist.mutual_inductors()) {
    f.mix(static_cast<std::uint64_t>(m.la));
    f.mix(static_cast<std::uint64_t>(m.lb));
    f.mix(m.mutual);
  }
  // Source incidence shapes the matrix; the waveform only shapes the RHS.
  f.mix(static_cast<std::uint64_t>(netlist.vsources().size()));
  for (const ckt::VSource& v : netlist.vsources()) {
    f.mix(static_cast<std::uint64_t>(v.pos));
    f.mix(static_cast<std::uint64_t>(v.neg));
  }
  f.mix(static_cast<std::uint64_t>(netlist.mosfets().size()));

  f.mix(options.dt);
  f.mix(static_cast<std::uint64_t>(options.assembly));
  f.mix(static_cast<std::uint64_t>(options.solver));
  f.mix(options.debug_cached_stamp_skew);
  f.mix(static_cast<std::uint64_t>(options.debug_cached_stamp_nan));
  return f.h;
}

bool scenario_group_equal(const Netlist& a, const Netlist& b) {
  // Nonlinear stamps depend on the per-lane Newton iterate: never shared.
  if (!a.mosfets().empty() || !b.mosfets().empty()) return false;
  if (a.node_count() != b.node_count()) return false;
  if (a.resistors().size() != b.resistors().size() ||
      a.capacitors().size() != b.capacitors().size() ||
      a.inductors().size() != b.inductors().size() ||
      a.mutual_inductors().size() != b.mutual_inductors().size() ||
      a.vsources().size() != b.vsources().size()) {
    return false;
  }
  for (std::size_t k = 0; k < a.resistors().size(); ++k) {
    const ckt::Resistor& ra = a.resistors()[k];
    const ckt::Resistor& rb = b.resistors()[k];
    if (ra.a != rb.a || ra.b != rb.b || !same_bits(ra.resistance, rb.resistance)) {
      return false;
    }
  }
  for (std::size_t k = 0; k < a.capacitors().size(); ++k) {
    const ckt::Capacitor& ca = a.capacitors()[k];
    const ckt::Capacitor& cb = b.capacitors()[k];
    if (ca.a != cb.a || ca.b != cb.b || !same_bits(ca.capacitance, cb.capacitance)) {
      return false;
    }
  }
  for (std::size_t k = 0; k < a.inductors().size(); ++k) {
    const ckt::Inductor& la = a.inductors()[k];
    const ckt::Inductor& lb = b.inductors()[k];
    if (la.a != lb.a || la.b != lb.b || !same_bits(la.inductance, lb.inductance)) {
      return false;
    }
  }
  for (std::size_t k = 0; k < a.mutual_inductors().size(); ++k) {
    const ckt::MutualInductor& ma = a.mutual_inductors()[k];
    const ckt::MutualInductor& mb = b.mutual_inductors()[k];
    if (ma.la != mb.la || ma.lb != mb.lb || !same_bits(ma.mutual, mb.mutual)) {
      return false;
    }
  }
  for (std::size_t k = 0; k < a.vsources().size(); ++k) {
    const ckt::VSource& va = a.vsources()[k];
    const ckt::VSource& vb = b.vsources()[k];
    if (va.pos != vb.pos || va.neg != vb.neg) return false;
  }
  return true;
}

bool scenario_options_equal(const TransientOptions& a, const TransientOptions& b) {
  return same_bits(a.dt, b.dt) && a.assembly == b.assembly && a.solver == b.solver &&
         same_bits(a.debug_cached_stamp_skew, b.debug_cached_stamp_skew) &&
         a.debug_cached_stamp_nan == b.debug_cached_stamp_nan &&
         same_bits(a.edge_stop.vdd, b.edge_stop.vdd) &&
         a.edge_stop.watch == b.edge_stop.watch;
}

}  // namespace rlceff::sim
