// Alpha-power-law MOSFET model (Sakurai-Newton).
//
// The simulator needs a driver model that reproduces the regime the paper
// studies: deep-submicron inverters whose output resistance is comparable to
// the line's characteristic impedance, with velocity-saturated drain current
// Id ~ (Vgs - Vth)^alpha.  The alpha-power law captures exactly that with a
// handful of parameters and analytic derivatives for Newton-Raphson.
//
// Conventions: eval() returns the drain-to-source channel current of an
// N-type device and its derivatives.  Negative Vds is handled by the
// source/drain symmetry swap; P-type devices are evaluated by polarity
// reversal.  Current is proportional to drawn gate width.
//
// An evaluation is the composition of two parts.  The gate terms depend on
// the forward device's gate overdrive vgt = vgs - vth alone and hold both
// std::pow calls; the drain terms combine them with vds.  A caller that
// evaluates one device repeatedly (the transient stepper's Newton loop) can
// keep the gate terms and reuse them while vgt repeats bit for bit: equal
// inputs give equal outputs, so the result stays the one-shot evaluation's.
#ifndef RLCEFF_CIRCUIT_MOSFET_H
#define RLCEFF_CIRCUIT_MOSFET_H

#include <limits>

namespace rlceff::ckt {

struct MosfetParams {
  double vth = 0.45;        // threshold voltage [V]
  double alpha = 1.3;       // velocity-saturation index (1 = fully saturated, 2 = long channel)
  double k_sat = 0.4e3;     // saturation transconductance [A / (m * V^alpha)]
  double kv = 0.8;          // Vdsat = kv * (Vgs - Vth)^(alpha/2) [V^(1-alpha/2)]
  double lambda = 0.05;     // channel-length modulation [1/V]
};

struct MosfetEval {
  double id = 0.0;    // channel current, drain -> source [A]
  double gm = 0.0;    // d id / d vgs [S]
  double gds = 0.0;   // d id / d vds [S]
};

// The gate terms of a forward evaluation (N polarity, vds >= 0) at overdrive
// `vgt`.  A default record holds NaN there, which no overdrive equals.
struct MosfetGateTerms {
  double vgt = std::numeric_limits<double>::quiet_NaN();  // [V]
  double idsat = 0.0;        // saturation current [A]
  double didsat_dvgt = 0.0;  // [S]
  double vdsat = 0.0;        // saturation voltage [V]
  double dvdsat_dvgt = 0.0;
};

// Gate terms of an on device (vgt > 0).
MosfetGateTerms gate_terms(const MosfetParams& p, double width, double vgt);

// Drain terms: the forward evaluation at vds >= 0 from its gate terms.
MosfetEval drain_terms(const MosfetParams& p, const MosfetGateTerms& gate, double vds);

// An evaluation of either polarity (eval_pmos's operands when `pmos`,
// eval_nmos's otherwise) composed from the two parts.  The polarity reversal
// and the symmetry swap give the forward device's overdrive vgt.  An off
// device (vgt <= 0) returns zeros; an on one takes its gate terms from
// gate_of(vgt), called once, which must return gate_terms(p, width, vgt) or
// an equal record.
template <class GateOf>
MosfetEval eval_mosfet(const MosfetParams& p, bool pmos, double vgs, double vds,
                       GateOf&& gate_of) {
  // A P device is an N device with every polarity reversed.
  if (pmos) {
    vgs = -vgs;
    vds = -vds;
  }
  // With vds < 0 drain and source exchange roles: the forward device takes
  // the true source (terminal "d") as reference.
  const bool forward = vds >= 0.0;
  const double vgt = (forward ? vgs : vgs - vds) - p.vth;
  MosfetEval e;  // off: zero; gmin in the stamps keeps Newton regular
  if (!(vgt <= 0.0)) e = drain_terms(p, gate_of(vgt), forward ? vds : -vds);
  if (!forward) e = {-e.id, -e.gm, e.gm + e.gds};
  if (pmos) e.id = -e.id;
  return e;
}

// N-type evaluation for arbitrary vds (symmetry swap applied internally).
MosfetEval eval_nmos(const MosfetParams& p, double width, double vgs, double vds);

// P-type evaluation: params hold |Vth| etc.; voltages are the physical
// vgs = Vg - Vs and vds = Vd - Vs of the P device (both normally negative
// when conducting).  Returned id is the physical drain->source current
// (normally negative: current flows source -> drain).
MosfetEval eval_pmos(const MosfetParams& p, double width, double vgs, double vds);

}  // namespace rlceff::ckt

#endif  // RLCEFF_CIRCUIT_MOSFET_H
