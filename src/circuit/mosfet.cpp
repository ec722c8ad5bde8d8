#include "circuit/mosfet.h"

#include <cmath>

namespace rlceff::ckt {

MosfetGateTerms gate_terms(const MosfetParams& p, double width, double vgt) {
  MosfetGateTerms g;
  g.vgt = vgt;
  g.idsat = width * p.k_sat * std::pow(vgt, p.alpha);
  g.didsat_dvgt = p.alpha * g.idsat / vgt;
  g.vdsat = p.kv * std::pow(vgt, 0.5 * p.alpha);
  g.dvdsat_dvgt = 0.5 * p.alpha * g.vdsat / vgt;
  return g;
}

MosfetEval drain_terms(const MosfetParams& p, const MosfetGateTerms& gate, double vds) {
  MosfetEval e;
  const double clm = 1.0 + p.lambda * vds;

  if (vds >= gate.vdsat) {
    e.id = gate.idsat * clm;
    e.gm = gate.didsat_dvgt * clm;
    e.gds = gate.idsat * p.lambda;
    return e;
  }

  // Triode: quadratic interpolation that is C1-continuous at vds = vdsat.
  const double u = vds / gate.vdsat;
  const double shape = u * (2.0 - u);
  const double du_dvgt = -u * gate.dvdsat_dvgt / gate.vdsat;
  e.id = gate.idsat * shape * clm;
  e.gds = gate.idsat * ((2.0 - 2.0 * u) / gate.vdsat * clm + shape * p.lambda);
  e.gm = (gate.didsat_dvgt * shape + gate.idsat * (2.0 - 2.0 * u) * du_dvgt) * clm;
  return e;
}

MosfetEval eval_nmos(const MosfetParams& p, double width, double vgs, double vds) {
  return eval_mosfet(p, false, vgs, vds,
                     [&](double vgt) { return gate_terms(p, width, vgt); });
}

MosfetEval eval_pmos(const MosfetParams& p, double width, double vgs, double vds) {
  return eval_mosfet(p, true, vgs, vds,
                     [&](double vgt) { return gate_terms(p, width, vgt); });
}

}  // namespace rlceff::ckt
