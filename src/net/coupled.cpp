#include "net/coupled.h"

#include <cmath>
#include <cstdio>

#include "lint/diagnostic.h"
#include "util/error.h"

namespace rlceff::net {

namespace {

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

std::size_t count_sections(const Branch& branch) {
  std::size_t n = branch.sections.size();
  for (const Branch& child : branch.children) n += count_sections(child);
  return n;
}

// Walks the branch tree in the deck compiler's depth-first order and hands
// the section with the given index to `fn`; returns false when the index is
// out of range.
template <class BranchT, class Fn>
bool with_section(BranchT& branch, std::size_t& cursor, std::size_t target, Fn&& fn) {
  if (target < cursor + branch.sections.size()) {
    fn(branch.sections[target - cursor]);
    return true;
  }
  cursor += branch.sections.size();
  for (auto& child : branch.children) {
    if (with_section(child, cursor, target, fn)) return true;
  }
  return false;
}

}  // namespace

CoupledGroup CoupledGroup::single(Net net, std::string label) {
  CoupledGroup group;
  group.add_net(std::move(net), std::move(label));
  return group;
}

std::size_t CoupledGroup::add_net(Net net, std::string label) {
  lint::ensure_diag(!net.empty(), lint::Code::empty_net, "",
                    "cannot add an empty net to a coupled group",
                    "construct the member net before adding it");
  auto taken = [&](const std::string& candidate) {
    for (const std::string& existing : labels_) {
      if (existing == candidate) return true;
    }
    return false;
  };
  if (label.empty()) {
    // Auto-labels must not collide with names the caller already claimed
    // (e.g. an explicit "net1" followed by an unlabeled net): advance until
    // free instead of raising a duplicate error the caller never wrote.
    std::size_t k = nets_.size();
    do {
      label = "net" + std::to_string(k++);
    } while (taken(label));
  } else {
    ensure(!taken(label), "net::CoupledGroup: duplicate net label '" + label + "'");
  }
  nets_.push_back(std::move(net));
  labels_.push_back(std::move(label));
  return nets_.size() - 1;
}

std::string CoupledGroup::describe(const SectionRef& r) const {
  const std::string label =
      r.net < labels_.size() ? labels_[r.net] : "#" + std::to_string(r.net);
  return "'" + label + "' section " + std::to_string(r.section);
}

void CoupledGroup::validate_pair(const char* what, const SectionRef& a,
                                 const SectionRef& b) const {
  const std::string where = std::string("net::CoupledGroup: ") + what + " between " +
                            describe(a) + " and " + describe(b);
  ensure(a.net < nets_.size() && b.net < nets_.size(),
         where + ": net index out of range (group holds " +
             std::to_string(nets_.size()) + " nets)");
  ensure(a.net != b.net, where + ": both ends on the same net");
  for (const SectionRef& r : {a, b}) {
    const std::size_t sections = section_count(r.net);
    ensure(r.section < sections,
           where + ": " + describe(r) + " is out of range ('" + labels_[r.net] +
               "' has " + std::to_string(sections) + " sections)");
    std::size_t cursor = 0;
    with_section(nets_[r.net].root(), cursor, r.section, [&](const Section& s) {
      ensure(s.kind == SectionKind::distributed,
             where + ": " + describe(r) +
                 " is a lumped section (coupling needs a distributed span)");
    });
  }
}

void CoupledGroup::couple_capacitance(SectionRef a, SectionRef b, double capacitance) {
  validate_pair("coupling cap", a, b);
  lint::ensure_diag(std::isfinite(capacitance) && capacitance > 0.0,
                    lint::Code::nonpositive_capacitance,
                    "coupling cap between " + describe(a) + " and " + describe(b),
                    "has non-physical capacitance (" + fmt(capacitance) + " F)",
                    "coupling capacitance must be finite and > 0");
  coupling_caps_.push_back({a, b, capacitance});
}

void CoupledGroup::couple_inductance(SectionRef a, SectionRef b, double k) {
  validate_pair("mutual inductance", a, b);
  lint::ensure_diag(std::isfinite(k) && k > 0.0 && k < 1.0,
                    lint::Code::mutual_overcoupled,
                    "mutual inductance between " + describe(a) + " and " + describe(b),
                    "has coupling coefficient " + fmt(k) + " outside (0, 1)",
                    "k = M / sqrt(La*Lb) must stay strictly inside (0, 1)");
  for (const SectionRef& r : {a, b}) {
    std::size_t cursor = 0;
    with_section(nets_[r.net].root(), cursor, r.section, [&](const Section& s) {
      ensure(s.inductance > 0.0,
             "net::CoupledGroup: mutual inductance between " + describe(a) +
                 " and " + describe(b) + ": " + describe(r) +
                 " carries no inductance");
    });
  }
  // Couplings on the same section pair add up; the summed coefficient must
  // stay passive, not just each contribution.
  double total = k;
  for (const MutualCoupling& m : mutuals_) {
    const bool same = (m.a.net == a.net && m.a.section == a.section &&
                       m.b.net == b.net && m.b.section == b.section) ||
                      (m.a.net == b.net && m.a.section == b.section &&
                       m.b.net == a.net && m.b.section == a.section);
    if (same) total += m.k;
  }
  lint::ensure_diag(total < 1.0, lint::Code::mutual_overcoupled,
                    "mutual inductance between " + describe(a) + " and " + describe(b),
                    "accumulates to coupling coefficient " + fmt(total) +
                        " >= 1 (non-passive)",
                    "|M| must stay below sqrt(La*Lb); reduce k or split the span");
  mutuals_.push_back({a, b, k});
}

const Net& CoupledGroup::net_at(std::size_t index) const {
  ensure(index < nets_.size(), "net::CoupledGroup: net index out of range");
  return nets_[index];
}

const std::string& CoupledGroup::label_at(std::size_t index) const {
  ensure(index < labels_.size(), "net::CoupledGroup: net index out of range");
  return labels_[index];
}

std::size_t CoupledGroup::index_of(const std::string& label) const {
  for (std::size_t k = 0; k < labels_.size(); ++k) {
    if (labels_[k] == label) return k;
  }
  throw Error("net::CoupledGroup: no net labeled '" + label + "'");
}

std::size_t CoupledGroup::section_count(std::size_t index) const {
  return count_sections(net_at(index).root());
}

double CoupledGroup::coupling_capacitance_at(std::size_t index) const {
  (void)net_at(index);
  double total = 0.0;
  for (const CouplingCap& cc : coupling_caps_) {
    if (cc.a.net == index || cc.b.net == index) total += cc.capacitance;
  }
  return total;
}

Net CoupledGroup::decoupled_net(std::size_t victim,
                                std::span<const double> miller_by_net) const {
  ensure(victim < nets_.size(), "net::CoupledGroup::decoupled_net: victim out of range");
  ensure(miller_by_net.size() == nets_.size(),
         "net::CoupledGroup::decoupled_net: need one Miller factor per net");
  for (std::size_t k = 0; k < miller_by_net.size(); ++k) {
    if (!(std::isfinite(miller_by_net[k]) && miller_by_net[k] >= 0.0)) {
      ensure(false, "net::CoupledGroup::decoupled_net: Miller factor for '" +
                        labels_[k] + "' is non-physical (" + fmt(miller_by_net[k]) +
                        ")");
    }
  }

  Branch root = nets_[victim].root();
  for (const CouplingCap& cc : coupling_caps_) {
    const bool a_side = cc.a.net == victim;
    if (!a_side && cc.b.net != victim) continue;
    const SectionRef& mine = a_side ? cc.a : cc.b;
    const SectionRef& theirs = a_side ? cc.b : cc.a;
    const double grounded = miller_by_net[theirs.net] * cc.capacitance;
    if (grounded == 0.0) continue;
    std::size_t cursor = 0;
    with_section(root, cursor, mine.section,
                 [&](Section& s) { s.capacitance += grounded; });
  }
  return Net(std::move(root));
}

Net CoupledGroup::decoupled_net(std::size_t victim) const {
  const std::vector<double> quiet(nets_.size(), 1.0);
  return decoupled_net(victim, quiet);
}

}  // namespace rlceff::net
