#include "lint/structural.h"

#include <array>
#include <cmath>
#include <cstdio>

namespace rlceff::lint {

namespace {

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

// A branch's place in the tree: the chain of child indices from the root,
// held on the walk's call stack.  Diagnostics name it "root", "root/1",
// "root/1/0", ...; the text is built only when a finding is emitted, so a
// clean tree is walked without a single allocation.
struct BranchPath {
  const BranchPath* parent = nullptr;  // null at the root
  std::size_t index = 0;               // position among the parent's children

  std::string str() const {
    return parent == nullptr ? std::string("root")
                             : parent->str() + "/" + std::to_string(index);
  }
  std::string branch() const { return "branch '" + str() + "'"; }
  std::string section(std::size_t k) const {
    return "section " + std::to_string(k) + " of branch '" + str() + "'";
  }
};

void check_section(const net::Section& s, const BranchPath& path, std::size_t index,
                   std::vector<Diagnostic>& out) {
  const auto where = [&] { return path.section(index); };
  if (!(std::isfinite(s.resistance) && std::isfinite(s.inductance) &&
        std::isfinite(s.capacitance))) {
    out.push_back(make_diagnostic(Code::nonfinite_value, where(),
                                  "has non-finite parasitics",
                                  "replace NaN/Inf parasitics with measured values"));
    return;  // value comparisons below are meaningless on NaN
  }
  if (s.inductance < 0.0) {
    out.push_back(make_diagnostic(
        Code::negative_inductance, where(),
        "has negative inductance (" + fmt(s.inductance) + " H)",
        "inductance must be >= 0; drop the L term for an RC section"));
  }
  if (s.kind == net::SectionKind::distributed) {
    // Distributed sections are real wire: they must carry loss and charge
    // (this is what ckt::append_rlc_ladder requires to discretize them).
    if (s.resistance <= 0.0) {
      out.push_back(make_diagnostic(
          Code::nonpositive_resistance, where(),
          "has zero/negative resistance (" + fmt(s.resistance) + " ohm)",
          "distributed wire needs R > 0; use a lumped section for ideal spans"));
    }
    if (s.capacitance <= 0.0) {
      out.push_back(make_diagnostic(
          Code::nonpositive_capacitance, where(),
          "has zero/negative capacitance (" + fmt(s.capacitance) + " F)",
          "distributed wire needs C > 0; use a lumped section for ideal spans"));
    }
  } else {
    if (s.resistance < 0.0) {
      out.push_back(make_diagnostic(
          Code::nonpositive_resistance, where(),
          "has negative resistance (" + fmt(s.resistance) + " ohm)",
          "resistance must be >= 0"));
    }
    if (s.capacitance < 0.0) {
      out.push_back(make_diagnostic(
          Code::nonpositive_capacitance, where(),
          "has negative capacitance (" + fmt(s.capacitance) + " F)",
          "capacitance must be >= 0"));
    }
    if (s.resistance == 0.0 && s.inductance == 0.0 && s.capacitance == 0.0) {
      out.push_back(make_diagnostic(
          Code::zero_section, where(), "is a zero-length segment (R = L = C = 0)",
          "remove the section or give it parasitics"));
    }
  }
}

// Probe names seen so far, as pointers into the tree.  Nets carry a handful
// of probes at most, so a linear scan beats hashing, and the inline buffer
// keeps the clean path (the admission screen's hot loop) free of heap
// allocations entirely — overflow to the vector only past eight probes.
struct ProbeNames {
  std::array<const std::string*, 8> inline_names{};
  std::size_t inline_count = 0;
  std::vector<const std::string*> overflow;

  // True when `probe` was already recorded; records it otherwise.
  bool seen(const std::string& probe) {
    for (std::size_t k = 0; k < inline_count; ++k) {
      if (*inline_names[k] == probe) return true;
    }
    for (const std::string* p : overflow) {
      if (*p == probe) return true;
    }
    if (inline_count < inline_names.size()) {
      inline_names[inline_count++] = &probe;
    } else {
      overflow.push_back(&probe);
    }
    return false;
  }
};

// Checks the branch and its subtree; returns the subtree's capacitance
// (load, then sections, then children, in that order).
double check_branch(const net::Branch& branch, const BranchPath& path,
                    ProbeNames& probe_names, std::vector<Diagnostic>& out) {
  // A branch contributing no wire, no fan-out, and no load would compile to
  // a phantom leaf at its parent junction.
  if (branch.sections.empty() && branch.children.empty() && !(branch.c_load > 0.0)) {
    out.push_back(make_diagnostic(
        Code::empty_branch, path.branch(),
        "is empty (no sections, children, or load)",
        "remove the dangling branch or give it sections/children/a load"));
  }
  double capacitance = branch.c_load;
  for (std::size_t k = 0; k < branch.sections.size(); ++k) {
    check_section(branch.sections[k], path, k, out);
    capacitance += branch.sections[k].capacitance;
  }
  if (!(std::isfinite(branch.c_load) && branch.c_load >= 0.0)) {
    out.push_back(make_diagnostic(
        Code::negative_load, path.branch(),
        "has a negative/non-finite load (" + fmt(branch.c_load) + " F)",
        "receiver loads must be finite and >= 0"));
  }
  if (!branch.probe.empty() && probe_names.seen(branch.probe)) {
    out.push_back(make_diagnostic(
        Code::duplicate_probe, path.branch(),
        "duplicate probe name '" + branch.probe + "'",
        "probe names address waveforms and must be unique per net"));
  }
  for (std::size_t k = 0; k < branch.children.size(); ++k) {
    capacitance += check_branch(branch.children[k], BranchPath{&path, k}, probe_names, out);
  }
  return capacitance;
}

}  // namespace

void check_branch_tree(const net::Branch& root, std::vector<Diagnostic>& out) {
  if (root.sections.empty() && root.children.empty()) {
    out.push_back(make_diagnostic(Code::empty_net, "",
                                  "empty net (no sections and no branches)",
                                  "a net needs at least one wire section"));
    return;
  }
  ProbeNames probe_names;
  if (!(check_branch(root, BranchPath{}, probe_names, out) > 0.0)) {
    out.push_back(make_diagnostic(Code::no_capacitance, "",
                                  "net has no capacitance",
                                  "add section capacitance or a receiver load"));
  }
}

void validate_branch_tree(const net::Branch& root) {
  std::vector<Diagnostic> findings;
  check_branch_tree(root, findings);
  for (Diagnostic& d : findings) {
    if (d.severity == Severity::error) throw DiagnosticError(std::move(d));
  }
}

}  // namespace rlceff::lint
