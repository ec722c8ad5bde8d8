#include "lint/diagnostic.h"

#include <array>

namespace rlceff::lint {

namespace {

struct CodeInfo {
  Code code;
  const char* name;
  const char* family;
  Severity severity;
};

constexpr std::array<CodeInfo, code_count> kCodeTable = {{
    {Code::empty_net, "empty_net", "connectivity", Severity::error},
    {Code::empty_branch, "empty_branch", "connectivity", Severity::error},
    {Code::zero_section, "zero_section", "connectivity", Severity::error},
    {Code::duplicate_probe, "duplicate_probe", "connectivity", Severity::error},
    {Code::nonfinite_value, "nonfinite_value", "physicality", Severity::error},
    {Code::nonpositive_resistance, "nonpositive_resistance", "physicality",
     Severity::error},
    {Code::nonpositive_capacitance, "nonpositive_capacitance", "physicality",
     Severity::error},
    {Code::negative_inductance, "negative_inductance", "physicality",
     Severity::error},
    {Code::negative_load, "negative_load", "physicality", Severity::error},
    {Code::no_capacitance, "no_capacitance", "physicality", Severity::error},
    {Code::mutual_overcoupled, "mutual_overcoupled", "physicality",
     Severity::error},
    {Code::mutual_near_limit, "mutual_near_limit", "physicality", Severity::warn},
    {Code::coupling_dominates_ground, "coupling_dominates_ground", "physicality",
     Severity::warn},
    {Code::solver_advisory, "solver_advisory", "conditioning", Severity::info},
    {Code::extreme_stiffness, "extreme_stiffness", "conditioning", Severity::warn},
    {Code::extreme_dynamic_range, "extreme_dynamic_range", "conditioning",
     Severity::warn},
    {Code::inductance_screened, "inductance_screened", "model", Severity::info},
    {Code::inductance_significant, "inductance_significant", "model",
     Severity::info},
    {Code::moment_mismatch, "moment_mismatch", "model", Severity::error},
    {Code::miller_unsafe, "miller_unsafe", "model", Severity::warn},
    {Code::convergence_risk, "convergence_risk", "model", Severity::info},
    {Code::invalid_input, "invalid_input", "input", Severity::error},
    {Code::tier_advisory, "tier_advisory", "tier", Severity::info},
    {Code::tier_pinned_mismatch, "tier_pinned_mismatch", "tier", Severity::warn},
}};

const CodeInfo& info(Code code) {
  const auto index = static_cast<std::size_t>(code);
  return kCodeTable[index < kCodeTable.size() ? index : kCodeTable.size() - 1];
}

}  // namespace

const char* to_string(Code code) { return info(code).name; }

const char* to_string(Severity severity) {
  switch (severity) {
    case Severity::info: return "info";
    case Severity::warn: return "warn";
    case Severity::error: return "error";
  }
  return "error";
}

const char* family(Code code) { return info(code).family; }

Severity default_severity(Code code) { return info(code).severity; }

std::span<const Code> all_codes() {
  static const std::array<Code, code_count> codes = [] {
    std::array<Code, code_count> out{};
    for (std::size_t k = 0; k < kCodeTable.size(); ++k) out[k] = kCodeTable[k].code;
    return out;
  }();
  return codes;
}

std::string format(const Diagnostic& diagnostic) {
  std::string out = to_string(diagnostic.severity);
  out += " [";
  out += family(diagnostic.code);
  out += ".";
  out += to_string(diagnostic.code);
  out += "]";
  // Path and message concatenate into the prose the pre-lint validation
  // errors used ("branch 'root/0' is empty (...)"), keeping every message
  // grep stable across the throw and report modes.
  if (!diagnostic.path.empty()) {
    out += " ";
    out += diagnostic.path;
  }
  out += " ";
  out += diagnostic.message;
  if (!diagnostic.hint.empty()) {
    out += " (fix: ";
    out += diagnostic.hint;
    out += ")";
  }
  return out;
}

Diagnostic make_diagnostic(Code code, std::string path, std::string message,
                           std::string hint) {
  Diagnostic d;
  d.code = code;
  d.severity = default_severity(code);
  d.path = std::move(path);
  d.message = std::move(message);
  d.hint = std::move(hint);
  return d;
}

DiagnosticError::DiagnosticError(Diagnostic diagnostic)
    : Error(format(diagnostic)), diagnostic_(std::move(diagnostic)) {}

}  // namespace rlceff::lint
