// Structured static diagnostics.
//
// A lint::Diagnostic is one finding about a net, coupled group, or parsed
// deck: a stable machine code, a severity, the element path (the same
// "section K of branch 'root/1'" naming the construction-time validation
// errors use), a human message, and an actionable fix hint.  The taxonomy is
// shared between the two reporting modes:
//   * throw-on-construct — net::Net / net::CoupledGroup / ckt validation
//     raises DiagnosticError carrying the first error-severity Diagnostic,
//   * lint-report — lint::lint_net / lint_group collect every finding into a
//     lint::Report without throwing (and without simulating).
// Tools and CI greps key on the spelled enum name (to_string), so a code
// that some check emits is never renamed or reordered; new codes are
// appended.  A code no check can emit any more is deleted.
#ifndef RLCEFF_LINT_DIAGNOSTIC_H
#define RLCEFF_LINT_DIAGNOSTIC_H

#include <cstddef>
#include <span>
#include <string>

#include "util/error.h"

namespace rlceff::lint {

enum class Severity {
  info,   // advisory: solver choice, regime classification
  warn,   // suspicious but simulatable: near-limit coupling, stiffness
  error,  // would throw at construction or produce meaningless results
};

// Stable diagnostic codes, grouped by check family (family()).
enum class Code {
  // connectivity — the topology itself is broken
  empty_net,          // no sections and no branches at all
  empty_branch,       // a branch with no sections, children, or load
  zero_section,       // lumped section with R = L = C = 0
  duplicate_probe,    // two branches claim the same probe name
  // physicality — element values outside the passive/physical range
  nonfinite_value,         // NaN/Inf parasitics
  nonpositive_resistance,  // distributed R <= 0 (or lumped R < 0)
  nonpositive_capacitance, // distributed/coupling C <= 0 (or lumped C < 0)
  negative_inductance,     // L < 0
  negative_load,           // receiver load < 0 or non-finite
  no_capacitance,          // net carries no charge storage anywhere
  mutual_overcoupled,      // |M| >= sqrt(La*Lb): k accumulates to >= 1
  mutual_near_limit,       // k within the configured margin of 1
  coupling_dominates_ground,  // coupling C dwarfs a section's ground C
  // conditioning — the compiled system will be expensive or fragile
  solver_advisory,        // predicted unknowns/bandwidth/nnz + backend choice
  extreme_stiffness,      // RC time constants spread past the warn ratio
  extreme_dynamic_range,  // element values spread past pivot-threshold comfort
  // model — the paper's Ceff regime assumptions
  inductance_screened,     // Eq 9: all criteria hold, RC modeling suffices
  inductance_significant,  // Eq 9: some criterion fails, RLC model required
  moment_mismatch,         // driving-point m1 disagrees with total capacitance
  miller_unsafe,           // coupling too large for Miller decoupling
  convergence_risk,        // an Eq 9 ratio sits within margin of its boundary
  // input — rejected before the taxonomy could classify it (deck/geometry
  // construction failures outside the structured checks)
  invalid_input,
  // tier — multi-fidelity cascade routing predictions (src/tier/)
  tier_advisory,         // predicted routed tier under the requested policy
  tier_pinned_mismatch,  // a forced tier the topology's screen would refuse
};

inline constexpr std::size_t code_count =
    static_cast<std::size_t>(Code::tier_pinned_mismatch) + 1;

// The spelled enum name ("nonpositive_resistance"); stable across releases.
const char* to_string(Code code);
const char* to_string(Severity severity);
// Check family: "connectivity", "physicality", "conditioning", "model",
// "input", "tier".
const char* family(Code code);
// The severity a code carries unless a check explicitly overrides it.
Severity default_severity(Code code);
// Every code, in enum order (test iteration / doc table generation).
std::span<const Code> all_codes();

struct Diagnostic {
  Code code = Code::invalid_input;
  Severity severity = Severity::error;
  std::string path;     // element path, "" when the finding is net-global
  std::string message;  // human-readable, keeps the construction-error naming
  std::string hint;     // actionable fix, "" when none applies
};

// "error [physicality.nonpositive_resistance] section 0 of branch 'root':
//  ... (fix: ...)"
std::string format(const Diagnostic& diagnostic);

// Construction helper: severity defaults from the code.
Diagnostic make_diagnostic(Code code, std::string path, std::string message,
                           std::string hint = "");

// The throw-on-construct face of the taxonomy: carries the Diagnostic that
// a validating constructor refused.  Derives from Error so every existing
// catch site (Engine per-slot isolation, CLI build loop, oracles matching
// message substrings) keeps working unchanged.
class DiagnosticError : public Error {
public:
  explicit DiagnosticError(Diagnostic diagnostic);
  const Diagnostic& diagnostic() const { return diagnostic_; }
  Code code() const { return diagnostic_.code; }

private:
  Diagnostic diagnostic_;
};

// ensure()-style check that raises DiagnosticError instead of plain Error.
inline void ensure_diag(bool cond, Code code, const std::string& path,
                        const std::string& message, const std::string& hint = "") {
  if (!cond) throw DiagnosticError(make_diagnostic(code, path, message, hint));
}

}  // namespace rlceff::lint

#endif  // RLCEFF_LINT_DIAGNOSTIC_H
