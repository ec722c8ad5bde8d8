// rlceff_cli — the service-shaped entry point: read a scenario deck, run it
// through api::Engine::run_batch, print per-net delay/slew.
//
// Deck format (plain text, '#' comments):
//
//   # label  driver_size  slew_ps  length_mm  width_um  cload_ff
//   net0     100          100      5.0        1.6       20
//
// plus two optional stanza kinds for coupled nets:
//
//   couple <netA> <netB> <cc_ff> [k [secA secB]]
//                                        distributed coupling cap (and
//                                        optional inductive coefficient)
//                                        between two previously listed nets;
//                                        secA/secB address the depth-first
//                                        sections the elements span (default
//                                        0); a zero cc_ff or k field means
//                                        the line carries only the other
//                                        element, and repeated lines on one
//                                        section pair accumulate
//   aggressor <net> rise|fall|quiet      mark a coupled net as an aggressor
//                                        (rise switches with the victims,
//                                        fall against them, quiet holds)
//
// and the explicit-parasitics form the property harness's replay decks use
// for topologies geometry lines cannot express (tapers, trees, exact R/L/C):
//
//   xnet <label> <driver_size> <slew_ps>    declare an explicit net
//   xsec <label> <path> <r_ohm> <l_nh> <c_ff> [lumped]
//                                           append one wire section to the
//                                           branch at <path> ("root",
//                                           "root/0", "root/1/0", ...)
//   xload <label> <path> <cload_ff>         lumped receiver at the branch end
//
// Nets connected by `couple` lines form one coupled group; every member not
// marked as an aggressor is a victim and gets its own result slot (modeled
// via Miller-factor decoupling; with --reference also simulated as the full
// coupled system, reporting delay pushout and quiet-victim peak noise).
// Aggressors only shape their victims' slots and are not reported.
//
// Geometry is turned into RLC parasitics by the built-in wire model (the
// same fit the paper benches use).  Failed nets are reported with their
// structured error code and do not abort the rest of the batch.
//
// Exit codes: 0 all nets succeeded, 1 usage/deck errors, 2 duplicate net
// labels in the deck or failed result slots.
//
// Usage:
//   rlceff_cli [options] <deck-file>
//     --library <path>   load the cell cache from <path> before the run and
//                        save it back afterwards (repeated invocations skip
//                        re-characterization)
//     --grid small       use a small characterization grid (CI/smoke runs)
//     --reference        also run the transient reference and print errors
//     --threads <n>      sweep pool width (default, and 0: hardware
//                        concurrency)
//     --json             machine-readable output (per-net delay/slew/noise
//                        and error slots) instead of the text table
//     --solver <kind>    linear-solver backend for reference transients:
//                        auto (default; picks dense, banded or sparse from
//                        the deck's size and sparsity), or an explicit
//                        dense|banded|sparse to force one.  --json reports
//                        the backend per reference-backed net
//     --deadline-ms <t>  per-net wall-clock budget (positive and finite); a
//                        net that exceeds it fails with error code
//                        deadline_exceeded (exit 2)
//     --max-steps <n>    per-net transient step budget (reference runs);
//                        exhaustion fails the net with resource_exhausted
//     --degrade          instead of failing, budget-exhausted nets fall down
//                        the fidelity ladder (Ceff model, then the moments-
//                        only floor); degraded slots are flagged in the
//                        output and do not count as failures
//     --lint             lint-only mode: run the full static-diagnostics
//                        pass (connectivity, physicality, conditioning,
//                        model validity — src/lint/) over every slot without
//                        simulating or characterizing anything.  Text mode
//                        prints one formatted line per finding; --json emits
//                        the diagnostics as structured records (code,
//                        severity, family, path, message, hint).  Exit 0
//                        when no slot has an error-severity finding, 2
//                        otherwise (warn/info never fail the run).  With
//                        --tier, each single-net slot also carries the
//                        tier the policy would route it to (tier_advisory,
//                        plus tier_pinned_mismatch under --tier a when the
//                        Tier A screen refuses it); coupled victims carry
//                        no prediction
//     --tier <policy>    multi-fidelity cascade policy (tier/tier.h):
//                        balanced (A when its applicability screen admits
//                        the net, B otherwise, and C only when a Tier-B
//                        Ceff solve runs out of its iteration cap; no
//                        error envelope is consulted), fastest (A when
//                        admitted, B otherwise, never C), or a forced
//                        tier a|b|c (force_analytical / force_ceff /
//                        force_reference).  Default: no routing — requests
//                        behave exactly as before the cascade existed.
//                        Incompatible with --reference (use --tier c).
//                        --json reports the serving tier and escalation
//                        count per net plus a per-tier count summary; text
//                        mode prints the summary as a trailing comment.
//                        A net served by Tier C reports its simulated
//                        delay/slew (api::Response::answer_near)
//     --far-end          model-only far-end replay: each uncoupled slot
//                        replays its modeled driver waveform through the net
//                        and reports the far-end delay/slew (the paper's
//                        Fig-6 flow) without running the full transient
//                        reference.  Incompatible with --reference (which
//                        computes the far end itself) and --tier.  Coupled
//                        victims stay near-end-only.
//     --batch-scenarios on|off
//                        shared-factorization scenario batching for the
//                        --far-end replays (default on): equal-topology
//                        slots are grouped, factored once, and advanced as
//                        one blocked multi-RHS solve.  Waveforms are
//                        bitwise-identical either way; off forces the
//                        per-slot scalar path (debugging/perf comparison)
//     --lint-screen      normal run, but with the Engine admission screen
//                        armed at warn severity and the deep passes enabled:
//                        slots with warn-or-worse findings fail with error
//                        code lint_rejected before any solve.  (Error-grade
//                        structural breakage already fails at net
//                        construction with invalid_request; the screen's
//                        value here is catching the simulatable-but-
//                        suspicious decks — near-limit coupling, extreme
//                        stiffness — before they burn a solve.)
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "api/engine.h"
#include "lint/lint.h"
#include "sim/transient.h"
#include "tech/wire.h"
#include "tier/tier.h"
#include "util/units.h"

using namespace rlceff;
using namespace rlceff::units;

namespace {

struct CliOptions {
  std::string deck_path;
  std::string library_path;  // empty = no persistence
  bool small_grid = false;
  bool reference = false;
  bool json = false;
  bool degrade = false;
  double deadline_ms = 0.0;      // <= 0: unlimited
  long long max_steps = 0;       // <= 0: unlimited
  unsigned n_threads = 0;
  sim::SolverKind solver = sim::SolverKind::automatic;
  tier::TierPolicy tier = tier::TierPolicy::reference;  // no routing
  bool lint = false;         // lint-only mode: diagnose, never simulate
  bool lint_screen = false;  // normal run with the admission screen armed
  bool far_end = false;      // model-only far-end replay per uncoupled slot
  bool batch_scenarios = true;  // shared-factorization replay grouping
};

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--library <path>] [--grid small|standard] "
               "[--reference] [--threads <n>] [--json] "
               "[--solver auto|dense|banded|sparse] [--deadline-ms <t>] "
               "[--max-steps <n>] [--degrade] [--lint] [--lint-screen] "
               "[--tier balanced|fastest|a|b|c] [--far-end] "
               "[--batch-scenarios on|off] <deck-file>\n",
               argv0);
}

bool parse_number(const std::string& token, double& out);
bool parse_integer(const std::string& token, long long& out);

bool parse_args(int argc, char** argv, CliOptions& opt) {
  for (int k = 1; k < argc; ++k) {
    const std::string arg = argv[k];
    auto next = [&]() -> const char* { return k + 1 < argc ? argv[++k] : nullptr; };
    if (arg == "--library") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.library_path = v;
    } else if (arg == "--grid") {
      const char* v = next();
      if (v == nullptr) return false;
      if (std::strcmp(v, "small") == 0) {
        opt.small_grid = true;
      } else if (std::strcmp(v, "standard") != 0) {
        std::fprintf(stderr, "unknown grid '%s' (want small|standard)\n", v);
        return false;
      }
    } else if (arg == "--reference") {
      opt.reference = true;
    } else if (arg == "--json") {
      opt.json = true;
    } else if (arg == "--threads") {
      const char* v = next();
      long long n = 0;
      if (v == nullptr || !parse_integer(v, n) || n < 0 ||
          n > std::numeric_limits<unsigned>::max()) {
        std::fprintf(stderr,
                     "--threads needs a non-negative integer (0: hardware "
                     "concurrency)\n");
        return false;
      }
      opt.n_threads = static_cast<unsigned>(n);
    } else if (arg == "--solver") {
      const char* v = next();
      if (v == nullptr) return false;
      try {
        opt.solver = sim::solver_kind_from_string(v);
      } catch (const Error& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return false;
      }
    } else if (arg == "--deadline-ms") {
      const char* v = next();
      if (v == nullptr || !parse_number(v, opt.deadline_ms) ||
          !std::isfinite(opt.deadline_ms) || opt.deadline_ms <= 0.0) {
        std::fprintf(stderr, "--deadline-ms needs a positive finite number\n");
        return false;
      }
    } else if (arg == "--max-steps") {
      const char* v = next();
      if (v == nullptr || !parse_integer(v, opt.max_steps) || opt.max_steps <= 0) {
        std::fprintf(stderr, "--max-steps needs a positive integer\n");
        return false;
      }
    } else if (arg == "--degrade") {
      opt.degrade = true;
    } else if (arg == "--tier") {
      const char* v = next();
      if (v == nullptr || !tier::parse_tier_policy(v, opt.tier)) {
        std::fprintf(stderr,
                     "--tier needs one of: reference, balanced, fastest, "
                     "force_analytical|a, force_ceff|b, force_reference|c\n");
        return false;
      }
    } else if (arg == "--lint") {
      opt.lint = true;
    } else if (arg == "--lint-screen") {
      opt.lint_screen = true;
    } else if (arg == "--far-end") {
      opt.far_end = true;
    } else if (arg == "--batch-scenarios") {
      const char* v = next();
      if (v == nullptr ||
          (std::strcmp(v, "on") != 0 && std::strcmp(v, "off") != 0)) {
        std::fprintf(stderr, "--batch-scenarios needs on or off\n");
        return false;
      }
      opt.batch_scenarios = std::strcmp(v, "on") == 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return false;
    } else if (opt.deck_path.empty()) {
      opt.deck_path = arg;
    } else {
      std::fprintf(stderr, "more than one deck file given\n");
      return false;
    }
  }
  if (opt.reference && opt.tier != tier::TierPolicy::reference) {
    std::fprintf(stderr,
                 "--reference is incompatible with --tier; use --tier c to pin "
                 "the transient reference\n");
    return false;
  }
  if (opt.far_end &&
      (opt.reference || opt.tier != tier::TierPolicy::reference)) {
    std::fprintf(stderr,
                 "--far-end is the model-only replay; --reference computes the "
                 "far end itself and a tier policy routes around it\n");
    return false;
  }
  return !opt.deck_path.empty();
}

// One explicit wire section / receiver load of an `xnet` (paths are child
// index chains below the root branch, already parsed).
struct DeckSection {
  std::vector<std::size_t> path;
  double r_ohm = 0.0;
  double l_nh = 0.0;
  double c_ff = 0.0;
  bool lumped = false;
};

struct DeckLoad {
  std::vector<std::size_t> path;
  double cload_ff = 0.0;
};

// One parsed deck net — either the geometry form (length/width through the
// wire model) or the explicit-parasitics form (xnet/xsec/xload stanzas).
// Net construction is deferred to request build time so a malformed
// geometry surfaces as a per-net Outcome failure, not a deck-parse abort.
struct DeckNet {
  std::string label;
  double driver_size = 0.0;
  double slew_ps = 0.0;
  double length_mm = 0.0;
  double width_um = 0.0;
  double cload_ff = 0.0;
  bool explicit_net = false;
  std::vector<DeckSection> sections;
  std::vector<DeckLoad> loads;
};

struct DeckCouple {
  std::string a;
  std::string b;
  double cc_ff = 0.0;
  double k = 0.0;          // optional inductive coupling coefficient
  std::size_t sec_a = 0;   // optional depth-first section addresses
  std::size_t sec_b = 0;
};

struct Deck {
  std::vector<DeckNet> nets;
  std::vector<DeckCouple> couples;
  std::map<std::string, std::string> aggressors;  // label -> rise|fall|quiet
};

// Branch fan-outs and section counts are tiny in practice; bounding the
// parsed indices keeps a corrupt deck from driving children.resize() into
// gigabytes (or strtoul's ULONG_MAX clamp into out-of-bounds indexing).
constexpr unsigned long kMaxDeckIndex = 4096;

// Parses "root", "root/0", "root/1/0", ... into the child index chain below
// the root branch.  Returns false on malformed or absurd paths.
bool parse_branch_path(const std::string& text, std::vector<std::size_t>& out) {
  out.clear();
  if (text == "root") return true;
  if (text.rfind("root/", 0) != 0) return false;
  std::size_t begin = 5;
  while (begin <= text.size()) {
    const std::size_t slash = text.find('/', begin);
    const std::string part = text.substr(begin, slash == std::string::npos
                                                    ? std::string::npos
                                                    : slash - begin);
    if (part.empty()) return false;
    char* end = nullptr;
    const unsigned long index = std::strtoul(part.c_str(), &end, 10);
    if (end == part.c_str() || *end != '\0' || index > kMaxDeckIndex) return false;
    out.push_back(static_cast<std::size_t>(index));
    if (slash == std::string::npos) return true;
    begin = slash + 1;
  }
  return false;
}

// Strict numeric token parse (strtod accepting the whole token).
bool parse_number(const std::string& token, double& out) {
  char* end = nullptr;
  out = std::strtod(token.c_str(), &end);
  return end != token.c_str() && *end == '\0';
}

// Strict base-10 integer token parse: "12abc" is a typo, not 12, and an
// out-of-range value is refused rather than saturated.
bool parse_integer(const std::string& token, long long& out) {
  char* end = nullptr;
  errno = 0;
  out = std::strtoll(token.c_str(), &end, 10);
  return end != token.c_str() && *end == '\0' && errno == 0;
}

// Strict field extraction for every deck line's numeric fields: a whole
// whitespace-delimited token must parse as a number ("20abc" is a typo, not
// a 20 followed by ignorable junk).
bool next_number(std::istringstream& fields, double& out) {
  std::string token;
  return (fields >> token) && parse_number(token, out);
}

bool at_line_end(std::istringstream& fields) {
  std::string trailing;
  return !(fields >> trailing);
}

// Returns 0 on success, 1 on malformed decks, 2 on duplicate net labels.
int read_deck(const std::string& path, Deck& deck) {
  std::ifstream in(path);
  if (!in.good()) {
    std::fprintf(stderr, "cannot open deck file: %s\n", path.c_str());
    return 1;
  }
  auto net_named = [&deck](const std::string& label) -> DeckNet* {
    for (DeckNet& net : deck.nets) {
      if (net.label == label) return &net;
    }
    return nullptr;
  };
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream fields(line);
    std::string head;
    if (!(fields >> head)) continue;  // blank/comment-only line

    if (head == "couple") {
      DeckCouple couple;
      if (!(fields >> couple.a >> couple.b) || !next_number(fields, couple.cc_ff)) {
        std::fprintf(stderr,
                     "%s:%zu: expected 'couple netA netB cc_ff [k [secA secB]]'\n",
                     path.c_str(), line_no);
        return 1;
      }
      // The trailing fields are optional, but a malformed token must not be
      // silently dropped as "absent".
      std::vector<std::string> rest;
      for (std::string token; fields >> token;) rest.push_back(token);
      if (rest.size() != 0 && rest.size() != 1 && rest.size() != 3) {
        std::fprintf(stderr,
                     "%s:%zu: expected 'couple netA netB cc_ff [k [secA secB]]'\n",
                     path.c_str(), line_no);
        return 1;
      }
      if (!rest.empty() && !parse_number(rest[0], couple.k)) {
        std::fprintf(stderr, "%s:%zu: malformed coupling coefficient '%s'\n",
                     path.c_str(), line_no, rest[0].c_str());
        return 1;
      }
      if (rest.size() == 3) {
        double sec_a = 0.0;
        double sec_b = 0.0;
        // Bound *before* casting: converting a NaN or out-of-range double
        // to size_t is undefined behavior, so the range check must run on
        // the doubles (the >= / <= pair also rejects NaN).
        auto valid_index = [](double v) {
          return v >= 0.0 && v <= static_cast<double>(kMaxDeckIndex) &&
                 v == std::floor(v);
        };
        if (!parse_number(rest[1], sec_a) || !parse_number(rest[2], sec_b) ||
            !valid_index(sec_a) || !valid_index(sec_b)) {
          std::fprintf(stderr, "%s:%zu: malformed section addresses '%s %s'\n",
                       path.c_str(), line_no, rest[1].c_str(), rest[2].c_str());
          return 1;
        }
        couple.sec_a = static_cast<std::size_t>(sec_a);
        couple.sec_b = static_cast<std::size_t>(sec_b);
      }
      // A line with zero capacitance *and* zero k couples nothing — reject
      // it here, because the zero fields legitimately skip the couple_*
      // calls (and with them the per-slot validation that would otherwise
      // have flagged the typo).
      if (couple.cc_ff == 0.0 && couple.k == 0.0) {
        std::fprintf(stderr,
                     "%s:%zu: couple line carries no coupling element (cc_ff and k "
                     "both zero)\n",
                     path.c_str(), line_no);
        return 1;
      }
      deck.couples.push_back(std::move(couple));
      continue;
    }
    if (head == "xnet") {
      DeckNet net;
      net.explicit_net = true;
      if (!(fields >> net.label) || !next_number(fields, net.driver_size) ||
          !next_number(fields, net.slew_ps) || !at_line_end(fields)) {
        std::fprintf(stderr, "%s:%zu: expected 'xnet label size slew_ps'\n",
                     path.c_str(), line_no);
        return 1;
      }
      if (net_named(net.label) != nullptr) {
        std::fprintf(stderr,
                     "%s:%zu: duplicate net label '%s' (labels identify result "
                     "slots and must be unique)\n",
                     path.c_str(), line_no, net.label.c_str());
        return 2;
      }
      deck.nets.push_back(std::move(net));
      continue;
    }
    if (head == "xsec" || head == "xload") {
      std::string label, path_text;
      if (!(fields >> label >> path_text)) {
        std::fprintf(stderr, "%s:%zu: expected '%s label path ...'\n", path.c_str(),
                     line_no, head.c_str());
        return 1;
      }
      DeckNet* net = net_named(label);
      if (net == nullptr || !net->explicit_net) {
        std::fprintf(stderr, "%s:%zu: %s references %s net '%s'\n", path.c_str(),
                     line_no, head.c_str(),
                     net == nullptr ? "unknown" : "non-explicit", label.c_str());
        return 1;
      }
      std::vector<std::size_t> branch_path;
      if (!parse_branch_path(path_text, branch_path)) {
        std::fprintf(stderr, "%s:%zu: malformed branch path '%s'\n", path.c_str(),
                     line_no, path_text.c_str());
        return 1;
      }
      if (head == "xload") {
        DeckLoad load;
        load.path = std::move(branch_path);
        if (!next_number(fields, load.cload_ff) || !at_line_end(fields)) {
          std::fprintf(stderr, "%s:%zu: expected 'xload label path cload_ff'\n",
                       path.c_str(), line_no);
          return 1;
        }
        net->loads.push_back(std::move(load));
      } else {
        DeckSection section;
        section.path = std::move(branch_path);
        if (!next_number(fields, section.r_ohm) || !next_number(fields, section.l_nh) ||
            !next_number(fields, section.c_ff)) {
          std::fprintf(stderr,
                       "%s:%zu: expected 'xsec label path r_ohm l_nh c_ff [lumped]'\n",
                       path.c_str(), line_no);
          return 1;
        }
        if (std::string flag; fields >> flag) {
          if (flag != "lumped" || !at_line_end(fields)) {
            std::fprintf(stderr, "%s:%zu: unknown section flag '%s'\n", path.c_str(),
                         line_no, flag.c_str());
            return 1;
          }
          section.lumped = true;
        }
        net->sections.push_back(std::move(section));
      }
      continue;
    }
    if (head == "aggressor") {
      std::string label, mode;
      if (!(fields >> label >> mode) ||
          (mode != "rise" && mode != "fall" && mode != "quiet") || !at_line_end(fields)) {
        std::fprintf(stderr, "%s:%zu: expected 'aggressor net rise|fall|quiet'\n",
                     path.c_str(), line_no);
        return 1;
      }
      if (!deck.aggressors.emplace(label, mode).second) {
        std::fprintf(stderr,
                     "%s:%zu: net '%s' already has an aggressor directive\n",
                     path.c_str(), line_no, label.c_str());
        return 1;
      }
      continue;
    }

    DeckNet net;
    net.label = std::move(head);
    if (!next_number(fields, net.driver_size) || !next_number(fields, net.slew_ps) ||
        !next_number(fields, net.length_mm) || !next_number(fields, net.width_um) ||
        !next_number(fields, net.cload_ff) || !at_line_end(fields)) {
      std::fprintf(stderr, "%s:%zu: expected 'label size slew_ps length_mm "
                           "width_um cload_ff'\n",
                   path.c_str(), line_no);
      return 1;
    }
    for (const DeckNet& seen : deck.nets) {
      if (seen.label == net.label) {
        std::fprintf(stderr,
                     "%s:%zu: duplicate net label '%s' (labels identify result "
                     "slots and must be unique)\n",
                     path.c_str(), line_no, net.label.c_str());
        return 2;
      }
    }
    deck.nets.push_back(std::move(net));
  }
  return 0;
}

std::size_t net_index(const Deck& deck, const std::string& label) {
  for (std::size_t k = 0; k < deck.nets.size(); ++k) {
    if (deck.nets[k].label == label) return k;
  }
  return deck.nets.size();
}

// Connected components of the `couple` graph: component_of[i] is the group
// id of deck net i, or npos for plain (uncoupled) nets.
std::vector<std::size_t> coupled_components(const Deck& deck) {
  constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::vector<std::size_t> parent(deck.nets.size());
  for (std::size_t k = 0; k < parent.size(); ++k) parent[k] = k;
  std::function<std::size_t(std::size_t)> find = [&](std::size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  std::vector<bool> coupled(deck.nets.size(), false);
  for (const DeckCouple& c : deck.couples) {
    const std::size_t a = net_index(deck, c.a);
    const std::size_t b = net_index(deck, c.b);
    parent[find(a)] = find(b);
    coupled[a] = coupled[b] = true;
  }
  std::vector<std::size_t> component(deck.nets.size(), npos);
  for (std::size_t k = 0; k < deck.nets.size(); ++k) {
    if (coupled[k]) component[k] = find(k);
  }
  return component;
}

core::AggressorSwitching switching_from(const std::string& mode) {
  if (mode == "rise") return core::AggressorSwitching::same_direction;
  if (mode == "fall") return core::AggressorSwitching::opposite;
  return core::AggressorSwitching::quiet;
}

// Unlike the bench-side helper (identifier-like inputs only), CLI strings
// come from user decks and exception messages, so control bytes must become
// \u escapes for the document to stay valid JSON.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(static_cast<char>(c));
    } else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(static_cast<char>(c));
    }
  }
  return out;
}

const char* kind_name(core::ModelKind kind) {
  switch (kind) {
    case core::ModelKind::one_ramp:
      return "one-ramp";
    case core::ModelKind::two_ramp:
      return "two-ramp";
    case core::ModelKind::three_ramp:
      break;
  }
  return "three-ramp";
}

// --lint --json document: one record per result slot, each diagnostic as a
// structured object.  "failed" counts slots with at least one error-severity
// finding (the exit-code contract: 0 when failed == 0, else 2).
void print_lint_json(const CliOptions& cli, const std::vector<DeckNet>& slots,
                     const std::vector<lint::Report>& reports,
                     std::size_t failed) {
  std::printf("{\n  \"deck\": \"%s\",\n  \"lint\": true,\n  \"nets\": [",
              json_escape(cli.deck_path).c_str());
  for (std::size_t k = 0; k < reports.size(); ++k) {
    const lint::Report& report = reports[k];
    std::printf("%s\n    {\"label\": \"%s\", \"ok\": %s, \"errors\": %zu, "
                "\"warnings\": %zu, \"diagnostics\": [",
                k == 0 ? "" : ",", json_escape(slots[k].label).c_str(),
                report.clean() ? "true" : "false",
                report.count(lint::Severity::error),
                report.count(lint::Severity::warn));
    for (std::size_t d = 0; d < report.diagnostics.size(); ++d) {
      const lint::Diagnostic& diag = report.diagnostics[d];
      std::printf("%s\n      {\"code\": \"%s\", \"severity\": \"%s\", "
                  "\"family\": \"%s\", \"path\": \"%s\", \"message\": \"%s\", "
                  "\"hint\": \"%s\"}",
                  d == 0 ? "" : ",", lint::to_string(diag.code),
                  lint::to_string(diag.severity), lint::family(diag.code),
                  json_escape(diag.path).c_str(),
                  json_escape(diag.message).c_str(),
                  json_escape(diag.hint).c_str());
    }
    std::printf("%s]}", report.diagnostics.empty() ? "" : "\n    ");
  }
  std::printf("\n  ],\n  \"failed\": %zu\n}\n", failed);
}

// Answered slots per serving tier, and the escalations they took, for the
// summary line of a tiered run.
struct TierSummary {
  std::size_t served[3] = {0, 0, 0};  // indexed by tier::Tier
  std::size_t escalations = 0;

  std::size_t at(tier::Tier t) const { return served[static_cast<std::size_t>(t)]; }
};

TierSummary summarize_tiers(const std::vector<api::Outcome<api::Response>>& results) {
  TierSummary summary;
  for (const api::Outcome<api::Response>& outcome : results) {
    if (!outcome.ok()) continue;
    ++summary.served[static_cast<std::size_t>(outcome.value().tier)];
    summary.escalations += outcome.value().tier_escalations;
  }
  return summary;
}

void print_json(const CliOptions& cli, const std::vector<DeckNet>& slots,
                const std::vector<std::string>& build_errors,
                const std::vector<api::Outcome<api::Response>>& results,
                std::size_t failed) {
  std::printf("{\n  \"deck\": \"%s\",\n  \"reference\": %s,\n  \"nets\": [",
              json_escape(cli.deck_path).c_str(), cli.reference ? "true" : "false");
  for (std::size_t k = 0; k < results.size(); ++k) {
    std::printf("%s\n    {\"label\": \"%s\", ", k == 0 ? "" : ",",
                json_escape(slots[k].label).c_str());
    if (!results[k].ok()) {
      const api::ErrorInfo& e = results[k].error();
      const std::string& message =
          build_errors[k].empty() ? e.message : build_errors[k];
      std::printf("\"ok\": false, \"error_code\": \"%s\", "
                  "\"error\": {\"code\": \"%s\", \"message\": \"%s\"}}",
                  api::to_string(e.code), api::to_string(e.code),
                  json_escape(message).c_str());
      continue;
    }
    const api::Response& r = results[k].value();
    // --reference documents compare the model (delay_ps) with the simulation
    // (ref_delay_ps); otherwise delay_ps is the slot's answer, simulated when
    // the cascade served it from Tier C.
    const core::EdgeMetrics& near = cli.reference ? r.model_near : r.answer_near();
    std::printf("\"ok\": true, \"model\": \"%s\", \"fidelity\": \"%s\", "
                "\"degraded\": %s, \"delay_ps\": %.4f, \"slew_ps\": %.4f",
                kind_name(r.model.kind), api::to_string(r.fidelity),
                r.degraded ? "true" : "false", near.delay / ps, near.slew / ps);
    if (cli.tier != tier::TierPolicy::reference) {
      std::printf(", \"tier\": \"%s\", \"tier_escalations\": %zu",
                  tier::to_string(r.tier), r.tier_escalations);
      if (r.has_noise_bound) {
        std::printf(", \"noise_bound_mv\": %.4f", r.noise_bound / 1e-3);
      }
    }
    if (r.has_coupling) {
      std::printf(", \"coupled\": true, \"delay_pushout_model_ps\": %.4f",
                  r.delay_pushout_model / ps);
    }
    if (r.has_solver) {
      std::printf(", \"solver\": \"%s\"", sim::to_string(r.solver));
    }
    if (r.has_model_far) {
      std::printf(", \"far_delay_ps\": %.4f, \"far_slew_ps\": %.4f",
                  r.model_far.delay / ps, r.model_far.slew / ps);
    }
    if (r.has_reference) {
      std::printf(", \"ref_delay_ps\": %.4f, \"ref_slew_ps\": %.4f",
                  r.ref_near.delay / ps, r.ref_near.slew / ps);
      if (r.has_coupling) {
        std::printf(", \"delay_pushout_ps\": %.4f, \"peak_noise_mv\": %.4f",
                    r.delay_pushout / ps, r.peak_noise / 1e-3);
      }
    }
    std::printf("}");
  }
  std::printf("\n  ],\n  \"failed\": %zu", failed);
  if (cli.tier != tier::TierPolicy::reference) {
    const TierSummary tiers = summarize_tiers(results);
    std::printf(",\n  \"tier_policy\": \"%s\",\n  \"tiers\": "
                "{\"a\": %zu, \"b\": %zu, \"c\": %zu, \"escalations\": %zu}",
                tier::to_string(cli.tier), tiers.at(tier::Tier::analytical),
                tiers.at(tier::Tier::ceff), tiers.at(tier::Tier::reference),
                tiers.escalations);
  }
  std::printf("\n}\n");
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  if (!parse_args(argc, argv, cli)) {
    usage(argv[0]);
    return 1;
  }

  Deck deck;
  if (const int status = read_deck(cli.deck_path, deck); status != 0) return status;
  if (deck.nets.empty()) {
    std::fprintf(stderr, "deck %s holds no nets\n", cli.deck_path.c_str());
    return 1;
  }
  for (const DeckCouple& c : deck.couples) {
    for (const std::string& label : {c.a, c.b}) {
      if (net_index(deck, label) == deck.nets.size()) {
        std::fprintf(stderr, "deck %s: couple references unknown net '%s'\n",
                     cli.deck_path.c_str(), label.c_str());
        return 1;
      }
    }
  }
  const std::vector<std::size_t> component = coupled_components(deck);
  for (const auto& [label, mode] : deck.aggressors) {
    const std::size_t index = net_index(deck, label);
    if (index == deck.nets.size()) {
      std::fprintf(stderr, "deck %s: aggressor references unknown net '%s'\n",
                   cli.deck_path.c_str(), label.c_str());
      return 1;
    }
    if (component[index] == static_cast<std::size_t>(-1)) {
      std::fprintf(stderr, "deck %s: aggressor '%s' is not coupled to any net\n",
                   cli.deck_path.c_str(), label.c_str());
      return 1;
    }
  }
  // Every coupled group needs at least one victim, or its nets would be
  // silently dropped from the results.
  for (std::size_t k = 0; k < deck.nets.size(); ++k) {
    if (component[k] == static_cast<std::size_t>(-1)) continue;
    bool has_victim = false;
    for (std::size_t m = 0; m < deck.nets.size(); ++m) {
      if (component[m] == component[k] &&
          deck.aggressors.count(deck.nets[m].label) == 0) {
        has_victim = true;
        break;
      }
    }
    if (!has_victim) {
      std::fprintf(stderr,
                   "deck %s: every net coupled to '%s' is marked aggressor — the "
                   "group has no victim to report\n",
                   cli.deck_path.c_str(), deck.nets[k].label.c_str());
      return 1;
    }
  }

  // In JSON mode stdout carries only the document.
  FILE* info = cli.json ? stderr : stdout;

  api::Engine engine{tech::Technology::cmos180()};
  if (!cli.library_path.empty()) {
    try {
      if (engine.load_library(cli.library_path)) {
        std::fprintf(info, "# loaded %zu cell(s) from %s\n", engine.library().size(),
                     cli.library_path.c_str());
      }
    } catch (const Error& e) {
      std::fprintf(stderr, "# ignoring unreadable library %s: %s\n",
                   cli.library_path.c_str(), e.what());
    }
  }

  api::BatchOptions options;
  options.n_threads = cli.n_threads;
  options.batch_scenarios = cli.batch_scenarios;
  if (cli.small_grid) {
    options.grid.input_slews = {50 * ps, 100 * ps, 200 * ps};
    options.grid.loads = {50 * ff, 200 * ff, 500 * ff, 1 * pf, 2 * pf, 4 * pf};
  }

  const tech::WireModel wires;
  auto build_net = [&](const DeckNet& n) -> net::Net {
    if (!n.explicit_net) {
      return tech::line_net(wires.extract({n.length_mm * mm, n.width_um * um}),
                            n.cload_ff * ff);
    }
    // Explicit form: assemble the branch tree the xsec/xload paths describe
    // (branches materialize on first reference; net::Net validation rejects
    // gaps and empty branches with messages naming the path).
    net::Branch root;
    auto branch_at = [&root](const std::vector<std::size_t>& path) -> net::Branch& {
      net::Branch* branch = &root;
      for (std::size_t index : path) {
        if (branch->children.size() <= index) branch->children.resize(index + 1);
        branch = &branch->children[index];
      }
      return *branch;
    };
    for (const DeckSection& s : n.sections) {
      branch_at(s.path).sections.push_back(
          {s.r_ohm, s.l_nh * nh, s.c_ff * ff,
           s.lumped ? net::SectionKind::lumped : net::SectionKind::distributed});
    }
    for (const DeckLoad& l : n.loads) {
      branch_at(l.path).c_load += l.cload_ff * ff;
    }
    return net::Net(std::move(root));
  };

  // One result slot per plain net and per coupled victim, in deck order.
  // Invalid geometry (e.g. a zero-length net) must not abort the batch: the
  // construction error (which names the offending element) is kept per slot
  // and reported in place of the engine's generic empty-net rejection.
  std::vector<DeckNet> slots;
  std::vector<api::Request> requests;
  std::vector<std::string> build_errors;
  std::vector<std::optional<lint::Diagnostic>> build_diags;
  for (std::size_t k = 0; k < deck.nets.size(); ++k) {
    const DeckNet& net = deck.nets[k];
    if (deck.aggressors.count(net.label) != 0) continue;  // shapes victims only
    api::Request r;
    r.label = net.label;
    r.cell_size = net.driver_size;
    r.input_slew = net.slew_ps * ps;
    r.reference = cli.reference;
    r.tier = cli.tier;
    r.far_end = false;
    // Model-only far-end replay; coupled victims stay near-end-only (the
    // replay is a single-net transient).
    r.far_end_replay = cli.far_end && component[k] == static_cast<std::size_t>(-1);
    r.solver = cli.solver;
    r.budget.wall_limit_s = cli.deadline_ms * 1e-3;
    r.budget.max_transient_steps = cli.max_steps;
    r.degrade.enabled = cli.degrade;
    if (cli.lint_screen) {
      // Arm the admission screen at warn severity with the deep passes on.
      // Error-grade structural breakage already failed net construction
      // above (invalid_request); what the screen adds is rejecting the
      // simulatable-but-suspicious slots before they cost a solve.
      r.lint.screen = true;
      r.lint.report = true;
      r.lint.fail_at = lint::Severity::warn;
      r.lint.checks = lint::Options{};  // conditioning + model passes on
    }
    std::string build_error;
    std::optional<lint::Diagnostic> build_diag;
    try {
      if (component[k] == static_cast<std::size_t>(-1)) {
        r.net = build_net(net);
      } else {
        // Assemble this victim's coupled group: every member of its
        // component in deck order, with the victim's own index tracked.
        net::CoupledGroup group;
        std::vector<std::size_t> members;
        for (std::size_t m = 0; m < deck.nets.size(); ++m) {
          if (component[m] != component[k]) continue;
          group.add_net(build_net(deck.nets[m]), deck.nets[m].label);
          members.push_back(m);
        }
        for (const DeckCouple& c : deck.couples) {
          const std::size_t a = net_index(deck, c.a);
          if (component[a] != component[k]) continue;
          const net::SectionRef ra{group.index_of(c.a), c.sec_a};
          const net::SectionRef rb{group.index_of(c.b), c.sec_b};
          // A zero field means this line carries only the other element.
          if (c.cc_ff != 0.0) group.couple_capacitance(ra, rb, c.cc_ff * ff);
          if (c.k != 0.0) group.couple_inductance(ra, rb, c.k);
        }
        for (std::size_t m : members) {
          const DeckNet& other = deck.nets[m];
          const auto mode = deck.aggressors.find(other.label);
          if (m == k || mode == deck.aggressors.end()) continue;
          r.aggressors.push_back({group.index_of(other.label), other.driver_size,
                                  other.slew_ps * ps, switching_from(mode->second)});
        }
        r.victim = group.index_of(net.label);
        r.group = std::move(group);
      }
    } catch (const lint::DiagnosticError& e) {
      // A validating constructor refused the slot: keep the structured
      // Diagnostic for --lint output as well as the message.
      build_error = e.what();
      build_diag = e.diagnostic();
    } catch (const Error& e) {
      build_error = e.what();
    }
    slots.push_back(net);
    requests.push_back(std::move(r));
    build_errors.push_back(std::move(build_error));
    build_diags.push_back(std::move(build_diag));
  }

  if (requests.empty()) {
    std::fprintf(stderr, "deck %s defines no result slots (every net is an "
                         "aggressor)\n",
                 cli.deck_path.c_str());
    return 1;
  }

  // Lint-only mode: run the full static pass (structural core plus the
  // conditioning and model families) per slot and exit — no engine run, no
  // characterization, no transient.  A slot whose net construction already
  // threw reports the refused Diagnostic (or an invalid_input record when
  // the failure happened outside the taxonomy, e.g. the wire-model geometry
  // checks).
  if (cli.lint) {
    std::vector<lint::Report> reports(requests.size());
    for (std::size_t k = 0; k < requests.size(); ++k) {
      if (build_diags[k].has_value()) {
        reports[k].diagnostics.push_back(*build_diags[k]);
      } else if (!build_errors[k].empty()) {
        reports[k].diagnostics.push_back(lint::make_diagnostic(
            lint::Code::invalid_input, "", build_errors[k],
            "fix the deck line the message names"));
      } else {
        lint::Options checks;  // deep passes on: conditioning + model
        checks.driver_resistance = lint::estimate_driver_resistance(
            engine.technology(), requests[k].cell_size);
        checks.input_slew = requests[k].input_slew;
        checks.tier_policy = cli.tier;
        reports[k] = requests[k].coupled()
                         ? lint::lint_group(requests[k].group, checks)
                         : lint::lint_net(requests[k].net, checks);
      }
    }
    std::size_t lint_failed = 0;
    for (const lint::Report& report : reports) {
      if (!report.clean()) ++lint_failed;
    }
    if (cli.json) {
      print_lint_json(cli, slots, reports, lint_failed);
    } else {
      for (std::size_t k = 0; k < reports.size(); ++k) {
        const lint::Report& report = reports[k];
        std::printf("%-12s %zu error(s), %zu warning(s), %zu note(s)\n",
                    slots[k].label.c_str(), report.count(lint::Severity::error),
                    report.count(lint::Severity::warn),
                    report.count(lint::Severity::info));
        for (const lint::Diagnostic& d : report.diagnostics) {
          std::printf("    %s\n", lint::format(d).c_str());
        }
      }
      std::printf("# %zu slot(s), %zu failed lint\n", reports.size(), lint_failed);
    }
    return lint_failed == 0 ? 0 : 2;
  }

  const std::vector<api::Outcome<api::Response>> results =
      engine.run_batch(requests, options);

  std::size_t failed = 0;
  for (const api::Outcome<api::Response>& outcome : results) {
    if (!outcome.ok()) ++failed;
  }

  if (cli.json) {
    print_json(cli, slots, build_errors, results, failed);
  } else {
    if (cli.reference) {
      std::printf("%-12s %-9s %11s %11s %11s %11s\n", "net", "model", "delay [ps]",
                  "slew [ps]", "ref d [ps]", "ref s [ps]");
    } else {
      std::printf("%-12s %-9s %11s %11s\n", "net", "model", "delay [ps]",
                  "slew [ps]");
    }
    for (std::size_t k = 0; k < results.size(); ++k) {
      if (!results[k].ok()) {
        const api::ErrorInfo& e = results[k].error();
        const std::string& message =
            build_errors[k].empty() ? e.message : build_errors[k];
        std::printf("%-12s ERROR [%s]: %s\n", slots[k].label.c_str(),
                    api::to_string(e.code), message.c_str());
        continue;
      }
      const api::Response& r = results[k].value();
      if (cli.reference) {
        std::printf("%-12s %-9s %11.2f %11.2f %11.2f %11.2f\n", r.label.c_str(),
                    kind_name(r.model.kind), r.model_near.delay / ps,
                    r.model_near.slew / ps, r.ref_near.delay / ps,
                    r.ref_near.slew / ps);
      } else {
        std::printf("%-12s %-9s %11.2f %11.2f\n", r.label.c_str(),
                    kind_name(r.model.kind), r.answer_near().delay / ps,
                    r.answer_near().slew / ps);
      }
      if (r.degraded) {
        std::printf("#   %s: degraded to %s after %zu abandoned attempt(s)\n",
                    r.label.c_str(), api::to_string(r.fidelity),
                    r.attempts.size());
      }
      if (r.has_model_far) {
        std::printf("#   %s: far end (replay) delay %.2f ps, slew %.2f ps\n",
                    r.label.c_str(), r.model_far.delay / ps,
                    r.model_far.slew / ps);
      }
      if (r.has_coupling) {
        std::printf("#   %s: coupled victim, model pushout %+.2f ps",
                    r.label.c_str(), r.delay_pushout_model / ps);
        if (r.has_reference) {
          std::printf(", sim pushout %+.2f ps, peak noise %.1f mV",
                      r.delay_pushout / ps, r.peak_noise / 1e-3);
        }
        std::printf("\n");
      }
    }
    if (cli.tier != tier::TierPolicy::reference) {
      const TierSummary tiers = summarize_tiers(results);
      std::printf("# tiers served (%s): a=%zu b=%zu c=%zu, %zu escalation(s)\n",
                  tier::to_string(cli.tier), tiers.at(tier::Tier::analytical),
                  tiers.at(tier::Tier::ceff), tiers.at(tier::Tier::reference),
                  tiers.escalations);
    }
    std::printf("# %zu net(s), %zu failed\n", results.size(), failed);
  }

  if (!cli.library_path.empty()) {
    engine.save_library(cli.library_path);
    std::fprintf(info, "# saved %zu cell(s) to %s\n", engine.library().size(),
                 cli.library_path.c_str());
  }
  return failed == 0 ? 0 : 2;
}
