#include "testkit/generate.h"

#include <algorithm>
#include <cstdio>

#include "core/coupled_experiment.h"
#include "tech/wire.h"
#include "util/units.h"

namespace rlceff::testkit {

namespace {

using namespace rlceff::units;

// Drawing driver sizes from a fixed menu keeps the number of distinct cell
// characterizations bounded (six tables serve the whole sweep).
constexpr double kCellSizes[] = {25.0, 50.0, 75.0, 100.0, 150.0, 200.0};

// One distributed span extracted from a random (length, width) geometry —
// the realistic RLC range of the paper's plane.
net::Section random_span(Rng& rng, double length_lo_mm, double length_hi_mm) {
  const tech::WireModel wires;
  const double length = rng.uniform(length_lo_mm, length_hi_mm) * mm;
  const double width = rng.uniform(0.8, 3.2) * um;
  const tech::WireParasitics p = wires.extract({length, width});
  return {p.resistance, p.inductance, p.capacitance, net::SectionKind::distributed};
}

double random_load(Rng& rng) { return rng.log_uniform(5 * ff, 500 * ff); }

net::Branch random_tree_branch(Rng& rng, std::size_t depth, std::size_t fanout,
                               bool lumped, bool is_root) {
  net::Branch branch;
  if (lumped) {
    // Tree-flow branches: one lumped RLC segment each, the way an RLC tree
    // is written as a net::Net.
    branch.sections.push_back({rng.log_uniform(5.0, 200.0),
                               rng.log_uniform(0.05 * nh, 2 * nh),
                               rng.log_uniform(5 * ff, 200 * ff),
                               net::SectionKind::lumped});
  } else {
    branch.sections.push_back(random_span(rng, is_root ? 1.0 : 0.3, is_root ? 4.0 : 1.2));
  }
  if (depth == 0) {
    // Leaf receivers stay small so even wide trees keep the total load
    // within the characterization grid's envelope.
    branch.c_load = rng.log_uniform(5 * ff, 100 * ff);
    return branch;
  }
  branch.children.reserve(fanout);
  for (std::size_t k = 0; k < fanout; ++k) {
    branch.children.push_back(random_tree_branch(rng, depth - 1, fanout, lumped, false));
  }
  return branch;
}

}  // namespace

NetRecipe random_net_recipe(Rng& rng) {
  NetRecipe recipe;
  switch (rng.uniform_index(3)) {
    case 0:
      recipe.topology = Topology::uniform_line;
      break;
    case 1:
      recipe.topology = Topology::multi_section;
      recipe.sections = static_cast<std::size_t>(rng.uniform_int(2, 5));
      break;
    default:
      // Depth and fanout bound each other so the largest tree stays at
      // seven branches — big enough to exercise branching, small enough
      // that the sim-backed oracles stay fast.
      recipe.topology = Topology::tree;
      recipe.depth = static_cast<std::size_t>(rng.uniform_int(1, 2));
      recipe.fanout =
          recipe.depth == 2 ? 2 : static_cast<std::size_t>(rng.uniform_int(2, 3));
      recipe.lumped = rng.chance(0.35);
      break;
  }
  recipe.seed = rng.next_u64();
  return recipe;
}

net::Net instantiate(const NetRecipe& recipe) {
  Rng rng(recipe.seed);
  switch (recipe.topology) {
    case Topology::uniform_line: {
      const net::Section s = random_span(rng, 1.0, 10.0);
      return net::Net::uniform_line(s.resistance, s.inductance, s.capacitance,
                                    random_load(rng));
    }
    case Topology::multi_section: {
      // A width-tapered route: total length split across the sections, each
      // with its own width draw.
      std::vector<net::Section> sections;
      const std::size_t n = std::max<std::size_t>(1, recipe.sections);
      sections.reserve(n);
      const double total_mm = rng.uniform(2.0, 8.0);
      for (std::size_t k = 0; k < n; ++k) {
        const double lo = 0.5 * total_mm / static_cast<double>(n);
        const double hi = 1.5 * total_mm / static_cast<double>(n);
        sections.push_back(random_span(rng, lo, hi));
      }
      return net::Net::multi_section(std::move(sections), random_load(rng));
    }
    case Topology::tree:
      break;
  }
  return net::Net(random_tree_branch(rng, recipe.depth,
                                     std::max<std::size_t>(1, recipe.fanout),
                                     recipe.lumped, true));
}

GroupRecipe random_group_recipe(Rng& rng) {
  GroupRecipe recipe;
  const std::size_t n_nets = static_cast<std::size_t>(rng.uniform_int(2, 4));
  recipe.members.reserve(n_nets);
  for (std::size_t k = 0; k < n_nets; ++k) {
    NetRecipe member;
    // Coupling attaches to distributed spans, so members are routed nets.
    if (rng.chance(0.35)) {
      member.topology = Topology::multi_section;
      member.sections = static_cast<std::size_t>(rng.uniform_int(2, 3));
    }
    member.seed = rng.next_u64();
    recipe.members.push_back(member);
  }
  recipe.coupling_caps = static_cast<std::size_t>(rng.uniform_int(1, 3));
  recipe.mutuals = static_cast<std::size_t>(rng.uniform_int(0, 2));
  recipe.seed = rng.next_u64();
  return recipe;
}

net::CoupledGroup instantiate(const GroupRecipe& recipe) {
  ensure(recipe.members.size() >= 2, "testkit: a coupled group needs >= 2 nets");
  net::CoupledGroup group;
  for (std::size_t k = 0; k < recipe.members.size(); ++k) {
    group.add_net(instantiate(recipe.members[k]), "n" + std::to_string(k));
  }

  Rng rng(recipe.seed);
  auto random_ref = [&](std::size_t excluded_net) {
    net::SectionRef ref;
    do {
      ref.net = rng.uniform_index(group.size());
    } while (ref.net == excluded_net);
    ref.section = rng.uniform_index(group.section_count(ref.net));
    return ref;
  };
  auto section_capacitance = [&](const net::SectionRef& ref) {
    // Walk the depth-first section order the SectionRef addresses.
    struct Walk {
      static const net::Section* find(const net::Branch& b, std::size_t& cursor,
                                      std::size_t target) {
        if (target < cursor + b.sections.size()) return &b.sections[target - cursor];
        cursor += b.sections.size();
        for (const net::Branch& child : b.children) {
          if (const net::Section* s = find(child, cursor, target)) return s;
        }
        return nullptr;
      }
    };
    std::size_t cursor = 0;
    const net::Section* s = Walk::find(group.net_at(ref.net).root(), cursor, ref.section);
    ensure(s != nullptr, "testkit: section ref out of range");
    return s->capacitance;
  };

  auto couple_pair = [&](const net::SectionRef& a, const net::SectionRef& b) {
    const double cc =
        rng.uniform(0.05, 0.4) * std::min(section_capacitance(a), section_capacitance(b));
    if (cc > 0.0) group.couple_capacitance(a, b, cc);
  };
  // Backbone chain: every net is coupled to its neighbor, so the group is
  // connected (what a routed bus looks like, and what keeps the CLI's
  // union-find replay grouping identical to the generated group).
  for (std::size_t k = 1; k < group.size(); ++k) {
    net::SectionRef a{k - 1, rng.uniform_index(group.section_count(k - 1))};
    net::SectionRef b{k, rng.uniform_index(group.section_count(k))};
    couple_pair(a, b);
  }
  // Extra random couplings on top of the chain.
  for (std::size_t k = 0; k < recipe.coupling_caps; ++k) {
    const net::SectionRef a = random_ref(group.size());
    couple_pair(a, random_ref(a.net));
  }

  // Mutual couplings must keep every section pair's accumulated coefficient
  // passive; the generator tracks sums instead of relying on rejection.
  std::vector<std::pair<net::SectionRef, net::SectionRef>> pairs;
  std::vector<double> sums;
  for (std::size_t k = 0; k < recipe.mutuals; ++k) {
    const net::SectionRef a = random_ref(group.size());
    const net::SectionRef b = random_ref(a.net);
    const double kk = rng.uniform(0.05, 0.45);
    double seen = 0.0;
    std::size_t slot = pairs.size();
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      const auto& [pa, pb] = pairs[p];
      const bool same = (pa.net == a.net && pa.section == a.section && pb.net == b.net &&
                         pb.section == b.section) ||
                        (pa.net == b.net && pa.section == b.section && pb.net == a.net &&
                         pb.section == a.section);
      if (same) {
        seen = sums[p];
        slot = p;
        break;
      }
    }
    if (seen + kk >= 0.9) continue;  // keep well clear of the passivity bound
    group.couple_inductance(a, b, kk);
    if (slot == pairs.size()) {
      pairs.emplace_back(a, b);
      sums.push_back(kk);
    } else {
      sums[slot] += kk;
    }
  }
  return group;
}

api::Request random_request(Rng& rng, double group_fraction) {
  api::Request request;
  request.cell_size = rng.pick(kCellSizes);
  request.input_slew = rng.uniform(25 * ps, 300 * ps);
  if (rng.chance(group_fraction)) {
    GroupRecipe recipe = random_group_recipe(rng);
    request.label = "pg" + seed_hex(recipe.seed);
    request.group = instantiate(recipe);
    request.victim = rng.uniform_index(request.group.size());
    for (std::size_t k = 0; k < request.group.size(); ++k) {
      if (k == request.victim || rng.chance(0.3)) continue;  // leave some quiet
      api::Aggressor aggressor;
      aggressor.net = k;
      aggressor.cell_size = rng.pick(kCellSizes);
      aggressor.input_slew = rng.uniform(25 * ps, 300 * ps);
      const core::AggressorSwitching modes[] = {core::AggressorSwitching::same_direction,
                                                core::AggressorSwitching::quiet,
                                                core::AggressorSwitching::opposite};
      aggressor.switching = modes[rng.uniform_index(3)];
      request.aggressors.push_back(aggressor);
    }
  } else {
    NetRecipe recipe = random_net_recipe(rng);
    request.label = "pn" + seed_hex(recipe.seed);
    request.net = instantiate(recipe);
  }
  return request;
}

std::vector<NetRecipe> shrink_candidates(const NetRecipe& recipe) {
  std::vector<NetRecipe> out;
  auto with = [&](auto&& edit) {
    NetRecipe smaller = recipe;
    edit(smaller);
    out.push_back(smaller);
  };
  if (recipe.topology != Topology::uniform_line) {
    // Most aggressive first: collapse the whole topology to one span.
    with([](NetRecipe& r) {
      r.topology = Topology::uniform_line;
      r.sections = 1;
      r.depth = 0;
    });
  }
  if (recipe.topology == Topology::multi_section && recipe.sections > 1) {
    with([](NetRecipe& r) { r.sections /= 2; });
  }
  if (recipe.topology == Topology::tree && recipe.depth > 1) {
    with([](NetRecipe& r) { r.depth /= 2; });
  }
  if (recipe.topology == Topology::tree && recipe.fanout > 1) {
    with([](NetRecipe& r) { r.fanout /= 2; });
  }
  return out;
}

std::vector<GroupRecipe> shrink_candidates(const GroupRecipe& recipe) {
  std::vector<GroupRecipe> out;
  auto with = [&](auto&& edit) {
    GroupRecipe smaller = recipe;
    edit(smaller);
    out.push_back(smaller);
  };
  if (recipe.members.size() > 2) {
    with([](GroupRecipe& r) { r.members.pop_back(); });
  }
  if (recipe.coupling_caps > 1) {
    with([](GroupRecipe& r) { r.coupling_caps /= 2; });
  }
  if (recipe.mutuals > 0) {
    with([](GroupRecipe& r) { r.mutuals = 0; });
  }
  for (std::size_t k = 0; k < recipe.members.size(); ++k) {
    for (const NetRecipe& smaller : shrink_candidates(recipe.members[k])) {
      with([&](GroupRecipe& r) { r.members[k] = smaller; });
      break;  // one member shrink per knob keeps the candidate list short
    }
  }
  return out;
}

std::string describe(const NetRecipe& recipe) {
  std::string out = "net{seed=" + seed_hex(recipe.seed);
  switch (recipe.topology) {
    case Topology::uniform_line:
      out += ", uniform_line";
      break;
    case Topology::multi_section:
      out += ", multi_section, sections=" + std::to_string(recipe.sections);
      break;
    case Topology::tree:
      out += ", tree, depth=" + std::to_string(recipe.depth) +
             ", fanout=" + std::to_string(recipe.fanout);
      if (recipe.lumped) out += ", lumped";
      break;
  }
  return out + "}";
}

std::string describe(const GroupRecipe& recipe) {
  std::string out = "group{seed=" + seed_hex(recipe.seed) +
                    ", coupling_caps=" + std::to_string(recipe.coupling_caps) +
                    ", mutuals=" + std::to_string(recipe.mutuals) + ", members=[";
  for (std::size_t k = 0; k < recipe.members.size(); ++k) {
    if (k != 0) out += ", ";
    out += describe(recipe.members[k]);
  }
  return out + "]}";
}

}  // namespace rlceff::testkit
