#include "hexflow/hex_system.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/check.hpp"

namespace cellflow {

namespace {

/// Unit normal for direction slot k (independent of any concrete cell —
/// the lattice is translation-invariant).
Vec2 slot_normal(int k) {
  const auto dq = static_cast<double>(kHexDirections[static_cast<std::size_t>(k)][0]);
  const auto dr = static_cast<double>(kHexDirections[static_cast<std::size_t>(k)][1]);
  constexpr double kSqrt3 = 1.7320508075688772;
  const Vec2 delta{kSqrt3 * (dq + dr / 2.0), 1.5 * dr};
  const double len = std::hypot(delta.x, delta.y);
  return Vec2{delta.x / len, delta.y / len};
}

double dot(Vec2 a, Vec2 b) { return a.x * b.x + a.y * b.y; }

}  // namespace

bool hex_feasible(const Params& params) noexcept {
  return params.center_spacing() + params.velocity() <= kHexInradius &&
         params.entity_length() <= kHexInradius;
}

HexSystem::HexSystem(HexSystemConfig config)
    : LatticeSystem(HexGrid(config.side), config.params, config.target,
                    std::move(config.sources)) {
  CF_EXPECTS_MSG(hex_feasible(params()),
                 "hex feasibility: d + v <= inradius and l <= inradius");
}

double HexSystem::edge_distance(HexId self, HexId toward, Vec2 p) const {
  const Vec2 n = grid().edge_normal(self, toward);
  return kHexInradius - dot(p - grid().center(self), n);
}

bool HexSystem::inside_hex(HexId id, Vec2 p, double eps) const {
  const Vec2 c = grid().center(id);
  for (int k = 0; k < 6; ++k) {
    if (dot(p - c, slot_normal(k)) > kHexInradius + eps) return false;
  }
  return true;
}

bool HexSystem::strip_clear(HexId self, HexId toward) const {
  const double need =
      params().center_spacing() + params().velocity();  // d + v (see header)
  for (const HexEntity& p : cell(self).members) {
    if (edge_distance(self, toward, p.center) < need) return false;
  }
  return true;
}

void HexSystem::move_cell(HexCellState& c, HexId self, HexId dest,
                          bool permitted,
                          std::vector<HexEntity>& crossed) const {
  // Hexagonal movement uses the compaction discipline (see the header's
  // point 1: rigid coupling is unsound near hexagon corners). Entities
  // advance front-to-back along the motion normal; each is capped by the
  // five non-granted edge planes, by the promised-strip margin of this
  // cell's own signal, and by the d-ball of every already-moved
  // cellmate. Crossing the granted edge requires the permission.
  const double d = params().center_spacing();
  const double v = params().velocity();
  const Vec2 n = grid().edge_normal(self, dest);
  const Vec2 cc = grid().center(self);

  // Front-to-back along the motion normal.
  std::sort(c.members.begin(), c.members.end(),
            [&](const HexEntity& a, const HexEntity& b) {
              return dot(a.center - cc, n) > dot(b.center - cc, n);
            });

  // Crossed entities still constrain the entities behind them: two
  // cellmates can cross in the same round and land in the same
  // destination cell, so the d-spacing cap must hold against every
  // already-processed entity, not just the ones that stayed.
  std::vector<Vec2> processed;
  processed.reserve(c.members.size());
  std::size_t kept = 0;
  for (HexEntity p : c.members) {
    double cap = v;
    // Edge-plane caps: for every direction slot, distance to that edge
    // shrinks at rate (n · n_slot) when positive.
    for (int slot = 0; slot < 6; ++slot) {
      const Vec2 ns = slot_normal(slot);
      const double rate = dot(n, ns);
      if (rate <= 1e-12) continue;
      const double dist_to_edge = kHexInradius - dot(p.center - cc, ns);
      const auto nb = grid().neighbor(self, slot);
      double floor_dist = 0.0;  // may reach the plane, not beyond
      if (nb && *nb == dest && permitted) {
        continue;  // the granted edge: crossing allowed
      }
      if (c.signal.has_value() && nb && *nb == *c.signal) {
        // Keep the promised strip clear through the round: the
        // admitted entity may end up to v PAST the edge, so residents
        // must stay ≥ d + v from it for the pair to end ≥ d apart.
        floor_dist = d + v;
      }
      cap = std::min(cap, (dist_to_edge - floor_dist) / rate);
    }
    // Cellmate caps: stay ≥ d (Euclidean) from everyone already moved,
    // whether they stayed or crossed.
    for (const Vec2 q : processed) {
      const Vec2 w = q - p.center;
      const double along = dot(w, n);
      if (along <= 0.0) continue;
      const double perp2 = dot(w, w) - along * along;
      if (perp2 >= d * d) continue;
      cap = std::min(cap, along - std::sqrt(d * d - perp2));
    }
    cap = std::max(cap, 0.0);
    p.center += cap * n;
    processed.push_back(p.center);
    // Transfer when the center has crossed the granted edge plane.
    if (permitted && dot(p.center - cc, n) > kHexInradius + 1e-15)
      crossed.push_back(p);
    else
      c.members[kept++] = p;
  }
  c.members.resize(kept);
}

Vec2 HexSystem::entry_point(HexId source) const {
  // The point opposite the travel direction, pulled in so a freshly
  // injected entity sits (d + v) clear of the promised strip region on
  // the far side.
  Vec2 center = grid().center(source);
  if (const OptHexId next = cell(source).next) {
    const Vec2 n = grid().edge_normal(source, *next);
    center += (-(kHexInradius - params().center_spacing() / 2.0)) * n;
  }
  return center;
}

bool HexSystem::fits(HexId id, Vec2 center) const {
  const double d = params().center_spacing();
  const auto& members = cell(id).members;
  return inside_hex(id, center) &&
         std::all_of(members.begin(), members.end(), [&](const HexEntity& q) {
           return l2_distance(center, q.center) >= d;
         });
}

bool HexSystem::admits(HexId source, Vec2 center) const {
  // A new entity must also not re-block the neighbor being served.
  const OptHexId token = cell(source).token;
  return fits(source, center) &&
         (!token.has_value() || !strip_clear(source, *token) ||
          edge_distance(source, *token, center) >=
              params().center_spacing() + params().velocity());
}

EntityId HexSystem::seed_entity(HexId id, Vec2 center) {
  CF_EXPECTS(grid().contains(id));
  CF_EXPECTS_MSG(fits(id, center),
                 "seed: center outside the hexagon or closer than d to a "
                 "member");
  return place(id, center);
}

std::string check_hex_safe(const HexSystem& sys, double eps) {
  const double d = sys.params().center_spacing();
  for (const HexId id : sys.grid().all_cells()) {
    const auto& members = sys.cell(id).members;
    for (std::size_t a = 0; a < members.size(); ++a) {
      for (std::size_t b = a + 1; b < members.size(); ++b) {
        if (l2_distance(members[a].center, members[b].center) < d - eps) {
          std::ostringstream os;
          os << "SafeHex violated at " << to_string(id) << ": "
             << to_string(members[a].id) << " vs "
             << to_string(members[b].id);
          return os.str();
        }
      }
    }
  }
  return {};
}

std::string check_hex_membership(const HexSystem& sys, double eps) {
  for (const HexId id : sys.grid().all_cells()) {
    for (const HexEntity& p : sys.cell(id).members) {
      if (!sys.inside_hex(id, p.center, eps)) {
        std::ostringstream os;
        os << "Membership violated at " << to_string(id) << ": "
           << to_string(p.id) << " center outside its hexagon";
        return os.str();
      }
    }
  }
  return {};
}

std::string check_hex_h(const HexSystem& sys, double eps) {
  const double need =
      sys.params().center_spacing() + sys.params().velocity() - eps;
  for (const HexId id : sys.grid().all_cells()) {
    const OptHexId t = sys.cell(id).signal;
    if (!t.has_value()) continue;
    const std::string at = "H violated at " + to_string(id) + ": ";
    if (!sys.grid().are_neighbors(id, *t))
      return at + "signal " + to_string(*t) + " is not a neighbor";
    for (const HexEntity& p : sys.cell(id).members)
      if (sys.edge_distance(id, *t, p.center) < need)
        return at + "strip toward " + to_string(*t) + " occupied by " +
               to_string(p.id);
  }
  return {};
}

template class LatticeSystem<HexSystem, HexGrid, HexEntity>;

}  // namespace cellflow
