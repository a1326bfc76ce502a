#include "hexflow/hex_system.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/route.hpp"
#include "core/signal.hpp"
#include "grid/mask.hpp"
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
    : config_(std::move(config)),
      grid_(config_.side),
      cells_(grid_.cell_count()) {
  CF_EXPECTS_MSG(grid_.contains(config_.target), "target outside grid");
  CF_EXPECTS_MSG(hex_feasible(config_.params),
                 "hex feasibility: d + v <= inradius and l <= inradius");
  for (const HexId s : config_.sources) {
    CF_EXPECTS_MSG(grid_.contains(s), "source outside grid");
    CF_EXPECTS_MSG(s != config_.target, "a cell cannot be source and target");
  }
  cells_[grid_.index_of(config_.target)].dist = Dist::zero();
  dist_snapshot_.resize(cells_.size());
}

std::size_t HexSystem::entity_count() const noexcept {
  std::size_t n = 0;
  for (const HexCellState& c : cells_) n += c.members.size();
  return n;
}

std::vector<Dist> HexSystem::reference_distances() const {
  return path_distances(grid_, config_.target,
                        [&](HexId id) { return !cell(id).failed; });
}

void HexSystem::fail(HexId id) { apply_fail(cells_[grid_.index_of(id)]); }

void HexSystem::recover(HexId id) {
  apply_recover(cells_[grid_.index_of(id)], id == config_.target);
}

double HexSystem::edge_distance(HexId self, HexId toward, Vec2 p) const {
  const Vec2 n = grid_.edge_normal(self, toward);
  return kHexInradius - dot(p - grid_.center(self), n);
}

bool HexSystem::inside_hex(HexId id, Vec2 p, double eps) const {
  const Vec2 c = grid_.center(id);
  for (int k = 0; k < 6; ++k) {
    if (dot(p - c, slot_normal(k)) > kHexInradius + eps) return false;
  }
  return true;
}

bool HexSystem::strip_clear(HexId self, HexId toward) const {
  const double need = config_.params.center_spacing() +
                      config_.params.velocity();  // d + v (see header)
  for (const HexEntity& p : cells_[grid_.index_of(self)].members) {
    if (edge_distance(self, toward, p.center) < need) return false;
  }
  return true;
}

void HexSystem::update() {
  route_phase();
  signal_phase();
  move_phase();
  inject_phase();
  ++round_;
}

void HexSystem::route_phase() {
  for (std::size_t k = 0; k < cells_.size(); ++k)
    dist_snapshot_[k] = cells_[k].dist;
  for (std::size_t k = 0; k < cells_.size(); ++k) {
    HexCellState& c = cells_[k];
    if (c.failed) continue;
    const HexId id = grid_.id_of(k);
    if (id == config_.target) {
      c.dist = Dist::zero();
      c.next = std::nullopt;
      continue;
    }
    SmallVec<BasicNeighborDist<HexId>, 6> nds;
    for (int slot = 0; slot < 6; ++slot)
      if (const auto nb = grid_.neighbor(id, slot))
        nds.push_back({*nb, dist_snapshot_[grid_.index_of(*nb)]});
    const auto r = route_step<HexId>(nds);
    c.dist = r.dist;
    c.next = r.next;
  }
}

void HexSystem::signal_phase() {
  for (std::size_t k = 0; k < cells_.size(); ++k) {
    HexCellState& c = cells_[k];
    if (c.failed) continue;
    const HexId id = grid_.id_of(k);
    const NeighborMask ne_prev = neighbor_mask(id, [&](HexId nb) {
      if (!grid_.contains(nb)) return false;
      const HexCellState& nc = cells_[grid_.index_of(nb)];
      return !nc.failed && nc.next == OptHexId{id} && nc.has_entities();
    });
    const BasicNeighborSet<HexId> candidates = neighbors_in(id, ne_prev);
    const auto r = token_discipline<HexId>(
        candidates, c.token,
        [&](HexId t) { return grid_.are_neighbors(id, t); },
        [&](HexId t) { return strip_clear(id, t); },
        round_robin_choice<HexId>);
    c.signal = r.signal;
    c.token = r.token;
    c.ne_prev = ne_prev;
  }
}

void HexSystem::move_phase() {
  // Hexagonal movement uses the compaction discipline (see the header's
  // point 1: rigid coupling is unsound near hexagon corners). Entities
  // advance front-to-back along the motion normal; each is capped by the
  // five non-granted edge planes, by the promised-strip margin of this
  // cell's own signal, and by the d-ball of every already-moved
  // cellmate. Crossing the granted edge requires the permission.
  struct Pending {
    HexEntity entity;
    HexId from;
    HexId to;
  };
  std::vector<Pending> pending;
  const double d = config_.params.center_spacing();
  const double v = config_.params.velocity();

  for (std::size_t k = 0; k < cells_.size(); ++k) {
    HexCellState& c = cells_[k];
    if (c.failed || !c.next.has_value() || c.members.empty()) continue;
    const HexId id = grid_.id_of(k);
    const HexId dest = *c.next;
    const bool permitted =
        cells_[grid_.index_of(dest)].signal == OptHexId{id};
    const Vec2 n = grid_.edge_normal(id, dest);
    const Vec2 cc = grid_.center(id);

    // Front-to-back along the motion normal.
    std::sort(c.members.begin(), c.members.end(),
              [&](const HexEntity& a, const HexEntity& b) {
                return dot(a.center - cc, n) > dot(b.center - cc, n);
              });

    std::vector<HexEntity> placed;
    placed.reserve(c.members.size());
    // Crossed entities still constrain the entities behind them: two
    // cellmates can cross in the same round and land in the same
    // destination cell, so the d-spacing cap must hold against every
    // already-processed entity, not just the ones that stayed.
    std::vector<Vec2> processed;
    processed.reserve(c.members.size());
    for (HexEntity p : c.members) {
      double cap = v;
      // Edge-plane caps: for every direction slot, distance to that edge
      // shrinks at rate (n · n_slot) when positive.
      for (int slot = 0; slot < 6; ++slot) {
        const Vec2 ns = slot_normal(slot);
        const double rate = dot(n, ns);
        if (rate <= 1e-12) continue;
        const double dist_to_edge =
            kHexInradius - dot(p.center - cc, ns);
        const auto nb = grid_.neighbor(id, slot);
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
      if (permitted &&
          dot(p.center - cc, n) > kHexInradius + 1e-15) {
        pending.push_back(Pending{p, id, dest});
      } else {
        placed.push_back(p);
      }
    }
    c.members = std::move(placed);
  }

  for (Pending& t : pending) {
    if (t.to == config_.target) {
      ++total_arrivals_;
    } else {
      cells_[grid_.index_of(t.to)].members.push_back(t.entity);
    }
  }
}

void HexSystem::inject_phase() {
  const double d = config_.params.center_spacing();
  for (const HexId s : config_.sources) {
    HexCellState& c = cells_[grid_.index_of(s)];
    if (c.failed) continue;
    // Inject at the point opposite the travel direction, pulled in so a
    // freshly injected entity sits (d + v) clear of the promised strip
    // region on the far side.
    Vec2 center = grid_.center(s);
    if (c.next.has_value()) {
      const Vec2 n = grid_.edge_normal(s, *c.next);
      center += (-(kHexInradius - d / 2.0)) * n;
    }
    // Validations: inside the hexagon, pairwise spacing, promised strip.
    if (!inside_hex(s, center)) continue;
    bool ok = true;
    for (const HexEntity& q : c.members) {
      if (l2_distance(center, q.center) < d) {
        ok = false;
        break;
      }
    }
    if (ok && c.token.has_value()) {
      const double dist_to_token_edge = edge_distance(s, *c.token, center);
      const bool was_clear = strip_clear(s, *c.token);
      if (was_clear &&
          dist_to_token_edge < d + config_.params.velocity())
        ok = false;  // would re-block the neighbor being served
    }
    if (!ok) continue;
    c.members.push_back(HexEntity{EntityId{next_entity_id_++}, center});
  }
}

EntityId HexSystem::seed_entity(HexId id, Vec2 center) {
  CF_EXPECTS(grid_.contains(id));
  CF_EXPECTS_MSG(inside_hex(id, center), "seed: center outside the hexagon");
  const double d = config_.params.center_spacing();
  for (const HexEntity& q : cells_[grid_.index_of(id)].members) {
    CF_EXPECTS_MSG(l2_distance(center, q.center) >= d,
                   "seed: violates the spacing requirement");
  }
  const EntityId eid{next_entity_id_++};
  cells_[grid_.index_of(id)].members.push_back(HexEntity{eid, center});
  return eid;
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

}  // namespace cellflow
