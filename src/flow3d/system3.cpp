#include "flow3d/system3.hpp"

#include <algorithm>
#include <cmath>
#include <deque>

#include "util/check.hpp"

namespace cellflow {

bool entry_strip_clear3(CellId3 self, CellId3 toward,
                        std::span<const Entity3> members,
                        const Params& params) {
  int axis = -1;
  for (int a = 0; a < 3; ++a) {
    if (toward[a] == self[a]) continue;
    CF_EXPECTS_MSG(axis == -1 && (toward[a] == self[a] + 1 ||
                                  toward[a] == self[a] - 1),
                   "entry_strip_clear3: cells do not share a face");
    axis = a;
  }
  CF_EXPECTS_MSG(axis >= 0, "entry_strip_clear3: cells are identical");
  const int sign = toward[axis] > self[axis] ? 1 : -1;
  const double half = params.entity_length() / 2.0;
  const double d = params.center_spacing();
  const auto base = static_cast<double>(self[axis]);
  return std::all_of(members.begin(), members.end(), [&](const Entity3& p) {
    return sign > 0 ? p.center[axis] + half <= base + 1.0 - d
                    : p.center[axis] - half >= base + d;
  });
}

System3::System3(System3Config config)
    : config_(std::move(config)),
      grid_(config_.nx, config_.ny, config_.nz),
      cells_(grid_.cell_count()) {
  CF_EXPECTS_MSG(grid_.contains(config_.target), "target outside grid");
  for (const CellId3 s : config_.sources) {
    CF_EXPECTS_MSG(grid_.contains(s), "source outside grid");
    CF_EXPECTS_MSG(s != config_.target, "a cell cannot be source and target");
  }
  cells_[grid_.index_of(config_.target)].dist = Dist::zero();
  dist_snapshot_.resize(cells_.size());
}

std::size_t System3::entity_count() const noexcept {
  std::size_t n = 0;
  for (const CellState3& c : cells_) n += c.members.size();
  return n;
}

std::vector<Dist> System3::reference_distances() const {
  std::vector<Dist> dist(grid_.cell_count(), Dist::infinity());
  if (cells_[grid_.index_of(config_.target)].failed) return dist;
  std::deque<CellId3> frontier;
  dist[grid_.index_of(config_.target)] = Dist::zero();
  frontier.push_back(config_.target);
  while (!frontier.empty()) {
    const CellId3 cur = frontier.front();
    frontier.pop_front();
    const Dist next_d = dist[grid_.index_of(cur)].plus_one();
    for (const CellId3 nb : grid_.neighbors(cur)) {
      if (cells_[grid_.index_of(nb)].failed) continue;
      if (dist[grid_.index_of(nb)].is_infinite()) {
        dist[grid_.index_of(nb)] = next_d;
        frontier.push_back(nb);
      }
    }
  }
  return dist;
}

void System3::fail(CellId3 id) {
  CF_EXPECTS(grid_.contains(id));
  CellState3& c = cells_[grid_.index_of(id)];
  c.failed = true;
  c.dist = Dist::infinity();
  c.next = std::nullopt;
  c.signal = std::nullopt;
  c.token = std::nullopt;
  c.ne_prev.clear();
}

void System3::recover(CellId3 id) {
  CF_EXPECTS(grid_.contains(id));
  CellState3& c = cells_[grid_.index_of(id)];
  if (!c.failed) return;
  c.failed = false;
  c.dist = (id == config_.target) ? Dist::zero() : Dist::infinity();
  c.next = std::nullopt;
  c.token = std::nullopt;
  c.signal = std::nullopt;
  c.ne_prev.clear();
}

const RoundEvents3& System3::update() {
  events_ = RoundEvents3{};
  events_.round = round_;
  route_phase();
  signal_phase();
  move_phase();
  inject_phase();
  ++round_;
  return events_;
}

void System3::route_phase() {
  for (std::size_t k = 0; k < cells_.size(); ++k)
    dist_snapshot_[k] = cells_[k].dist;

  for (std::size_t k = 0; k < cells_.size(); ++k) {
    CellState3& c = cells_[k];
    if (c.failed) continue;
    const CellId3 id = grid_.id_of(k);
    if (id == config_.target) {
      c.dist = Dist::zero();
      c.next = std::nullopt;
      continue;
    }
    // argmin over (dist, id) among up to six neighbors.
    OptCellId3 best;
    Dist best_dist = Dist::infinity();
    for (const Direction3 d : kAllDirections3) {
      const auto nb = grid_.neighbor(id, d);
      if (!nb) continue;
      const Dist nd = dist_snapshot_[grid_.index_of(*nb)];
      if (!best.has_value() || nd < best_dist ||
          (nd == best_dist && *nb < *best)) {
        best = *nb;
        best_dist = nd;
      }
    }
    c.dist = best_dist.plus_one();
    c.next = c.dist.is_infinite() ? std::nullopt : best;
  }
}

CellId3 System3::rotate_choice(std::span<const CellId3> sorted_candidates,
                               const OptCellId3& previous) {
  CF_EXPECTS(!sorted_candidates.empty());
  if (!previous.has_value()) return sorted_candidates.front();
  const auto it = std::upper_bound(sorted_candidates.begin(),
                                   sorted_candidates.end(), *previous);
  return it == sorted_candidates.end() ? sorted_candidates.front() : *it;
}

void System3::signal_phase() {
  for (std::size_t k = 0; k < cells_.size(); ++k) {
    CellState3& c = cells_[k];
    if (c.failed) continue;
    const CellId3 id = grid_.id_of(k);

    std::vector<CellId3> ne_prev;
    for (const Direction3 d : kAllDirections3) {
      const auto nb = grid_.neighbor(id, d);
      if (!nb) continue;
      const CellState3& nc = cells_[grid_.index_of(*nb)];
      if (nc.failed) continue;
      if (nc.next == OptCellId3{id} && nc.has_entities())
        ne_prev.push_back(*nb);
    }
    std::sort(ne_prev.begin(), ne_prev.end());

    // Stale-token hygiene, as in 2-D: drop non-neighbors (corruption).
    if (c.token.has_value() && !grid_.are_neighbors(id, *c.token))
      c.token = std::nullopt;
    if (!c.token.has_value() && !ne_prev.empty())
      c.token = rotate_choice(ne_prev, std::nullopt);

    if (!c.token.has_value()) {
      c.signal = std::nullopt;
      c.ne_prev = std::move(ne_prev);
      continue;
    }

    if (entry_strip_clear3(id, *c.token, c.members, config_.params)) {
      c.signal = c.token;
      if (ne_prev.size() > 1) {
        std::vector<CellId3> others;
        others.reserve(ne_prev.size());
        for (const CellId3 cand : ne_prev)
          if (cand != *c.token) others.push_back(cand);
        c.token = rotate_choice(others, c.token);
      } else if (ne_prev.size() == 1) {
        c.token = ne_prev.front();
      } else {
        c.token = std::nullopt;
      }
    } else {
      c.signal = std::nullopt;  // block; token unchanged (fairness)
    }
    c.ne_prev = std::move(ne_prev);
  }
}

void System3::move_phase() {
  struct Pending {
    Entity3 entity;
    CellId3 from;
    CellId3 to;
  };
  std::vector<Pending> pending;
  const double half = config_.params.entity_length() / 2.0;
  const double v = config_.params.velocity();

  for (std::size_t k = 0; k < cells_.size(); ++k) {
    CellState3& c = cells_[k];
    if (c.failed || !c.next.has_value()) continue;
    const CellId3 id = grid_.id_of(k);
    const CellId3 dest = *c.next;
    if (cells_[grid_.index_of(dest)].signal != OptCellId3{id}) continue;

    events_.moved.push_back(id);
    const Direction3 dir = grid_.direction_between(id, dest);
    const auto base = static_cast<double>(id[dir.axis]);

    std::vector<Entity3> staying;
    staying.reserve(c.members.size());
    for (Entity3 p : c.members) {
      p.center[dir.axis] += v * static_cast<double>(dir.sign);
      const bool crossed =
          dir.sign > 0 ? p.center[dir.axis] + half > base + 1.0
                       : p.center[dir.axis] - half < base;
      if (crossed) {
        // Entry placement flush with the destination face; perpendicular
        // coordinates preserved.
        const auto dbase = static_cast<double>(dest[dir.axis]);
        p.center[dir.axis] =
            dir.sign > 0 ? dbase + half : dbase + 1.0 - half;
        pending.push_back(Pending{p, id, dest});
      } else {
        staying.push_back(p);
      }
    }
    c.members = std::move(staying);
  }

  for (Pending& t : pending) {
    TransferEvent3 ev{t.entity.id, t.from, t.to, false};
    if (t.to == config_.target) {
      ev.consumed = true;
      ++total_arrivals_;
      ++events_.arrivals;
    } else {
      cells_[grid_.index_of(t.to)].members.push_back(t.entity);
    }
    events_.transfers.push_back(ev);
  }
}

bool System3::injection_is_safe(CellId3 id, Vec3 center) const {
  const Params& p = config_.params;
  const double half = p.entity_length() / 2.0;
  const double d = p.center_spacing();
  for (int axis = 0; axis < 3; ++axis) {
    const auto base = static_cast<double>(id[axis]);
    if (center[axis] - half < base || center[axis] + half > base + 1.0)
      return false;
  }
  const CellState3& c = cells_[grid_.index_of(id)];
  for (const Entity3& q : c.members) {
    bool separated = false;
    for (int axis = 0; axis < 3; ++axis) {
      if (std::abs(center[axis] - q.center[axis]) >= d) {
        separated = true;
        break;
      }
    }
    if (!separated) return false;
  }
  if (c.token.has_value()) {
    std::vector<Entity3> with_new(c.members.begin(), c.members.end());
    with_new.push_back(Entity3{EntityId{~0ULL}, center});
    const bool was_clear = entry_strip_clear3(id, *c.token, c.members, p);
    const bool still_clear = entry_strip_clear3(id, *c.token, with_new, p);
    if (was_clear && !still_clear) return false;
  }
  return true;
}

void System3::inject_phase() {
  const double half = config_.params.entity_length() / 2.0;
  for (const CellId3 s : config_.sources) {
    CellState3& c = cells_[grid_.index_of(s)];
    if (c.failed) continue;
    // Entry-face placement opposite the travel direction.
    Vec3 center{static_cast<double>(s.x) + 0.5,
                static_cast<double>(s.y) + 0.5,
                static_cast<double>(s.z) + 0.5};
    if (c.next.has_value()) {
      const Direction3 toward = grid_.direction_between(s, *c.next);
      const auto base = static_cast<double>(s[toward.axis]);
      center[toward.axis] =
          toward.sign > 0 ? base + half : base + 1.0 - half;
    }
    if (!injection_is_safe(s, center)) continue;
    const EntityId eid{next_entity_id_++};
    c.members.push_back(Entity3{eid, center});
    events_.injected.emplace_back(s, eid);
  }
}

EntityId System3::seed_entity(CellId3 id, Vec3 center) {
  CF_EXPECTS(grid_.contains(id));
  CF_EXPECTS_MSG(injection_is_safe(id, center),
                 "seed_entity: placement violates the gap requirement or "
                 "cell bounds");
  const EntityId eid{next_entity_id_++};
  cells_[grid_.index_of(id)].members.push_back(Entity3{eid, center});
  return eid;
}

}  // namespace cellflow
