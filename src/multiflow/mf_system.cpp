#include "multiflow/mf_system.hpp"

#include <algorithm>

#include "core/move.hpp"
#include "core/route.hpp"
#include "core/signal.hpp"
#include "core/source.hpp"
#include "grid/path.hpp"
#include "util/check.hpp"

namespace cellflow {

namespace {

/// Strips flow tags for the geometry helpers of core/ (signal gap checks
/// and movement), which operate on plain entities.
std::vector<Entity> bare_entities(const std::vector<MfEntity>& members) {
  std::vector<Entity> out;
  out.reserve(members.size());
  for (const MfEntity& m : members) out.push_back(m.entity);
  return out;
}

}  // namespace

MfSystem::MfSystem(MfSystemConfig config, std::unique_ptr<ChoosePolicy> choose,
                   std::uint64_t source_seed)
    : config_(std::move(config)),
      grid_(config_.side),
      cells_(grid_.cell_count()),
      choose_(choose ? std::move(choose)
                     : std::make_unique<RoundRobinChoose>()),
      source_rng_(source_seed) {
  CF_EXPECTS_MSG(!config_.flows.empty(), "at least one flow required");
  CF_EXPECTS(config_.source_rate >= 0.0 && config_.source_rate <= 1.0);
  const std::size_t flows = config_.flows.size();
  for (std::size_t a = 0; a < flows; ++a) {
    const FlowSpec& fa = config_.flows[a];
    CF_EXPECTS_MSG(grid_.contains(fa.target), "flow target outside grid");
    for (const CellId s : fa.sources) {
      CF_EXPECTS_MSG(grid_.contains(s), "flow source outside grid");
      CF_EXPECTS_MSG(s != fa.target,
                     "a flow's source cannot be its own target");
    }
    for (std::size_t b = a + 1; b < flows; ++b) {
      CF_EXPECTS_MSG(fa.target != config_.flows[b].target,
                     "two flows sharing a target would be one flow");
    }
  }
  for (MfCellState& c : cells_) {
    c.dist.assign(flows, Dist::infinity());
    c.next.assign(flows, std::nullopt);
  }
  for (FlowId f = 0; f < flows; ++f)
    cells_[grid_.index_of(config_.flows[f].target)].dist[f] = Dist::zero();
  total_arrivals_.assign(flows, 0);
  dist_snapshot_.resize(flows * cells_.size());
  // Group sources by cell for the fair-injection rotation.
  for (FlowId f = 0; f < flows; ++f) {
    for (const CellId s : config_.flows[f].sources) {
      auto it = std::find_if(source_cells_.begin(), source_cells_.end(),
                             [s](const auto& e) { return e.first == s; });
      if (it == source_cells_.end()) {
        source_cells_.emplace_back(s, std::vector<FlowId>{f});
      } else {
        it->second.push_back(f);
      }
    }
  }
  inject_priority_.assign(cells_.size(), 0);
}

std::uint64_t MfSystem::total_arrivals() const noexcept {
  std::uint64_t n = 0;
  for (const std::uint64_t a : total_arrivals_) n += a;
  return n;
}

std::size_t MfSystem::entity_count() const noexcept {
  std::size_t n = 0;
  for (const MfCellState& c : cells_) n += c.members.size();
  return n;
}

std::vector<Dist> MfSystem::reference_distances(FlowId f) const {
  CellMask alive(grid_);
  for (std::size_t k = 0; k < cells_.size(); ++k)
    if (!cells_[k].failed) alive.set(grid_.id_of(k));
  return path_distances(grid_, alive, config_.flows.at(f).target);
}

void MfSystem::fail(CellId id) {
  CF_EXPECTS(grid_.contains(id));
  MfCellState& c = cells_[grid_.index_of(id)];
  c.failed = true;
  for (std::size_t f = 0; f < config_.flows.size(); ++f) {
    c.dist[f] = Dist::infinity();
    c.next[f] = std::nullopt;
  }
  c.signal = std::nullopt;
  c.token = std::nullopt;
  c.ne_prev = 0;
}

void MfSystem::recover(CellId id) {
  CF_EXPECTS(grid_.contains(id));
  MfCellState& c = cells_[grid_.index_of(id)];
  if (!c.failed) return;
  c.failed = false;
  for (FlowId f = 0; f < config_.flows.size(); ++f) {
    c.dist[f] =
        is_target_of(id, f) ? Dist::zero() : Dist::infinity();
    c.next[f] = std::nullopt;
  }
  c.signal = std::nullopt;
  c.token = std::nullopt;
  c.ne_prev = 0;
}

const MfRoundEvents& MfSystem::update() {
  events_ = MfRoundEvents{};
  events_.round = round_;
  events_.arrivals_per_flow.assign(config_.flows.size(), 0);
  route_phase();
  signal_phase();
  move_phase();
  inject_phase();
  ++round_;
  return events_;
}

void MfSystem::route_phase() {
  const std::size_t flows = config_.flows.size();
  for (std::size_t k = 0; k < cells_.size(); ++k)
    for (FlowId f = 0; f < flows; ++f)
      dist_snapshot_[f * cells_.size() + k] = cells_[k].dist[f];

  for (std::size_t k = 0; k < cells_.size(); ++k) {
    MfCellState& c = cells_[k];
    if (c.failed) continue;
    const CellId id = grid_.id_of(k);
    for (FlowId f = 0; f < flows; ++f) {
      if (is_target_of(id, f)) {
        c.dist[f] = Dist::zero();
        c.next[f] = std::nullopt;
        continue;
      }
      NeighborDist nds[4];
      std::size_t n = 0;
      for (const Direction d : kAllDirections) {
        if (const auto nb = grid_.neighbor(id, d)) {
          nds[n++] = NeighborDist{
              *nb, dist_snapshot_[f * cells_.size() + grid_.index_of(*nb)]};
        }
      }
      const RouteResult r = route_step(std::span<const NeighborDist>(nds, n));
      c.dist[f] = r.dist;
      c.next[f] = r.next;
    }
  }
}

void MfSystem::signal_phase() {
  for (std::size_t k = 0; k < cells_.size(); ++k) {
    MfCellState& c = cells_[k];
    if (c.failed) continue;
    const CellId id = grid_.id_of(k);

    // Flow-purity guard on tokens: Figure 5 grants the token holder even
    // when it has dropped out of NEPrev, which is harmless in the base
    // protocol (a holder that left NEPrev no longer moves here). In the
    // multi-flow setting a holder can leave NEPrev *while still pointing
    // here* — it is no longer admissible because our members belong to a
    // different flow. Granting would break purity; dropping the token
    // would starve the waiting flow behind a busy cross-stream. So we
    // treat inadmissibility exactly like an occupied entry strip:
    // BLOCK (signal := ⊥) and hold the token — when our members drain,
    // the waiting flow is served next. This is the multi-flow analogue
    // of Figure 5 line 14 and what makes crossing flows live.
    if (c.token.has_value() && grid_.contains(*c.token)) {
      const MfCellState& tc = cells_[grid_.index_of(*c.token)];
      if (!tc.failed && tc.has_entities()) {
        const FlowId tf = tc.members_flow();
        if (tc.next[tf] == OptCellId{id} && !admission_ok(c, tf) &&
            !is_target_of(id, tf)) {
          c.signal = std::nullopt;
          c.ne_prev = 0;
          continue;  // token unchanged — retry the same flow
        }
      }
    }
    const NeighborMask ne_prev = neighbor_mask(id, [&](CellId nb) {
      if (!grid_.contains(nb)) return false;
      const MfCellState& nc = cells_[grid_.index_of(nb)];
      if (nc.failed || !nc.has_entities()) return false;
      const FlowId nf = nc.members_flow();
      // Flow-pure admission: only predecessors whose flow we can accept.
      // A flow's own target is always admissible to it — arrivals are
      // consumed, never stored, so they cannot mix with our members.
      return nc.next[nf] == OptCellId{id} &&
             (admission_ok(c, nf) || is_target_of(id, nf));
    });
    const std::vector<Entity> bare = bare_entities(c.members);
    const SignalResult r = token_discipline<CellId>(
        neighbors_in(id, ne_prev), c.token,
        [id](CellId t) { return Grid::are_neighbors(id, t); },
        [&](CellId t) {
          return entry_strip_clear(id, t, bare, config_.params);
        },
        [&](std::span<const CellId> cands, OptCellId previous) {
          return choose_->choose(id, cands, previous);
        });
    c.signal = r.signal;
    c.token = r.token;
    c.ne_prev = ne_prev;
  }
}

void MfSystem::move_phase() {
  struct Pending {
    MfEntity entity;
    CellId from;
    CellId to;
  };
  std::vector<Pending> pending;

  for (std::size_t k = 0; k < cells_.size(); ++k) {
    MfCellState& c = cells_[k];
    if (c.failed || !c.has_entities()) continue;
    const CellId id = grid_.id_of(k);
    const FlowId f = c.members_flow();
    const OptCellId dest = c.next[f];
    if (!dest.has_value()) continue;
    if (cells_[grid_.index_of(*dest)].signal != OptCellId{id}) continue;

    MoveResult mr =
        move_step(id, *dest, bare_entities(c.members), config_.params);
    c.members.clear();
    for (Entity& e : mr.staying) c.members.push_back(MfEntity{e, f});
    for (Entity& e : mr.crossed)
      pending.push_back(Pending{MfEntity{e, f}, id, *dest});
  }

  for (Pending& t : pending) {
    MfTransferEvent ev{t.entity.entity.id, t.entity.flow, t.from, t.to,
                       false};
    if (is_target_of(t.to, t.entity.flow)) {
      ev.consumed = true;
      ++total_arrivals_[t.entity.flow];
      ++events_.arrivals_per_flow[t.entity.flow];
    } else {
      MfCellState& dst = cells_[grid_.index_of(t.to)];
      // Purity is guaranteed by the grant rule; re-assert as an internal
      // invariant rather than trusting it silently.
      CF_CHECK_MSG(admission_ok(dst, t.entity.flow),
                   "flow purity violated by a transfer");
      dst.members.push_back(t.entity);
    }
    events_.transfers.push_back(ev);
  }
}

void MfSystem::inject_phase() {
  // At most one injection per source cell per round (the paper's "at
  // most one entity in each round"). At a cell shared between flows the
  // flow whose injection succeeded last goes to the back of the queue —
  // a fixed order would let one flow reclaim the cell every time it
  // empties and starve the rest (the injection analogue of assumption
  // (b) in §III-B).
  for (auto& [s, candidates] : source_cells_) {
    MfCellState& c = cells_[grid_.index_of(s)];
    if (c.failed) continue;
    // Assumption (b) of §III-B: a source must not perpetually block a
    // nonempty neighbor. A neighbor of a *different* flow routing through
    // this source can only be admitted once the cell is empty, so while
    // one is waiting the source pauses injection and lets the cell
    // drain; cross-traffic passes, then injection resumes.
    bool cross_flow_waiting = false;
    for (const Direction dir : kAllDirections) {
      const auto nb = grid_.neighbor(s, dir);
      if (!nb) continue;
      const MfCellState& nc = cells_[grid_.index_of(*nb)];
      if (nc.failed || !nc.has_entities()) continue;
      const FlowId nf = nc.members_flow();
      if (nc.next[nf] == OptCellId{s} && !admission_ok(c, nf) &&
          !is_target_of(s, nf)) {
        cross_flow_waiting = true;
        break;
      }
    }
    if (cross_flow_waiting) continue;
    if (config_.source_rate < 1.0 &&
        !source_rng_.bernoulli(config_.source_rate))
      continue;
    std::size_t& prio = inject_priority_[grid_.index_of(s)];
    // Serve exactly the prioritized flow; if it cannot inject because
    // another flow occupies the cell, WAIT (do not let the incumbent
    // refill) — otherwise the incumbent keeps the cell perpetually
    // nonempty and starves the others. Blocking here mirrors the Signal
    // function's blocking and is what discharges assumption (b) of
    // §III-B for shared sources. Single-flow sources never block.
    const FlowId f = candidates[prio % candidates.size()];
    if (!admission_ok(c, f)) continue;

    // Entry-edge placement opposite this flow's next direction.
    const Vec2 center = entry_edge_center(grid_, config_.params, s, c.next[f]);
    if (!injection_is_safe(s, center, bare_entities(c.members), c.token,
                           config_.params))
      continue;
    const EntityId eid{next_entity_id_++};
    c.members.push_back(MfEntity{Entity{eid, center}, f});
    events_.injected.emplace_back(s, eid);
    prio = (prio + 1) % candidates.size();
  }
}

EntityId MfSystem::seed_entity(CellId id, FlowId flow, Vec2 center) {
  CF_EXPECTS(grid_.contains(id));
  CF_EXPECTS(flow < config_.flows.size());
  MfCellState& c = cells_[grid_.index_of(id)];
  CF_EXPECTS_MSG(admission_ok(c, flow), "flow purity: cell holds another flow");
  CF_EXPECTS_MSG(injection_is_safe(id, center, bare_entities(c.members),
                                   c.token, config_.params),
                 "seed_entity: unsafe placement");
  const EntityId eid{next_entity_id_++};
  c.members.push_back(MfEntity{Entity{eid, center}, flow});
  return eid;
}

}  // namespace cellflow
