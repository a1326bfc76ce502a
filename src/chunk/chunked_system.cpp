#include "chunk/chunked_system.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/move.hpp"
#include "core/route.hpp"
#include "core/signal.hpp"
#include "util/check.hpp"

namespace cellflow::chunk {

namespace {

/// Ascending-dense-index order of CellIds (j major, i minor — the grid's
/// row-major index). CellId's own operator< is i-major, so the event
/// canonicalization must not use it.
[[nodiscard]] bool dense_less(CellId a, CellId b) noexcept {
  return a.j != b.j ? a.j < b.j : a.i < b.i;
}

}  // namespace

ChunkedSystem::ChunkedSystem(SystemConfig config,
                             std::unique_ptr<ChoosePolicy> choose,
                             std::unique_ptr<SourcePolicy> source)
    : config_(std::move(config)),
      grid_(config_.side),
      layout_(config_.side),
      store_(config_.side, config_.target),
      choose_(choose ? std::move(choose)
                     : std::make_unique<RoundRobinChoose>()),
      source_(source ? std::move(source)
                     : std::make_unique<EntryEdgeSource>()) {
  CF_EXPECTS_MSG(grid_.contains(config_.target), "target outside grid");
  for (const CellId s : config_.sources) {
    CF_EXPECTS_MSG(grid_.contains(s), "source outside grid");
    CF_EXPECTS_MSG(s != config_.target, "a cell cannot be source and target");
  }
  // Canonical injection order, exactly as System does it.
  std::sort(config_.sources.begin(), config_.sources.end());
  config_.sources.erase(
      std::unique(config_.sources.begin(), config_.sources.end()),
      config_.sources.end());

  pinned_.assign(store_.chunk_count(), 0);
  // The target's chunk anchors routing (Route pins its dist every round)
  // and every source's chunk is read every round by injection — both are
  // materialized now and never park.
  const std::size_t tq = layout_.chunk_of(config_.target);
  store_.ensure_live(tq);
  pinned_[tq] = 1;
  for (const CellId s : config_.sources) {
    const std::size_t q = layout_.chunk_of(s);
    store_.ensure_live(q);
    pinned_[q] = 1;
  }
  // The target's lattice neighbors change dist in round 0 (∞ → 1), so
  // their chunks must be live from the start; unlike the pinned chunks
  // they park again once the routing wave has moved on.
  for (const Direction d : kAllDirections) {
    const auto nb = grid_.neighbor(config_.target, d);
    if (nb.has_value()) store_.ensure_live(layout_.chunk_of(*nb));
  }
  rebuild_active_sets();
  set_parallel_policy(parallel_policy_from_env());
}

CellState ChunkedSystem::cell(CellId id) const {
  CF_EXPECTS(grid_.contains(id));
  const std::size_t q = layout_.chunk_of(id);
  if (store_.is_live(q)) return store_.live(q).cells[layout_.slot_of(id)];
  return store_.rest_cell(q, layout_.slot_of(id));
}

std::size_t ChunkedSystem::entity_count() const noexcept {
  std::size_t n = 0;
  for (std::size_t q = 0; q < store_.chunk_count(); ++q) {
    if (!store_.is_live(q)) continue;
    for (const CellState& c : store_.live(q).cells) n += c.members.size();
  }
  return n;
}

const CellState* ChunkedSystem::peek_live(CellId id) const {
  const std::size_t q = layout_.chunk_of(id);
  if (!store_.is_live(q)) return nullptr;
  return &store_.live(q).cells[layout_.slot_of(id)];
}

CellState& ChunkedSystem::cell_mut(CellId id) {
  LiveChunk& lc = store_.ensure_live(layout_.chunk_of(id));
  return lc.cells[layout_.slot_of(id)];
}

void ChunkedSystem::arm_cell(CellId id, std::uint64_t upto) {
  LiveChunk& lc = store_.ensure_live(layout_.chunk_of(id));
  std::uint64_t& stamp = lc.route_stamp[layout_.slot_of(id)];
  if (upto > stamp) stamp = upto;
  if (stamp > lc.max_stamp) lc.max_stamp = stamp;
}

void ChunkedSystem::arm_route_neighborhood(CellId id, std::uint64_t upto) {
  arm_cell(id, upto);
  for (const Direction d : kAllDirections) {
    const auto st = step_of(d);
    const CellId nid{id.i + st[0], id.j + st[1]};
    if (grid_.contains(nid)) arm_cell(nid, upto);
  }
}

namespace {

void bump_refs(LiveChunk& lc, std::size_t slot, int delta) noexcept {
  std::uint8_t& r = lc.occ_refs[slot];
  if (delta > 0) {
    if (r == 0) ++lc.ref_cells;
    r = static_cast<std::uint8_t>(r + 1);
  } else {
    r = static_cast<std::uint8_t>(r - 1);
    if (r == 0) --lc.ref_cells;
  }
}

}  // namespace

void ChunkedSystem::apply_occupancy_flip(CellId id) {
  const std::size_t q = layout_.chunk_of(id);
  LiveChunk& lc = store_.live(q);
  const std::size_t slot = layout_.slot_of(id);
  lc.occ_b[slot] ^= 1u;
  const int delta = lc.occ_b[slot] != 0 ? 1 : -1;
  bump_refs(lc, slot, delta);
  for (const Direction d : kAllDirections) {
    const auto st = step_of(d);
    const CellId nid{id.i + st[0], id.j + st[1]};
    if (!grid_.contains(nid)) continue;
    const std::size_t nq = layout_.chunk_of(nid);
    if (delta > 0) {
      // Occupancy spreading into a parked/virgin neighborhood is exactly
      // the fault-in trigger: the neighbor chunk becomes live *before*
      // it carries a reference, preserving "refs > 0 ⇒ live".
      bump_refs(store_.ensure_live(nq), layout_.slot_of(nid), delta);
    } else {
      // Releasing a reference: the neighbor chunk holds this cell's +1,
      // so it cannot have parked (park requires ref_cells == 0).
      CF_EXPECTS_MSG(store_.is_live(nq),
                     "occupancy release into a non-live chunk");
      bump_refs(store_.live(nq), layout_.slot_of(nid), delta);
    }
  }
}

void ChunkedSystem::refresh_occupancy(CellId id) {
  const std::size_t q = layout_.chunk_of(id);
  LiveChunk& lc = store_.live(q);
  const std::size_t slot = layout_.slot_of(id);
  if (occupied(lc.cells[slot]) != (lc.occ_b[slot] != 0))
    apply_occupancy_flip(id);
}

void ChunkedSystem::note_control_mutation(CellId id) {
  const std::size_t q = layout_.chunk_of(id);
  LiveChunk& lc = store_.live(q);
  const std::size_t slot = layout_.slot_of(id);
  lc.dist_snapshot[slot] = lc.cells[slot].dist;
  arm_route_neighborhood(id, round_);
  refresh_occupancy(id);
}

void ChunkedSystem::rebuild_active_sets() {
  const std::size_t nq = store_.chunk_count();
  // Pass A: zero the occupancy state of every live chunk. Pass B may
  // fault further chunks in (an occupied cell adjacent to a parked
  // region); those initialize zeroed, and the index scan in B/C picks
  // them up or skips them harmlessly (a freshly unparked chunk has no
  // occupied cells to contribute).
  for (std::size_t q = 0; q < nq; ++q) {
    if (!store_.is_live(q)) continue;
    LiveChunk& lc = store_.live(q);
    const std::size_t n = lc.cells.size();
    lc.occ_b.assign(n, 0);
    lc.occ_refs.assign(n, 0);
    lc.ref_cells = 0;
  }
  // Pass B: recompute occupancy via flips (propagates refs across chunk
  // borders, faulting neighbors in as needed).
  for (std::size_t q = 0; q < nq; ++q) {
    if (!store_.is_live(q)) continue;
    LiveChunk& lc = store_.live(q);
    const ChunkLayout::Rect rect = layout_.rect_of(q);
    std::size_t slot = 0;
    for (int lj = 0; lj < rect.h; ++lj) {
      for (int li = 0; li < rect.w; ++li, ++slot) {
        if (occupied(lc.cells[slot]))
          apply_occupancy_flip(CellId{rect.i0 + li, rect.j0 + lj});
      }
    }
  }
  // Pass C: arm every live cell for this round and sync the snapshots.
  // Non-live chunks stay unarmed: they are quiescence fixpoints, for
  // which the dense rebuild's blanket arming is observationally a no-op
  // (and their skipped-cell tallies are compensated exactly).
  for (std::size_t q = 0; q < nq; ++q) {
    if (!store_.is_live(q)) continue;
    LiveChunk& lc = store_.live(q);
    const std::size_t n = lc.cells.size();
    lc.route_stamp.assign(n, round_);
    lc.max_stamp = round_;
    lc.quiet_rounds = 0;
    for (std::size_t slot = 0; slot < n; ++slot)
      lc.dist_snapshot[slot] = lc.cells[slot].dist;
  }
}

void ChunkedSystem::set_round_scheduler(RoundScheduler scheduler) {
  if (scheduler_ == scheduler) return;
  scheduler_ = scheduler;
  if (scheduler_ == RoundScheduler::kExhaustive) {
    // Exhaustive semantics visit every cell of the grid, so every chunk
    // must be resident (and none park while the scheduler is exhaustive).
    for (std::size_t q = 0; q < store_.chunk_count(); ++q)
      store_.ensure_live(q);
  } else {
    rebuild_active_sets();
  }
}

void ChunkedSystem::set_parallel_policy(const ParallelPolicy& policy) {
  CF_EXPECTS_MSG(policy.num_threads >= 1 && policy.num_threads <= 1024,
                 "ParallelPolicy::num_threads out of [1, 1024]");
  parallel_ = policy;
  if (policy.mode == ParallelPolicy::Mode::kParallel) {
    if (!pool_ || pool_->thread_count() != policy.num_threads)
      pool_ = std::make_unique<ThreadPool>(policy.num_threads);
  } else {
    pool_.reset();
  }
  const auto width =
      pool_ ? static_cast<std::size_t>(pool_->thread_count()) : 1;
  if (scratch_.shards.size() < width) scratch_.shards.resize(width);
}

ThreadPool* ChunkedSystem::phase_pool(std::size_t approx_cells) const {
  ThreadPool* pool = pool_.get();
  if (pool == nullptr || parallel_.cutover != ParallelPolicy::Cutover::kAuto)
    return pool;
  const std::size_t used = shard_count(approx_cells, pool->thread_count());
  if (used <= 1) return pool;  // parallel_for_shards falls back anyway
  const auto grain = static_cast<std::size_t>(ParallelPolicy::kCutoverGrain);
  return approx_cells < grain * used ? nullptr : pool;
}

void ChunkedSystem::set_metrics(obs::MetricsRegistry* registry) {
  // Same label as the dense shared-variable engine: the exposition must
  // be byte-identical to System's (pinned by the differential suite).
  metrics_ = registry != nullptr
                 ? std::make_unique<obs::ProtocolMetrics>(*registry, "shared")
                 : nullptr;
  round_counts_.reset();
}

void ChunkedSystem::fail(CellId id) {
  CF_EXPECTS(grid_.contains(id));
  CellState& c = cell_mut(id);
  if (!c.failed && metrics_) metrics_->add_failure();
  c.failed = true;
  c.dist = Dist::infinity();
  c.next = std::nullopt;
  c.signal = std::nullopt;
  c.token = std::nullopt;
  c.ne_prev.clear();
  note_control_mutation(id);
}

void ChunkedSystem::recover(CellId id) {
  CF_EXPECTS(grid_.contains(id));
  CellState& c = cell_mut(id);
  if (!c.failed) return;
  if (metrics_) metrics_->add_recovery();
  c.failed = false;
  c.dist = (id == config_.target) ? Dist::zero() : Dist::infinity();
  c.next = std::nullopt;
  c.token = std::nullopt;
  c.signal = std::nullopt;
  c.ne_prev.clear();
  note_control_mutation(id);
}

EntityId ChunkedSystem::seed_entity(CellId id, Vec2 center) {
  CF_EXPECTS(grid_.contains(id));
  CF_EXPECTS_MSG(injection_is_safe(id, center),
                 "seed_entity: placement violates the gap requirement or "
                 "Invariant-1 bounds");
  const EntityId eid{next_entity_id_++};
  cell_mut(id).members.push_back(Entity{eid, center});
  refresh_occupancy(id);
  return eid;
}

EntityId ChunkedSystem::seed_entity_unchecked(CellId id, Vec2 center) {
  CF_EXPECTS(grid_.contains(id));
  const EntityId eid{next_entity_id_++};
  cell_mut(id).members.push_back(Entity{eid, center});
  refresh_occupancy(id);
  return eid;
}

void ChunkedSystem::corrupt_control_state(CellId id, Dist dist, OptCellId next,
                                          OptCellId token, OptCellId signal) {
  CF_EXPECTS(grid_.contains(id));
  CellState& c = cell_mut(id);
  c.dist = dist;
  c.next = next;
  c.token = token;
  c.signal = signal;
  note_control_mutation(id);
}

bool ChunkedSystem::injection_is_safe(CellId id, Vec2 center) const {
  const Params& p = config_.params;
  const double half = p.entity_length() / 2.0;
  const double d = p.center_spacing();
  const auto i = static_cast<double>(id.i);
  const auto j = static_cast<double>(id.j);

  if (center.x - half < i || center.x + half > i + 1.0 ||
      center.y - half < j || center.y + half > j + 1.0)
    return false;

  // A non-live cell provably has no members and no token, so only the
  // bounds check above applies — exactly the dense outcome on the same
  // (empty, token-⊥) state.
  const CellState* c = peek_live(id);
  if (c == nullptr) return true;

  for (const Entity& q : c->members) {
    if (std::abs(center.x - q.center.x) < d &&
        std::abs(center.y - q.center.y) < d)
      return false;
  }
  if (c->token.has_value()) {
    const bool was_clear = entry_strip_clear(id, *c->token, c->members, p);
    if (was_clear) {
      const Entity probe{EntityId{~0ULL}, center};
      const bool probe_clear = entry_strip_clear(
          id, *c->token, std::span<const Entity>(&probe, 1), p);
      if (!probe_clear) return false;
    }
  }
  return true;
}

const RoundEvents& ChunkedSystem::update() {
  events_.clear();
  events_.round = round_;
  route_phase();
  signal_phase();
  move_phase();
  inject_phase();
  if (metrics_) {
    metrics_->add(round_counts_);
    metrics_->add_round();
    round_counts_.reset();
  }
  ++round_;
  if (scheduler_ == RoundScheduler::kActiveSet) park_sweep();
  return events_;
}

std::uint64_t ChunkedSystem::virgin_route_comp(std::size_t q) const {
  const ChunkLayout::Rect r = layout_.rect_of(q);
  const auto w = static_cast<std::uint64_t>(r.w);
  const auto h = static_cast<std::uint64_t>(r.h);
  // Σ degree over the rect: 4wh minus one per cell on each grid boundary
  // the rect touches. All cells are non-failed (virgin) and the target is
  // never in a virgin chunk, so no further exclusions apply.
  std::uint64_t sum = 4 * w * h;
  if (r.i0 == 0) sum -= h;
  if (r.i0 + r.w == layout_.side()) sum -= h;
  if (r.j0 == 0) sum -= w;
  if (r.j0 + r.h == layout_.side()) sum -= w;
  return sum;
}

void ChunkedSystem::route_phase() {
  const bool active = scheduler_ == RoundScheduler::kActiveSet;
  const auto& order = store_.live_order();
  if (!active) {
    // Exhaustive: recopy every snapshot before the sharded loop — cells
    // read *other chunks'* snapshots, so the copy cannot ride inside the
    // per-chunk bodies.
    for (const std::uint32_t q : order) {
      LiveChunk& lc = store_.live(q);
      for (std::size_t slot = 0; slot < lc.cells.size(); ++slot)
        lc.dist_snapshot[slot] = lc.cells[slot].dist;
    }
  }

  ThreadPool* pool = phase_pool(
      order.size() * static_cast<std::size_t>(kChunkSide * kChunkSide));
  const auto nshards =
      pool ? static_cast<std::size_t>(pool->thread_count()) : 1;
  for (std::size_t s = 0; s < nshards; ++s)
    scratch_.shards[s].begin_phase();
  const auto body = [&](std::size_t s, ShardRange r) {
    ShardScratch& sc = scratch_.shards[s];
    obs::ProtocolCounts* pc = metrics_ ? &sc.counts : nullptr;
    for (std::size_t x = r.begin; x < r.end; ++x) {
      const std::size_t q = order[x];
      LiveChunk& lc = store_.live(q);
      const ChunkLayout::Rect rect = layout_.rect_of(q);
      std::size_t slot = 0;
      for (int lj = 0; lj < rect.h; ++lj) {
        for (int li = 0; li < rect.w; ++li, ++slot) {
          const CellId id{rect.i0 + li, rect.j0 + lj};
          if (!active) {
            route_cell(lc, rect, slot, id, pc, nullptr);
            ++sc.visited;
          } else if (lc.route_stamp[slot] >= round_) {
            route_cell(lc, rect, slot, id, pc, &sc.changed);
            ++sc.visited;
          } else if (pc != nullptr && !lc.cells[slot].failed &&
                     id != config_.target) {
            pc->route_relaxations +=
                static_cast<std::uint64_t>(layout_.degree_of(id));
          }
        }
      }
    }
  };
  parallel_for_shards(pool, order.size(), body);

  sched_stats_.route_cells = 0;
  for (std::size_t s = 0; s < nshards; ++s) {
    if (metrics_) round_counts_.merge(scratch_.shards[s].counts);
    sched_stats_.route_cells += scratch_.shards[s].visited;
  }

  // Skipped-chunk compensation: a quiescent live cell tallies exactly
  // its lattice degree per round under the dense active-set scheduler
  // (visited or not — see System::route_span); non-live chunks owe
  // that same tally, from their O(1) summaries. Must run BEFORE the
  // arming merge below: arming can fault a chunk in, and a chunk that
  // was non-live while the sharded body ran still owes this round's
  // tally even if it is live by the end of the phase.
  if (active && metrics_ != nullptr) {
    for (std::size_t q = 0; q < store_.chunk_count(); ++q) {
      switch (store_.state(q)) {
        case ChunkedCellStore::State::kLive:
          break;
        case ChunkedCellStore::State::kParked:
          round_counts_.route_relaxations += store_.parked(q).route_comp;
          break;
        case ChunkedCellStore::State::kVirgin:
          round_counts_.route_relaxations += virgin_route_comp(q);
          break;
      }
    }
  }

  if (active) {
    // Post-barrier merge, shard order: sync the changed cells' snapshots
    // and arm their readers for next round — faulting a neighbor chunk
    // in *before* arming any of its cells, which is the live/parked
    // border crossing of the routing wave.
    for (std::size_t s = 0; s < nshards; ++s) {
      for (const CellId id : scratch_.shards[s].changed) {
        const std::size_t q = layout_.chunk_of(id);
        LiveChunk& lc = store_.live(q);
        const std::size_t slot = layout_.slot_of(id);
        lc.dist_snapshot[slot] = lc.cells[slot].dist;
        for (const Direction d : kAllDirections) {
          const auto st = step_of(d);
          const CellId nid{id.i + st[0], id.j + st[1]};
          if (grid_.contains(nid)) arm_cell(nid, round_ + 1);
        }
      }
    }
  }
}

void ChunkedSystem::route_cell(LiveChunk& lc, const ChunkLayout::Rect& rect,
                               std::size_t slot, CellId id,
                               obs::ProtocolCounts* counts,
                               std::vector<CellId>* changed_out) {
  CellState& c = lc.cells[slot];
  if (c.failed) return;
  if (id == config_.target) {
    if (c.dist != Dist::zero()) {
      if (counts != nullptr) ++counts->route_dist_changes;
      if (changed_out != nullptr) changed_out->push_back(id);
    }
    c.dist = Dist::zero();
    c.next = std::nullopt;
    return;
  }

  NeighborDist nds[4] = {};
  std::size_t n = 0;
  for (const Direction d : kAllDirections) {
    const auto st = step_of(d);
    const CellId nid{id.i + st[0], id.j + st[1]};
    if (!grid_.contains(nid)) continue;
    // Same-chunk reads hit the chunk's own frozen snapshot directly; a
    // cross-chunk read resolves through the store (live snapshot, parked
    // summary, or the virgin initial value — all frozen for the phase).
    Dist dist;
    if (nid.i >= rect.i0 && nid.i < rect.i0 + rect.w && nid.j >= rect.j0 &&
        nid.j < rect.j0 + rect.h) {
      dist = lc.dist_snapshot[static_cast<std::size_t>(nid.j - rect.j0) *
                                  static_cast<std::size_t>(rect.w) +
                              static_cast<std::size_t>(nid.i - rect.i0)];
    } else {
      dist = store_.boundary_dist(nid);
    }
    nds[n++] = NeighborDist{nid, dist};
  }
  const RouteResult r = route_step(std::span<const NeighborDist>(nds, n));
  if (counts != nullptr) {
    counts->route_relaxations += n;
    if (c.dist != r.dist) ++counts->route_dist_changes;
  }
  if (changed_out != nullptr && c.dist != r.dist) changed_out->push_back(id);
  c.dist = r.dist;
  c.next = r.next;
}

void ChunkedSystem::signal_phase() {
  const bool active = scheduler_ == RoundScheduler::kActiveSet;
  // A stateful choose policy pins Signal serial — and, here, to a
  // *global row-major* sweep: chunk-major traversal would permute the
  // policy's call sequence relative to the dense serial loop.
  const auto& order = store_.live_order();
  ThreadPool* pool =
      choose_->concurrent_safe()
          ? phase_pool(order.size() *
                       static_cast<std::size_t>(kChunkSide * kChunkSide))
          : nullptr;
  const auto nshards =
      pool ? static_cast<std::size_t>(pool->thread_count()) : 1;
  for (std::size_t s = 0; s < nshards; ++s)
    scratch_.shards[s].begin_phase();

  if (pool == nullptr) {
    // Serial sweep in ascending dense-index order (rows across all
    // chunks, skipping non-live chunks bodily). Also the no-pool path:
    // for pure policies any order gives identical per-cell results, and
    // one serial path that always matches the dense pinned loop is
    // simpler to trust than two.
    ShardScratch& sc = scratch_.shards[0];
    obs::ProtocolCounts* pc = metrics_ ? &sc.counts : nullptr;
    const int side = grid_.side();
    const int cx = layout_.chunks_x();
    for (int cj = 0; cj < cx; ++cj) {
      const int j_lo = cj * kChunkSide;
      const int j_hi = std::min(side, j_lo + kChunkSide);
      for (int j = j_lo; j < j_hi; ++j) {
        for (int ci = 0; ci < cx; ++ci) {
          const std::size_t q =
              static_cast<std::size_t>(cj) * static_cast<std::size_t>(cx) +
              static_cast<std::size_t>(ci);
          if (!store_.is_live(q)) continue;
          LiveChunk& lc = store_.live(q);
          const ChunkLayout::Rect rect = layout_.rect_of(q);
          std::size_t slot =
              static_cast<std::size_t>(j - rect.j0) *
              static_cast<std::size_t>(rect.w);
          for (int li = 0; li < rect.w; ++li, ++slot) {
            const CellId id{rect.i0 + li, j};
            if (!active) {
              signal_cell(lc, rect, slot, id, sc.blocked, pc, nullptr);
              ++sc.visited;
            } else if (lc.occ_refs[slot] > 0) {
              signal_cell(lc, rect, slot, id, sc.blocked, pc, &sc.flips);
              ++sc.visited;
            } else if (pc != nullptr && !lc.cells[slot].failed) {
              ++pc->ne_prev_sizes[0];
            }
          }
        }
      }
    }
  } else {
    const auto body = [&](std::size_t s, ShardRange r) {
      ShardScratch& sc = scratch_.shards[s];
      obs::ProtocolCounts* pc = metrics_ ? &sc.counts : nullptr;
      for (std::size_t x = r.begin; x < r.end; ++x) {
        const std::size_t q = order[x];
        LiveChunk& lc = store_.live(q);
        const ChunkLayout::Rect rect = layout_.rect_of(q);
        std::size_t slot = 0;
        for (int lj = 0; lj < rect.h; ++lj) {
          for (int li = 0; li < rect.w; ++li, ++slot) {
            const CellId id{rect.i0 + li, rect.j0 + lj};
            if (!active) {
              signal_cell(lc, rect, slot, id, sc.blocked, pc, nullptr);
              ++sc.visited;
            } else if (lc.occ_refs[slot] > 0) {
              signal_cell(lc, rect, slot, id, sc.blocked, pc, &sc.flips);
              ++sc.visited;
            } else if (pc != nullptr && !lc.cells[slot].failed) {
              ++pc->ne_prev_sizes[0];
            }
          }
        }
      }
    };
    parallel_for_shards(pool, order.size(), body);
  }

  sched_stats_.signal_cells = 0;
  for (std::size_t s = 0; s < nshards; ++s) {
    const ShardScratch& sc = scratch_.shards[s];
    events_.blocked.insert(events_.blocked.end(), sc.blocked.begin(),
                           sc.blocked.end());
    if (metrics_) round_counts_.merge(sc.counts);
    sched_stats_.signal_cells += sc.visited;
  }
  // Canonicalize: the dense engines emit blocked events in ascending
  // dense-index order by construction; chunk-major traversal does not,
  // so sort (cell ids are unique — the order is total).
  std::sort(events_.blocked.begin(), events_.blocked.end(), dense_less);

  // Skipped-chunk compensation (see route_phase): one ne_prev_sizes[0]
  // per non-failed cell. Tallied before the occupancy flips are applied —
  // a flip can fault a neighboring chunk in, and a chunk that was
  // non-live during the sweep still owes this round's tally.
  if (active && metrics_ != nullptr) {
    for (std::size_t q = 0; q < store_.chunk_count(); ++q) {
      switch (store_.state(q)) {
        case ChunkedCellStore::State::kLive:
          break;
        case ChunkedCellStore::State::kParked:
          round_counts_.ne_prev_sizes[0] += store_.parked(q).live_cells;
          break;
        case ChunkedCellStore::State::kVirgin:
          round_counts_.ne_prev_sizes[0] += layout_.cells_in(q);
          break;
      }
    }
  }

  for (std::size_t s = 0; s < nshards; ++s)
    for (const CellId id : scratch_.shards[s].flips)
      apply_occupancy_flip(id);
}

void ChunkedSystem::signal_cell(LiveChunk& lc, const ChunkLayout::Rect& rect,
                                std::size_t slot, CellId id,
                                std::vector<CellId>& blocked_out,
                                obs::ProtocolCounts* counts,
                                std::vector<CellId>* flip_out) {
  CellState& c = lc.cells[slot];
  if (c.failed) return;

  SignalInputs in;
  in.self = id;
  in.members = c.members;
  in.token = c.token;
  for (const Direction d : kAllDirections) {
    const auto st = step_of(d);
    const CellId nid{id.i + st[0], id.j + st[1]};
    if (!grid_.contains(nid)) continue;
    const CellState* nc;
    if (nid.i >= rect.i0 && nid.i < rect.i0 + rect.w && nid.j >= rect.j0 &&
        nid.j < rect.j0 + rect.h) {
      nc = &lc.cells[static_cast<std::size_t>(nid.j - rect.j0) *
                         static_cast<std::size_t>(rect.w) +
                     static_cast<std::size_t>(nid.i - rect.i0)];
    } else {
      // A non-live neighbor has no members, so it can never be a
      // nonempty predecessor — skipping it reads exactly what the dense
      // engine reads from the same (empty) cell.
      nc = peek_live(nid);
      if (nc == nullptr) continue;
    }
    if (nc->failed) continue;
    if (nc->next == OptCellId{id} && nc->has_entities())
      in.ne_prev.push_back(nid);
  }
  std::sort(in.ne_prev.begin(), in.ne_prev.end());

  const bool had_candidate = in.token.has_value() || !in.ne_prev.empty();
  const std::size_t ne_prev_size = in.ne_prev.size();
  const OptCellId old_token = c.token;
  SignalResult r =
      config_.signal_rule == SignalRule::kBlocking
          ? signal_step(std::move(in), config_.params, *choose_)
          : signal_step_always_grant(std::move(in), *choose_);
  if (had_candidate && !r.signal.has_value()) blocked_out.push_back(id);
  if (counts != nullptr) {
    ++counts->ne_prev_sizes[std::min<std::size_t>(
        ne_prev_size, counts->ne_prev_sizes.size() - 1)];
    if (r.signal.has_value()) ++counts->signal_grants;
    if (had_candidate && !r.signal.has_value()) ++counts->signal_blocks;
    if (old_token.has_value() && r.token != old_token)
      ++counts->signal_token_rotations;
  }
  c.signal = r.signal;
  c.token = r.token;
  c.ne_prev = std::move(r.ne_prev);
  if (flip_out != nullptr && occupied(c) != (lc.occ_b[slot] != 0))
    flip_out->push_back(id);
}

void ChunkedSystem::move_phase() {
  const bool active = scheduler_ == RoundScheduler::kActiveSet;
  const auto& order = store_.live_order();
  ThreadPool* pool = phase_pool(
      order.size() * static_cast<std::size_t>(kChunkSide * kChunkSide));
  const auto nshards =
      pool ? static_cast<std::size_t>(pool->thread_count()) : 1;
  for (std::size_t s = 0; s < nshards; ++s)
    scratch_.shards[s].begin_phase();
  const auto body = [&](std::size_t s, ShardRange r) {
    ShardScratch& sc = scratch_.shards[s];
    obs::ProtocolCounts* pc = metrics_ ? &sc.counts : nullptr;
    for (std::size_t x = r.begin; x < r.end; ++x) {
      const std::size_t q = order[x];
      LiveChunk& lc = store_.live(q);
      const ChunkLayout::Rect rect = layout_.rect_of(q);
      std::size_t slot = 0;
      for (int lj = 0; lj < rect.h; ++lj) {
        for (int li = 0; li < rect.w; ++li, ++slot) {
          const CellId id{rect.i0 + li, rect.j0 + lj};
          if (!active) {
            move_cell(lc, rect, slot, id, sc.moved, sc.pending, sc.crossed,
                      pc);
            ++sc.visited;
          } else if (lc.occ_refs[slot] > 0) {
            move_cell(lc, rect, slot, id, sc.moved, sc.pending, sc.crossed,
                      pc);
            ++sc.visited;
          }
        }
      }
    }
  };
  parallel_for_shards(pool, order.size(), body);

  sched_stats_.move_cells = 0;
  for (std::size_t s = 0; s < nshards; ++s) {
    const ShardScratch& sc = scratch_.shards[s];
    events_.moved.insert(events_.moved.end(), sc.moved.begin(),
                         sc.moved.end());
    if (metrics_) round_counts_.merge(sc.counts);
    sched_stats_.move_cells += sc.visited;
  }
  std::sort(events_.moved.begin(), events_.moved.end(), dense_less);

  std::vector<PendingTransfer>& transfers = scratch_.transfers;
  transfers.clear();
  for (std::size_t s = 0; s < nshards; ++s) {
    std::vector<PendingTransfer>& p = scratch_.shards[s].pending;
    transfers.insert(transfers.end(), std::make_move_iterator(p.begin()),
                     std::make_move_iterator(p.end()));
  }
  // Chunk-major shards do NOT produce the canonical origin order, so the
  // sort inside is load-bearing here (unlike the dense engines, where it
  // only guards against drift).
  canonical_transfer_order(grid_, transfers);

  for (PendingTransfer& t : transfers) {
    TransferEvent ev{t.entity.id, t.from, t.to, /*consumed=*/false};
    if (t.to == config_.target) {
      ev.consumed = true;
      ++total_arrivals_;
      ++events_.arrivals;
      if (metrics_) ++round_counts_.consumptions;
    } else {
      // The destination granted this transfer, so it has a signal set —
      // it is occupied and therefore live; cell_mut is a plain lookup.
      cell_mut(t.to).members.push_back(t.entity);
    }
    events_.transfers.push_back(ev);
  }
  if (active) {
    for (const CellId id : events_.moved) refresh_occupancy(id);
    for (const TransferEvent& t : events_.transfers)
      if (!t.consumed) refresh_occupancy(t.to);
  }
}

void ChunkedSystem::move_cell(LiveChunk& lc, const ChunkLayout::Rect& rect,
                              std::size_t slot, CellId id,
                              std::vector<CellId>& moved_out,
                              std::vector<PendingTransfer>& pending_out,
                              std::vector<Entity>& crossed_scratch,
                              obs::ProtocolCounts* counts) {
  CellState& c = lc.cells[slot];
  if (c.failed || !c.next.has_value()) return;
  const CellId dest = *c.next;
  const CellState* dc;
  if (dest.i >= rect.i0 && dest.i < rect.i0 + rect.w && dest.j >= rect.j0 &&
      dest.j < rect.j0 + rect.h) {
    dc = &lc.cells[static_cast<std::size_t>(dest.j - rect.j0) *
                       static_cast<std::size_t>(rect.w) +
                   static_cast<std::size_t>(dest.i - rect.i0)];
  } else {
    // A non-live destination has signal ⊥ (quiescent), so no permission —
    // the same read the dense engine performs on that cell.
    dc = peek_live(dest);
  }
  const bool permitted = dc != nullptr && dc->signal == OptCellId{id};

  crossed_scratch.clear();
  if (config_.movement_rule == MovementRule::kCoupled) {
    if (!permitted) return;
    moved_out.push_back(id);
    if (counts != nullptr) ++counts->moves;
    move_step_inplace(id, dest, c.members, crossed_scratch, config_.params);
  } else {
    if (c.members.empty()) return;
    if (permitted) {
      moved_out.push_back(id);
      if (counts != nullptr) ++counts->moves;
    }
    CompactionContext ctx;
    ctx.may_cross = permitted;
    if (c.signal.has_value())
      ctx.promised_strip = grid_.direction_between(id, *c.signal);
    compact_move_step_inplace(id, dest, c.members, crossed_scratch,
                              config_.params, ctx);
  }
  if (counts != nullptr) counts->transfers += crossed_scratch.size();
  for (Entity& e : crossed_scratch)
    pending_out.push_back(PendingTransfer{e, id, dest});
}

void ChunkedSystem::inject_phase() {
  for (const CellId s : config_.sources) {
    CellState& c = cell_mut(s);  // source chunks are pinned live
    if (c.failed) continue;
    const auto center = source_->propose(grid_, config_.params, s, c);
    if (!center.has_value()) continue;
    if (!injection_is_safe(s, *center)) {
      if (metrics_) ++round_counts_.blocked_injections;
      continue;
    }
    const EntityId id{next_entity_id_++};
    c.members.push_back(Entity{id, *center});
    refresh_occupancy(s);
    source_->note_accepted();
    events_.injected.emplace_back(s, id);
    if (metrics_) ++round_counts_.injections;
  }
}

void ChunkedSystem::park_sweep() {
  // park() restructures the store, so sweep over a copy of the live list.
  scratch_.park_scan = store_.live_order();
  for (const std::uint32_t q : scratch_.park_scan) {
    if (pinned_[q] != 0) continue;
    LiveChunk& lc = store_.live(q);
    // Quiescence predicates (see the file comment in chunked_system.hpp):
    // no occupied closed neighborhood anywhere in the chunk, and no cell
    // armed for Route this round or later.
    if (lc.ref_cells != 0 || lc.max_stamp >= round_) {
      lc.quiet_rounds = 0;
      continue;
    }
    if (lc.quiet_rounds < kParkHysteresis) {
      ++lc.quiet_rounds;
      continue;
    }
    if (!store_.parkable(q)) continue;  // unencodable (corrupted) state
    store_.park(q);
  }
}

}  // namespace cellflow::chunk
