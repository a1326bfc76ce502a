#include "chunk/chunked_system.hpp"

#include <algorithm>
#include <optional>
#include <span>
#include <utility>

#include "core/route.hpp"
#include "util/check.hpp"

namespace cellflow::chunk {

namespace {

/// Ascending-dense-index order of CellIds (j major, i minor — the grid's
/// row-major index). CellId's own operator< is i-major, so the event
/// canonicalization must not use it.
[[nodiscard]] bool dense_less(CellId a, CellId b) noexcept {
  return a.j != b.j ? a.j < b.j : a.i < b.i;
}

/// Calls f(lc, rect, slot, id) for every cell of the live chunks
/// `chunks`, chunk by chunk, row-major within each.
template <class F>
void for_each_cell(ChunkedCellStore& store, const ChunkLayout& layout,
                   std::span<const std::uint32_t> chunks, F&& f) {
  for (const std::uint32_t q : chunks) {
    LiveChunk& lc = store.live(q);
    const ChunkLayout::Rect rect = layout.rect_of(q);
    std::size_t slot = 0;
    for (int lj = 0; lj < rect.h; ++lj) {
      for (int li = 0; li < rect.w; ++li, ++slot)
        f(lc, rect, slot, CellId{rect.i0 + li, rect.j0 + lj});
    }
  }
}

/// Calls f(lc, rect, slot, id) for every cell of every live chunk in
/// ascending dense-index order: rows across all chunks, skipping non-live
/// chunks bodily — the dense serial loop's order.
template <class F>
void for_each_cell_row_major(ChunkedCellStore& store,
                             const ChunkLayout& layout, F&& f) {
  const int cx = layout.chunks_x();
  for (int cj = 0; cj < cx; ++cj) {
    const int j_lo = cj * kChunkSide;
    const int j_hi = std::min(layout.side(), j_lo + kChunkSide);
    for (int j = j_lo; j < j_hi; ++j) {
      for (int ci = 0; ci < cx; ++ci) {
        const std::size_t q =
            static_cast<std::size_t>(cj) * static_cast<std::size_t>(cx) +
            static_cast<std::size_t>(ci);
        if (!store.is_live(q)) continue;
        LiveChunk& lc = store.live(q);
        const ChunkLayout::Rect rect = layout.rect_of(q);
        std::size_t slot = static_cast<std::size_t>(j - rect.j0) *
                           static_cast<std::size_t>(rect.w);
        for (int li = 0; li < rect.w; ++li, ++slot)
          f(lc, rect, slot, CellId{rect.i0 + li, j});
      }
    }
  }
}

/// The same-chunk slot of `id`, or nullopt when `id` lies outside `rect`.
[[nodiscard]] std::optional<std::size_t> slot_in(const ChunkLayout::Rect& rect,
                                                 CellId id) noexcept {
  if (id.i < rect.i0 || id.i >= rect.i0 + rect.w || id.j < rect.j0 ||
      id.j >= rect.j0 + rect.h)
    return std::nullopt;
  return static_cast<std::size_t>(id.j - rect.j0) *
             static_cast<std::size_t>(rect.w) +
         static_cast<std::size_t>(id.i - rect.i0);
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
  canonicalize_sources(grid_, config_.target, config_.sources);

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
  if (policy.num_threads > 1) {
    if (!pool_ || pool_->thread_count() != policy.num_threads)
      pool_ = std::make_unique<ThreadPool>(policy.num_threads);
  } else {
    pool_.reset();
  }
  const auto width =
      pool_ ? static_cast<std::size_t>(pool_->thread_count()) : 1;
  if (scratch_.shards.size() < width) scratch_.shards.resize(width);
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
  if (apply_fail(cell_mut(id)) && metrics_) metrics_->add_failure();
  note_control_mutation(id);
}

void ChunkedSystem::recover(CellId id) {
  CF_EXPECTS(grid_.contains(id));
  if (!apply_recover(cell_mut(id), id == config_.target)) return;
  if (metrics_) metrics_->add_recovery();
  note_control_mutation(id);
}

EntityId ChunkedSystem::seed_entity(CellId id, Vec2 center) {
  // A non-live cell provably has no members and no token; cell() reads it
  // without faulting its chunk in, so a rejected placement changes nothing.
  const CellState c = cell(id);
  CF_EXPECTS_MSG(injection_is_safe(id, center, c.members, c.token,
                                   config_.params),
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

const RoundEvents& ChunkedSystem::update() {
  events_.clear();
  events_.round = round_;
  // The parallel stages read the live-chunk list concurrently, so it is
  // rebuilt on this thread before the plan and at the end of each serial
  // stage that precedes one (merges can fault chunks in).
  const std::vector<std::uint32_t>& live = store_.live_order();
  if (scheduler_ != RoundScheduler::kActiveSet) {
    // Exhaustive: recopy every snapshot before Route — cells read *other
    // chunks'* snapshots, so the copy cannot ride inside the per-chunk
    // bodies.
    for (const std::uint32_t q : live) {
      LiveChunk& lc = store_.live(q);
      for (std::size_t slot = 0; slot < lc.cells.size(); ++slot)
        lc.dist_snapshot[slot] = lc.cells[slot].dist;
    }
  }
  // System's round plan (DESIGN.md §6) with chunks as the shard domain:
  // the shard count is fixed here, and each parallel stage shards the
  // live list as it stands when the stage opens.
  const RoundEngine engine = choose_round_engine(
      pool_.get(), parallel_.cutover, round_, sched_stats_, live.size());
  const std::size_t used = engine.shards;
  const bool signal_sharded =
      engine.pool != nullptr && choose_->concurrent_safe();
  for (std::size_t s = 0; s < used; ++s) scratch_.shards[s].begin_round();

  const auto slice = [&](std::size_t t) {
    // Never empty: the target's chunk is pinned live.
    const ShardRange r = shard_range_at(live.size(), used, t);
    return std::span<const std::uint32_t>(live).subspan(r.begin,
                                                        r.end - r.begin);
  };
  // The scheduler's gates, per cell: kActiveSet runs only armed (Route)
  // or occupied-neighborhood (Signal, Move) cells; a skipped live cell
  // owes only the tally the exhaustive loop would have made — a degree's
  // worth of relaxations (none for the pinned target) and one
  // ne_prev_sizes[0].
  const bool active = scheduler_ == RoundScheduler::kActiveSet;
  const bool counting = metrics_ != nullptr;
  const auto route_at = [&](ShardScratch& sc, LiveChunk& lc,
                            const ChunkLayout::Rect& rect, std::size_t slot,
                            CellId id) {
    if (!active || lc.route_stamp[slot] >= round_) {
      ++sc.visited;
      route_cell(sc, lc, rect, slot, id);
    } else if (counting && !lc.cells[slot].failed && id != config_.target) {
      sc.counts.route_relaxations +=
          static_cast<std::uint64_t>(layout_.degree_of(id));
    }
  };
  const auto signal_at = [&](ShardScratch& sc, LiveChunk& lc,
                             const ChunkLayout::Rect& rect, std::size_t slot,
                             CellId id) {
    if (!active || lc.occ_refs[slot] > 0) {
      ++sc.visited;
      signal_cell(sc, lc, rect, slot, id);
    } else if (counting && !lc.cells[slot].failed) {
      ++sc.counts.ne_prev_sizes[0];
    }
  };
  const auto move_at = [&](ShardScratch& sc, LiveChunk& lc,
                           const ChunkLayout::Rect& rect, std::size_t slot,
                           CellId id) {
    if (!active || lc.occ_refs[slot] > 0) {
      ++sc.visited;
      move_cell(sc, lc, rect, slot, id);
    }
  };
  const auto shard = [&](std::size_t t, const auto& at) {
    ShardScratch& sc = scratch_.shards[t];
    for_each_cell(store_, layout_, slice(t),
                  [&](auto&&... cell) { at(sc, cell...); });
  };
  const auto route = [&](std::size_t t) { shard(t, route_at); };
  const auto signal = [&](std::size_t t) { shard(t, signal_at); };
  const auto move = [&](std::size_t t) { shard(t, move_at); };
  const auto after_route = [&](std::size_t) {
    merge_route_results(used);
    // A stateful choose policy, or an inline round, sweeps Signal
    // row-major so the policy sees the dense serial call sequence.
    if (!signal_sharded) {
      for_each_cell_row_major(store_, layout_, [&](auto&&... cell) {
        signal_at(scratch_.shards[0], cell...);
      });
    }
    (void)store_.live_order();
  };
  const auto after_signal = [&](std::size_t) {
    merge_signal_results(used);
    (void)store_.live_order();
  };
  const auto after_move = [&](std::size_t) {
    merge_move_results(used);
    inject_phase();
  };
  const ThreadPool::PlanStage stages[] = {
      {/*parallel=*/true, used, route},
      {/*parallel=*/false, 1, after_route},
      {/*parallel=*/true, signal_sharded ? used : 0, signal},
      {/*parallel=*/false, 1, after_signal},
      {/*parallel=*/true, used, move},
      {/*parallel=*/false, 1, after_move},
  };
  run_plan(engine.pool, stages, std::size(stages));

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

std::uint64_t ChunkedSystem::collect_shards(std::size_t used) {
  std::uint64_t visited = 0;
  for (std::size_t s = 0; s < used; ++s) {
    ShardScratch& sc = scratch_.shards[s];
    if (metrics_) round_counts_.merge(sc.counts);
    sc.counts.reset();
    visited += sc.visited;
    sc.visited = 0;
  }
  return visited;
}

void ChunkedSystem::merge_route_results(std::size_t used) {
  sched_stats_.route_cells = collect_shards(used);
  if (scheduler_ != RoundScheduler::kActiveSet) return;

  // Skipped-chunk compensation: a quiescent live cell tallies exactly
  // its lattice degree per round under the dense active-set scheduler
  // (visited or not — see System::route_span); non-live chunks owe
  // that same tally, from their O(1) summaries. Must run BEFORE the
  // arming merge below: arming can fault a chunk in, and a chunk that
  // was non-live while the sharded body ran still owes this round's
  // tally even if it is live by the end of the phase.
  if (metrics_ != nullptr) {
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

  // Shard order: sync the changed cells' snapshots and arm their readers
  // for next round — faulting a neighbor chunk in *before* arming any of
  // its cells, which is the live/parked border crossing of the routing
  // wave.
  for (std::size_t s = 0; s < used; ++s) {
    for (const CellId id : scratch_.shards[s].changed) {
      LiveChunk& lc = store_.live(layout_.chunk_of(id));
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

void ChunkedSystem::route_cell(ShardScratch& sc, LiveChunk& lc,
                               const ChunkLayout::Rect& rect, std::size_t slot,
                               CellId id) {
  CellState& c = lc.cells[slot];
  if (c.failed) return;
  NeighborDist nds[4] = {};
  std::size_t n = 0;
  for (const Direction d : kAllDirections) {
    const auto st = step_of(d);
    const CellId nid{id.i + st[0], id.j + st[1]};
    if (!grid_.contains(nid)) continue;
    // Same-chunk reads hit the chunk's own frozen snapshot directly; a
    // cross-chunk read resolves through the store (live snapshot, parked
    // summary, or the virgin initial value — all frozen for the phase).
    const auto ns = slot_in(rect, nid);
    nds[n++] = NeighborDist{nid, ns ? lc.dist_snapshot[*ns]
                                    : store_.boundary_dist(nid)};
  }
  if (apply_route(c, id == config_.target,
                  std::span<const NeighborDist>(nds, n),
                  metrics_ ? &sc.counts : nullptr) &&
      scheduler_ == RoundScheduler::kActiveSet)
    sc.changed.push_back(id);
}

void ChunkedSystem::merge_signal_results(std::size_t used) {
  sched_stats_.signal_cells = collect_shards(used);
  for (std::size_t s = 0; s < used; ++s) {
    const ShardScratch& sc = scratch_.shards[s];
    events_.blocked.insert(events_.blocked.end(), sc.blocked.begin(),
                           sc.blocked.end());
  }
  // Canonicalize: the dense engines emit blocked events in ascending
  // dense-index order by construction; chunk-major traversal does not,
  // so sort (cell ids are unique — the order is total).
  std::sort(events_.blocked.begin(), events_.blocked.end(), dense_less);
  if (scheduler_ != RoundScheduler::kActiveSet) return;

  // Skipped-chunk compensation (see merge_route_results): one
  // ne_prev_sizes[0] per non-failed cell. Tallied before the occupancy
  // flips are applied — a flip can fault a neighboring chunk in, and a
  // chunk that was non-live during the sweep still owes this round's
  // tally.
  if (metrics_ != nullptr) {
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
  for (std::size_t s = 0; s < used; ++s)
    for (const CellId id : scratch_.shards[s].flips) apply_occupancy_flip(id);
}

void ChunkedSystem::signal_cell(ShardScratch& sc, LiveChunk& lc,
                                const ChunkLayout::Rect& rect,
                                std::size_t slot, CellId id) {
  CellState& c = lc.cells[slot];
  if (c.failed) return;
  NeighborSet ne_prev;
  for (const Direction d : kAllDirections) {
    const auto st = step_of(d);
    const CellId nid{id.i + st[0], id.j + st[1]};
    if (!grid_.contains(nid)) continue;
    // A non-live neighbor has no members, so it can never be a nonempty
    // predecessor — skipping it reads exactly what the dense engine reads
    // from the same (empty) cell.
    const auto ns = slot_in(rect, nid);
    const CellState* nc = ns ? &lc.cells[*ns] : peek_live(nid);
    if (nc == nullptr || nc->failed) continue;
    if (nc->next == OptCellId{id} && nc->has_entities()) ne_prev.push_back(nid);
  }
  if (apply_signal(c, id, std::move(ne_prev), config_.signal_rule,
                   config_.params, *choose_, metrics_ ? &sc.counts : nullptr))
    sc.blocked.push_back(id);
  if (scheduler_ == RoundScheduler::kActiveSet &&
      occupied(c) != (lc.occ_b[slot] != 0))
    sc.flips.push_back(id);
}

void ChunkedSystem::merge_move_results(std::size_t used) {
  sched_stats_.move_cells = collect_shards(used);
  for (std::size_t s = 0; s < used; ++s) {
    const ShardScratch& sc = scratch_.shards[s];
    events_.moved.insert(events_.moved.end(), sc.moved.begin(),
                         sc.moved.end());
  }
  std::sort(events_.moved.begin(), events_.moved.end(), dense_less);

  std::vector<PendingTransfer>& transfers = scratch_.transfers;
  transfers.clear();
  for (std::size_t s = 0; s < used; ++s) {
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
  if (scheduler_ == RoundScheduler::kActiveSet) {
    for (const CellId id : events_.moved) refresh_occupancy(id);
    for (const TransferEvent& t : events_.transfers)
      if (!t.consumed) refresh_occupancy(t.to);
  }
}

void ChunkedSystem::move_cell(ShardScratch& sc, LiveChunk& lc,
                              const ChunkLayout::Rect& rect, std::size_t slot,
                              CellId id) {
  CellState& c = lc.cells[slot];
  if (c.failed || !c.next.has_value()) return;
  const CellId dest = *c.next;
  // A non-live destination has signal ⊥ (quiescent), so no permission —
  // the same read the dense engine performs on that cell.
  const auto ds = slot_in(rect, dest);
  const CellState* dc = ds ? &lc.cells[*ds] : peek_live(dest);
  const bool permitted = dc != nullptr && dc->signal == OptCellId{id};
  if (apply_move(c, id, permitted, config_.movement_rule, grid_,
                 config_.params, sc.crossed, metrics_ ? &sc.counts : nullptr))
    sc.moved.push_back(id);
  for (Entity& e : sc.crossed)
    sc.pending.push_back(PendingTransfer{e, id, dest});
}

void ChunkedSystem::inject_phase() {
  for (const CellId s : config_.sources) {
    // Source chunks are pinned live, so cell_mut is a plain lookup.
    const auto id =
        apply_injection(cell_mut(s), s, *source_, grid_, config_.params,
                        next_entity_id_, metrics_ ? &round_counts_ : nullptr);
    if (!id.has_value()) continue;
    refresh_occupancy(s);
    events_.injected.emplace_back(s, *id);
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
