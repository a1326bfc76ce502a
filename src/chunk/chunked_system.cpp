#include "chunk/chunked_system.hpp"

#include <algorithm>
#include <optional>
#include <span>
#include <utility>

#include "core/route.hpp"
#include "util/check.hpp"

namespace cellflow::chunk {

namespace {

/// Calls f(lc, rect, slot, id) for every cell of the live chunks
/// `chunks`, chunk by chunk, row-major within each.
template <class F>
void for_each_cell_in(ChunkedCellStore& store, const ChunkLayout& layout,
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
    : ShardedEngine(std::move(config), std::move(choose), std::move(source)),
      layout_(config_.side),
      store_(config_.side, config_.target) {
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
}

CellState ChunkedSystem::cell(CellId id) const {
  CF_EXPECTS(grid_.contains(id));
  const std::size_t q = layout_.chunk_of(id);
  if (store_.is_live(q)) return store_.live(q).cells[layout_.slot_of(id)];
  return store_.rest_cell(q, layout_.slot_of(id));
}

bool ChunkedSystem::is_failed(CellId id) const {
  CF_EXPECTS(grid_.contains(id));
  return store_.is_failed(id);
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

void ChunkedSystem::apply_flip(CellId id) {
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
  if (occupied(lc.cells[slot]) != (lc.occ_b[slot] != 0)) apply_flip(id);
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
          apply_flip(CellId{rect.i0 + li, rect.j0 + lj});
      }
    }
  }
  // Pass C: arm every live cell for this round, sync the snapshots, and
  // count the failed cells out of the live totals — live chunks by their
  // cells, parked ones by their summaries' failed bits (virgin chunks
  // hold none). Non-live chunks stay unarmed: they are quiescence
  // fixpoints, for which the dense rebuild's blanket arming is
  // observationally a no-op.
  reset_live_totals();
  for (std::size_t q = 0; q < nq; ++q) {
    if (store_.state(q) == ChunkedCellStore::State::kParked) {
      const ParkedChunk& p = store_.parked(q);
      for (std::size_t slot = 0; slot < p.meta.size(); ++slot)
        if ((p.meta[slot] & ParkedChunk::kFailedBit) != 0)
          note_liveness(layout_.cell_at(q, slot), false);
    }
    if (!store_.is_live(q)) continue;
    LiveChunk& lc = store_.live(q);
    const std::size_t n = lc.cells.size();
    lc.route_stamp.assign(n, round_);
    lc.max_stamp = round_;
    lc.quiet_rounds = 0;
    for (std::size_t slot = 0; slot < n; ++slot) {
      lc.dist_snapshot[slot] = lc.cells[slot].dist;
      if (lc.cells[slot].failed) note_liveness(layout_.cell_at(q, slot), false);
    }
  }
}

void ChunkedSystem::set_round_scheduler(RoundScheduler scheduler) {
  if (scheduler_ == scheduler) return;
  scheduler_ = scheduler;
  if (active()) {
    rebuild_active_sets();
  } else {
    // Exhaustive semantics visit every cell of the grid, so every chunk
    // must be resident (and none park while the scheduler is exhaustive).
    for (std::size_t q = 0; q < store_.chunk_count(); ++q)
      store_.ensure_live(q);
  }
}

std::size_t ChunkedSystem::begin_round() {
  const std::vector<std::uint32_t>& live = store_.live_order();
  if (!active()) {
    // Exhaustive: recopy every snapshot before Route — cells read *other
    // chunks'* snapshots, so the copy cannot ride inside the per-chunk
    // bodies.
    for (const std::uint32_t q : live) {
      LiveChunk& lc = store_.live(q);
      for (std::size_t slot = 0; slot < lc.cells.size(); ++slot)
        lc.dist_snapshot[slot] = lc.cells[slot].dist;
    }
  }
  return live.size();
}

std::span<const std::uint32_t> ChunkedSystem::slice(std::size_t t,
                                                    std::size_t used) {
  // Never empty: the target's chunk is pinned live. The serial stages
  // rebuild the list before each parallel stage opens, so this is a
  // plain read on the workers.
  const std::vector<std::uint32_t>& live = store_.live_order();
  const ShardRange r = shard_range_at(live.size(), used, t);
  return std::span<const std::uint32_t>(live).subspan(r.begin,
                                                      r.end - r.begin);
}

// The shard loops hold the kActiveSet gates (System's, per chunk slot):
// Route runs armed cells, Signal and Move cells with an occupied closed
// neighborhood.

void ChunkedSystem::route_shard(std::size_t t, std::size_t used) {
  ShardScratch& sc = shards_[t];
  const bool gated = active();
  for_each_cell_in(store_, layout_, slice(t, used),
                   [&](LiveChunk& lc, const ChunkLayout::Rect& rect,
                       std::size_t slot, CellId id) {
                     if (gated && lc.route_stamp[slot] < round_) return;
                     ++sc.visited;
                     route_cell(sc, lc, rect, slot, id);
                   });
}

auto ChunkedSystem::signal_visitor(ShardScratch& sc) {
  return [this, &sc, gated = active()](LiveChunk& lc,
                                       const ChunkLayout::Rect& rect,
                                       std::size_t slot, CellId id) {
    if (gated && lc.occ_refs[slot] == 0) return;
    ++sc.visited;
    signal_cell(sc, lc, rect, slot, id);
  };
}

void ChunkedSystem::signal_shard(std::size_t t, std::size_t used) {
  for_each_cell_in(store_, layout_, slice(t, used),
                   signal_visitor(shards_[t]));
}

void ChunkedSystem::signal_sweep() {
  for_each_cell_row_major(store_, layout_, signal_visitor(shards_[0]));
}

void ChunkedSystem::move_shard(std::size_t t, std::size_t used) {
  ShardScratch& sc = shards_[t];
  const bool gated = active();
  for_each_cell_in(store_, layout_, slice(t, used),
                   [&](LiveChunk& lc, const ChunkLayout::Rect& rect,
                       std::size_t slot, CellId id) {
                     if (gated && lc.occ_refs[slot] == 0) return;
                     ++sc.visited;
                     move_cell(sc, lc, rect, slot, id);
                   });
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
      active())
    sc.changed.push_back(id);
}

void ChunkedSystem::apply_dist_change(CellId id) {
  // Fault a neighbor chunk in *before* arming any of its cells: the
  // live/parked border crossing of the routing wave.
  LiveChunk& lc = store_.live(layout_.chunk_of(id));
  const std::size_t slot = layout_.slot_of(id);
  lc.dist_snapshot[slot] = lc.cells[slot].dist;
  for (const Direction d : kAllDirections) {
    const auto st = step_of(d);
    const CellId nid{id.i + st[0], id.j + st[1]};
    if (grid_.contains(nid)) arm_cell(nid, round_ + 1);
  }
}

void ChunkedSystem::signal_cell(ShardScratch& sc, LiveChunk& lc,
                                const ChunkLayout::Rect& rect,
                                std::size_t slot, CellId id) {
  CellState& c = lc.cells[slot];
  if (c.failed) return;
  const NeighborMask ne_prev = neighbor_mask(id, [&](CellId nid) {
    if (!grid_.contains(nid)) return false;
    // A non-live neighbor has no members, so it can never be a nonempty
    // predecessor — skipping it reads exactly what the dense engine reads
    // from the same (empty) cell.
    const auto ns = slot_in(rect, nid);
    const CellState* nc = ns ? &lc.cells[*ns] : peek_live(nid);
    return nc != nullptr && !nc->failed && nc->next == OptCellId{id} &&
           nc->has_entities();
  });
  if (apply_signal(c, id, ne_prev, config_.signal_rule,
                   config_.params, *choose_, metrics_ ? &sc.counts : nullptr))
    sc.blocked.push_back(id);
  if (active() && occupied(c) != (lc.occ_b[slot] != 0)) sc.flips.push_back(id);
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

void ChunkedSystem::end_round() {
  if (!active()) return;
  // park() restructures the store, so sweep over a copy of the live list.
  park_scan_ = store_.live_order();
  for (const std::uint32_t q : park_scan_) {
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

namespace cellflow {
template class ShardedEngine<chunk::ChunkedSystem>;
}  // namespace cellflow
