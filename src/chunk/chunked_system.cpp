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
/// `chunks` but those for which quiet(lc) holds, chunk by chunk,
/// row-major within each.
template <class Quiet, class F>
void for_each_cell_in(ChunkedCellStore& store, const ChunkLayout& layout,
                      std::span<const std::uint32_t> chunks, Quiet&& quiet,
                      F&& f) {
  for (const std::uint32_t q : chunks) {
    LiveChunk& lc = store.live(q);
    if (quiet(lc)) continue;
    const ChunkLayout::Rect rect = layout.rect_of(q);
    std::size_t slot = 0;
    for (int lj = 0; lj < rect.h; ++lj) {
      for (int li = 0; li < rect.w; ++li, ++slot)
        f(lc, rect, slot, CellId{rect.i0 + li, rect.j0 + lj});
    }
  }
}

/// Calls f(lc, rect, slot, id) for every cell of every live chunk but
/// those for which quiet(lc) holds, in ascending dense-index order: rows
/// across all chunks, skipping the others bodily — the dense serial
/// loop's order.
template <class Quiet, class F>
void for_each_cell_row_major(ChunkedCellStore& store,
                             const ChunkLayout& layout, Quiet&& quiet, F&& f) {
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
        if (quiet(lc)) continue;
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
  fault_in(tq);
  pinned_[tq] = 1;
  for (const CellId s : config_.sources) {
    const std::size_t q = layout_.chunk_of(s);
    fault_in(q);
    pinned_[q] = 1;
  }
  // The target's lattice neighbors change dist in round 0 (∞ → 1), so
  // their chunks must be live from the start; unlike the pinned chunks
  // they park again once the routing wave has moved on.
  for (const Direction d : kAllDirections) {
    const auto nb = grid_.neighbor(config_.target, d);
    if (nb.has_value()) fault_in(layout_.chunk_of(*nb));
  }
  // Every cell is in the initial state, which each chunk faulted in
  // already carries with its scheduler state (snapshots synced, stamps
  // armed for round 0, no occupancy, gate bytes kNoSlot): all that
  // rebuild_active_sets would derive except the live totals, recounted
  // here.
  reset_live_totals();
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

std::pair<const LiveChunk*, std::size_t> ChunkedSystem::live_near(
    const LiveChunk& lc, const ChunkLayout::Rect& rect, CellId id) const {
  if (const auto ns = slot_in(rect, id)) return {&lc, *ns};
  if (!grid_.contains(id)) return {nullptr, 0};
  const std::size_t q = layout_.chunk_of(id);
  if (!store_.is_live(q)) return {nullptr, 0};
  return {&store_.live(q), layout_.slot_of(id)};
}

LiveChunk& ChunkedSystem::fault_in(std::size_t q) {
  if (store_.is_live(q)) return store_.live(q);
  const bool parked = store_.state(q) == ChunkedCellStore::State::kParked;
  LiveChunk& lc = store_.ensure_live(q);
  if (parked) {
    resync(q, lc);  // a parked cell may keep a next; none is occupied
  } else {
    // The initial state feeds, holds and grants nothing.
    lc.feed.assign(lc.cells.size(), kNoSlot);
    lc.hold.assign(lc.cells.size(), kNoSlot);
  }
  return lc;
}

void ChunkedSystem::resync(std::size_t q, LiveChunk& lc) {
  const std::size_t n = lc.cells.size();
  lc.feed.resize(n);
  lc.hold.resize(n);
  // Raw pointers: a byte store through the vectors would make the
  // compiler reload every vector's data pointer per cell. Flips touch
  // only the refcounts, so the pointers stay valid.
  const CellState* cells = lc.cells.data();
  Dist* snapshot = lc.dist_snapshot.data();
  std::uint8_t* feed = lc.feed.data();
  std::uint8_t* hold = lc.hold.data();
  const ChunkLayout::Rect rect = layout_.rect_of(q);
  std::size_t slot = 0;
  for (int j = rect.j0; j < rect.j0 + rect.h; ++j) {
    for (int i = rect.i0; i < rect.i0 + rect.w; ++i, ++slot) {
      const CellState& c = cells[slot];
      const CellId id{i, j};
      const std::uint8_t f = feed_code(c, id);
      const std::uint8_t h = hold_code(c, id);
      const bool occ = occupied(c);
      snapshot[slot] = c.dist;
      feed[slot] = f;
      hold[slot] = h;
      if (occ) apply_flip(id);
    }
  }
}

CellState& ChunkedSystem::cell_mut(CellId id) {
  LiveChunk& lc = fault_in(layout_.chunk_of(id));
  return lc.cells[layout_.slot_of(id)];
}

void ChunkedSystem::arm_cell(CellId id, std::uint64_t upto) {
  LiveChunk& lc = fault_in(layout_.chunk_of(id));
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
      bump_refs(fault_in(nq), layout_.slot_of(nid), delta);
    } else {
      // Releasing a reference: the neighbor chunk holds this cell's +1,
      // so it cannot have parked (park requires ref_cells == 0).
      CF_EXPECTS_MSG(store_.is_live(nq),
                     "occupancy release into a non-live chunk");
      bump_refs(store_.live(nq), layout_.slot_of(nid), delta);
    }
  }
}

void ChunkedSystem::refresh_gates(CellId id) {
  LiveChunk& lc = store_.live(layout_.chunk_of(id));
  const std::size_t slot = layout_.slot_of(id);
  lc.feed[slot] = feed_code(lc.cells[slot], id);
  if (occupied(lc.cells[slot]) != (lc.occ_b[slot] != 0)) apply_flip(id);
}

void ChunkedSystem::note_control_mutation(CellId id) {
  LiveChunk& lc = store_.live(layout_.chunk_of(id));
  const std::size_t slot = layout_.slot_of(id);
  lc.dist_snapshot[slot] = lc.cells[slot].dist;
  lc.hold[slot] = hold_code(lc.cells[slot], id);
  arm_route_neighborhood(id, round_);
  refresh_gates(id);
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
  // Pass B: sync the snapshots and gate bytes, and recompute occupancy
  // via flips (propagates refs across chunk borders, faulting neighbors
  // in as needed — with their gate bytes, fault_in).
  for (std::size_t q = 0; q < nq; ++q)
    if (store_.is_live(q)) resync(q, store_.live(q));
  // Pass C: arm every live cell for this round and count the failed
  // cells out of the live totals — live chunks by their hold bytes,
  // parked ones by their summaries' failed bits (virgin chunks hold
  // none). Non-live chunks stay unarmed: they are
  // quiescence fixpoints, for which the dense rebuild's blanket arming
  // is observationally a no-op.
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
    lc.route_stamp.assign(lc.cells.size(), round_);
    lc.max_stamp = round_;
    lc.quiet_rounds = 0;
    for (std::size_t slot = 0; slot < lc.hold.size(); ++slot)
      if ((lc.hold[slot] & kDead) != 0)
        note_liveness(layout_.cell_at(q, slot), false);
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
    for (std::size_t q = 0; q < store_.chunk_count(); ++q) fault_in(q);
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
// Route runs armed cells, Signal and Move the cells the work gates admit.
// Occupancy, kept for parking, answers both work gates first: a cell
// with no occupied cell in its closed neighbourhood holds nothing, feeds
// nothing in and is granted by nobody. The parking predicates skip whole
// chunks first: Route one with no armed cell (max_stamp < round), Signal
// and Move one with no occupancy reference (ref_cells == 0). Both are
// written only in the serial stages.

bool ChunkedSystem::unoccupied(const LiveChunk& lc) const noexcept {
  return active() && lc.ref_cells == 0;
}

void ChunkedSystem::route_shard(std::size_t t, std::size_t used) {
  ShardScratch& sc = shards_[t];
  const bool gated = active();
  for_each_cell_in(store_, layout_, slice(t, used),
                   [&](const LiveChunk& lc) {
                     return gated && lc.max_stamp < round_;
                   },
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
    NeighborMask ne_prev = 0;
    if (gated) {
      if (lc.occ_refs[slot] == 0) return;
      ne_prev = inbound(lc, rect, id);
      if (!signal_gate(lc.hold[slot], ne_prev)) return;
    } else {
      ne_prev = gather_ne_prev(lc, rect, id);
    }
    ++sc.visited;
    signal_cell(sc, lc, slot, id, ne_prev);
  };
}

void ChunkedSystem::signal_shard(std::size_t t, std::size_t used) {
  for_each_cell_in(
      store_, layout_, slice(t, used),
      [this](const LiveChunk& lc) { return unoccupied(lc); },
      signal_visitor(shards_[t]));
}

void ChunkedSystem::signal_sweep() {
  for_each_cell_row_major(
      store_, layout_, [this](const LiveChunk& lc) { return unoccupied(lc); },
      signal_visitor(shards_[0]));
}

void ChunkedSystem::move_shard(std::size_t t, std::size_t used) {
  ShardScratch& sc = shards_[t];
  const bool gated = active();
  for_each_cell_in(
      store_, layout_, slice(t, used),
      [this](const LiveChunk& lc) { return unoccupied(lc); },
      [&](LiveChunk& lc, const ChunkLayout::Rect& rect, std::size_t slot,
          CellId id) {
        if (gated && lc.occ_refs[slot] == 0) return;
        move_cell(sc, lc, rect, slot, id);
      });
}

bool ChunkedSystem::move_admits(const LiveChunk& lc,
                                const ChunkLayout::Rect& rect,
                                std::size_t slot) const {
  // move_gate reads the destination only when the feed names a slot,
  // that is, when the cell's next is a neighbour on the grid.
  return move_gate(lc.feed[slot], [&] {
    const auto [dc, ds] = live_near(lc, rect, *lc.cells[slot].next);
    return dc != nullptr ? dc->hold[ds] : kNoSlot;
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
  const bool changed =
      apply_route(c, id == config_.target,
                  std::span<const NeighborDist>(nds, n),
                  metrics_ ? &sc.counts : nullptr);
  if (!active()) return;
  if (changed) sc.changed.push_back(id);
  lc.feed[slot] = feed_code(c, id);
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

NeighborMask ChunkedSystem::inbound(const LiveChunk& lc,
                                    const ChunkLayout::Rect& rect,
                                    CellId id) const {
  const auto nbrs = ascending_neighbors(id);
  NeighborMask in = 0;
  for (std::size_t d = 0; d < nbrs.size(); ++d) {
    const auto [nc, ns] = live_near(lc, rect, nbrs[d]);
    if (nc != nullptr && fed_by(nc->feed[ns], d))
      in |= static_cast<NeighborMask>(1u << d);
  }
  return in;
}

NeighborMask ChunkedSystem::gather_ne_prev(const LiveChunk& lc,
                                           const ChunkLayout::Rect& rect,
                                           CellId id) const {
  // A non-live neighbor has no members, so it can never be a nonempty
  // predecessor — skipping it reads exactly what the dense engine reads
  // from the same (empty) cell.
  return neighbor_mask(id, [&](CellId nid) {
    const auto [nc, ns] = live_near(lc, rect, nid);
    if (nc == nullptr) return false;
    const CellState& n = nc->cells[ns];
    return !n.failed && n.next == OptCellId{id} && n.has_entities();
  });
}

void ChunkedSystem::signal_cell(ShardScratch& sc, LiveChunk& lc,
                                std::size_t slot, CellId id,
                                NeighborMask ne_prev) {
  CellState& c = lc.cells[slot];
  if (c.failed) return;
  if (apply_signal(c, id, ne_prev, config_.signal_rule,
                   config_.params, *choose_, metrics_ ? &sc.counts : nullptr))
    sc.blocked.push_back(id);
  if (!active()) return;
  lc.hold[slot] = hold_code(c, id);
  if (occupied(c) != (lc.occ_b[slot] != 0)) sc.flips.push_back(id);
}

void ChunkedSystem::move_cell(ShardScratch& sc, LiveChunk& lc,
                              const ChunkLayout::Rect& rect, std::size_t slot,
                              CellId id) {
  // The rest of Move's kActiveSet gate, out of the shard loop, which
  // then keeps its one-byte occupancy test tight.
  if (active() && !move_admits(lc, rect, slot)) return;
  ++sc.visited;
  CellState& c = lc.cells[slot];
  if (c.failed || !c.next.has_value()) return;
  const CellId dest = *c.next;
  // A non-live destination has signal ⊥ (quiescent), so no permission —
  // the same read the dense engine performs on that cell.
  const auto [dc, ds] = live_near(lc, rect, dest);
  const bool permitted =
      dc != nullptr && dc->cells[ds].signal == OptCellId{id};
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
