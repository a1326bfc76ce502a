#include "core/system.hpp"

#include <algorithm>
#include <cstring>
#include <span>

#include "core/route.hpp"
#include "util/check.hpp"

namespace cellflow {

namespace {

/// The eight gate bytes from `p` on, as one word.
std::uint64_t word_at(const std::uint8_t* p) noexcept {
  std::uint64_t w = 0;
  std::memcpy(&w, p, sizeof w);
  return w;
}

constexpr std::uint64_t kEveryByte = 0x0101010101010101u;

/// visit(k) for every k in [begin, end), but for whole blocks of eight
/// from `begin` on of which quiet(first) proves no cell has work.
template <class Quiet, class Visit>
void scan_blocks(std::size_t begin, std::size_t end, Quiet&& quiet,
                 Visit&& visit) {
  std::size_t k = begin;
  for (; k + 8 <= end; k += 8) {
    if (quiet(k)) continue;
    for (std::size_t j = k; j < k + 8; ++j) visit(j);
  }
  for (; k < end; ++k) visit(k);
}

}  // namespace

System::System(SystemConfig config, std::unique_ptr<ChoosePolicy> choose,
               std::unique_ptr<SourcePolicy> source)
    : ShardedEngine(std::move(config), std::move(choose), std::move(source)),
      cells_(grid_.cell_count()) {
  // Initial state (Figure 3): everything ⊥/∞/empty except the target's
  // distance, which anchors the routing computation at 0.
  target_k_ = grid_.index_of(config_.target);
  cells_[target_k_].dist = Dist::zero();
  dist_snapshot_.resize(cells_.size());
  // Flatten the (immutable) grid topology into the dense tables the
  // phase loops index directly — see the member comments in system.hpp.
  nbr_idx_.resize(cells_.size());
  cell_id_.resize(cells_.size());
  for (std::size_t k = 0; k < cells_.size(); ++k) {
    const CellId id = grid_.id_of(k);
    cell_id_[k] = id;
    const auto nbrs = ascending_neighbors(id);
    for (std::size_t d = 0; d < nbrs.size(); ++d) {
      nbr_idx_[k][d] = grid_.contains(nbrs[d])
                           ? static_cast<std::uint32_t>(grid_.index_of(nbrs[d]))
                           : kNoNbr;
    }
  }
  rebuild_active_sets();
}

void System::set_round_scheduler(RoundScheduler scheduler) {
  if (scheduler_ == scheduler) return;
  scheduler_ = scheduler;
  // Exhaustive rounds maintain none of the scheduler state, so entering
  // kActiveSet must re-derive all of it from the current protocol state.
  if (active()) rebuild_active_sets();
}

void System::rebuild_active_sets() {
  const auto side = static_cast<std::size_t>(grid_.side());
  route_stamp_.assign(cells_.size(), round_);
  feed_.assign(cells_.size() + 2 * side, kNoSlot);
  hold_.assign(cells_.size() + 2 * side, kNoSlot);
  reset_live_totals();
  for (std::size_t k = 0; k < cells_.size(); ++k) {
    const CellState& c = cells_[k];
    dist_snapshot_[k] = c.dist;
    feed_at(k) = feed_code(c, cell_id_[k]);
    hold_at(k) = hold_code(c, cell_id_[k]);
    if (c.failed) note_liveness(cell_id_[k], false);
  }
}

void System::arm_route_neighborhood(std::size_t k, std::uint64_t upto) {
  route_stamp_[k] = std::max(route_stamp_[k], upto);
  for (const std::uint32_t nk : nbr_idx_[k]) {
    if (nk == kNoNbr) continue;
    std::uint64_t& stamp = route_stamp_[nk];
    stamp = std::max(stamp, upto);
  }
}

void System::note_control_mutation(CellId id) {
  // The exhaustive engine re-reads every dist each round and rewrites
  // every cell's control state; an external mutation therefore forces
  // the active scheduler to (a) keep the snapshot invariant, (b) rerun
  // Route over the affected neighborhood next round, and (c) rewrite the
  // mutated cell's gate bytes.
  const std::size_t k = grid_.index_of(id);
  dist_snapshot_[k] = cells_[k].dist;
  arm_route_neighborhood(k, round_);
  feed_at(k) = feed_code(cells_[k], id);
  hold_at(k) = hold_code(cells_[k], id);
}

std::size_t System::entity_count() const noexcept {
  std::size_t n = 0;
  for (const CellState& c : cells_) n += c.members.size();
  return n;
}

CellMask System::alive_mask() const {
  CellMask m(grid_);
  for (std::size_t k = 0; k < cells_.size(); ++k)
    if (!cells_[k].failed) m.set(grid_.id_of(k));
  return m;
}

std::vector<Dist> System::reference_distances() const {
  return path_distances(grid_, alive_mask(), config_.target);
}

CellMask System::tc_mask() const {
  return target_connected(grid_, alive_mask(), config_.target);
}

std::size_t System::begin_round() {
  // kExhaustive recopies Route's dist snapshot every round; kActiveSet
  // keeps it in sync incrementally (apply_dist_change).
  if (!active()) {
    for (std::size_t k = 0; k < cells_.size(); ++k)
      dist_snapshot_[k] = cells_[k].dist;
  }
  return cells_.size();
}

void System::route_shard(std::size_t t, std::size_t used) {
  // kActiveSet visits only armed cells — a cell is armed exactly when a
  // neighborhood dist changed last round or an external mutation
  // touched it, which is precisely when route_step could produce
  // something new.
  ShardScratch& sc = shards_[t];
  const ShardRange r = shard_range_at(cells_.size(), used, t);
  const bool gated = active();
  for (std::size_t k = r.begin; k < r.end; ++k) {
    if (gated && route_stamp_[k] < round_) continue;
    ++sc.visited;
    route_cell(sc, k);
  }
}

void System::route_cell(ShardScratch& sc, std::size_t k) {
  // Phase-parallel Bellman–Ford: every cell reads its neighbors'
  // *previous-round* dist via dist_snapshot_ (Figure 4 semantics). The
  // snapshot makes the per-cell step a pure function of frozen data;
  // each cell writes only its own dist/next, so the loop shards freely.
  CellState& c = cells_[k];
  if (c.failed) return;
  NeighborDist nds[4];
  std::size_t n = 0;
  for (const std::uint32_t nk : nbr_idx_[k]) {
    if (nk != kNoNbr) nds[n++] = NeighborDist{cell_id_[nk], dist_snapshot_[nk]};
  }
  const bool changed =
      apply_route(c, k == target_k_, std::span<const NeighborDist>(nds, n),
                  metrics_ ? &sc.counts : nullptr);
  if (!active()) return;
  // Only a *dist* change can perturb other cells' Route (it reads nothing
  // else); next lands in the cell's own feed byte, which Signal reads.
  if (changed) sc.changed.push_back(cell_id_[k]);
  feed_at(k) = feed_code(c, cell_id_[k]);
}

void System::apply_dist_change(CellId id) {
  const std::size_t k = grid_.index_of(id);
  dist_snapshot_[k] = cells_[k].dist;
  for (const std::uint32_t nk : nbr_idx_[k]) {
    if (nk == kNoNbr) continue;
    std::uint64_t& stamp = route_stamp_[nk];
    stamp = std::max(stamp, round_ + 1);
  }
}

NeighborMask System::gather_ne_prev(std::size_t k) const {
  // nbr_idx_ is in ascending id order, so slot d is NEPrev's bit d.
  const CellId id = cell_id_[k];
  NeighborMask ne_prev = 0;
  for (std::size_t d = 0; d < nbr_idx_[k].size(); ++d) {
    const std::uint32_t nk = nbr_idx_[k][d];
    if (nk == kNoNbr) continue;
    const CellState& nc = cells_[nk];
    if (nc.failed) continue;  // a failed cell never communicates
    if (nc.next == OptCellId{id} && nc.has_entities())
      ne_prev |= static_cast<NeighborMask>(1u << d);
  }
  return ne_prev;
}

void System::signal_shard(std::size_t t, std::size_t used) {
  ShardScratch& sc = shards_[t];
  const ShardRange r = shard_range_at(cells_.size(), used, t);
  if (!active()) {
    for (std::size_t k = r.begin; k < r.end; ++k) {
      ++sc.visited;
      signal_cell(sc, k, gather_ne_prev(k));
    }
    return;
  }
  // NEPrev from the neighbours' feed bytes, frozen since Route: the
  // bytes at k − 1, k − side, k + side, k + 1 (NEPrev bits 0..3), read
  // unchecked through the guard bytes. A row-wrapped k ± 1 never
  // matches: a feed in slot 0 (3) points east (west) at a cell on the
  // grid, hence in its own row. Eight cells are skipped at once when
  // none holds anything and no feed byte around them has members
  // (kHold and kFeeds are the same bit).
  static_assert(kHold == kFeeds);
  const std::uint8_t* feed = &feed_at(0);
  const std::uint8_t* hold = &hold_at(0);
  const auto side = static_cast<std::ptrdiff_t>(grid_.side());
  const auto quiet = [&](std::size_t k) {
    const auto i = static_cast<std::ptrdiff_t>(k);
    const std::uint64_t any = word_at(hold + i) | word_at(feed + i - 1) |
                              word_at(feed + i + 1) |
                              word_at(feed + i - side) |
                              word_at(feed + i + side);
    return (any & (kEveryByte * kFeeds)) == 0;
  };
  scan_blocks(r.begin, r.end, quiet, [&](std::size_t k) {
    const auto i = static_cast<std::ptrdiff_t>(k);
    const auto in = static_cast<NeighborMask>(
        (fed_by(feed[i - 1], 0) ? 1u : 0u) |
        (fed_by(feed[i - side], 1) ? 2u : 0u) |
        (fed_by(feed[i + side], 2) ? 4u : 0u) |
        (fed_by(feed[i + 1], 3) ? 8u : 0u));
    if (!signal_gate(hold[i], in)) return;
    ++sc.visited;
    signal_cell(sc, k, in);
  });
}

void System::signal_cell(ShardScratch& sc, std::size_t k,
                         NeighborMask ne_prev) {
  // Signal reads neighbors' fresh `next` (Route's output) and pre-Move
  // Members, through `ne_prev`; it writes only its own ne_prev/token/
  // signal and hold byte, so concurrent cells never touch the same
  // memory.
  CellState& c = cells_[k];
  if (c.failed) return;
  const CellId id = cell_id_[k];
  if (apply_signal(c, id, ne_prev, config_.signal_rule,
                   config_.params, *choose_, metrics_ ? &sc.counts : nullptr))
    sc.blocked.push_back(id);
  if (active()) hold_at(k) = hold_code(c, id);
}

void System::move_shard(std::size_t t, std::size_t used) {
  ShardScratch& sc = shards_[t];
  const ShardRange r = shard_range_at(cells_.size(), used, t);
  if (!active()) {
    for (std::size_t k = r.begin; k < r.end; ++k) {
      ++sc.visited;
      move_cell(sc, k);
    }
    return;
  }
  // The destination's hold byte sits at the dense-index offset of the
  // neighbour slot dest_slot(feed). Eight cells are skipped at once when
  // no neighbour of theirs holds a signal (so none is granted) and,
  // compacting, none has members.
  const std::uint8_t* feed = &feed_at(0);
  const std::uint8_t* hold = &hold_at(0);
  const auto side = static_cast<std::ptrdiff_t>(grid_.side());
  const std::array<std::ptrdiff_t, 4> offset{-1, -side, side, 1};
  const std::uint64_t members =
      config_.movement_rule == MovementRule::kCompacting
          ? kEveryByte * kFeeds
          : 0;
  const auto signalled = [&](std::ptrdiff_t i) {
    return (word_at(hold + i) & (kEveryByte * kSlotBits)) ^
           (kEveryByte * kNoSlot);
  };
  const auto quiet = [&](std::size_t k) {
    const auto i = static_cast<std::ptrdiff_t>(k);
    return (signalled(i - 1) | signalled(i + 1) | signalled(i - side) |
            signalled(i + side) | (word_at(feed + i) & members)) == 0;
  };
  scan_blocks(r.begin, r.end, quiet, [&](std::size_t k) {
    const auto i = static_cast<std::ptrdiff_t>(k);
    const std::uint8_t f = feed[i];
    if (!move_gate(f, [&] { return hold[i + offset[dest_slot(f)]]; }))
      return;
    ++sc.visited;
    move_cell(sc, k);
  });
}

void System::move_cell(ShardScratch& sc, std::size_t k) {
  // All cells decide and move simultaneously (Figure 6 guard:
  // signal_{next_{i,j}} = ⟨i,j⟩): each cell applies its own
  // displacement and buffers its boundary-crossers; delivery happens in
  // the merge, in canonical order, because appends into a shared
  // destination determine Members order and hence downstream traces.
  // The decision reads only the destination's signal (frozen since
  // Signal) and mutates only the cell's own Members, so it shards freely.
  CellState& c = cells_[k];
  if (c.failed || !c.next.has_value()) return;
  const CellId id = cell_id_[k];
  const CellId dest = *c.next;
  const bool permitted = cells_[grid_.index_of(dest)].signal == OptCellId{id};
  // The in-place steps partition c.members directly (stayers keep their
  // order, crossers land in the shard's crossing scratch) — no per-cell
  // staying/crossed vectors; see move.hpp.
  if (apply_move(c, id, permitted, config_.movement_rule, grid_,
                 config_.params, sc.crossed, metrics_ ? &sc.counts : nullptr))
    sc.moved.push_back(id);
  for (Entity& e : sc.crossed)
    sc.pending.push_back(PendingTransfer{e, id, dest});
}

template class ShardedEngine<System>;

}  // namespace cellflow
