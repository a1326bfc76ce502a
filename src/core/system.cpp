#include "core/system.hpp"

#include <algorithm>
#include <span>

#include "core/route.hpp"
#include "util/check.hpp"

namespace cellflow {

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
  route_stamp_.assign(cells_.size(), round_);
  occ_b_.assign(cells_.size(), 0);
  occ_refs_.assign(cells_.size(), 0);
  reset_live_totals();
  for (std::size_t k = 0; k < cells_.size(); ++k) {
    dist_snapshot_[k] = cells_[k].dist;
    if (occupied(cells_[k])) apply_occupancy_flip(k);
    if (cells_[k].failed) note_liveness(cell_id_[k], false);
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

void System::apply_occupancy_flip(std::size_t k) {
  occ_b_[k] ^= 1u;
  const int delta = occ_b_[k] != 0 ? 1 : -1;
  occ_refs_[k] = static_cast<std::uint8_t>(occ_refs_[k] + delta);
  for (const std::uint32_t nk : nbr_idx_[k]) {
    if (nk == kNoNbr) continue;
    occ_refs_[nk] = static_cast<std::uint8_t>(occ_refs_[nk] + delta);
  }
}

void System::refresh_occupancy_at(std::size_t k) {
  if (occupied(cells_[k]) != (occ_b_[k] != 0)) apply_occupancy_flip(k);
}

void System::note_control_mutation(CellId id) {
  // The exhaustive engine re-reads every dist each round and rewrites
  // every cell's control state; an external mutation therefore forces
  // the active scheduler to (a) keep the snapshot invariant, (b) rerun
  // Route over the affected neighborhood next round, and (c) refresh
  // the occupancy of the mutated cell.
  const std::size_t k = grid_.index_of(id);
  dist_snapshot_[k] = cells_[k].dist;
  arm_route_neighborhood(k, round_);
  refresh_occupancy_at(k);
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
  // Only a *dist* change can perturb other cells (Route reads nothing
  // else); a next-only change re-routes this cell's own movers but
  // leaves every Route input, and hence the arming set, untouched.
  if (apply_route(c, k == target_k_, std::span<const NeighborDist>(nds, n),
                  metrics_ ? &sc.counts : nullptr) &&
      active())
    sc.changed.push_back(cell_id_[k]);
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

void System::signal_shard(std::size_t t, std::size_t used) {
  // occ_refs_ is frozen for the duration of the phase (flips buffer per
  // shard and apply at the barrier), so every engine takes identical
  // skip decisions. A cell with an all-unoccupied closed neighborhood
  // maps (⊥,⊥,[]) to (⊥,⊥,[]) without consulting choose_, so skipping it
  // is exact.
  ShardScratch& sc = shards_[t];
  const ShardRange r = shard_range_at(cells_.size(), used, t);
  const bool gated = active();
  for (std::size_t k = r.begin; k < r.end; ++k) {
    if (gated && occ_refs_[k] == 0) continue;
    ++sc.visited;
    signal_cell(sc, k);
  }
}

void System::signal_cell(ShardScratch& sc, std::size_t k) {
  // Signal reads neighbors' fresh `next` (Route's output) and pre-Move
  // Members; it writes only its own ne_prev/token/signal — disjoint
  // struct fields, so concurrent cells never touch the same memory.
  // nbr_idx_ is in ascending id order, so slot d is NEPrev's bit d.
  CellState& c = cells_[k];
  if (c.failed) return;
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
  if (apply_signal(c, id, ne_prev, config_.signal_rule,
                   config_.params, *choose_, metrics_ ? &sc.counts : nullptr))
    sc.blocked.push_back(id);
  if (active() && occupied(c) != (occ_b_[k] != 0)) sc.flips.push_back(id);
}

void System::move_shard(std::size_t t, std::size_t used) {
  // An unoccupied cell with an unoccupied closed neighborhood cannot
  // move: it has no members to relocate or compact, and a grant in its
  // favor would make its destination (a lattice neighbor, post-Route)
  // occupied — so the body would be a no-op that tallies nothing.
  // occ_refs_ already reflects this round's Signal output.
  ShardScratch& sc = shards_[t];
  const ShardRange r = shard_range_at(cells_.size(), used, t);
  const bool gated = active();
  for (std::size_t k = r.begin; k < r.end; ++k) {
    if (gated && occ_refs_[k] == 0) continue;
    ++sc.visited;
    move_cell(sc, k);
  }
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
