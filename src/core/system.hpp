// The System automaton (paper §II-B): the synchronous composition of all
// N² cell state machines, plus the environment actions.
//
// Transitions:
//   * fail(⟨i,j⟩)    — crash: failed := true, dist := ∞, next := ⊥ and,
//                      because a failed cell "never communicates",
//                      neighbors subsequently read signal = ⊥ from it
//                      (we clear signal/token so the shared-variable model
//                      matches the message-passing reading of the paper).
//                      Members freeze in place.
//   * recover(⟨i,j⟩) — §IV's recovery: failed := false with protocol state
//                      reset to initial values (target: dist := 0).
//   * update()       — one synchronous round, atomically:
//                        phase 1  Route  (all cells, reading previous-round
//                                         neighbor dists — Figure 4)
//                        phase 2  Signal (all cells, reading the fresh next
//                                         values and pre-Move Members —
//                                         Figure 5)
//                        phase 3  Move   (all cells simultaneously, then
//                                         transfers applied — Figure 6)
//                        phase 4  source injection (≤1 entity per source,
//                                         validated for safety)
//
// The phase structure mirrors the proof of Lemma 3, which speaks of the
// intermediate states x →Route→ xR →Signal→ xS →Move→ x′. A PhaseHook can
// observe exactly those intermediate states (the safety test suite checks
// predicate H at the xS point, where the paper asserts it).
//
// The round itself — the stage plan, hooks, merges, injection, fail /
// recover and the observability attachments — is the ShardedEngine driver
// (core/sharded_engine.hpp), shared with chunk::ChunkedSystem. System is
// the dense store: every cell resident in one N² vector, with flat
// neighbor tables for the gathers and the active-set scheduler's state in
// dense per-cell arrays.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "core/sharded_engine.hpp"
#include "grid/mask.hpp"

namespace cellflow::snapshot {
struct Access;
}  // namespace cellflow::snapshot

namespace cellflow {

class System : public ShardedEngine<System> {
 public:
  /// Builds the initial state: all cells empty and non-faulty, dist = ∞
  /// except dist_target = 0, all pointers ⊥ (paper Figure 3).
  /// `choose`/`source` default to RoundRobinChoose / EntryEdgeSource;
  /// sources and the execution engine as in ShardedEngine's constructor.
  explicit System(SystemConfig config,
                  std::unique_ptr<ChoosePolicy> choose = nullptr,
                  std::unique_ptr<SourcePolicy> source = nullptr);

  // --- observation ---------------------------------------------------

  [[nodiscard]] const CellState& cell(CellId id) const {
    return cells_[grid_.index_of(id)];
  }
  /// failed_{i,j}, the one field the fail/recover models read.
  [[nodiscard]] bool is_failed(CellId id) const { return cell(id).failed; }
  [[nodiscard]] std::span<const CellState> cells() const noexcept {
    return cells_;
  }

  /// Calls f(id, cell) for every cell that can hold members or a signal
  /// — here every cell — in ascending dense index order. The harness's
  /// oracles and observers walk all three engines through this member
  /// (chunk::ChunkedSystem and MessageSystem have the same one).
  template <class F>
  void for_each_cell(F&& f) const {
    std::size_t k = 0;
    for (int j = 0; j < grid_.side(); ++j)
      for (int i = 0; i < grid_.side(); ++i, ++k) f(CellId{i, j}, cells_[k]);
  }

  /// Entities currently in the system.
  [[nodiscard]] std::size_t entity_count() const noexcept;

  /// N F(x) as a mask (true = non-faulty).
  [[nodiscard]] CellMask alive_mask() const;
  /// ρ(x, ·) over the current failure pattern (reference BFS oracle).
  [[nodiscard]] std::vector<Dist> reference_distances() const;
  /// TC(x): target-connected cells under the current failure pattern.
  [[nodiscard]] CellMask tc_mask() const;

  /// Selects the round scheduler for subsequent update() calls. Changing
  /// it never changes results (see RoundScheduler); switching to
  /// kActiveSet rebuilds the active sets from the current state, so the
  /// switch is valid at any round boundary.
  void set_round_scheduler(RoundScheduler scheduler);

 private:
  friend class ShardedEngine<System>;
  // Snapshot/restore (src/snapshot) reads and rebuilds the full private
  // state; it is the one sanctioned backdoor (DESIGN.md §11).
  friend struct snapshot::Access;

  // --- engine points (see core/sharded_engine.hpp) ----------------------
  //
  // The shards are contiguous ascending cell ranges (shard_range_at), so
  // concatenating their buffers in shard order reproduces the serial
  // row-major loop exactly.
  static constexpr std::uint64_t kDomainCells = 1;
  std::size_t begin_round();
  void route_shard(std::size_t t, std::size_t used);
  void signal_shard(std::size_t t, std::size_t used);
  void move_shard(std::size_t t, std::size_t used);
  /// Row-major is this store's shard order, so the sweep is one shard.
  void signal_sweep() { signal_shard(0, 1); }
  void apply_dist_change(CellId id);
  /// The dense store keeps no occupancy: its Signal pushes no flips.
  void apply_flip(CellId) noexcept {}
  [[nodiscard]] CellState& cell_mut(CellId id) {
    return cells_[grid_.index_of(id)];
  }
  /// Rewrites the cell's feed byte (its members changed).
  void refresh_gates(CellId id) {
    const std::size_t k = grid_.index_of(id);
    feed_at(k) = feed_code(cells_[k], id);
  }
  /// Bookkeeping of fail()/recover()/corrupt_control_state(): syncs the
  /// dist snapshot, re-arms Route around the mutation, and rewrites both
  /// gate bytes.
  void note_control_mutation(CellId id);
  void after_serial_stage() noexcept {}
  void end_round() noexcept {}
  /// Re-derives every scheduler structure from the current protocol
  /// state: all cells armed for Route this round, gate bytes recomputed,
  /// dist snapshot synced, live totals recounted.
  void rebuild_active_sets();

  // Per-cell bodies of the three phases, shared verbatim by every shard
  // and the serial sweep (same scalar code on the same inputs ⇒ bit-equal
  // outputs), run on the cells the shard loop's kActiveSet gate admits:
  // each gathers the cell's neighbor reads from the dense tables and
  // applies the shared transition of core/route, core/signal or
  // core/move into the shard's slot. Route's dist changes are buffered
  // there and applied to the stamps only at the post-phase barrier, in
  // shard order; each body writes only its own cell's gate byte, which
  // no other cell reads in that phase.
  void route_cell(ShardScratch& sc, std::size_t k);
  void signal_cell(ShardScratch& sc, std::size_t k, NeighborMask ne_prev);
  void move_cell(ShardScratch& sc, std::size_t k);
  /// NEPrev of cell k read from the neighbours' cells (kExhaustive).
  [[nodiscard]] NeighborMask gather_ne_prev(std::size_t k) const;

  // --- active-set scheduler internals (DESIGN.md §9) -------------------

  /// Arms `k` and its lattice neighbors to run Route in round `upto`.
  void arm_route_neighborhood(std::size_t k, std::uint64_t upto);
  /// Cell k's gate bytes. Both arrays carry `side` guard bytes (kNoSlot)
  /// at each end, so the gate scans read the bytes at k ± 1 and k ± side,
  /// and eight-byte words from there, unchecked.
  [[nodiscard]] std::uint8_t& feed_at(std::size_t k) {
    return feed_[static_cast<std::size_t>(grid_.side()) + k];
  }
  [[nodiscard]] std::uint8_t& hold_at(std::size_t k) {
    return hold_[static_cast<std::size_t>(grid_.side()) + k];
  }

  /// Every cell of the grid, resident, in index order.
  /// chunk::ChunkedSystem is the sparse sibling.
  std::vector<CellState> cells_;
  std::size_t target_k_ = 0;  ///< grid_.index_of(config_.target), cached

  // Route's frozen read of the previous round's dists (Figure 4 reads
  // neighbors' previous-round values while cells overwrite their own).
  // Under kActiveSet it is an invariant, not a scratch buffer:
  // dist_snapshot_[k] == cells_[k].dist at every round boundary
  // (maintained incrementally by the post-Route merge and by
  // note_control_mutation); under kExhaustive it is recopied each round.
  std::vector<Dist> dist_snapshot_;

  // --- cache-tight topology tables (DESIGN.md §10) ---------------------
  //
  // The grid is immutable after construction, so the per-cell adjacency
  // the phase loops used to recompute through Grid (bounds-checked
  // neighbor()/index_of()/id_of() per access) is flattened once into
  // dense arrays the hot loops index directly.

  /// Sentinel for "no neighbor in this direction" in nbr_idx_.
  static constexpr std::uint32_t kNoNbr =
      std::numeric_limits<std::uint32_t>::max();

  /// nbr_idx_[k][d]: dense index of cell k's neighbor
  /// ascending_neighbors(id)[d] (ascending id order, so d is also the
  /// neighbor's NEPrev bit), or kNoNbr at the boundary.
  std::vector<std::array<std::uint32_t, 4>> nbr_idx_;
  /// cell_id_[k] == grid_.id_of(k), cached (avoids a div/mod per access).
  std::vector<CellId> cell_id_;

  // Active-set scheduler state (kActiveSet; rebuilt on switch). The
  // stamps are read-only during the sharded phase loops and mutated
  // only at the barriers / between rounds, on the calling thread; a gate
  // byte is written by its own cell's phase body (feed by Route, hold by
  // Signal) and otherwise at the serial mutation points.
  std::vector<std::uint64_t> route_stamp_;  ///< run Route iff >= round_
  std::vector<std::uint8_t> feed_;  ///< feed bytes, guarded (feed_at)
  std::vector<std::uint8_t> hold_;  ///< hold bytes, guarded (hold_at)
};

extern template class ShardedEngine<System>;

}  // namespace cellflow
