// ChunkedSystem (DESIGN.md §12): the sparse-world realization of the
// System automaton, storing cells in a ChunkedCellStore instead of the
// dense N² vector. Observationally it is the *same* automaton — same
// rounds, same events, same protocol counters, same state digest — pinned
// by tests/test_chunk_differential.cpp against the dense reference at
// every (engine, threads) combination.
//
// It is the same round, too: the plan, hooks, merges, injection, fail /
// recover, the skipped-cell metric tallies and the metrics / profiler /
// telemetry attachments are the ShardedEngine driver it shares with
// System (core/sharded_engine.hpp). This engine supplies the store, the
// neighbor gathers through its chunk rect or the store, the scheduler
// state sliced per chunk, and the chunk lifecycle. It runs only the
// active-set scheduler, whose reference is System's always-visit one: a
// chunk store that visited every cell would materialize every chunk.
//
//   * Chunks are the unit of sharding: the driver fixes the shard count
//     for the round from the live-chunk count, and each parallel stage
//     shards the ascending live-chunk list as it stands when the stage
//     opens — the serial merges can fault chunks in (after_serial_stage
//     refreshes the list), and parking waits for end_round, so the list
//     only grows within a round. Chunk-major shards are not the global
//     row-major order; the driver's canonical_cell_order and
//     canonical_transfer_order restore it at the barriers. Per-shard
//     profiler spans and imbalance are therefore per live-chunk slice.
//   * Non-live chunks are skipped bodily. This is sound because of the
//     store invariants the engine maintains (fault-in before any arming
//     or occupancy reference can reach a non-live chunk): every armed
//     cell is in a live chunk, every cell with occ_refs > 0 is in a live
//     chunk, and no occupied cell is ever adjacent to a non-live chunk.
//     Their per-round metric tallies come from the driver's live totals,
//     like any skipped cell's.
//   * The serial Signal sweep (a stateful ChoosePolicy, or an inline
//     round) runs *globally row-major* across chunks, so the policy
//     observes the identical call sequence as the dense serial loop.
//
// Parking (the quiescence proof obligation): a chunk parks only when
//   ref_cells == 0        — no cell of the chunk has an occupied closed
//                           neighborhood, so Signal/Move are no-ops and,
//                           since occupancy cannot arise spontaneously,
//                           stay no-ops until an external effect
//                           (transfer, injection, mutation) arrives —
//                           every such effect faults the chunk in first;
//   max_stamp < round     — no cell is armed for Route now or later, so
//                           route_step reproduces the stored dist/next
//                           until a neighboring dist changes — and the
//                           post-Route merge faults the chunk in before
//                           arming any of its cells;
// sustained for kParkHysteresis consecutive rounds (pure hysteresis —
// correctness needs only the two predicates), the chunk is not pinned
// (target/source chunks never park), and the state is summary-encodable
// (ChunkedCellStore::parkable). Parked cells therefore satisfy
// route_step(neighbor dists) == stored (dist, next) by construction, and
// neighbors keep reading the same dist values from the immutable parked
// summary — which is why routing across a live/parked border is
// bit-identical to dense.
//
// The harness surface is System's (DESIGN.md §12): a PhaseHook firing at
// the four UpdatePhase points in the plan's serial stages, and
// for_each_cell over the live chunks, so one Simulator, observer set and
// §III-A oracle set (core/predicates.hpp, H included) drive and check
// this engine as they do the dense one. Not carried over from System: the
// BFS oracle helpers (reference_distances and friends walk all N²
// cells). MessageSystem has no chunked realization either: the
// differential suites compare ChunkedSystem against *both* dense
// realizations instead.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "chunk/chunked_store.hpp"
#include "core/sharded_engine.hpp"

namespace cellflow::snapshot {
struct Access;
}  // namespace cellflow::snapshot

namespace cellflow::chunk {

/// Rounds a chunk must stay fully quiescent before it parks. Hysteresis
/// only — correctness is independent of the value (1 would be correct);
/// it damps park/unpark churn at a slowly advancing flow frontier.
inline constexpr std::uint32_t kParkHysteresis = 8;

class ChunkedSystem : public ShardedEngine<ChunkedSystem> {
 public:
  /// Same contract as System's constructor: initial state per Figure 3,
  /// sources canonicalized, engine from parallel_policy_from_env().
  /// Materialized up front: the target's chunk and every source's chunk
  /// (pinned — they can change or be read every round), plus the chunks
  /// of the target's lattice neighbors (their dist changes in round 0;
  /// they park again once the routing wave has passed).
  explicit ChunkedSystem(SystemConfig config,
                         std::unique_ptr<ChoosePolicy> choose = nullptr,
                         std::unique_ptr<SourcePolicy> source = nullptr);

  // --- observation ---------------------------------------------------

  /// The cell's state, by value: live cells are copied, parked cells are
  /// reconstructed from the summary, virgin cells are the initial state.
  /// (By value because the cell need not be materialized — taking a
  /// reference would force a fault-in on a pure read.)
  [[nodiscard]] CellState cell(CellId id) const;

  /// failed_{i,j}, the one field the fail/recover models read, without
  /// building the cell: the live cell's flag, the parked summary's
  /// kFailedBit, or false in a virgin chunk.
  [[nodiscard]] bool is_failed(CellId id) const;

  /// Entities currently in the system (live chunks only hold them;
  /// parked/virgin cells are provably empty).
  [[nodiscard]] std::size_t entity_count() const noexcept;

  /// The store, for memory/lifecycle observation (bench, obs gauges).
  [[nodiscard]] const ChunkedCellStore& store() const noexcept {
    return store_;
  }

  /// System::for_each_cell over the live chunks only: f(id, cell) for
  /// every cell of every live chunk, chunk by chunk in ascending chunk
  /// index and row-major within each. The park predicates guarantee that
  /// parked and virgin cells hold neither members nor a signal, so this
  /// still reaches every cell that can — at a cost proportional to the
  /// live region, not N².
  template <class F>
  void for_each_cell(F&& f) const {
    for (std::size_t q = 0; q < store_.chunk_count(); ++q) {
      if (!store_.is_live(q)) continue;
      const std::vector<CellState>& cells = store_.live(q).cells;
      const ChunkLayout::Rect r = layout_.rect_of(q);
      std::size_t slot = 0;
      for (int j = r.j0; j < r.j0 + r.h; ++j)
        for (int i = r.i0; i < r.i0 + r.w; ++i, ++slot)
          f(CellId{i, j}, cells[slot]);
    }
  }

  /// The engine runs only RoundScheduler::kActiveSet, so this does
  /// nothing. Precondition: scheduler is kActiveSet.
  void set_round_scheduler(RoundScheduler scheduler);

 private:
  friend class ShardedEngine<ChunkedSystem>;
  friend struct snapshot::Access;

  // --- engine points (see core/sharded_engine.hpp) ----------------------
  static constexpr auto kDomainCells =
      static_cast<std::uint64_t>(kChunkSide * kChunkSide);
  std::size_t begin_round();
  void route_shard(std::size_t t, std::size_t used);
  void signal_shard(std::size_t t, std::size_t used);
  void move_shard(std::size_t t, std::size_t used);
  void signal_sweep();
  void apply_dist_change(CellId id);
  /// Toggles the cell's occupancy bit and propagates ±1 refs over the
  /// closed neighborhood, faulting neighbor chunks in on +1 (on −1 they
  /// are provably live already — they carried this cell's reference).
  void apply_flip(CellId id);
  /// The cell, faulting its chunk in if necessary (mutation points).
  [[nodiscard]] CellState& cell_mut(CellId id);
  /// Rewrites the cell's feed byte and occupancy (its members changed).
  void refresh_gates(CellId id);
  void note_control_mutation(CellId id);
  void after_serial_stage() { (void)store_.live_order(); }
  /// The park sweep.
  void end_round();
  /// Re-derives stamps/occupancy/snapshots for every live chunk from the
  /// current protocol state and recounts the live totals (snapshot
  /// restore). Only live chunks are armed: parked/virgin regions are
  /// quiescence fixpoints, for which arming is observationally a no-op.
  void rebuild_active_sets();

  /// Shard t's slice of the live-chunk list as it stands now.
  [[nodiscard]] std::span<const std::uint32_t> slice(std::size_t t,
                                                     std::size_t used);

  /// Chunk q, materialized with its gate bytes if it was not live
  /// (snapshot restore leaves that to rebuild_active_sets).
  LiveChunk& fault_in(std::size_t q);
  /// Writes live chunk q's dist snapshots and gate bytes from its cells
  /// and flips each occupied cell's occupancy on (from zeroed occupancy:
  /// rebuild_active_sets, or a chunk just unparked, which has none).
  void resync(std::size_t q, LiveChunk& lc);

  /// Cell `id` seen from the live chunk `lc` covering `rect`: the live
  /// chunk that holds it and its slot there, or nullptr when `id` is off
  /// the grid or its chunk is not live (a non-live cell reads as
  /// unoccupied and non-communicating, which is exactly what it is).
  [[nodiscard]] std::pair<const LiveChunk*, std::size_t> live_near(
      const LiveChunk& lc, const ChunkLayout::Rect& rect, CellId id) const;

  /// Signal on the cells the work gate admits, into `sc` (the shard
  /// stage and the row-major sweep share it).
  auto signal_visitor(ShardScratch& sc);

  // Per-cell phase bodies, run on the cells the shard loops' gates admit
  // (move_cell tests the rest of Move's gate itself); each gathers the
  // neighbor reads and runs the shared core/ transition into `sc`.
  // (lc, rect, slot, id) locate the cell inside its live chunk (the chunk
  // loops carry `id` incrementally so the bodies never divide).
  void route_cell(ShardScratch& sc, LiveChunk& lc,
                  const ChunkLayout::Rect& rect, std::size_t slot, CellId id);
  void signal_cell(ShardScratch& sc, LiveChunk& lc, std::size_t slot,
                   CellId id, NeighborMask ne_prev);
  void move_cell(ShardScratch& sc, LiveChunk& lc,
                 const ChunkLayout::Rect& rect, std::size_t slot, CellId id);
  /// Move's work gate for the cell at `slot` of `lc` (move_gate).
  [[nodiscard]] bool move_admits(const LiveChunk& lc,
                                 const ChunkLayout::Rect& rect,
                                 std::size_t slot) const;
  /// NEPrev of `id` from its neighbours' feed bytes.
  [[nodiscard]] NeighborMask inbound(const LiveChunk& lc,
                                     const ChunkLayout::Rect& rect,
                                     CellId id) const;

  /// Arms cell `id` (faulting its chunk in) to run Route in round `upto`.
  void arm_cell(CellId id, std::uint64_t upto);
  /// Arms `id` and its lattice neighbors (external-mutation re-arm).
  void arm_route_neighborhood(CellId id, std::uint64_t upto);

  ChunkLayout layout_;
  ChunkedCellStore store_;

  /// Chunks that never park: the target's chunk (its dist is pinned by
  /// Route every round) and every source's chunk (injection reads them
  /// every round).
  std::vector<std::uint8_t> pinned_;
  std::vector<std::uint32_t> park_scan_;  ///< live-chunk ids, park sweep
};

}  // namespace cellflow::chunk

namespace cellflow {
extern template class ShardedEngine<chunk::ChunkedSystem>;
}  // namespace cellflow
