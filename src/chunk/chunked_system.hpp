// ChunkedSystem (DESIGN.md §12): the sparse-world realization of the
// System automaton, storing cells in a ChunkedCellStore instead of the
// dense N² vector. Observationally it is the *same* automaton — same
// rounds, same events, same protocol counters, same state digest — pinned
// by tests/test_chunk_differential.cpp against the dense reference at
// every (engine, threads, scheduler) combination.
//
// What changes is purely mechanical. The per-cell transitions are the
// shared ones of core/ (apply_route, apply_signal, apply_move, the fail /
// recover resets, injection_is_safe); this engine only gathers a cell's
// neighbor reads through its chunk rect or the store, picks which cells
// run, and merges in its own order:
//
//   * Chunks are the unit of sharding. Each round runs System's six-stage
//     plan (DESIGN.md §6) through run_plan, with the shard count fixed
//     for the round and each parallel stage sharding the ascending
//     live-chunk list as it stands when the stage opens — the serial
//     merges can fault chunks in, and parking runs after the round, so
//     the list only grows. kAuto cuts over by System's rule
//     (choose_round_engine). Per-shard buffers merge in shard order.
//     Because a chunk-major traversal is not the global row-major order,
//     the per-round event lists (blocked, moved) are canonicalized —
//     sorted by dense cell index — at the barrier; the dense engines
//     produce exactly that order by construction, so the event streams
//     coincide.
//   * Non-live chunks are skipped bodily. This is sound because of the
//     store invariants the engine maintains (fault-in before any arming
//     or occupancy reference can reach a non-live chunk): every armed
//     cell is in a live chunk, every cell with occ_refs > 0 is in a live
//     chunk, and no occupied cell is ever adjacent to a non-live chunk.
//     The skipped cells' per-round metric tallies (a degree's worth of
//     route relaxations per live cell, one ne_prev_sizes[0] per live
//     cell — exactly what the dense active-set scheduler tallies for
//     quiescent cells) are compensated from O(1) per-chunk summaries.
//   * A stateful (non-concurrent_safe) ChoosePolicy, or a round that runs
//     inline, sweeps Signal *globally row-major* across chunks in the
//     Route merge stage, so the policy observes the identical call
//     sequence as the dense serial loop.
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
// Deliberately not carried over from System: PhaseHook, PhaseProfiler,
// EngineTelemetry, and the BFS oracle helpers — the safety-oracle suites
// run them on a dense twin stepped in lockstep (same seeds, same
// transitions), which also keeps this engine's hot loops free of
// observation plumbing. MessageSystem has no chunked realization either:
// the differential suites compare ChunkedSystem against *both* dense
// realizations instead.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "chunk/chunked_store.hpp"
#include "core/choose.hpp"
#include "core/source.hpp"
#include "core/system.hpp"
#include "grid/grid.hpp"
#include "obs/protocol_metrics.hpp"
#include "util/thread_pool.hpp"

namespace cellflow::snapshot {
struct Access;
}  // namespace cellflow::snapshot

namespace cellflow::chunk {

/// Rounds a chunk must stay fully quiescent before it parks. Hysteresis
/// only — correctness is independent of the value (1 would be correct);
/// it damps park/unpark churn at a slowly advancing flow frontier.
inline constexpr std::uint32_t kParkHysteresis = 8;

class ChunkedSystem {
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

  [[nodiscard]] const Grid& grid() const noexcept { return grid_; }
  [[nodiscard]] const Params& params() const noexcept {
    return config_.params;
  }
  [[nodiscard]] const SystemConfig& config() const noexcept { return config_; }
  [[nodiscard]] CellId target() const noexcept { return config_.target; }
  [[nodiscard]] std::span<const CellId> sources() const noexcept {
    return config_.sources;
  }

  /// The cell's state, by value: live cells are copied, parked cells are
  /// reconstructed from the summary, virgin cells are the initial state.
  /// (By value because the cell need not be materialized — taking a
  /// reference would force a fault-in on a pure read.)
  [[nodiscard]] CellState cell(CellId id) const;

  [[nodiscard]] std::uint64_t round() const noexcept { return round_; }
  [[nodiscard]] std::uint64_t total_arrivals() const noexcept {
    return total_arrivals_;
  }
  [[nodiscard]] std::uint64_t total_injected() const noexcept {
    return next_entity_id_;
  }
  /// Entities currently in the system (live chunks only hold them;
  /// parked/virgin cells are provably empty).
  [[nodiscard]] std::size_t entity_count() const noexcept;

  /// The store, for memory/lifecycle observation (bench, obs gauges).
  [[nodiscard]] const ChunkedCellStore& store() const noexcept {
    return store_;
  }

  // --- transitions ----------------------------------------------------

  /// Same semantics as System::fail/recover; targeting a parked or virgin
  /// chunk faults it in first.
  void fail(CellId id);
  void recover(CellId id);

  const RoundEvents& update();
  [[nodiscard]] const RoundEvents& last_events() const noexcept {
    return events_;
  }

  /// Same contract as System::set_parallel_policy (a pool iff
  /// num_threads > 1); shards are chunk ranges here, but results stay
  /// bit-identical across thread counts by the same discipline (ascending
  /// shards, barriers, shard-order merges, canonical transfer order,
  /// event canonicalization).
  void set_parallel_policy(const ParallelPolicy& policy);
  [[nodiscard]] const ParallelPolicy& parallel_policy() const noexcept {
    return parallel_;
  }

  /// Same contract as System::set_round_scheduler. kExhaustive visits
  /// every cell, which here means materializing *every* chunk (and
  /// parking none) — the configuration the differential suites use to
  /// pin the exhaustive reference; kActiveSet re-derives the scheduler
  /// state and resumes parking.
  void set_round_scheduler(RoundScheduler scheduler);
  [[nodiscard]] RoundScheduler round_scheduler() const noexcept {
    return scheduler_;
  }

  [[nodiscard]] const System::SchedulerStats& last_scheduler_stats()
      const noexcept {
    return sched_stats_;
  }

  /// Attaches a metrics registry (same contract and counter values as
  /// System::set_metrics — the label stays "shared" so the Prometheus
  /// exposition is byte-identical to the dense shared-variable engine's).
  void set_metrics(obs::MetricsRegistry* registry);

  // --- direct state access (testing / fault injection) -----------------

  EntityId seed_entity(CellId id, Vec2 center);
  EntityId seed_entity_unchecked(CellId id, Vec2 center);
  void corrupt_control_state(CellId id, Dist dist, OptCellId next,
                             OptCellId token, OptCellId signal);

 private:
  friend struct snapshot::Access;

  /// Mirrors System's ShardScratch (DESIGN.md §10): one slot per shard,
  /// merged in ascending shard order at the barriers. Each phase appends
  /// only to its own buffers, so one clear per round suffices; counts
  /// and visited restart per phase (collect_shards).
  struct ShardScratch {
    std::vector<CellId> blocked;
    std::vector<CellId> moved;
    std::vector<PendingTransfer> pending;
    std::vector<Entity> crossed;
    std::vector<CellId> changed;
    std::vector<CellId> flips;
    obs::ProtocolCounts counts;
    std::uint64_t visited = 0;

    void begin_round() noexcept {
      blocked.clear();
      moved.clear();
      pending.clear();
      crossed.clear();
      changed.clear();
      flips.clear();
      counts.reset();
      visited = 0;
    }
  };
  struct RoundScratch {
    std::vector<ShardScratch> shards;
    std::vector<PendingTransfer> transfers;
    std::vector<std::uint32_t> park_scan;  ///< live-chunk ids, park sweep
  };

  [[nodiscard]] static bool occupied(const CellState& c) noexcept {
    return !c.members.empty() || c.token.has_value() || c.signal.has_value() ||
           !c.ne_prev.empty();
  }

  /// Pointer to the cell iff its chunk is live, else nullptr (a non-live
  /// cell reads as unoccupied / non-communicating, which is exactly what
  /// it is).
  [[nodiscard]] const CellState* peek_live(CellId id) const;

  /// The cell, faulting its chunk in if necessary (mutation points).
  [[nodiscard]] CellState& cell_mut(CellId id);

  void inject_phase();

  // The plan's merges (see update()) fold slots [0, used) in shard
  // order; its parallel stages run the per-cell bodies below over a
  // shard's slice of the live-chunk list.
  /// Folds the tallies of slots [0, used) into round_counts_ and returns
  /// their summed visit count, re-arming both for the next phase.
  std::uint64_t collect_shards(std::size_t used);
  void merge_route_results(std::size_t used);
  void merge_signal_results(std::size_t used);
  void merge_move_results(std::size_t used);

  // Per-cell phase bodies, run for every cell the scheduler visits
  // (update() holds the gates and the skipped cells' tallies);
  // (lc, rect, slot, id) locate the cell inside its live chunk (the chunk
  // loops carry `id` incrementally so the bodies never divide). Each
  // gathers the neighbor reads and runs the shared core/ transition into
  // `sc`.
  void route_cell(ShardScratch& sc, LiveChunk& lc,
                  const ChunkLayout::Rect& rect, std::size_t slot, CellId id);
  void signal_cell(ShardScratch& sc, LiveChunk& lc,
                   const ChunkLayout::Rect& rect, std::size_t slot,
                   CellId id);
  void move_cell(ShardScratch& sc, LiveChunk& lc,
                 const ChunkLayout::Rect& rect, std::size_t slot, CellId id);

  /// The exhaustive route loop's Σ-degree tally for a skipped virgin
  /// chunk, in O(1) from the rect geometry. (The target chunk is pinned
  /// live at construction, so a virgin chunk never contains the target.)
  [[nodiscard]] std::uint64_t virgin_route_comp(std::size_t q) const;

  /// Arms cell `id` (faulting its chunk in) to run Route in round `upto`.
  void arm_cell(CellId id, std::uint64_t upto);
  /// Arms `id` and its lattice neighbors (external-mutation re-arm).
  void arm_route_neighborhood(CellId id, std::uint64_t upto);
  /// Toggles the cell's occupancy bit and propagates ±1 refs over the
  /// closed neighborhood, faulting neighbor chunks in on +1 (on −1 they
  /// are provably live already — they carried this cell's reference).
  void apply_occupancy_flip(CellId id);
  void refresh_occupancy(CellId id);
  void note_control_mutation(CellId id);

  /// Re-derives stamps/occupancy/snapshots for every live chunk from the
  /// current protocol state (scheduler switch, snapshot restore). Only
  /// live chunks are armed: parked/virgin regions are quiescence
  /// fixpoints, for which arming is observationally a no-op.
  void rebuild_active_sets();

  /// End-of-round park scan (kActiveSet only): parks every unpinned live
  /// chunk whose quiescence predicates have held for kParkHysteresis
  /// rounds — see the file comment.
  void park_sweep();

  SystemConfig config_;
  Grid grid_;
  ChunkLayout layout_;
  ChunkedCellStore store_;
  std::unique_ptr<ChoosePolicy> choose_;
  std::unique_ptr<SourcePolicy> source_;

  std::uint64_t round_ = 0;
  std::uint64_t total_arrivals_ = 0;
  std::uint64_t next_entity_id_ = 0;
  RoundEvents events_;

  ParallelPolicy parallel_;
  std::unique_ptr<ThreadPool> pool_;
  RoundScratch scratch_;

  std::unique_ptr<obs::ProtocolMetrics> metrics_;
  obs::ProtocolCounts round_counts_;

  RoundScheduler scheduler_ = RoundScheduler::kActiveSet;
  System::SchedulerStats sched_stats_;

  /// Chunks that never park: the target's chunk (its dist is pinned by
  /// Route every round) and every source's chunk (injection reads them
  /// every round).
  std::vector<std::uint8_t> pinned_;
};

}  // namespace cellflow::chunk
