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
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "core/cell_state.hpp"
#include "core/choose.hpp"
#include "core/move.hpp"
#include "core/params.hpp"
#include "core/signal.hpp"
#include "core/source.hpp"
#include "grid/grid.hpp"
#include "grid/mask.hpp"
#include "obs/protocol_metrics.hpp"
#include "util/ids.hpp"
#include "util/thread_pool.hpp"

namespace cellflow::obs {
class EngineTelemetry;
class PhaseProfiler;
}  // namespace cellflow::obs

namespace cellflow::snapshot {
struct Access;
}  // namespace cellflow::snapshot

namespace cellflow {

/// Execution engine for update()'s per-cell phase loops. The synchronous
/// phase structure (Route reads only previous-round dists; Signal and
/// Move write only cell-local state, with transfers applied in a separate
/// step) makes the per-cell work embarrassingly parallel; this policy
/// only selects *where* the round's stage plan runs (on a pool or inline
/// on the caller). Results are bit-identical across thread counts — see
/// the determinism contract in DESIGN.md §6 (sharded stages, barriers
/// between phases, canonical cell-id-ordered merge of cross-cell
/// effects).
struct ParallelPolicy {
  /// Whether a pooled engine may fall back to the serial loop for
  /// rounds whose per-shard work is too small to pay for dispatch and
  /// barriers. kAuto decides per round from the *previous* round's
  /// scheduler visit counts (deterministic inputs; and by the §6
  /// bit-identity contract either engine yields the same results, so
  /// the choice is purely a throughput knob). The pool stays alive
  /// across cutover rounds — only the round's execution is serial.
  enum class Cutover {
    kNever,  ///< always run sharded (the differential-test setting)
    kAuto,   ///< per-round serial fallback below the work threshold
  };

  /// Per-shard visit count under which kAuto runs a round serial (see
  /// choose_round_engine). ~a few hundred cells covers the dispatch +
  /// barrier cost of a persistent-pool round.
  static constexpr int kCutoverGrain = 256;

  /// Executors of the round plan (>= 1). The engine owns a ThreadPool
  /// of this width iff it is > 1; at 1 every round runs inline.
  int num_threads = 1;
  Cutover cutover = Cutover::kNever;

  [[nodiscard]] static constexpr ParallelPolicy serial() noexcept {
    return {};
  }
  [[nodiscard]] static constexpr ParallelPolicy parallel(
      int threads) noexcept {
    return ParallelPolicy{threads};
  }
  [[nodiscard]] static constexpr ParallelPolicy parallel_auto(
      int threads) noexcept {
    return ParallelPolicy{threads, Cutover::kAuto};
  }

  friend constexpr bool operator==(const ParallelPolicy&,
                                   const ParallelPolicy&) = default;
};

/// Policy from the CELLFLOW_THREADS environment variable — the ambient
/// override used by every System unless set_parallel_policy() is called:
/// unset, empty, or "0" means serial; an integer N >= 1 means
/// parallel_auto(N) (the ambient knob is a throughput request, so it
/// gets the serial cutover; explicit set_parallel_policy keeps full
/// control). Anything else throws std::runtime_error (a typo should
/// not silently run serial). Safe as an ambient knob precisely because
/// the engines are bit-identical.
[[nodiscard]] ParallelPolicy parallel_policy_from_env();

/// Which cells a round visits. Both schedulers produce bit-identical
/// protocol state, events, and metric counts (pinned by the three-way
/// differential in tests/test_parallel_system.cpp); kActiveSet merely
/// skips cells whose phase bodies are provably no-ops this round:
///
///   * Route — a cell reruns only while armed: some lattice neighbor's
///     dist changed last round, or the neighborhood was perturbed by
///     fail()/recover()/corrupt_control_state(). route_step is a pure
///     function of the neighbors' previous-round dists, so unchanged
///     inputs reproduce the stored dist/next.
///   * Signal/Move — a cell runs only if some cell of its closed
///     neighborhood is "occupied" (has members, a token, a signal, or a
///     stale NEPrev). An unoccupied cell with unoccupied neighbors maps
///     (⊥,⊥,[]) to (⊥,⊥,[]) without consulting the ChoosePolicy, and a
///     granted mover always has an occupied destination, so skipping is
///     invisible — including to stateful (RandomChoose) token streams.
///
/// The active sets are maintained incrementally (injection, transfer,
/// consumption, failure events), never rescanned; see DESIGN.md §9 for
/// the re-arm invariants. kExhaustive is the reference engine the
/// differential suites pin against.
enum class RoundScheduler {
  kActiveSet,    ///< skip provably-quiescent cells (the default)
  kExhaustive,  ///< visit every cell every phase (reference semantics)
};

/// Static configuration of a System. (SignalRule lives in core/signal.hpp,
/// MovementRule in core/move.hpp, next to the transitions they select.)
struct SystemConfig {
  int side = 8;                      ///< N: grid is N×N
  Params params{0.25, 0.05, 0.1};    ///< l, rs, v
  CellId target{1, 7};               ///< tid (consumes entities)
  std::vector<CellId> sources{CellId{1, 0}};  ///< SID (produce entities)
  SignalRule signal_rule = SignalRule::kBlocking;
  MovementRule movement_rule = MovementRule::kCoupled;
};

/// One entity hand-off between adjacent cells during a round. A transfer
/// into the target is a *consumption*: the entity leaves the system.
struct TransferEvent {
  EntityId entity;
  CellId from;
  CellId to;
  bool consumed = false;
};

/// A boundary-crossing entity awaiting delivery, as produced by the Move
/// phase before transfers are applied (the entity is already re-placed
/// flush with `to`'s entry edge).
struct PendingTransfer {
  Entity entity;
  CellId from;
  CellId to;
};

/// Canonical order of one round's cross-cell transfers: ascending origin
/// cell index, preserving the origin's Members order within a cell
/// (stable). This is exactly the order the serial in-order Move loop
/// produces; the parallel engine's shard merge — and any future engine —
/// must funnel through it so that destination Members order, the
/// transfer-event sequence, and hence every downstream trace are
/// independent of internal iteration order.
void canonical_transfer_order(const Grid& grid,
                              std::vector<PendingTransfer>& transfers);

/// Everything that happened in one update() round, for observers.
struct RoundEvents {
  std::uint64_t round = 0;
  std::vector<TransferEvent> transfers;
  /// Cells that applied a movement this round (had permission).
  std::vector<CellId> moved;
  /// Cells holding a token whose grant was *blocked* (signal forced to ⊥
  /// by an occupied entry strip) — Figure 5 line 14.
  std::vector<CellId> blocked;
  /// Entities created by sources this round.
  std::vector<std::pair<CellId, EntityId>> injected;
  /// Arrivals (= transfers with consumed == true).
  std::uint64_t arrivals = 0;

  /// Empties the event lists keeping their capacity — update() reuses one
  /// RoundEvents across rounds so the steady state never reallocates.
  void clear() noexcept {
    round = 0;
    transfers.clear();
    moved.clear();
    blocked.clear();
    injected.clear();
    arrivals = 0;
  }
};

/// Phases of update(), in execution order, for PhaseHook.
enum class UpdatePhase { kAfterRoute, kAfterSignal, kAfterMove, kAfterInject };

class System {
 public:
  /// Hook invoked with the System frozen at each intermediate state of the
  /// current round. Observing only — the hook must not mutate the System.
  using PhaseHook = std::function<void(const System&, UpdatePhase)>;

  /// Builds the initial state: all cells empty and non-faulty, dist = ∞
  /// except dist_target = 0, all pointers ⊥ (paper Figure 3).
  /// `choose`/`source` default to RoundRobinChoose / EntryEdgeSource.
  /// `config.sources` is canonicalized (sorted by cell id, deduplicated)
  /// so injection order — and thus entity-id assignment — cannot depend
  /// on how the caller happened to list the sources. The execution
  /// engine defaults to parallel_policy_from_env().
  explicit System(SystemConfig config,
                  std::unique_ptr<ChoosePolicy> choose = nullptr,
                  std::unique_ptr<SourcePolicy> source = nullptr);

  // --- observation ---------------------------------------------------

  [[nodiscard]] const Grid& grid() const noexcept { return grid_; }
  [[nodiscard]] const Params& params() const noexcept { return config_.params; }
  [[nodiscard]] const SystemConfig& config() const noexcept { return config_; }
  [[nodiscard]] CellId target() const noexcept { return config_.target; }
  [[nodiscard]] std::span<const CellId> sources() const noexcept {
    return config_.sources;
  }

  [[nodiscard]] const CellState& cell(CellId id) const {
    return cells_[grid_.index_of(id)];
  }
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

  /// Rounds executed so far.
  [[nodiscard]] std::uint64_t round() const noexcept { return round_; }
  /// Entities consumed by the target since construction.
  [[nodiscard]] std::uint64_t total_arrivals() const noexcept {
    return total_arrivals_;
  }
  /// Entities currently in the system.
  [[nodiscard]] std::size_t entity_count() const noexcept;
  /// Entities ever injected.
  [[nodiscard]] std::uint64_t total_injected() const noexcept {
    return next_entity_id_;
  }

  /// N F(x) as a mask (true = non-faulty).
  [[nodiscard]] CellMask alive_mask() const;
  /// ρ(x, ·) over the current failure pattern (reference BFS oracle).
  [[nodiscard]] std::vector<Dist> reference_distances() const;
  /// TC(x): target-connected cells under the current failure pattern.
  [[nodiscard]] CellMask tc_mask() const;

  // --- transitions ----------------------------------------------------

  /// fail(⟨i,j⟩). Idempotent. Precondition: id is on the grid.
  void fail(CellId id);

  /// §IV recovery. Idempotent (no-op on non-failed cells).
  void recover(CellId id);

  /// One synchronous round. Returns what happened (also retrievable via
  /// last_events()).
  const RoundEvents& update();

  /// Events of the most recent update().
  [[nodiscard]] const RoundEvents& last_events() const noexcept {
    return events_;
  }

  /// Registers an intermediate-state observer (replaces any previous).
  /// Hooks always run on the calling thread, in the round plan's serial
  /// stages between phases, with all workers quiescent — regardless of
  /// ParallelPolicy. Attaching one does not change how the round runs.
  void set_phase_hook(PhaseHook hook) { phase_hook_ = std::move(hook); }

  /// Selects the execution engine for subsequent update() calls.
  /// Changing the policy never changes results — only how the per-cell
  /// loops are scheduled. num_threads > 1 spawns (or resizes) the owned
  /// ThreadPool; num_threads == 1 releases it. Precondition: num_threads in
  /// [1, 1024] (the same bound CELLFLOW_THREADS enforces).
  ///
  /// Note: a stateful (non-concurrent_safe) ChoosePolicy pins the Signal
  /// phase to one in-order pass in a serial stage even on a pool,
  /// because its internal stream must observe the exact serial call
  /// sequence; Route and Move still run sharded.
  void set_parallel_policy(const ParallelPolicy& policy);

  [[nodiscard]] const ParallelPolicy& parallel_policy() const noexcept {
    return parallel_;
  }

  /// Selects the round scheduler for subsequent update() calls. Changing
  /// it never changes results (see RoundScheduler); switching to
  /// kActiveSet rebuilds the active sets from the current state, so the
  /// switch is valid at any round boundary.
  void set_round_scheduler(RoundScheduler scheduler);

  [[nodiscard]] RoundScheduler round_scheduler() const noexcept {
    return scheduler_;
  }

  /// How many cells each phase of the most recent update() actually
  /// visited (diagnostics for the active-set scheduler; under
  /// kExhaustive every figure equals cell_count()). Deliberately not
  /// part of RoundEvents: the differential suites compare RoundEvents
  /// across schedulers, and these figures legitimately differ.
  struct SchedulerStats {
    std::uint64_t route_cells = 0;
    std::uint64_t signal_cells = 0;
    std::uint64_t move_cells = 0;
  };
  [[nodiscard]] const SchedulerStats& last_scheduler_stats() const noexcept {
    return sched_stats_;
  }

  // --- observability ---------------------------------------------------

  /// Attaches a metrics registry (non-owning; must outlive this System's
  /// updates); nullptr detaches. The protocol counters (see
  /// obs/protocol_metrics.hpp) accumulate per shard and merge in shard
  /// order at the phase barriers, so every count is bit-identical across
  /// ParallelPolicy modes and thread counts. Detached, the hot paths are
  /// a null-pointer test per phase — effectively free.
  void set_metrics(obs::MetricsRegistry* registry);

  /// Attaches a phase profiler (non-owning; nullptr detaches). Timing
  /// only — spans never feed back into protocol state, and the counts
  /// contract above is untouched. With a pool live, also enables
  /// per-worker timing so worker/barrier spans land in the profiler.
  void set_profiler(obs::PhaseProfiler* profiler);

  /// Attaches engine telemetry (non-owning; nullptr detaches): per-round
  /// work/barrier_wait/dispatch/merge attribution, per-phase imbalance,
  /// and the Amdahl serial-fraction estimate — see
  /// obs/engine_telemetry.hpp. Timings are outside the determinism
  /// contract; the per-round observation *counts* it produces are
  /// inside (bit-identical across engines and thread counts). Attached
  /// explicitly — never implied by set_metrics — so registries shared
  /// with determinism byte-diff fixtures stay timing-free.
  void set_telemetry(obs::EngineTelemetry* telemetry);

  // --- direct state access (testing / fault injection) -----------------

  /// Places an entity directly (bypassing sources). Used by tests and
  /// examples to set up initial configurations. Throws if the position is
  /// outside cell `id`'s Invariant-1 bounds or violates the gap
  /// requirement against existing members.
  EntityId seed_entity(CellId id, Vec2 center);

  /// Places an entity without any safety validation. Exists so tests can
  /// construct *unsafe* states and prove the §III-A oracles actually
  /// detect them; never used by the protocol or the benches.
  EntityId seed_entity_unchecked(CellId id, Vec2 center);

  /// Adversarial state corruption for self-stabilization experiments:
  /// overwrite the *protocol* variables (dist/next/token/signal) of a
  /// cell. Members and failed are preserved — the stabilization theorems
  /// are about control state, and corrupting Members could by itself break
  /// Safe, which no protocol can repair. See tests/test_self_stabilization.
  void corrupt_control_state(CellId id, Dist dist, OptCellId next,
                             OptCellId token, OptCellId signal);

 private:
  // Snapshot/restore (src/snapshot) reads and rebuilds the full private
  // state; it is the one sanctioned backdoor (DESIGN.md §11).
  friend struct snapshot::Access;

  struct ShardScratch;  // defined below, used by the phase-body helpers

  void inject_phase();

  // --- per-shard phase bodies and post-barrier merges ------------------
  //
  // update() runs every round as one stage plan (DESIGN.md §6):
  //
  //   [Route ∥] [Route merge, hook, serial Signal if stateful]
  //   [Signal ∥] [Signal merge, hook] [Move ∥]
  //   [Move merge, hook, inject, hook]
  //
  // on the pool when the round pools, inline on the caller otherwise —
  // the same bodies over the same shard ranges with the same merge
  // order, whatever is attached. route_span / signal_span / move_span
  // run a contiguous cell range [begin, end) honoring the active-set
  // gates; `s` is the shard's scratch slot.
  void route_span(std::size_t s, std::size_t begin, std::size_t end);
  void signal_span(std::size_t s, std::size_t begin, std::size_t end);
  void move_span(std::size_t s, std::size_t begin, std::size_t end);

  /// Folds the ProtocolCounts tallies of slots [0, used) into
  /// round_counts_ and returns their summed visit count, re-arming both
  /// for the next phase.
  std::uint64_t collect_shards(std::size_t used);
  // Post-barrier merges of each phase, in shard order (DESIGN.md §6):
  // Route syncs the dist snapshot and re-arms readers; Signal
  // concatenates blocked events and applies occupancy flips; Move
  // concatenates movers, funnels transfers through
  // canonical_transfer_order, delivers them, and refreshes occupancy.
  void merge_route_results(std::size_t used);
  void merge_signal_results(std::size_t used);
  void merge_move_results(std::size_t used);

  // Per-cell bodies of the three phases, shared verbatim by the serial
  // and sharded loops (same scalar code on the same inputs ⇒ bit-equal
  // outputs): each gathers the cell's neighbor reads from the dense
  // tables and applies the shared transition of core/route, core/signal
  // or core/move. Outputs that the serial loop would append to
  // round-global vectors go to out-params so shards can buffer privately
  // and merge in canonical (ascending cell-index) order afterwards.
  // `counts` is the shard-private tally slot (nullptr when no registry
  // is attached — the bodies then skip all bookkeeping).
  // `changed_out`/`flip_out` are the active-set scheduler's shard-private
  // change buffers (nullptr under kExhaustive): cells whose dist changed
  // (Route) / whose occupancy bit flipped (Signal). Both are applied to
  // the shared scheduler state only at the post-phase barrier, in shard
  // order, so intra-phase reads of that state see a frozen snapshot on
  // every engine.
  void route_cell(std::size_t k, obs::ProtocolCounts* counts,
                  std::vector<std::size_t>* changed_out);
  void signal_cell(std::size_t k, std::vector<CellId>& blocked_out,
                   obs::ProtocolCounts* counts,
                   std::vector<std::size_t>* flip_out);
  void move_cell(std::size_t k, std::vector<CellId>& moved_out,
                 std::vector<PendingTransfer>& pending_out,
                 std::vector<Entity>& crossed_scratch,
                 obs::ProtocolCounts* counts);

  // --- round scratch arena (DESIGN.md §10) -----------------------------
  //
  // Every buffer the phase loops used to allocate locally per round lives
  // here instead, cleared (capacity retained) at each use. One slot per
  // shard: a shard only ever touches its own slot during a phase, and the
  // post-barrier merges walk the slots in ascending shard order — the
  // same discipline that makes the engines bit-identical also makes the
  // arena race-free. Sized by set_parallel_policy to the engine width.
  // Each phase appends only to its own buffers, so one clear per round
  // suffices; counts and visited restart per phase (collect_shards).
  struct ShardScratch {
    std::vector<CellId> blocked;           ///< Signal: blocked-grant events
    std::vector<CellId> moved;             ///< Move: cells that moved
    std::vector<PendingTransfer> pending;  ///< Move: crossers, pre-merge
    std::vector<Entity> crossed;           ///< Move: per-cell crossing batch
    std::vector<std::size_t> changed;      ///< Route: dist-changed cells
    std::vector<std::size_t> flips;        ///< Signal: occupancy flips
    obs::ProtocolCounts counts;            ///< shard-private tallies
    std::uint64_t visited = 0;             ///< cells this shard ran (phase)
    std::uint64_t span_ns = 0;             ///< this shard's phase-body time
                                           ///< (profiler/telemetry only)

    void begin_round() noexcept {
      blocked.clear();
      moved.clear();
      pending.clear();
      crossed.clear();
      changed.clear();
      flips.clear();
      counts.reset();
      visited = 0;
      span_ns = 0;
    }
  };
  struct RoundScratch {
    std::vector<ShardScratch> shards;       ///< >= 1; index = shard id
    std::vector<PendingTransfer> transfers; ///< canonical merge buffer
  };

  // --- active-set scheduler internals (DESIGN.md §9) -------------------

  /// B(c): true iff the cell can influence (or be mutated by) Signal or
  /// Move this round. Computed from the raw fields regardless of
  /// `failed`, so even adversarially corrupted failed cells keep their
  /// neighborhoods scheduled exactly as the exhaustive loop behaves.
  [[nodiscard]] static bool occupied(const CellState& c) noexcept {
    return !c.members.empty() || c.token.has_value() || c.signal.has_value() ||
           !c.ne_prev.empty();
  }

  /// Re-derives every scheduler structure from the current protocol
  /// state: all cells armed for Route this round, occupancy bits and
  /// neighborhood refcounts recomputed, dist snapshot synced.
  void rebuild_active_sets();

  /// Arms `k` and its lattice neighbors to run Route in round `upto`.
  void arm_route_neighborhood(std::size_t k, std::uint64_t upto);

  /// Toggles occ_b_[k] and propagates ±1 to the closed neighborhood's
  /// refcounts. Callers guarantee the bit is actually stale.
  void apply_occupancy_flip(std::size_t k);

  /// Recomputes B(cells_[k]) and applies the flip if it changed
  /// (idempotent; used by the serial mutation points: injection,
  /// transfer delivery, seeding, fail/recover/corruption).
  void refresh_occupancy(std::size_t k);

  /// Bookkeeping shared by fail()/recover()/corrupt_control_state():
  /// syncs the dist snapshot, re-arms Route around the mutation, and
  /// refreshes occupancy.
  void note_control_mutation(std::size_t k);

  SystemConfig config_;
  Grid grid_;
  /// Every cell of the grid, resident, in index order.
  /// chunk::ChunkedSystem is the sparse sibling.
  std::vector<CellState> cells_;
  std::unique_ptr<ChoosePolicy> choose_;
  std::unique_ptr<SourcePolicy> source_;
  PhaseHook phase_hook_;

  std::uint64_t round_ = 0;
  std::uint64_t total_arrivals_ = 0;
  std::uint64_t next_entity_id_ = 0;
  RoundEvents events_;

  ParallelPolicy parallel_;
  std::unique_ptr<ThreadPool> pool_;  ///< live iff num_threads > 1
  RoundScratch scratch_;              ///< see the struct comment above
  std::size_t target_k_ = 0;  ///< grid_.index_of(config_.target), cached

  // Observability attachments; all optional, all non-owning.
  std::unique_ptr<obs::ProtocolMetrics> metrics_;  ///< live iff attached
  obs::PhaseProfiler* profiler_ = nullptr;
  obs::EngineTelemetry* telemetry_ = nullptr;
  obs::ProtocolCounts round_counts_;  ///< merged tally of the current round

  // --- engine timing scaffolding (profiler / telemetry only) ----------
  //
  // Everything below is reporting-only plumbing: written on the calling
  // thread (worker timings are the pool's per-stage samples, read after
  // each pooled plan) and untouched when neither attachment is live.

  /// Syncs the pool's per-stage timing with the current attachments
  /// (enabled iff profiler or telemetry is live).
  void sync_pool_timing();

  /// Decomposes the pooled parallel stages of the plan that just ran
  /// from the pool's per-stage executor samples and the caller's stage
  /// stamps (round_timing_.open/done), and records per-worker profiler
  /// spans. Pooled rounds only.
  void note_pooled_stages(const ThreadPool& pool);

  /// Accumulators for the round in flight, reset at each update() when
  /// profiler or telemetry is attached. open/done are the caller's
  /// stamps bracketing each parallel stage (0 = Route, 1 = Signal,
  /// 2 = Move). The pool_* fields come from each pooled stage's
  /// executor samples, summed over the participants and divided by
  /// their count — each participant's open -> first task -> last task ->
  /// done chain spans the stage wall exactly, so the normalized
  /// components sum to the stage wall even when fewer executors than
  /// the pool width claimed tasks (routine on an oversubscribed
  /// machine).
  struct RoundTiming {
    std::array<ThreadPool::Clock::time_point, 3> open{}, done{};
    std::uint64_t serial_work_ns = 0;    ///< bodies run on the caller
    std::uint64_t merge_ns = 0;          ///< post-barrier serial sections
    std::uint64_t pool_busy_ns = 0;      ///< wall-equiv executor busy spans
    std::uint64_t pool_barrier_ns = 0;   ///< wall-equiv barrier stalls
    std::uint64_t pool_dispatch_ns = 0;  ///< wall-equiv stage-open latency
    std::uint64_t pool_task_ns = 0;      ///< summed task bodies (utilization)
    std::array<double, 3> imbalance{1.0, 1.0, 1.0};

    void reset() noexcept { *this = RoundTiming{}; }
  };
  RoundTiming round_timing_;
  std::vector<ThreadPool::StageSample> stage_samples_;  ///< scratch

  /// Last dispatch_stats() reading, for per-round deltas in telemetry.
  DispatchStats last_dispatch_stats_;

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

  /// nbr_idx_[k][d]: dense index of cell k's neighbor in kAllDirections
  /// order, or kNoNbr at the boundary.
  std::vector<std::array<std::uint32_t, 4>> nbr_idx_;
  /// cell_id_[k] == grid_.id_of(k), cached (avoids a div/mod per access).
  std::vector<CellId> cell_id_;

  // Active-set scheduler state (kActiveSet; rebuilt on switch). All
  // three vectors are read-only during the sharded phase loops and
  // mutated only at the barriers / between rounds, on the calling
  // thread — shards buffer their changes privately (see route_cell /
  // signal_cell) and the merges apply them in shard order.
  RoundScheduler scheduler_ = RoundScheduler::kActiveSet;
  std::vector<std::uint64_t> route_stamp_;  ///< run Route iff >= round_
  std::vector<std::uint8_t> occ_b_;         ///< B(cells_[k]), cached
  std::vector<std::uint8_t> occ_refs_;      ///< # occupied in closed nbhd
  SchedulerStats sched_stats_;
};

/// How one round of System or chunk::ChunkedSystem runs: one rule for
/// both engines. `domain` is what the round's parallel stages shard —
/// cells for System, live chunks for ChunkedSystem — and `shards` is
/// fixed for the whole round.
struct RoundEngine {
  ThreadPool* pool = nullptr;  ///< nullptr: the plan runs inline
  std::size_t shards = 1;      ///< tasks per parallel stage
  bool cutover = false;        ///< kAuto pinned this round inline
};

/// Picks the round's engine. Without a pool, or when the domain yields a
/// single shard, the round runs inline. Under kAuto it also runs inline
/// when the previous round's widest phase (`last`, the scheduler's visit
/// counts) would hand each shard fewer than ParallelPolicy::kCutoverGrain
/// cells: dispatch and barriers would then dominate. The inputs are
/// engine-independent and both forms of the plan are bit-identical
/// (DESIGN.md §6), so the choice never changes results. Round 0 has no
/// stats yet and runs as configured.
[[nodiscard]] RoundEngine choose_round_engine(
    ThreadPool* pool, ParallelPolicy::Cutover cutover, std::uint64_t round,
    const System::SchedulerStats& last, std::size_t domain);

}  // namespace cellflow
