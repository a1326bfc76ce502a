// The round driver of the shared-variable engines (DESIGN.md §6). System
// (the dense N² store) and chunk::ChunkedSystem (the sparse chunk store)
// realize one synchronous automaton (paper §II-B) over two stores, so
// everything but the store is written once, here, as a CRTP base over the
// engine: the six-stage round plan and its phase hooks, the shard merges,
// injection, the environment actions, the skipped-cell metric tallies and
// the metrics / profiler / telemetry attachments.
//
// An engine keeps only its store, its neighbor gathers, its scheduler
// state and (chunked) the chunk lifecycle. Nothing in the round is
// virtual: the driver calls these engine points, and the engines' per-cell
// loops inline into the plan.
//
//   begin_round()          kExhaustive: recopy Route's dist snapshot.
//                          Returns the round's shard domain (cells for
//                          System, live chunks for ChunkedSystem), each
//                          unit kDomainCells cells
//   route_shard(t, used)   shard t's slice of a parallel stage, into
//   signal_shard(t, used)  scratch slot t, honoring the kActiveSet gates
//   move_shard(t, used)    (Route's stamps; the work gates below)
//   signal_sweep()         Signal over every cell in dense row-major
//                          order, into slot 0 (a serial stage)
//   apply_dist_change(id)  kActiveSet Route merge: snapshot sync and
//                          re-arming of one cell whose dist changed
//   apply_flip(id)         kActiveSet Signal merge: one occupancy flip
//                          (the chunked store's parking state)
//   cell(id), cell_mut(id) read / mutate one cell (cell_mut may
//                          materialize storage)
//   refresh_gates(id)      scheduler bookkeeping after a serial change of
//                          the cell's members (delivery, the movers,
//                          injection, seeding)
//   note_control_mutation(id)
//                          the same after fail, recover or corruption
//   after_serial_stage()   before a parallel stage opens
//   end_round()            after the round counter advances
//   rebuild_active_sets()  re-derive the scheduler state and recount the
//                          live totals (construction, scheduler switch,
//                          snapshot restore)
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/cell_state.hpp"
#include "core/choose.hpp"
#include "core/move.hpp"
#include "core/params.hpp"
#include "core/signal.hpp"
#include "core/source.hpp"
#include "grid/grid.hpp"
#include "obs/protocol_metrics.hpp"
#include "util/check.hpp"
#include "util/ids.hpp"
#include "util/thread_pool.hpp"

namespace cellflow::obs {
class EngineTelemetry;
class PhaseProfiler;
}  // namespace cellflow::obs

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

  /// kAuto's work estimate of a round, in scanned cells (see
  /// choose_round_engine): every cell of the shard domain, which the gate
  /// scans read, plus kVisitWeight for each cell the previous round's
  /// gates admitted. A round of `used` shards pools iff each shard's
  /// share reaches kCutoverGrain. Fitted at two threads on a 4-vCPU guest
  /// (DESIGN.md §6): sharding the scans pays, while a gated visit moves
  /// its cell between cores, which costs about what sharding the visit
  /// saves.
  static constexpr std::uint64_t kCutoverGrain = 32768;
  static constexpr std::uint64_t kVisitWeight = 4;

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
/// override used by every engine unless set_parallel_policy() is called:
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
///   * Signal — a cell runs only if it is live and holds a token, a
///     signal or a stored NEPrev, or a live neighbour with members has
///     next = this cell. Any other live cell maps (⊥,⊥,∅) to itself with
///     NEPrev ∅ and never consults the ChoosePolicy, so skipping it is
///     invisible — including to stateful (RandomChoose) token streams.
///   * Move — a cell runs only if it is live with a next and its
///     destination's signal names it (under kCoupled even when empty),
///     or, under kCompacting, it has members: no other body moves or
///     tallies anything.
///
/// The Signal and Move gates read two bytes a cell (the driver's feed
/// and hold codes below), each written only from its own cell's fields.
/// All the scheduler state is maintained incrementally at the existing
/// mutation points (Route, Signal, the Move merge, injection, seeding,
/// fail/recover/corruption, rebuild_active_sets), never by a pass over
/// the grid; see DESIGN.md §9 for the invariants. kExhaustive is the
/// reference engine the differential suites pin against.
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
/// produces; every engine's shard merge funnels through it so that
/// destination Members order, the transfer-event sequence, and hence
/// every downstream trace are independent of internal iteration order.
void canonical_transfer_order(const Grid& grid,
                              std::vector<PendingTransfer>& transfers);

/// Canonical order of one round's per-cell events (blocked, moved):
/// ascending dense cell index — the order the serial row-major loop
/// produces. One is_sorted pass; the sort runs only when an engine's
/// traversal is not row-major (the chunk-major shards).
void canonical_cell_order(std::vector<CellId>& cells);

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

/// How many cells each phase of the most recent update() actually
/// visited (diagnostics for the active-set scheduler; under kExhaustive
/// every figure equals the grid's cell count). Deliberately not part of
/// RoundEvents: the differential suites compare RoundEvents across
/// schedulers, and these figures legitimately differ.
struct SchedulerStats {
  std::uint64_t route_cells = 0;
  std::uint64_t signal_cells = 0;
  std::uint64_t move_cells = 0;
};

/// How one round runs. `domain` is what the round's parallel stages
/// shard — cells for System, live chunks for ChunkedSystem — and `shards`
/// is fixed for the whole round.
struct RoundEngine {
  ThreadPool* pool = nullptr;  ///< nullptr: the plan runs inline
  std::size_t shards = 1;      ///< tasks per parallel stage
  bool cutover = false;        ///< kAuto pinned this round inline
};

/// Picks the round's engine. Without a pool, or when the domain yields a
/// single shard, the round runs inline. Under kAuto it also runs inline
/// when the round's work estimate — the `cells` its gate scans cover
/// plus ParallelPolicy::kVisitWeight per cell the previous round's gates
/// admitted (`last`, the scheduler's visit counts) — falls short of
/// ParallelPolicy::kCutoverGrain × used: dispatch, barriers and the
/// cross-core traffic of the visited cells would then eat the saving.
/// The inputs are deterministic counts and both forms of the plan are
/// bit-identical (DESIGN.md §6), so the choice never changes results.
/// Round 0 has no stats yet and runs as configured.
[[nodiscard]] RoundEngine choose_round_engine(ThreadPool* pool,
                                              ParallelPolicy::Cutover cutover,
                                              std::uint64_t round,
                                              const SchedulerStats& last,
                                              std::size_t domain,
                                              std::uint64_t cells);

/// The profiler and telemetry attachments with their round-timing
/// scaffolding. Reporting only: written on the calling thread (shards
/// write only their own slot; worker timings are the pool's per-stage
/// samples, read after each pooled plan), never read by the round, and
/// inert while neither attachment is live.
///
/// Each serial piece of the plan bills [previous stamp, now) to one
/// component — merges to merge when pooled, serial bodies (and inline
/// merges) to work, hooks to none — and each parallel stage's
/// [open, done) is either decomposed from the pool's executor samples or,
/// inline, billed to work.
class RoundTimer {
 public:
  using Clock = ThreadPool::Clock;

  obs::PhaseProfiler* profiler = nullptr;     ///< non-owning
  obs::EngineTelemetry* telemetry = nullptr;  ///< non-owning

  /// Enables the pool's per-stage timing iff an attachment is live.
  void sync(ThreadPool* pool);

  /// Stamps the round's start (before any of its work).
  void begin(std::uint64_t round);
  /// Bills the pre-plan work and fixes the round's engine shape.
  void open_plan(bool pooled, std::size_t used);
  /// A shard body's clocks: per-shard spans feed the profiler's shard
  /// tracks and the imbalance statistic, so an inline round needs them
  /// only for the profiler.
  [[nodiscard]] Clock::time_point shard_start() const {
    return shard_timing_ ? Clock::now() : Clock::time_point{};
  }
  void shard_end(std::size_t phase, std::size_t shard, Clock::time_point t0);
  /// Closes parallel stage `phase` (0 Route, 1 Signal, 2 Move).
  void parallel_done(std::size_t phase);
  void merge() { bill(pooled_ ? &t_.merge_ns : &t_.serial_work_ns, "merge"); }
  void work(const char* span) { bill(&t_.serial_work_ns, span); }
  void skip() { bill(nullptr, nullptr); }  ///< hook time: no component
  /// Records the round span and the telemetry breakdown. `owned` is the
  /// engine's pool (live even on a cutover round), or nullptr.
  void end(const RoundEngine& engine, const ThreadPool* owned);

 private:
  void bill(std::uint64_t* into, const char* span);
  void note_pooled_stages(const ThreadPool& pool);

  /// Accumulators of the round in flight. open/done stamp each parallel
  /// stage (0 = Route, 1 = Signal, 2 = Move). The pool_* fields come
  /// from each pooled stage's executor samples, summed over the
  /// participants and divided by their count — each participant's
  /// open -> first task -> last task -> done chain spans the stage wall
  /// exactly, so the normalized components sum to the stage wall even
  /// when fewer executors than the pool width claimed tasks (routine on
  /// an oversubscribed machine).
  struct RoundTiming {
    std::array<Clock::time_point, 3> open{}, done{};
    std::uint64_t serial_work_ns = 0;    ///< bodies run on the caller
    std::uint64_t merge_ns = 0;          ///< post-barrier serial sections
    std::uint64_t pool_busy_ns = 0;      ///< wall-equiv executor busy spans
    std::uint64_t pool_barrier_ns = 0;   ///< wall-equiv barrier stalls
    std::uint64_t pool_dispatch_ns = 0;  ///< wall-equiv stage-open latency
    std::uint64_t pool_task_ns = 0;      ///< summed task bodies (utilization)
    std::array<double, 3> imbalance{1.0, 1.0, 1.0};
  };

  bool track_ = false;
  bool pooled_ = false;
  bool shard_timing_ = false;
  std::uint64_t round_ = 0;
  std::size_t used_ = 1;
  Clock::time_point start_{};
  Clock::time_point at_{};  ///< end of the last billed piece
  RoundTiming t_;
  std::vector<std::uint64_t> shard_ns_;  ///< per-shard body time, by slot
  std::vector<ThreadPool::StageSample> samples_;  ///< scratch
  DispatchStats last_dispatch_;  ///< for per-round deltas
};

/// The round driver: state and public surface shared by System and
/// chunk::ChunkedSystem (see the file comment for the engine points).
template <class Engine>
class ShardedEngine {
 public:
  /// Hook invoked with the engine frozen at each intermediate state of
  /// the current round. Observing only — the hook must not mutate it.
  using PhaseHook = std::function<void(const Engine&, UpdatePhase)>;
  using SchedulerStats = cellflow::SchedulerStats;

  // --- observation ---------------------------------------------------

  [[nodiscard]] const Grid& grid() const noexcept { return grid_; }
  [[nodiscard]] const Params& params() const noexcept { return config_.params; }
  [[nodiscard]] const SystemConfig& config() const noexcept { return config_; }
  [[nodiscard]] CellId target() const noexcept { return config_.target; }
  [[nodiscard]] std::span<const CellId> sources() const noexcept {
    return config_.sources;
  }

  /// Rounds executed so far.
  [[nodiscard]] std::uint64_t round() const noexcept { return round_; }
  /// Entities consumed by the target since construction.
  [[nodiscard]] std::uint64_t total_arrivals() const noexcept {
    return total_arrivals_;
  }
  /// Entities ever injected.
  [[nodiscard]] std::uint64_t total_injected() const noexcept {
    return next_entity_id_;
  }

  /// Events of the most recent update().
  [[nodiscard]] const RoundEvents& last_events() const noexcept {
    return events_;
  }
  [[nodiscard]] const ParallelPolicy& parallel_policy() const noexcept {
    return parallel_;
  }
  [[nodiscard]] RoundScheduler round_scheduler() const noexcept {
    return scheduler_;
  }
  [[nodiscard]] const SchedulerStats& last_scheduler_stats() const noexcept {
    return sched_stats_;
  }

  // --- transitions ----------------------------------------------------

  /// fail(⟨i,j⟩). Idempotent. Precondition: id is on the grid.
  void fail(CellId id);

  /// §IV recovery. Idempotent (no-op on non-failed cells).
  void recover(CellId id);

  /// One synchronous round. Returns what happened (also retrievable via
  /// last_events()).
  const RoundEvents& update();

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
  /// Note: Signal runs sharded only when the round pools and the
  /// ChoosePolicy is concurrent_safe; otherwise it is one row-major pass
  /// in a serial stage, because a stateful policy's internal stream must
  /// observe the exact serial call sequence. Route and Move still shard.
  void set_parallel_policy(const ParallelPolicy& policy);

  // --- observability ---------------------------------------------------

  /// Attaches a metrics registry (non-owning; must outlive the engine's
  /// updates); nullptr detaches. The protocol counters (see
  /// obs/protocol_metrics.hpp) accumulate per shard and merge in shard
  /// order at the phase barriers, so every count is bit-identical across
  /// engines, schedulers, ParallelPolicy modes and thread counts (the
  /// label is "shared" on both stores). Detached, the hot paths are a
  /// null-pointer test per phase — effectively free.
  void set_metrics(obs::MetricsRegistry* registry);

  /// Attaches a phase profiler (non-owning; nullptr detaches). Timing
  /// only — spans never feed back into protocol state, and the counts
  /// contract above is untouched. With a pool live, also enables
  /// per-worker timing so worker/barrier spans land in the profiler.
  /// Shard spans are per slice of the shard domain (cell ranges on
  /// System, live-chunk ranges on ChunkedSystem).
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

 protected:
  /// Initial driver state: sources canonicalized (sorted by cell id,
  /// deduplicated) so injection order — and thus entity-id assignment —
  /// cannot depend on how the caller listed them; `choose`/`source`
  /// default to RoundRobinChoose / EntryEdgeSource; the execution engine
  /// defaults to parallel_policy_from_env(). The engine builds its store
  /// and then calls rebuild_active_sets().
  ShardedEngine(SystemConfig config, std::unique_ptr<ChoosePolicy> choose,
                std::unique_ptr<SourcePolicy> source);

  /// The round scratch arena (DESIGN.md §10). One slot per shard: a
  /// shard only ever touches its own slot during a phase, and the
  /// post-barrier merges walk the slots in ascending shard order — the
  /// same discipline that makes the engines bit-identical also makes the
  /// arena race-free. Each phase appends only to its own buffers, so one
  /// clear per round suffices; counts and visited restart per phase
  /// (collect_shards).
  struct ShardScratch {
    std::vector<CellId> blocked;           ///< Signal: blocked-grant events
    std::vector<CellId> moved;             ///< Move: cells that moved
    std::vector<PendingTransfer> pending;  ///< Move: crossers, pre-merge
    std::vector<Entity> crossed;           ///< Move: per-cell crossing batch
    std::vector<CellId> changed;  ///< Route: dist-changed cells (kActiveSet)
    std::vector<CellId> flips;    ///< Signal: occupancy flips (chunked)
    obs::ProtocolCounts counts;   ///< shard-private tallies
    std::uint64_t visited = 0;    ///< cells this shard ran (phase)

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

  [[nodiscard]] bool active() const noexcept {
    return scheduler_ == RoundScheduler::kActiveSet;
  }

  // --- the kActiveSet work gates of Signal and Move (DESIGN.md §9) -----
  //
  // Two bytes a cell, each a function of that cell's own fields, so every
  // write goes to the writer's own cell and nothing propagates:
  //
  //   feed — the NEPrev slot the cell occupies at its destination (the s
  //          with ascending_neighbors(*next)[s] == self) when the cell is
  //          live and next names a neighbour on the grid, else kNoSlot;
  //          plus kFeeds when the cell also has members. Bit d of a
  //          cell's NEPrev is set iff its slot-d neighbour's feed reads
  //          kFeeds | d (fed_by). Route writes it with next; the Move
  //          merge, injection and seeding with members.
  //   hold — kHold when the cell is live and holds a token, a signal or a
  //          stored NEPrev; kDead when it is failed; plus the slot of its
  //          signal among its own neighbours (kNoSlot when ⊥), failed or
  //          not: the grant Move reads. Signal writes it.
  //
  // fail, recover and corruption rewrite both (note_control_mutation),
  // and rebuild_active_sets derives them from scratch. The engines keep
  // the bytes (dense arrays, or per live chunk) and gather them.
  static constexpr std::uint8_t kNoSlot = 4;
  static constexpr std::uint8_t kSlotBits = 7;
  static constexpr std::uint8_t kFeeds = 8;
  static constexpr std::uint8_t kHold = 8;
  static constexpr std::uint8_t kDead = 16;

  [[nodiscard]] std::uint8_t feed_code(const CellState& c,
                                       CellId self) const noexcept {
    if (c.failed || !c.next.has_value() || !grid_.contains(*c.next))
      return kNoSlot;
    const NeighborMask at = neighbor_bit(*c.next, self);
    if (at == 0) return kNoSlot;
    return static_cast<std::uint8_t>(std::countr_zero(at) |
                                     (c.has_entities() ? kFeeds : 0));
  }
  [[nodiscard]] static std::uint8_t hold_code(const CellState& c,
                                              CellId self) noexcept {
    const NeighborMask g = c.signal ? neighbor_bit(self, *c.signal) : 0;
    auto h = static_cast<std::uint8_t>(g != 0 ? std::countr_zero(g) : kNoSlot);
    if (c.failed)
      h |= kDead;
    else if (c.token || c.signal || c.ne_prev != 0)
      h |= kHold;
    return h;
  }
  /// Whether a cell's slot-d neighbour, with feed byte `f`, is in the
  /// cell's NEPrev: live, nonempty and pointing at the cell.
  [[nodiscard]] static bool fed_by(std::uint8_t f, std::size_t d) noexcept {
    return f == (kFeeds | d);
  }
  /// The neighbour slot of a cell's destination, from its feed byte:
  /// ascending_neighbors lists the offsets (−1,0), (0,−1), (0,+1), (+1,0),
  /// so the destination lies opposite the cell's slot there.
  [[nodiscard]] static std::size_t dest_slot(std::uint8_t feed) noexcept {
    return 3u - (feed & kSlotBits);
  }

  /// Signal's gate. A cell outside it is failed (the body returns at
  /// once) or maps (⊥, ⊥, ∅) to itself with NEPrev `inbound` = ∅ and
  /// no choose call — apply_signal's fast path, whose one tally, |NEPrev|
  /// = 0, comes from the live totals. So skipping it is exact, even for
  /// a stateful choose policy.
  [[nodiscard]] static bool signal_gate(std::uint8_t hold,
                                        NeighborMask inbound) noexcept {
    return (hold & kDead) == 0 && ((hold & kHold) != 0 || inbound != 0);
  }
  /// Move's gate for a cell with feed byte `feed`; `dest_hold()` reads
  /// its destination's hold byte. The body does something only for a
  /// live cell with a next that is granted (under kCoupled even when
  /// empty: it moves and tallies) or, under kCompacting, has members.
  template <class DestHold>
  [[nodiscard]] bool move_gate(std::uint8_t feed,
                               DestHold&& dest_hold) const {
    const auto s = static_cast<std::uint8_t>(feed & kSlotBits);
    if (s == kNoSlot) return false;
    if ((feed & kFeeds) != 0 &&
        config_.movement_rule == MovementRule::kCompacting)
      return true;
    return (dest_hold() & kSlotBits) == s;
  }

  /// B(c), the chunked store's occupancy for parking: true iff the cell
  /// can influence (or be mutated by) Signal or Move this round. Computed
  /// from the raw fields regardless of `failed`, so even adversarially
  /// corrupted failed cells keep their neighbourhoods resident.
  [[nodiscard]] static bool occupied(const CellState& c) noexcept {
    return !c.members.empty() || c.token.has_value() || c.signal.has_value() ||
           c.ne_prev != 0;
  }

  /// The live totals as if no cell had failed; rebuild_active_sets then
  /// counts each failed cell out with note_liveness(id, false).
  void reset_live_totals() noexcept;
  /// Counts cell `id` into (live) or out of the live totals.
  void note_liveness(CellId id, bool live) noexcept {
    const auto degree = id == config_.target
                            ? std::uint64_t{0}
                            : static_cast<std::uint64_t>(grid_.degree(id));
    if (live) {
      ++live_cells_;
      live_degree_ += degree;
    } else {
      --live_cells_;
      live_degree_ -= degree;
    }
  }

  SystemConfig config_;
  Grid grid_;
  std::unique_ptr<ChoosePolicy> choose_;
  std::unique_ptr<SourcePolicy> source_;

  std::uint64_t round_ = 0;
  std::uint64_t total_arrivals_ = 0;
  std::uint64_t next_entity_id_ = 0;
  RoundEvents events_;

  RoundScheduler scheduler_ = RoundScheduler::kActiveSet;
  std::unique_ptr<obs::ProtocolMetrics> metrics_;  ///< live iff attached
  std::vector<ShardScratch> shards_;  ///< >= 1; index = shard id

 private:
  [[nodiscard]] Engine& derived() noexcept {
    return static_cast<Engine&>(*this);
  }

  /// Folds the tallies of slots [0, used) into round_counts_ and returns
  /// their summed visit count, re-arming both for the next phase.
  std::uint64_t collect_shards(std::size_t used);
  // Post-barrier merges, in shard order (DESIGN.md §6). Route's is the
  // engine's apply_dist_change per changed cell; Signal concatenates the
  // blocked events and applies the occupancy flips; Move concatenates the
  // movers, funnels transfers through canonical_transfer_order, delivers
  // them and refreshes occupancy.
  void merge_route(std::size_t used);
  void merge_signal(std::size_t used);
  void merge_move(std::size_t used);
  void inject_phase();

  PhaseHook phase_hook_;
  ParallelPolicy parallel_;
  std::unique_ptr<ThreadPool> pool_;  ///< live iff num_threads > 1
  std::vector<PendingTransfer> transfers_;  ///< canonical merge buffer
  obs::ProtocolCounts round_counts_;  ///< merged tally of the current round
  SchedulerStats sched_stats_;
  RoundTimer timer_;

  // What one kActiveSet round tallies for the cells it skips, kept
  // current by fail/recover and recounted by rebuild_active_sets: every
  // live cell tallies one NEPrev size, and every live cell but the
  // target relaxes over each lattice neighbor.
  std::uint64_t live_cells_ = 0;   ///< # non-failed cells
  std::uint64_t live_degree_ = 0;  ///< Σ degree, non-failed non-target cells
};

// --- template members ---------------------------------------------------
//
// Instantiated explicitly once per engine (system.cpp, chunked_system.cpp),
// where the engine points are defined; engine headers declare the
// instantiation extern.

template <class Engine>
ShardedEngine<Engine>::ShardedEngine(SystemConfig config,
                                     std::unique_ptr<ChoosePolicy> choose,
                                     std::unique_ptr<SourcePolicy> source)
    : config_(std::move(config)),
      grid_(config_.side),
      choose_(choose ? std::move(choose)
                     : std::make_unique<RoundRobinChoose>()),
      source_(source ? std::move(source)
                     : std::make_unique<EntryEdgeSource>()) {
  canonicalize_sources(grid_, config_.target, config_.sources);
  set_parallel_policy(parallel_policy_from_env());
}

template <class Engine>
void ShardedEngine<Engine>::reset_live_totals() noexcept {
  // Σ degree over the N×N lattice is 4N² − 4N (each of the four borders
  // loses N edge ends).
  const auto n = static_cast<std::uint64_t>(grid_.side());
  live_cells_ = n * n;
  live_degree_ = 4 * n * n - 4 * n -
                 static_cast<std::uint64_t>(grid_.degree(config_.target));
}

template <class Engine>
void ShardedEngine<Engine>::set_parallel_policy(const ParallelPolicy& policy) {
  CF_EXPECTS_MSG(policy.num_threads >= 1 && policy.num_threads <= 1024,
                 "ParallelPolicy::num_threads out of [1, 1024]");
  parallel_ = policy;
  if (policy.num_threads > 1) {
    if (!pool_ || pool_->thread_count() != policy.num_threads) {
      pool_ = std::make_unique<ThreadPool>(policy.num_threads);
      timer_.sync(pool_.get());
    }
  } else {
    pool_.reset();
  }
  // One scratch slot per shard the engine can produce (an inline round
  // and the serial Signal sweep use slot 0 only). Shrinking on a
  // narrower policy would free warmed buffers for nothing, so don't.
  const auto width =
      pool_ ? static_cast<std::size_t>(pool_->thread_count()) : 1;
  if (shards_.size() < width) shards_.resize(width);
}

template <class Engine>
void ShardedEngine<Engine>::set_metrics(obs::MetricsRegistry* registry) {
  metrics_ = registry != nullptr
                 ? std::make_unique<obs::ProtocolMetrics>(*registry, "shared")
                 : nullptr;
  round_counts_.reset();
}

template <class Engine>
void ShardedEngine<Engine>::set_profiler(obs::PhaseProfiler* profiler) {
  timer_.profiler = profiler;
  timer_.sync(pool_.get());
}

template <class Engine>
void ShardedEngine<Engine>::set_telemetry(obs::EngineTelemetry* telemetry) {
  timer_.telemetry = telemetry;
  timer_.sync(pool_.get());
}

template <class Engine>
void ShardedEngine<Engine>::fail(CellId id) {
  CF_EXPECTS(grid_.contains(id));
  if (apply_fail(derived().cell_mut(id))) {
    if (metrics_) metrics_->add_failure();
    note_liveness(id, false);
  }
  derived().note_control_mutation(id);
}

template <class Engine>
void ShardedEngine<Engine>::recover(CellId id) {
  CF_EXPECTS(grid_.contains(id));
  if (!apply_recover(derived().cell_mut(id), id == config_.target)) return;
  if (metrics_) metrics_->add_recovery();
  note_liveness(id, true);
  derived().note_control_mutation(id);
}

template <class Engine>
EntityId ShardedEngine<Engine>::seed_entity(CellId id, Vec2 center) {
  CF_EXPECTS(grid_.contains(id));
  // cell() reads without materializing storage, so a rejected placement
  // changes nothing.
  const CellState& c = derived().cell(id);
  CF_EXPECTS_MSG(injection_is_safe(id, center, c.members, c.token,
                                   config_.params),
                 "seed_entity: placement violates the gap requirement or "
                 "Invariant-1 bounds");
  return seed_entity_unchecked(id, center);
}

template <class Engine>
EntityId ShardedEngine<Engine>::seed_entity_unchecked(CellId id,
                                                      Vec2 center) {
  CF_EXPECTS(grid_.contains(id));
  const EntityId eid{next_entity_id_++};
  derived().cell_mut(id).members.push_back(Entity{eid, center});
  derived().refresh_gates(id);
  return eid;
}

template <class Engine>
void ShardedEngine<Engine>::corrupt_control_state(CellId id, Dist dist,
                                                  OptCellId next,
                                                  OptCellId token,
                                                  OptCellId signal) {
  CF_EXPECTS(grid_.contains(id));
  CellState& c = derived().cell_mut(id);
  c.dist = dist;
  c.next = next;
  c.token = token;
  c.signal = signal;
  derived().note_control_mutation(id);
}

template <class Engine>
const RoundEvents& ShardedEngine<Engine>::update() {
  Engine& e = derived();
  events_.clear();
  events_.round = round_;
  timer_.begin(round_);

  // The round pools unless the kAuto cutover pins it inline or the
  // domain yields a single shard; an inline round is the same plan run
  // on this thread with used == 1. Signal shards only on a pool and
  // only for a concurrent-safe choose policy; otherwise it is one
  // row-major sweep in the Route merge stage, so a stateful policy's
  // stream observes the dense serial call sequence (§6 pillar 4).
  const std::size_t domain = e.begin_round();
  const RoundEngine engine = choose_round_engine(
      pool_.get(), parallel_.cutover, round_, sched_stats_, domain,
      domain * Engine::kDomainCells);
  const std::size_t used = engine.shards;
  const bool signal_sharded =
      engine.pool != nullptr && choose_->concurrent_safe();
  for (std::size_t s = 0; s < used; ++s) shards_[s].begin_round();

  const auto hook = [&](UpdatePhase phase) {
    if (!phase_hook_) return;
    phase_hook_(e, phase);
    timer_.skip();
  };
  const auto shard = [&](std::size_t p, std::size_t t) {
    const auto t0 = timer_.shard_start();
    if (p == 0)
      e.route_shard(t, used);
    else if (p == 1)
      e.signal_shard(t, used);
    else
      e.move_shard(t, used);
    timer_.shard_end(p, t, t0);
  };
  const auto route = [&](std::size_t t) { shard(0, t); };
  const auto signal = [&](std::size_t t) { shard(1, t); };
  const auto move = [&](std::size_t t) { shard(2, t); };
  const auto after_route = [&](std::size_t) {
    timer_.parallel_done(0);
    merge_route(used);
    timer_.merge();
    hook(UpdatePhase::kAfterRoute);
    if (!signal_sharded) {
      e.signal_sweep();
      timer_.work("signal");
    }
    e.after_serial_stage();
  };
  const auto after_signal = [&](std::size_t) {
    if (signal_sharded) timer_.parallel_done(1);
    merge_signal(used);
    timer_.merge();
    hook(UpdatePhase::kAfterSignal);
    e.after_serial_stage();
  };
  const auto after_move = [&](std::size_t) {
    timer_.parallel_done(2);
    merge_move(used);
    timer_.merge();
    hook(UpdatePhase::kAfterMove);
    inject_phase();
    timer_.work("inject");
    hook(UpdatePhase::kAfterInject);
  };
  const ThreadPool::PlanStage stages[] = {
      {/*parallel=*/true, used, route},
      {/*parallel=*/false, 1, after_route},
      {/*parallel=*/true, signal_sharded ? used : 0, signal},
      {/*parallel=*/false, 1, after_signal},
      {/*parallel=*/true, used, move},
      {/*parallel=*/false, 1, after_move},
  };
  timer_.open_plan(engine.pool != nullptr, used);
  run_plan(engine.pool, stages, std::size(stages));
  timer_.end(engine, pool_.get());

  // Metrics flush once per round, after the plan — see set_metrics().
  if (metrics_) {
    metrics_->add(round_counts_);
    metrics_->add_round();
    round_counts_.reset();
  }
  ++round_;
  e.end_round();
  return events_;
}

template <class Engine>
std::uint64_t ShardedEngine<Engine>::collect_shards(std::size_t used) {
  // Counter determinism: shard tallies merge in ascending shard order,
  // the same discipline as the event buffers (merging is additive, so
  // the order is a convention, not a correctness requirement).
  std::uint64_t visited = 0;
  for (std::size_t s = 0; s < used; ++s) {
    ShardScratch& sc = shards_[s];
    if (metrics_) round_counts_.merge(sc.counts);
    sc.counts.reset();
    visited += sc.visited;
    sc.visited = 0;
  }
  return visited;
}

template <class Engine>
void ShardedEngine<Engine>::merge_route(std::size_t used) {
  sched_stats_.route_cells = collect_shards(used);
  if (!active()) return;
  // The skipped cells' tallies: the exhaustive loop relaxes every live
  // non-target cell over each lattice neighbor (and a skipped cell
  // changes nothing — that is what quiescence means).
  if (metrics_) round_counts_.route_relaxations = live_degree_;
  // Shard order: sync the changed cells' snapshots and arm their readers
  // for next round. A cell's own Route output depends only on its
  // neighbors' dists, so its own change does not re-arm itself.
  for (std::size_t s = 0; s < used; ++s)
    for (const CellId id : shards_[s].changed) derived().apply_dist_change(id);
}

template <class Engine>
void ShardedEngine<Engine>::merge_signal(std::size_t used) {
  sched_stats_.signal_cells = collect_shards(used);
  for (std::size_t s = 0; s < used; ++s) {
    const ShardScratch& sc = shards_[s];
    events_.blocked.insert(events_.blocked.end(), sc.blocked.begin(),
                           sc.blocked.end());
  }
  canonical_cell_order(events_.blocked);
  if (!active()) return;
  if (metrics_) {
    // Every live cell tallies one NEPrev size, and a skipped cell's
    // NEPrev is empty: the visited cells' non-empty tallies fix the rest.
    std::uint64_t nonempty = 0;
    for (std::size_t n = 1; n < round_counts_.ne_prev_sizes.size(); ++n)
      nonempty += round_counts_.ne_prev_sizes[n];
    round_counts_.ne_prev_sizes[0] = live_cells_ - nonempty;
  }
  // The chunked store's occupancy flips apply at the barrier, in shard
  // order, so every engine parks and faults in alike (System pushes
  // none).
  for (std::size_t s = 0; s < used; ++s)
    for (const CellId id : shards_[s].flips) derived().apply_flip(id);
}

template <class Engine>
void ShardedEngine<Engine>::merge_move(std::size_t used) {
  sched_stats_.move_cells = collect_shards(used);
  for (std::size_t s = 0; s < used; ++s) {
    const ShardScratch& sc = shards_[s];
    events_.moved.insert(events_.moved.end(), sc.moved.begin(),
                         sc.moved.end());
  }
  canonical_cell_order(events_.moved);

  transfers_.clear();
  for (std::size_t s = 0; s < used; ++s) {
    std::vector<PendingTransfer>& p = shards_[s].pending;
    transfers_.insert(transfers_.end(), std::make_move_iterator(p.begin()),
                      std::make_move_iterator(p.end()));
  }
  canonical_transfer_order(grid_, transfers_);

  for (PendingTransfer& t : transfers_) {
    TransferEvent ev{t.entity.id, t.from, t.to, /*consumed=*/false};
    if (t.to == config_.target) {
      ev.consumed = true;
      ++total_arrivals_;
      ++events_.arrivals;
      if (metrics_) ++round_counts_.consumptions;
      // Figure 6 line 11: the entity is not added to any cell — consumed.
    } else {
      // The destination granted this transfer, so it holds a signal: it
      // is occupied, hence resident on every store.
      derived().cell_mut(t.to).members.push_back(t.entity);
    }
    events_.transfers.push_back(ev);
  }
  if (!active()) return;
  // Membership only changes at cells that applied a movement (shrink)
  // or received a delivery (growth); refresh_gates is idempotent, so
  // overlap (a cell that both moved and received) is harmless.
  for (const CellId id : events_.moved) derived().refresh_gates(id);
  for (const TransferEvent& t : events_.transfers)
    if (!t.consumed) derived().refresh_gates(t.to);
}

template <class Engine>
void ShardedEngine<Engine>::inject_phase() {
  for (const CellId s : config_.sources) {
    const auto id = apply_injection(derived().cell_mut(s), s, *source_, grid_,
                                    config_.params, next_entity_id_,
                                    metrics_ ? &round_counts_ : nullptr);
    if (!id.has_value()) continue;
    derived().refresh_gates(s);
    events_.injected.emplace_back(s, *id);
  }
}

}  // namespace cellflow
