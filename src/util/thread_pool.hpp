// Persistent worker pool and deterministic range sharding for the
// parallel round engine (core/system.hpp's ParallelPolicy).
//
// Determinism contract: parallelism here is *structural only*. Work is
// split into contiguous shards whose boundaries depend solely on
// (range size, shard count) — never on scheduling — so a caller that
// keeps one output buffer per shard and concatenates them in shard
// order obtains a result that is bit-identical across runs and across
// thread counts (shard s always covers the same indices). Which worker
// executes which shard, and when, is deliberately unspecified.
//
// Orchestration model (DESIGN.md §6): ThreadPool(threads) spawns
// threads - 1 OS workers and enlists the *calling* thread as executor 0,
// so a pool of width 1 runs everything inline with zero synchronization.
// Workers are persistent: between plans they spin briefly on an atomic
// epoch counter and then park on a condition variable, so dispatching a
// plan is one atomic increment plus (only when someone actually parked)
// a wakeup — not a mutex/condvar round-trip per phase. run_plan() is the
// pool's only entry point: it publishes a whole round's stage sequence
// up front, so one dispatch covers every phase, the caller opens stages
// with a single atomic store each, and workers ride from stage to stage
// without re-parking when the stages are close together.
//
// Stage tasks are passed as FunctionRef (util/function_ref.hpp) so
// dispatching performs no heap allocation regardless of how much the
// phase lambda captures — part of the zero-allocation round contract
// (DESIGN.md §10).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "util/function_ref.hpp"

namespace cellflow {

/// Half-open index range [begin, end) assigned to one shard.
struct ShardRange {
  std::size_t begin = 0;
  std::size_t end = 0;

  friend constexpr bool operator==(const ShardRange&,
                                   const ShardRange&) = default;
};

/// Number of shards the deterministic partition of [0, size) into at
/// most `shards` ranges has: at most `shards`, never more than `size`
/// (size == 0 yields none). Precondition: shards >= 1.
[[nodiscard]] std::size_t shard_count(std::size_t size, int shards);

/// Shard `s` of the deterministic partition of [0, size) into `count`
/// contiguous, ascending, non-empty ranges. The first size % count
/// shards are one element longer, so boundaries are a pure function of
/// (size, count): the same pair always yields the same partition, on any
/// machine. Pure arithmetic — no allocation — so phase loops compute
/// their shard on the fly. Precondition: 1 <= count <= size and
/// s < count (i.e. count came from shard_count on the same size).
[[nodiscard]] ShardRange shard_range_at(std::size_t size, std::size_t count,
                                        std::size_t s);

/// How often the pool woke workers, and how: a spin wake observed the
/// new epoch while still spinning (cheap), a park wake needed the
/// condvar (a futex round-trip). Observational, cumulative, monotone.
struct DispatchStats {
  std::uint64_t dispatches = 0;  ///< run_plan() batches published
  std::uint64_t spin_wakes = 0;  ///< executor waits resolved while spinning
  std::uint64_t park_wakes = 0;  ///< executor waits that parked on the cv
};

/// A fixed set of persistent executors running one multi-stage plan at a
/// time. run_plan() blocks the caller — which doubles as executor 0 —
/// until everything finished; the pool is idle between calls. Not
/// reentrant: run_plan() must not be called concurrently or from inside a
/// task (the latter would deadlock).
class ThreadPool {
 public:
  using Clock = std::chrono::steady_clock;

  /// One stage of a run_plan() batch. Parallel stages execute
  /// task(k) for k in [0, count) across all executors; serial stages
  /// execute task(0) on the caller while the workers hold at the stage
  /// boundary (so a serial stage may safely touch any state the
  /// preceding parallel stages wrote). Stages are strictly barriered:
  /// stage s+1 never starts before every task of stage s completed.
  struct PlanStage {
    bool parallel = true;
    std::size_t count = 0;  ///< tasks for a parallel stage; ignored serial
    FunctionRef<void(std::size_t)> task;
  };

  /// One executor's share of one stage of the most recent plan; valid
  /// between run_plan() calls, only for executors that ran >= 1 task of
  /// that stage.
  struct StageSample {
    int worker = -1;
    Clock::time_point first_task_start;
    Clock::time_point last_task_end;
    std::uint64_t work_ns = 0;  ///< summed task bodies
  };

  /// Makes a pool of `threads` executors: threads - 1 spawned workers
  /// plus the calling thread of each run_plan(). threads == 1 spawns
  /// nothing and runs plans inline. Precondition: threads >= 1.
  explicit ThreadPool(int threads);

  /// Joins all workers (any in-flight run_plan() must have returned).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int thread_count() const noexcept { return threads_; }

  /// Executes a stage sequence under a single dispatch: workers wake
  /// once, then ride the plan's stage barriers (opened by the caller
  /// with one atomic store each) instead of being re-dispatched per
  /// phase. Each parallel stage's tasks are distributed over the
  /// executors. If any task threw, stages after the faulting one are not
  /// started (the faulting stage still runs to completion) and the
  /// exception of the lowest (stage, task) pair is rethrown — a
  /// deterministic choice, independent of scheduling. The stage array
  /// and every referenced callable must outlive the call.
  void run_plan(const PlanStage* stages, std::size_t count);

  /// Enables/disables the per-stage executor samples. Off by default:
  /// when off, plan execution performs zero clock reads. Samples are
  /// observational only — outside the determinism contract (DESIGN.md
  /// §6/§7), they never influence which task runs where. Takes effect at
  /// the next plan; must not be called concurrently with run_plan().
  void set_timing(bool enabled);
  [[nodiscard]] bool timing_enabled() const noexcept {
    return timing_.load(std::memory_order_relaxed);
  }

  /// Per-executor samples of stage `stage` of the most recent plan (only
  /// executors that ran >= 1 of its tasks appear, in executor order).
  /// Empty when timing is off, no plan has run, or the stage ran no
  /// tasks. The stage's open and done instants are the caller's to stamp
  /// (it opens every stage); with them, each participant's
  /// open -> first task -> last task -> done chain partitions the stage
  /// wall. out is cleared and refilled.
  void last_plan_stage_samples(std::size_t stage,
                               std::vector<StageSample>& out) const;

  /// Cumulative dispatch/wake counters (never reset; reads are cheap).
  [[nodiscard]] DispatchStats dispatch_stats() const;

 private:
  // Per-parallel-stage claim state. next hands out task indices via
  // fetch_add; completed counts finished bodies. Re-zeroed by the
  // caller before each plan is published (workers are quiescent then).
  struct StageCtl {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> completed{0};
  };

  // Per-executor timing slots for the current epoch: the epoch each
  // executor last timed plus one StageSlot per (stage, executor).
  // Written only by the owning executor while the epoch runs; the caller
  // reads them after the owner retired (release/acquire via retired_),
  // so no locks needed.
  struct StageSlot {
    Clock::time_point first_task;
    Clock::time_point last_task;
    std::uint64_t work_ns = 0;
    std::uint64_t tasks = 0;
  };

  void worker_loop(std::size_t self);
  // Spin-then-park until v != old (returns true) or stopping_ (false).
  bool wait_change(const std::atomic<std::uint64_t>& v, std::uint64_t old);
  void wake_parked();
  // Stamps executor `self`'s epoch and clears its stage slots.
  void begin_epoch_timing(std::size_t self, std::uint64_t epoch);
  // Executes every claimable task of the published plan until the plan
  // is fully claimed (or aborted); used by workers for the whole epoch.
  void drain_plan(std::size_t self, bool timed);
  void run_one(std::size_t stage, std::size_t k, std::size_t self,
               bool timed);
  void caller_finish_stage(std::size_t stage, bool timed);
  [[nodiscard]] StageSlot& stage_slot(std::size_t stage,
                                      std::size_t executor) const {
    return stage_slots_[stage * static_cast<std::size_t>(threads_) +
                        executor];
  }
  // Waits for every worker to retire the last epoch. Idempotent per
  // epoch; called before reusing plan storage and by the observational
  // accessors.
  void quiesce() const;

  int threads_ = 1;
  std::vector<std::thread> workers_;

  // Plan published before each seq_ bump. Stage descriptors are copied
  // into pool-owned storage because stragglers may still *scan* them
  // (never invoke — every task is claimed before run_plan returns)
  // after the caller's frame is gone; stable until the next quiesce()
  // proves all workers retired.
  std::vector<PlanStage> plan_stages_;
  const PlanStage* plan_ = nullptr;
  std::size_t plan_size_ = 0;
  std::unique_ptr<StageCtl[]> stage_ctl_;
  std::size_t stage_cap_ = 0;
  std::atomic<std::size_t> stage_limit_{0};  ///< stages open to workers
  std::atomic<bool> abort_{false};

  std::atomic<std::uint64_t> seq_{0};      ///< epoch: bumps per dispatch
  std::atomic<std::uint64_t> advance_{0};  ///< bumps per stage open/abort
  std::atomic<bool> stopping_{false};
  std::atomic<int> parked_{0};
  std::mutex park_mu_;
  std::condition_variable park_cv_;

  std::atomic<int> retired_{0};  ///< workers done with the current epoch
  std::atomic<bool> caller_waiting_{false};
  std::mutex done_mu_;
  std::condition_variable done_cv_;

  std::mutex err_mu_;
  std::atomic<int> err_count_{0};
  std::vector<std::tuple<std::size_t, std::size_t, std::exception_ptr>>
      errors_;

  std::atomic<std::uint64_t> dispatches_{0};
  std::atomic<std::uint64_t> spin_wakes_{0};
  std::atomic<std::uint64_t> park_wakes_{0};

  std::atomic<bool> timing_{false};
  bool epoch_timed_ = false;
  bool in_run_ = false;
  std::uint64_t epoch_ = 0;  ///< seq_ value of the current/last plan
  mutable std::uint64_t quiesced_epoch_ = 0;
  std::vector<std::uint64_t> timed_epoch_;      ///< per executor
  mutable std::vector<StageSlot> stage_slots_;  ///< stage_cap_ × threads_
};

/// Runs a plan on `pool` when one is given, else inline on the calling
/// thread: stages in order, each parallel stage's tasks in ascending
/// index order, the first exception propagating at once. Both forms run
/// the same task bodies in the same barriered stage sequence, so a
/// caller keeps one stage list for its pooled and unpooled engines.
void run_plan(ThreadPool* pool, const ThreadPool::PlanStage* stages,
              std::size_t count);

}  // namespace cellflow
