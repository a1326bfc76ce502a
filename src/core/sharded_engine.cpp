#include "core/sharded_engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "obs/engine_telemetry.hpp"
#include "obs/profiler.hpp"

namespace cellflow {

namespace {

// Profiler span names of the three sharded phases, by phase index.
constexpr std::array<const char*, 3> kPhaseNames{"route", "signal", "move"};

// Reporting-only clock difference in whole ns, clamped at zero.
std::uint64_t span_ns(RoundTimer::Clock::time_point a,
                      RoundTimer::Clock::time_point b) {
  const auto d =
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
  return d > 0 ? static_cast<std::uint64_t>(d) : 0;
}

}  // namespace

ParallelPolicy parallel_policy_from_env() {
  const char* raw = std::getenv("CELLFLOW_THREADS");
  if (raw == nullptr || *raw == '\0') return ParallelPolicy::serial();
  char* end = nullptr;
  const long n = std::strtol(raw, &end, 10);
  if (end == raw || *end != '\0' || n < 0 || n > 1024)
    throw std::runtime_error(
        std::string("CELLFLOW_THREADS: expected an integer in [0, 1024], "
                    "got '") +
        raw + "'");
  // The ambient knob asks for throughput, so it gets the kAuto serial
  // cutover; callers that need the engine pinned (differential suites)
  // use set_parallel_policy explicitly.
  return n == 0 ? ParallelPolicy::serial()
                : ParallelPolicy::parallel_auto(static_cast<int>(n));
}

void canonical_transfer_order(const Grid& grid,
                              std::vector<PendingTransfer>& transfers) {
  const auto by_origin = [&grid](const PendingTransfer& a,
                                 const PendingTransfer& b) {
    return grid.index_of(a.from) < grid.index_of(b.from);
  };
  // The dense engine produces this order by construction (ascending
  // shards, in-order within each), so the common case is a linear
  // verification pass; a stable sort of an already-sorted sequence is the
  // identity, so skipping it cannot change the result — it only skips the
  // sort's temporary-buffer allocation on the hot path.
  if (std::is_sorted(transfers.begin(), transfers.end(), by_origin)) return;
  std::stable_sort(transfers.begin(), transfers.end(), by_origin);
}

void canonical_cell_order(std::vector<CellId>& cells) {
  // Dense index order is j major, i minor; CellId's own operator< is
  // i-major, so it must not be used here. A cell appears at most once per
  // event list, so the order is total and an unstable sort suffices.
  const auto dense_less = [](CellId a, CellId b) {
    return a.j != b.j ? a.j < b.j : a.i < b.i;
  };
  if (std::is_sorted(cells.begin(), cells.end(), dense_less)) return;
  std::sort(cells.begin(), cells.end(), dense_less);
}

RoundEngine choose_round_engine(ThreadPool* pool,
                                ParallelPolicy::Cutover cutover,
                                std::uint64_t round,
                                const SchedulerStats& last,
                                std::size_t domain, std::uint64_t cells) {
  RoundEngine e;
  if (pool == nullptr) return e;
  const std::size_t used = shard_count(domain, pool->thread_count());
  if (used <= 1) return e;
  if (cutover == ParallelPolicy::Cutover::kAuto && round > 0) {
    const std::uint64_t visits =
        last.route_cells + last.signal_cells + last.move_cells;
    const std::uint64_t work = cells + ParallelPolicy::kVisitWeight * visits;
    e.cutover = work < ParallelPolicy::kCutoverGrain * used;
    if (e.cutover) return e;
  }
  e.pool = pool;
  e.shards = used;
  return e;
}

// --- RoundTimer ---------------------------------------------------------

void RoundTimer::sync(ThreadPool* pool) {
  if (pool == nullptr) return;
  const bool want = profiler != nullptr || telemetry != nullptr;
  if (want == pool->timing_enabled()) return;
  pool->set_timing(want);
  if (want) samples_.reserve(static_cast<std::size_t>(pool->thread_count()));
}

void RoundTimer::begin(std::uint64_t round) {
  track_ = profiler != nullptr || telemetry != nullptr;
  shard_timing_ = false;
  if (!track_) return;
  round_ = round;
  t_ = RoundTiming{};
  start_ = Clock::now();
  at_ = start_;
}

void RoundTimer::open_plan(bool pooled, std::size_t used) {
  if (!track_) return;
  pooled_ = pooled;
  used_ = used;
  shard_timing_ = profiler != nullptr || (telemetry != nullptr && pooled);
  if (shard_ns_.size() < used) shard_ns_.resize(used);
  work(nullptr);  // the pre-plan snapshot recopy and scratch clears
}

void RoundTimer::bill(std::uint64_t* into, const char* span) {
  if (!track_) return;
  const auto now = Clock::now();
  if (into != nullptr) *into += span_ns(at_, now);
  if (span != nullptr && profiler != nullptr)
    profiler->record(span, round_, -1, at_, now);
  at_ = now;
}

void RoundTimer::shard_end(std::size_t phase, std::size_t shard,
                           Clock::time_point t0) {
  if (!shard_timing_) return;
  const auto t1 = Clock::now();
  shard_ns_[shard] = span_ns(t0, t1);
  if (profiler != nullptr)
    profiler->record(kPhaseNames[phase], round_, static_cast<int>(shard), t0,
                     t1);
}

void RoundTimer::parallel_done(std::size_t phase) {
  if (!track_) return;
  t_.open[phase] = at_;
  bill(pooled_ ? nullptr : &t_.serial_work_ns, kPhaseNames[phase]);
  t_.done[phase] = at_;
  if (telemetry == nullptr || !pooled_) return;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  for (std::size_t s = 0; s < used_; ++s) {
    sum += shard_ns_[s];
    max = std::max(max, shard_ns_[s]);
  }
  t_.imbalance[phase] = sum > 0 ? static_cast<double>(max) *
                                      static_cast<double>(used_) /
                                      static_cast<double>(sum)
                                : 1.0;
}

void RoundTimer::note_pooled_stages(const ThreadPool& pool) {
  // Plan layout (ShardedEngine::update): parallel stage p of the round is
  // plan stage 2p. Each participating executor's open -> first task
  // (dispatch: wake-up and claim latency), first -> last task (busy: task
  // bodies plus the claim and preemption gaps between them), last task ->
  // done (barrier) chain spans the caller's open/done stamps exactly, so
  // the participant-normalized sums partition the stage wall (see
  // RoundTiming). busy rather than task time, so preemption gaps inside
  // the stage stay accounted; utilization uses task time instead.
  for (std::size_t p = 0; p < 3; ++p) {
    pool.last_plan_stage_samples(2 * p, samples_);
    if (samples_.empty()) continue;  // a stage with no tasks
    const auto open = t_.open[p];
    const auto done = t_.done[p];
    if (telemetry != nullptr) {
      std::uint64_t disp = 0;
      std::uint64_t busy = 0;
      std::uint64_t barrier = 0;
      for (const ThreadPool::StageSample& w : samples_) {
        disp += span_ns(open, w.first_task_start);
        busy += span_ns(w.first_task_start, w.last_task_end);
        barrier += span_ns(w.last_task_end, done);
        t_.pool_task_ns += w.work_ns;
      }
      const auto n = static_cast<std::uint64_t>(samples_.size());
      t_.pool_dispatch_ns += disp / n;
      t_.pool_busy_ns += busy / n;
      t_.pool_barrier_ns += barrier / n;
    }
    if (profiler != nullptr) {
      // Per-worker spans of the stage: dispatch latency, the
      // task-executing envelope, and the barrier stall — these render
      // as per-worker tracks in the Chrome-trace export, so Perfetto
      // shows exactly which worker idled at which barrier.
      for (const ThreadPool::StageSample& w : samples_) {
        profiler->record_worker("dispatch", round_, w.worker, open,
                                w.first_task_start);
        profiler->record_worker("work", round_, w.worker, w.first_task_start,
                                w.last_task_end);
        profiler->record_worker("barrier_wait", round_, w.worker,
                                w.last_task_end, done);
      }
    }
  }
}

void RoundTimer::end(const RoundEngine& engine, const ThreadPool* owned) {
  if (!track_) return;
  const auto t_end = Clock::now();
  if (engine.pool != nullptr) note_pooled_stages(*engine.pool);
  if (profiler != nullptr) profiler->record("round", round_, -1, start_, t_end);
  if (telemetry == nullptr) return;
  obs::RoundBreakdown b;
  b.round_ns = span_ns(start_, t_end);
  b.workers = engine.pool != nullptr ? engine.pool->thread_count() : 1;
  b.cutover = engine.cutover;
  if (owned != nullptr) {
    const DispatchStats ds = owned->dispatch_stats();
    b.pool_dispatches = ds.dispatches - last_dispatch_.dispatches;
    b.pool_spin_wakes = ds.spin_wakes - last_dispatch_.spin_wakes;
    b.pool_park_wakes = ds.park_wakes - last_dispatch_.park_wakes;
    last_dispatch_ = ds;
  }
  b.work_ns = t_.serial_work_ns + t_.pool_busy_ns;
  b.barrier_wait_ns = t_.pool_barrier_ns;
  b.dispatch_ns = t_.pool_dispatch_ns;
  b.merge_ns = t_.merge_ns;
  b.imbalance_route = t_.imbalance[0];
  b.imbalance_signal = t_.imbalance[1];
  b.imbalance_move = t_.imbalance[2];
  if (owned != nullptr && b.round_ns > 0) {
    // Utilization: summed task-body time over the theoretical
    // width × wall budget (busy would overstate it on a preempted
    // machine — preemption gaps are not useful parallelism).
    b.parallel_work_fraction =
        static_cast<double>(t_.pool_task_ns) /
        (static_cast<double>(owned->thread_count()) *
         static_cast<double>(b.round_ns));
  }
  telemetry->record_round(b);
  if (profiler != nullptr) {
    profiler->record_counter("imbalance_route", t_end, b.imbalance_route);
    profiler->record_counter("imbalance_signal", t_end, b.imbalance_signal);
    profiler->record_counter("imbalance_move", t_end, b.imbalance_move);
    profiler->record_counter("parallel_work_fraction", t_end,
                             b.parallel_work_fraction);
  }
}

}  // namespace cellflow
