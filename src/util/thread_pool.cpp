#include "util/thread_pool.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace cellflow {

std::size_t shard_count(std::size_t size, int shards) {
  CF_EXPECTS(shards >= 1);
  return std::min(static_cast<std::size_t>(shards), size);
}

ShardRange shard_range_at(std::size_t size, std::size_t count,
                          std::size_t s) {
  CF_EXPECTS(count >= 1 && count <= size && s < count);
  const std::size_t base = size / count;
  const std::size_t extra = size % count;
  const std::size_t begin = s * base + std::min(s, extra);
  const std::size_t len = base + (s < extra ? 1 : 0);
  return ShardRange{begin, begin + len};
}

namespace {

// steady_clock difference in whole nanoseconds, clamped at zero.
std::uint64_t ns_between(ThreadPool::Clock::time_point a,
                         ThreadPool::Clock::time_point b) {
  const auto d =
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
  return d > 0 ? static_cast<std::uint64_t>(d) : 0;
}

// Bounded spin before parking. Short enough that an oversubscribed box
// (fewer cores than executors) falls through to the condvar quickly —
// the periodic yield hands the CPU to whoever holds the work.
constexpr int kSpinIters = 2048;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

}  // namespace

ThreadPool::ThreadPool(int threads) {
  CF_EXPECTS(threads >= 1);
  threads_ = threads;
  const auto n = static_cast<std::size_t>(threads);
  timed_epoch_.resize(n);
  workers_.reserve(n - 1);
  for (std::size_t t = 1; t < n; ++t)
    workers_.emplace_back([this, t] { worker_loop(t); });
}

ThreadPool::~ThreadPool() {
  quiesce();
  stopping_.store(true);
  wake_parked();
  for (std::thread& w : workers_) w.join();
}

// The park handshake is a Dekker pair: a waiter publishes parked_ and
// re-reads the watched counter (both seq_cst) before sleeping; a waker
// bumps the counter and then reads parked_ (both seq_cst). At least one
// side therefore observes the other — either the waiter sees the new
// value and never sleeps, or the waker sees parked_ > 0 and notifies.
// The empty lock_guard in wake_parked() orders the notify after any
// in-progress wait() entry on the same mutex, closing the check-to-sleep
// window.
bool ThreadPool::wait_change(const std::atomic<std::uint64_t>& v,
                             std::uint64_t old) {
  for (int i = 0; i < kSpinIters; ++i) {
    if (stopping_.load(std::memory_order_relaxed)) return false;
    if (v.load() != old) {
      spin_wakes_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    cpu_relax();
    if ((i & 63) == 63) std::this_thread::yield();
  }
  parked_.fetch_add(1);
  bool stopped = false;
  {
    std::unique_lock<std::mutex> lk(park_mu_);
    park_cv_.wait(lk, [&] {
      return stopping_.load(std::memory_order_relaxed) || v.load() != old;
    });
    stopped = stopping_.load(std::memory_order_relaxed);
  }
  parked_.fetch_sub(1, std::memory_order_relaxed);
  park_wakes_.fetch_add(1, std::memory_order_relaxed);
  return !stopped;
}

void ThreadPool::wake_parked() {
  if (parked_.load() > 0) {
    { const std::lock_guard<std::mutex> lk(park_mu_); }
    park_cv_.notify_all();
  }
}

void ThreadPool::begin_epoch_timing(std::size_t self, std::uint64_t epoch) {
  timed_epoch_[self] = epoch;
  for (std::size_t s = 0; s < plan_size_; ++s) stage_slot(s, self) = {};
}

void ThreadPool::run_one(std::size_t stage, std::size_t k, std::size_t self,
                         bool timed) {
  const PlanStage& st = plan_[stage];
  Clock::time_point t0{};
  if (timed) t0 = Clock::now();
  std::exception_ptr err;
  try {
    st.task(k);
  } catch (...) {
    err = std::current_exception();
  }
  if (timed) {
    const Clock::time_point t1 = Clock::now();
    StageSlot& slot = stage_slot(stage, self);
    if (slot.tasks == 0) slot.first_task = t0;
    slot.last_task = t1;
    slot.work_ns += ns_between(t0, t1);
    ++slot.tasks;
  }
  if (err) {
    const std::lock_guard<std::mutex> lk(err_mu_);
    errors_.emplace_back(stage, k, err);
    err_count_.fetch_add(1, std::memory_order_relaxed);
  }
  StageCtl& ctl = stage_ctl_[stage];
  const std::size_t done = ctl.completed.fetch_add(1) + 1;
  if (done == st.count && caller_waiting_.load()) {
    { const std::lock_guard<std::mutex> lk(done_mu_); }
    done_cv_.notify_all();
  }
}

void ThreadPool::drain_plan(std::size_t self, bool timed) {
  for (;;) {
    const std::uint64_t adv = advance_.load();
    if (abort_.load()) return;
    const std::size_t limit = std::min(stage_limit_.load(), plan_size_);
    bool claimed = false;
    for (std::size_t s = 0; s < limit; ++s) {
      const PlanStage& st = plan_[s];
      if (!st.parallel) continue;
      StageCtl& ctl = stage_ctl_[s];
      while (ctl.next.load(std::memory_order_relaxed) < st.count) {
        const std::size_t k = ctl.next.fetch_add(1,
                                                 std::memory_order_relaxed);
        if (k >= st.count) break;
        run_one(s, k, self, timed);
        claimed = true;
      }
    }
    if (claimed) continue;
    // Nothing claimable. Once every stage is open the claim counters
    // can only stay exhausted, so the epoch is over for this executor.
    if (limit >= plan_size_) return;
    if (!wait_change(advance_, adv)) return;
  }
}

void ThreadPool::worker_loop(std::size_t self) {
  std::uint64_t seen = 0;
  for (;;) {
    if (!wait_change(seq_, seen)) return;
    seen = seq_.load();
    const bool timed = timing_.load(std::memory_order_relaxed);
    if (timed) begin_epoch_timing(self, seen);
    drain_plan(self, timed);
    // Publishes every plain write above (timing slot, error list) to
    // the caller, whose quiesce() acquires retired_.
    retired_.fetch_add(1, std::memory_order_release);
  }
}

void ThreadPool::caller_finish_stage(std::size_t stage, bool timed) {
  const PlanStage& st = plan_[stage];
  StageCtl& ctl = stage_ctl_[stage];
  while (ctl.next.load(std::memory_order_relaxed) < st.count) {
    const std::size_t k = ctl.next.fetch_add(1, std::memory_order_relaxed);
    if (k >= st.count) break;
    run_one(stage, k, 0, timed);
  }
  int spins = 0;
  while (ctl.completed.load() < st.count) {
    if (++spins <= kSpinIters) {
      cpu_relax();
      if ((spins & 63) == 0) std::this_thread::yield();
      continue;
    }
    caller_waiting_.store(true);
    {
      std::unique_lock<std::mutex> lk(done_mu_);
      done_cv_.wait(lk, [&] { return ctl.completed.load() >= st.count; });
    }
    caller_waiting_.store(false, std::memory_order_relaxed);
  }
}

void ThreadPool::run_plan(const PlanStage* stages, std::size_t count) {
  CF_EXPECTS_MSG(!in_run_, "ThreadPool::run_plan is not reentrant");
  if (count == 0) return;
  quiesce();  // prior epoch retired: plan/slot storage is ours again
  in_run_ = true;
  plan_stages_.assign(stages, stages + count);
  plan_ = plan_stages_.data();
  plan_size_ = count;
  if (stage_cap_ < count) {
    stage_ctl_ = std::make_unique<StageCtl[]>(count);
    stage_cap_ = count;
    stage_slots_.resize(count * static_cast<std::size_t>(threads_));
  }
  for (std::size_t s = 0; s < count; ++s) {
    stage_ctl_[s].next.store(0, std::memory_order_relaxed);
    stage_ctl_[s].completed.store(0, std::memory_order_relaxed);
  }
  abort_.store(false, std::memory_order_relaxed);
  stage_limit_.store(0, std::memory_order_relaxed);
  retired_.store(0, std::memory_order_relaxed);
  errors_.clear();
  err_count_.store(0, std::memory_order_relaxed);
  epoch_timed_ = timing_.load(std::memory_order_relaxed);
  if (epoch_timed_) begin_epoch_timing(0, epoch_ + 1);
  ++epoch_;
  dispatches_.fetch_add(1, std::memory_order_relaxed);
  seq_.fetch_add(1);  // publish: everything above happens-before this
  wake_parked();

  bool aborted = false;
  for (std::size_t s = 0; s < count; ++s) {
    stage_limit_.store(s + 1);
    advance_.fetch_add(1);
    wake_parked();
    const PlanStage& st = stages[s];
    if (st.parallel) {
      caller_finish_stage(s, epoch_timed_);
    } else {
      std::exception_ptr err;
      try {
        st.task(0);
      } catch (...) {
        err = std::current_exception();
      }
      if (err) {
        const std::lock_guard<std::mutex> lk(err_mu_);
        errors_.emplace_back(s, std::size_t{0}, err);
        err_count_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (err_count_.load(std::memory_order_relaxed) > 0 && s + 1 < count) {
      // Later stages must not start; workers waiting for them to open
      // are released by the abort flag instead.
      aborted = true;
      abort_.store(true);
      advance_.fetch_add(1);
      wake_parked();
      break;
    }
  }
  in_run_ = false;
  if (aborted || err_count_.load(std::memory_order_relaxed) > 0) {
    quiesce();  // workers retired: errors_ is stable to read
    const auto lowest = std::min_element(
        errors_.begin(), errors_.end(), [](const auto& a, const auto& b) {
          return std::make_pair(std::get<0>(a), std::get<1>(a)) <
                 std::make_pair(std::get<0>(b), std::get<1>(b));
        });
    const std::exception_ptr err = std::get<2>(*lowest);
    errors_.clear();
    err_count_.store(0, std::memory_order_relaxed);
    std::rethrow_exception(err);
  }
}

void ThreadPool::quiesce() const {
  if (epoch_ == quiesced_epoch_) return;
  const int target = static_cast<int>(workers_.size());
  int spins = 0;
  while (retired_.load(std::memory_order_acquire) < target) {
    cpu_relax();
    if ((++spins & 63) == 0) std::this_thread::yield();
  }
  quiesced_epoch_ = epoch_;
}

void ThreadPool::set_timing(bool enabled) {
  quiesce();
  timing_.store(enabled, std::memory_order_relaxed);
}

void ThreadPool::last_plan_stage_samples(std::size_t stage,
                                         std::vector<StageSample>& out) const {
  out.clear();
  quiesce();
  if (epoch_ == 0 || !epoch_timed_ || stage >= plan_size_) return;
  for (std::size_t e = 0; e < timed_epoch_.size(); ++e) {
    if (timed_epoch_[e] != epoch_) continue;
    const StageSlot& s = stage_slot(stage, e);
    if (s.tasks == 0) continue;
    out.push_back(
        StageSample{static_cast<int>(e), s.first_task, s.last_task, s.work_ns});
  }
}

DispatchStats ThreadPool::dispatch_stats() const {
  DispatchStats s;
  s.dispatches = dispatches_.load(std::memory_order_relaxed);
  s.spin_wakes = spin_wakes_.load(std::memory_order_relaxed);
  s.park_wakes = park_wakes_.load(std::memory_order_relaxed);
  return s;
}

void run_plan(ThreadPool* pool, const ThreadPool::PlanStage* stages,
              std::size_t count) {
  if (pool != nullptr) {
    pool->run_plan(stages, count);
    return;
  }
  for (std::size_t s = 0; s < count; ++s) {
    const ThreadPool::PlanStage& st = stages[s];
    if (!st.parallel) {
      st.task(0);
      continue;
    }
    for (std::size_t k = 0; k < st.count; ++k) st.task(k);
  }
}

}  // namespace cellflow
