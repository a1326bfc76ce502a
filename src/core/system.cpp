#include "core/system.hpp"

#include <algorithm>
#include <cstdlib>
#include <span>
#include <stdexcept>
#include <string>

#include "core/route.hpp"
#include "obs/engine_telemetry.hpp"
#include "obs/profiler.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace cellflow {

namespace {

// Profiler span names of the three sharded phases, by phase index.
constexpr std::array<const char*, 3> kPhaseNames{"route", "signal", "move"};

// Reporting-only clock difference in whole ns, clamped at zero.
std::uint64_t span_ns(obs::PhaseProfiler::Clock::time_point a,
                      obs::PhaseProfiler::Clock::time_point b) {
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
  // The engines produce this order by construction (ascending shards,
  // in-order within each), so the common case is a linear verification
  // pass; a stable sort of an already-sorted sequence is the identity,
  // so skipping it cannot change the result — it only skips the sort's
  // temporary-buffer allocation on the hot path.
  if (std::is_sorted(transfers.begin(), transfers.end(), by_origin)) return;
  std::stable_sort(transfers.begin(), transfers.end(), by_origin);
}

System::System(SystemConfig config, std::unique_ptr<ChoosePolicy> choose,
               std::unique_ptr<SourcePolicy> source)
    : config_(std::move(config)),
      grid_(config_.side),
      cells_(grid_.cell_count()),
      choose_(choose ? std::move(choose)
                     : std::make_unique<RoundRobinChoose>()),
      source_(source ? std::move(source)
                     : std::make_unique<EntryEdgeSource>()) {
  canonicalize_sources(grid_, config_.target, config_.sources);
  // Initial state (Figure 3): everything ⊥/∞/empty except the target's
  // distance, which anchors the routing computation at 0.
  cells_[grid_.index_of(config_.target)].dist = Dist::zero();
  target_k_ = grid_.index_of(config_.target);
  dist_snapshot_.resize(cells_.size());
  // Flatten the (immutable) grid topology into the dense tables the
  // phase loops index directly — see the member comments in system.hpp.
  nbr_idx_.resize(cells_.size());
  cell_id_.resize(cells_.size());
  for (std::size_t k = 0; k < cells_.size(); ++k) {
    const CellId id = grid_.id_of(k);
    cell_id_[k] = id;
    for (std::size_t d = 0; d < kAllDirections.size(); ++d) {
      const auto nb = grid_.neighbor(id, kAllDirections[d]);
      nbr_idx_[k][d] =
          nb ? static_cast<std::uint32_t>(grid_.index_of(*nb)) : kNoNbr;
    }
  }
  rebuild_active_sets();
  set_parallel_policy(parallel_policy_from_env());
}

void System::set_round_scheduler(RoundScheduler scheduler) {
  if (scheduler_ == scheduler) return;
  scheduler_ = scheduler;
  // Exhaustive rounds maintain none of the scheduler state, so entering
  // kActiveSet must re-derive all of it from the current protocol state.
  if (scheduler_ == RoundScheduler::kActiveSet) rebuild_active_sets();
}

void System::rebuild_active_sets() {
  route_stamp_.assign(cells_.size(), round_);
  occ_b_.assign(cells_.size(), 0);
  occ_refs_.assign(cells_.size(), 0);
  for (std::size_t k = 0; k < cells_.size(); ++k) {
    dist_snapshot_[k] = cells_[k].dist;
    if (occupied(cells_[k])) apply_occupancy_flip(k);
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

void System::refresh_occupancy(std::size_t k) {
  if (occupied(cells_[k]) != (occ_b_[k] != 0)) apply_occupancy_flip(k);
}

void System::note_control_mutation(std::size_t k) {
  // The exhaustive engine re-reads every dist each round and rewrites
  // every cell's control state; an external mutation therefore forces
  // the active scheduler to (a) keep the snapshot invariant, (b) rerun
  // Route over the affected neighborhood next round, and (c) refresh
  // the occupancy of the mutated cell.
  dist_snapshot_[k] = cells_[k].dist;
  arm_route_neighborhood(k, round_);
  refresh_occupancy(k);
}

void System::set_metrics(obs::MetricsRegistry* registry) {
  metrics_ = registry != nullptr
                 ? std::make_unique<obs::ProtocolMetrics>(*registry, "shared")
                 : nullptr;
  round_counts_.reset();
}

void System::set_profiler(obs::PhaseProfiler* profiler) {
  profiler_ = profiler;
  sync_pool_timing();
}

void System::set_telemetry(obs::EngineTelemetry* telemetry) {
  telemetry_ = telemetry;
  sync_pool_timing();
}

void System::sync_pool_timing() {
  if (!pool_) return;
  const bool want = profiler_ != nullptr || telemetry_ != nullptr;
  if (want == pool_->timing_enabled()) return;
  pool_->set_timing(want);
  if (want)
    stage_samples_.reserve(static_cast<std::size_t>(pool_->thread_count()));
}

void System::note_pooled_stages(const ThreadPool& pool) {
  // Plan layout (update()): parallel stage p of the round is plan stage
  // 2p. Each participating executor's open -> first task (dispatch:
  // wake-up and claim latency), first -> last task (busy: task bodies
  // plus the claim and preemption gaps between them), last task -> done
  // (barrier) chain spans the caller's open/done stamps exactly, so the
  // participant-normalized sums partition the stage wall (see
  // RoundTiming). busy rather than task time, so preemption gaps inside
  // the stage stay accounted; utilization uses task time instead.
  for (std::size_t p = 0; p < 3; ++p) {
    pool.last_plan_stage_samples(2 * p, stage_samples_);
    if (stage_samples_.empty()) continue;  // a stage with no tasks
    const auto open = round_timing_.open[p];
    const auto done = round_timing_.done[p];
    if (telemetry_ != nullptr) {
      std::uint64_t disp = 0;
      std::uint64_t busy = 0;
      std::uint64_t barrier = 0;
      for (const ThreadPool::StageSample& w : stage_samples_) {
        disp += span_ns(open, w.first_task_start);
        busy += span_ns(w.first_task_start, w.last_task_end);
        barrier += span_ns(w.last_task_end, done);
        round_timing_.pool_task_ns += w.work_ns;
      }
      const auto n = static_cast<std::uint64_t>(stage_samples_.size());
      round_timing_.pool_dispatch_ns += disp / n;
      round_timing_.pool_busy_ns += busy / n;
      round_timing_.pool_barrier_ns += barrier / n;
    }
    if (profiler_ != nullptr) {
      // Per-worker spans of the stage: dispatch latency, the
      // task-executing envelope, and the barrier stall — these render
      // as per-worker tracks in the Chrome-trace export, so Perfetto
      // shows exactly which worker idled at which barrier.
      for (const ThreadPool::StageSample& w : stage_samples_) {
        profiler_->record_worker("dispatch", round_, w.worker, open,
                                 w.first_task_start);
        profiler_->record_worker("work", round_, w.worker, w.first_task_start,
                                 w.last_task_end);
        profiler_->record_worker("barrier_wait", round_, w.worker,
                                 w.last_task_end, done);
      }
    }
  }
}

void System::set_parallel_policy(const ParallelPolicy& policy) {
  CF_EXPECTS_MSG(policy.num_threads >= 1 && policy.num_threads <= 1024,
                 "ParallelPolicy::num_threads out of [1, 1024]");
  parallel_ = policy;
  if (policy.num_threads > 1) {
    if (!pool_ || pool_->thread_count() != policy.num_threads) {
      pool_ = std::make_unique<ThreadPool>(policy.num_threads);
      sync_pool_timing();
    }
  } else {
    pool_.reset();
  }
  // One scratch slot per shard the engine can produce (the serial loop
  // and a pinned-serial Signal phase use slot 0 only). Shrinking on a
  // narrower policy would free warmed buffers for nothing, so don't.
  const auto width =
      pool_ ? static_cast<std::size_t>(pool_->thread_count()) : 1;
  if (scratch_.shards.size() < width) scratch_.shards.resize(width);
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

void System::fail(CellId id) {
  CF_EXPECTS(grid_.contains(id));
  const std::size_t k = grid_.index_of(id);
  if (apply_fail(cells_[k]) && metrics_) metrics_->add_failure();
  note_control_mutation(k);
}

void System::recover(CellId id) {
  CF_EXPECTS(grid_.contains(id));
  const std::size_t k = grid_.index_of(id);
  if (!apply_recover(cells_[k], k == target_k_)) return;
  if (metrics_) metrics_->add_recovery();
  note_control_mutation(k);
}

RoundEngine choose_round_engine(ThreadPool* pool,
                                ParallelPolicy::Cutover cutover,
                                std::uint64_t round,
                                const System::SchedulerStats& last,
                                std::size_t domain) {
  RoundEngine e;
  if (pool == nullptr) return e;
  const std::size_t used = shard_count(domain, pool->thread_count());
  if (used <= 1) return e;
  if (cutover == ParallelPolicy::Cutover::kAuto && round > 0) {
    const std::uint64_t widest =
        std::max({last.route_cells, last.signal_cells, last.move_cells});
    e.cutover = widest < static_cast<std::uint64_t>(
                             ParallelPolicy::kCutoverGrain) * used;
    if (e.cutover) return e;
  }
  e.pool = pool;
  e.shards = used;
  return e;
}

const RoundEvents& System::update() {
  events_.clear();
  events_.round = round_;

  // Profiling/telemetry wrap the round (they never feed back into it)
  // and metrics flush once per round, after the plan — see set_metrics().
  using ProfClock = obs::PhaseProfiler::Clock;
  const bool track = profiler_ != nullptr || telemetry_ != nullptr;
  const auto t_round = track ? ProfClock::now() : ProfClock::time_point{};
  if (track) round_timing_.reset();
  // The round pools unless the kAuto cutover pins it inline or the
  // partition has a single shard; an inline round is the same plan run
  // on this thread with used == 1.
  const std::size_t n = cells_.size();
  const RoundEngine engine = choose_round_engine(
      pool_.get(), parallel_.cutover, round_, sched_stats_, n);
  ThreadPool* const pool = engine.pool;
  const std::size_t used = engine.shards;
  const bool pooled = pool != nullptr;
  // Per-shard clocks feed the profiler's shard spans and the imbalance
  // statistic; an inline round needs neither for telemetry alone.
  const bool shard_timing =
      profiler_ != nullptr || (telemetry_ != nullptr && pooled);
  const bool signal_sharded = choose_->concurrent_safe();

  // kExhaustive recopies Route's dist snapshot every round; kActiveSet
  // keeps it in sync incrementally (merge_route_results).
  if (scheduler_ != RoundScheduler::kActiveSet) {
    for (std::size_t k = 0; k < n; ++k) dist_snapshot_[k] = cells_[k].dist;
  }
  for (std::size_t s = 0; s < used; ++s) scratch_.shards[s].begin_round();

  // Caller-side stamps (profiler/telemetry only). `at` ends the last
  // billed piece: each serial piece bills [at, now) to one component —
  // merges to merge when pooled, serial bodies (and inline merges) to
  // work, hooks to none — and each parallel stage's [open, done) is
  // either decomposed by note_pooled_stages or, inline, billed to work.
  auto at = t_round;
  const auto bill = [&](std::uint64_t* into, const char* span) {
    if (!track) return;
    const auto now = ProfClock::now();
    if (into != nullptr) *into += span_ns(at, now);
    if (span != nullptr && profiler_ != nullptr)
      profiler_->record(span, round_, -1, at, now);
    at = now;
  };
  std::uint64_t* const merge_into =
      pooled ? &round_timing_.merge_ns : &round_timing_.serial_work_ns;
  const auto parallel_done = [&](std::size_t p) {
    if (!track) return;
    round_timing_.open[p] = at;
    bill(pooled ? nullptr : &round_timing_.serial_work_ns, kPhaseNames[p]);
    round_timing_.done[p] = at;
    if (telemetry_ != nullptr && pooled) {
      std::uint64_t sum = 0;
      std::uint64_t max = 0;
      for (std::size_t s = 0; s < used; ++s) {
        const std::uint64_t v = scratch_.shards[s].span_ns;
        sum += v;
        max = std::max(max, v);
      }
      round_timing_.imbalance[p] =
          sum > 0 ? static_cast<double>(max) * static_cast<double>(used) /
                        static_cast<double>(sum)
                  : 1.0;
    }
  };
  const auto hook = [&](UpdatePhase phase) {
    if (!phase_hook_) return;
    phase_hook_(*this, phase);
    bill(nullptr, nullptr);  // hook time stays outside the components
  };
  const auto shard = [&](std::size_t p, std::size_t t) {
    const ShardRange r = shard_range_at(n, used, t);
    const auto t0 = shard_timing ? ProfClock::now() : ProfClock::time_point{};
    if (p == 0)
      route_span(t, r.begin, r.end);
    else if (p == 1)
      signal_span(t, r.begin, r.end);
    else
      move_span(t, r.begin, r.end);
    if (shard_timing) {
      const auto t1 = ProfClock::now();
      scratch_.shards[t].span_ns = span_ns(t0, t1);
      if (profiler_ != nullptr)
        profiler_->record(kPhaseNames[p], round_, static_cast<int>(t), t0, t1);
    }
  };
  const auto route = [&](std::size_t t) { shard(0, t); };
  const auto signal = [&](std::size_t t) { shard(1, t); };
  const auto move = [&](std::size_t t) { shard(2, t); };
  const auto after_route = [&](std::size_t) {
    parallel_done(0);
    merge_route_results(used);
    bill(merge_into, "merge");
    hook(UpdatePhase::kAfterRoute);
    if (!signal_sharded) {
      // Stateful choose policy: one in-order pass in slot 0, so its
      // stream observes the exact serial call sequence (§6 pillar 4).
      signal_span(0, 0, n);
      bill(&round_timing_.serial_work_ns, "signal");
    }
  };
  const auto after_signal = [&](std::size_t) {
    if (signal_sharded) parallel_done(1);
    merge_signal_results(used);
    bill(merge_into, "merge");
    hook(UpdatePhase::kAfterSignal);
  };
  const auto after_move = [&](std::size_t) {
    parallel_done(2);
    merge_move_results(used);
    bill(merge_into, "merge");
    hook(UpdatePhase::kAfterMove);
    inject_phase();
    bill(&round_timing_.serial_work_ns, "inject");
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
  bill(&round_timing_.serial_work_ns, nullptr);  // pre-plan snapshot/clears
  run_plan(pool, stages, std::size(stages));

  const auto t_end = track ? ProfClock::now() : ProfClock::time_point{};
  if (pooled && track) note_pooled_stages(*pool);
  if (profiler_ != nullptr)
    profiler_->record("round", round_, -1, t_round, t_end);
  if (telemetry_ != nullptr) {
    obs::RoundBreakdown b;
    b.round_ns = span_ns(t_round, t_end);
    b.workers = pooled ? pool->thread_count() : 1;
    b.cutover = engine.cutover;
    if (pool_) {
      const DispatchStats ds = pool_->dispatch_stats();
      b.pool_dispatches = ds.dispatches - last_dispatch_stats_.dispatches;
      b.pool_spin_wakes = ds.spin_wakes - last_dispatch_stats_.spin_wakes;
      b.pool_park_wakes = ds.park_wakes - last_dispatch_stats_.park_wakes;
      last_dispatch_stats_ = ds;
    }
    b.work_ns = round_timing_.serial_work_ns + round_timing_.pool_busy_ns;
    b.barrier_wait_ns = round_timing_.pool_barrier_ns;
    b.dispatch_ns = round_timing_.pool_dispatch_ns;
    b.merge_ns = round_timing_.merge_ns;
    b.imbalance_route = round_timing_.imbalance[0];
    b.imbalance_signal = round_timing_.imbalance[1];
    b.imbalance_move = round_timing_.imbalance[2];
    if (pool_ && b.round_ns > 0) {
      // Utilization: summed task-body time over the theoretical
      // width × wall budget (busy would overstate it on a preempted
      // machine — preemption gaps are not useful parallelism).
      b.parallel_work_fraction =
          static_cast<double>(round_timing_.pool_task_ns) /
          (static_cast<double>(pool_->thread_count()) *
           static_cast<double>(b.round_ns));
    }
    telemetry_->record_round(b);
    if (profiler_ != nullptr) {
      profiler_->record_counter("imbalance_route", t_end, b.imbalance_route);
      profiler_->record_counter("imbalance_signal", t_end, b.imbalance_signal);
      profiler_->record_counter("imbalance_move", t_end, b.imbalance_move);
      profiler_->record_counter("parallel_work_fraction", t_end,
                                b.parallel_work_fraction);
    }
  }
  if (metrics_) {
    metrics_->add(round_counts_);
    metrics_->add_round();
    round_counts_.reset();
  }
  ++round_;
  return events_;
}

void System::route_span(std::size_t s, std::size_t begin, std::size_t end) {
  // Phase-parallel Bellman–Ford: every cell reads its neighbors'
  // *previous-round* dist via dist_snapshot_ (Figure 4 semantics). The
  // snapshot makes the per-cell step a pure function of frozen data;
  // each cell writes only its own dist/next, so the loop shards freely.
  // kActiveSet visits only armed cells — a cell is armed exactly when a
  // neighborhood dist changed last round or an external mutation
  // touched it, which is precisely when route_step could produce
  // something new. Skipped live cells still tally their would-be
  // relaxations so the ProtocolCounts contract (bit-identical counts
  // across engines) holds.
  ShardScratch& sc = scratch_.shards[s];
  obs::ProtocolCounts* pc = metrics_ ? &sc.counts : nullptr;
  if (scheduler_ != RoundScheduler::kActiveSet) {
    for (std::size_t k = begin; k < end; ++k) route_cell(k, pc, nullptr);
    sc.visited += end - begin;
    return;
  }
  for (std::size_t k = begin; k < end; ++k) {
    if (route_stamp_[k] >= round_) {
      route_cell(k, pc, &sc.changed);
      ++sc.visited;
    } else if (pc != nullptr && !cells_[k].failed && k != target_k_) {
      // The exhaustive loop would have relaxed over every lattice
      // neighbor (and changed nothing — that is what quiescence
      // means); the target tallies nothing once pinned at 0.
      for (const std::uint32_t nk : nbr_idx_[k])
        if (nk != kNoNbr) ++pc->route_relaxations;
    }
  }
}

std::uint64_t System::collect_shards(std::size_t used) {
  // Counter determinism: shard tallies merge in ascending shard order,
  // the same discipline as the event buffers (merging is additive, so
  // the order is a convention, not a correctness requirement).
  std::uint64_t visited = 0;
  for (std::size_t s = 0; s < used; ++s) {
    ShardScratch& sc = scratch_.shards[s];
    if (metrics_) round_counts_.merge(sc.counts);
    sc.counts.reset();
    visited += sc.visited;
    sc.visited = 0;
  }
  return visited;
}

void System::merge_route_results(std::size_t used) {
  sched_stats_.route_cells = collect_shards(used);
  if (scheduler_ == RoundScheduler::kActiveSet) {
    // Post-barrier merge, shard order: sync the snapshot for changed
    // cells and arm their readers (the lattice neighbors) for next
    // round. A cell's own Route output depends only on its neighbors'
    // dists, so its own change does not re-arm itself.
    for (std::size_t s = 0; s < used; ++s) {
      for (const std::size_t k : scratch_.shards[s].changed) {
        dist_snapshot_[k] = cells_[k].dist;
        for (const std::uint32_t nk : nbr_idx_[k]) {
          if (nk == kNoNbr) continue;
          std::uint64_t& stamp = route_stamp_[nk];
          stamp = std::max(stamp, round_ + 1);
        }
      }
    }
  }
}

void System::route_cell(std::size_t k, obs::ProtocolCounts* counts,
                        std::vector<std::size_t>* changed_out) {
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
                  counts) &&
      changed_out != nullptr)
    changed_out->push_back(k);
}

void System::signal_span(std::size_t s, std::size_t begin, std::size_t end) {
  // Signal reads neighbors' fresh `next` (Route's output) and pre-Move
  // Members; it writes only its own ne_prev/token/signal — disjoint
  // struct fields, so concurrent cells never touch the same memory. A
  // stateful choose policy (RandomChoose) must observe the serial call
  // sequence, so update() then runs one in-order pass instead.
  ShardScratch& sc = scratch_.shards[s];
  obs::ProtocolCounts* pc = metrics_ ? &sc.counts : nullptr;
  if (scheduler_ != RoundScheduler::kActiveSet) {
    for (std::size_t k = begin; k < end; ++k)
      signal_cell(k, sc.blocked, pc, nullptr);
    sc.visited += end - begin;
  } else {
    for (std::size_t k = begin; k < end; ++k) {
      // occ_refs_ is frozen for the duration of the phase (flips
      // buffer per shard and apply at the barrier), so every
      // engine takes identical skip decisions. A cell with an
      // all-unoccupied closed neighborhood maps (⊥,⊥,[]) to
      // (⊥,⊥,[]) without consulting choose_, so skipping it is
      // exact — it only owes the exhaustive loop's ne_prev_sizes
      // tally for live cells.
      if (occ_refs_[k] > 0) {
        signal_cell(k, sc.blocked, pc, &sc.flips);
        ++sc.visited;
      } else if (pc != nullptr && !cells_[k].failed) {
        ++pc->ne_prev_sizes[0];
      }
    }
  }
}

void System::merge_signal_results(std::size_t used) {
  // Shards cover ascending cell ranges, so concatenating in shard order
  // reproduces the serial loop's blocked-event order exactly.
  sched_stats_.signal_cells = collect_shards(used);
  for (std::size_t s = 0; s < used; ++s) {
    const ShardScratch& sc = scratch_.shards[s];
    events_.blocked.insert(events_.blocked.end(), sc.blocked.begin(),
                           sc.blocked.end());
  }
  // Occupancy flips apply at the barrier, in shard order, so the Move
  // phase's activity reads see the post-Signal occupancy on every
  // engine (a fresh grant makes its destination occupied, which is what
  // schedules the granted mover).
  for (std::size_t s = 0; s < used; ++s)
    for (const std::size_t k : scratch_.shards[s].flips)
      apply_occupancy_flip(k);
}

void System::signal_cell(std::size_t k, std::vector<CellId>& blocked_out,
                         obs::ProtocolCounts* counts,
                         std::vector<std::size_t>* flip_out) {
  CellState& c = cells_[k];
  if (c.failed) return;
  const CellId id = cell_id_[k];
  NeighborSet ne_prev;
  for (const std::uint32_t nk : nbr_idx_[k]) {
    if (nk == kNoNbr) continue;
    const CellState& nc = cells_[nk];
    if (nc.failed) continue;  // a failed cell never communicates
    if (nc.next == OptCellId{id} && nc.has_entities())
      ne_prev.push_back(cell_id_[nk]);
  }
  if (apply_signal(c, id, std::move(ne_prev), config_.signal_rule,
                   config_.params, *choose_, counts))
    blocked_out.push_back(id);
  if (flip_out != nullptr && occupied(c) != (occ_b_[k] != 0))
    flip_out->push_back(k);
}

void System::move_span(std::size_t s, std::size_t begin, std::size_t end) {
  // All cells decide and move simultaneously (Figure 6 guard:
  // signal_{next_{i,j}} = ⟨i,j⟩): each cell applies its own
  // displacement and buffers its boundary-crossers; delivery happens in
  // the merge, in canonical order, because appends into a shared
  // destination determine Members order and hence downstream traces.
  // The decision reads only the destination's signal (frozen since
  // Signal) and mutates only the cell's own Members, so it shards freely.
  ShardScratch& sc = scratch_.shards[s];
  obs::ProtocolCounts* pc = metrics_ ? &sc.counts : nullptr;
  if (scheduler_ != RoundScheduler::kActiveSet) {
    for (std::size_t k = begin; k < end; ++k)
      move_cell(k, sc.moved, sc.pending, sc.crossed, pc);
    sc.visited += end - begin;
  } else {
    for (std::size_t k = begin; k < end; ++k) {
      // An unoccupied cell with an unoccupied closed neighborhood
      // cannot move: it has no members to relocate or compact,
      // and a grant in its favor would make its destination (a
      // lattice neighbor, post-Route) occupied — so move_cell
      // would be a no-op that tallies nothing. occ_refs_ already
      // reflects this round's Signal output (flips merged at the
      // barrier).
      if (occ_refs_[k] > 0) {
        move_cell(k, sc.moved, sc.pending, sc.crossed, pc);
        ++sc.visited;
      }
    }
  }
}

void System::merge_move_results(std::size_t used) {
  sched_stats_.move_cells = collect_shards(used);
  for (std::size_t s = 0; s < used; ++s) {
    const ShardScratch& sc = scratch_.shards[s];
    events_.moved.insert(events_.moved.end(), sc.moved.begin(),
                         sc.moved.end());
  }

  std::vector<PendingTransfer>& transfers = scratch_.transfers;
  transfers.clear();
  for (std::size_t s = 0; s < used; ++s) {
    std::vector<PendingTransfer>& p = scratch_.shards[s].pending;
    transfers.insert(transfers.end(), std::make_move_iterator(p.begin()),
                     std::make_move_iterator(p.end()));
  }
  // Already canonical by construction (ascending shards, in-order within
  // each); enforce it anyway so no engine can drift.
  canonical_transfer_order(grid_, transfers);

  for (PendingTransfer& t : transfers) {
    TransferEvent ev{t.entity.id, t.from, t.to, /*consumed=*/false};
    if (t.to == config_.target) {
      ev.consumed = true;
      ++total_arrivals_;
      ++events_.arrivals;
      if (metrics_) ++round_counts_.consumptions;
      // Figure 6 line 11: the entity is not added to any cell — consumed.
    } else {
      cells_[grid_.index_of(t.to)].members.push_back(t.entity);
    }
    events_.transfers.push_back(ev);
  }
  if (scheduler_ == RoundScheduler::kActiveSet) {
    // Membership only changes at cells that applied a movement (shrink)
    // or received a delivery (growth); both lists are already in
    // canonical order. refresh_occupancy is idempotent, so overlap
    // (a cell that both moved and received) is harmless.
    for (const CellId id : events_.moved)
      refresh_occupancy(grid_.index_of(id));
    for (const TransferEvent& t : events_.transfers)
      if (!t.consumed) refresh_occupancy(grid_.index_of(t.to));
  }
}

void System::move_cell(std::size_t k, std::vector<CellId>& moved_out,
                       std::vector<PendingTransfer>& pending_out,
                       std::vector<Entity>& crossed_scratch,
                       obs::ProtocolCounts* counts) {
  CellState& c = cells_[k];
  if (c.failed || !c.next.has_value()) return;
  const CellId id = cell_id_[k];
  const CellId dest = *c.next;
  const bool permitted = cells_[grid_.index_of(dest)].signal == OptCellId{id};
  // The in-place steps partition c.members directly (stayers keep their
  // order, crossers land in the shard's crossing scratch) — no per-cell
  // staying/crossed vectors; see move.hpp.
  if (apply_move(c, id, permitted, config_.movement_rule, grid_,
                 config_.params, crossed_scratch, counts))
    moved_out.push_back(id);
  for (Entity& e : crossed_scratch)
    pending_out.push_back(PendingTransfer{e, id, dest});
}

void System::inject_phase() {
  for (const CellId s : config_.sources) {
    const std::size_t k = grid_.index_of(s);
    const auto id =
        apply_injection(cells_[k], s, *source_, grid_, config_.params,
                        next_entity_id_, metrics_ ? &round_counts_ : nullptr);
    if (!id.has_value()) continue;
    refresh_occupancy(k);
    events_.injected.emplace_back(s, *id);
  }
}

EntityId System::seed_entity(CellId id, Vec2 center) {
  CF_EXPECTS(grid_.contains(id));
  const CellState& c = cells_[grid_.index_of(id)];
  CF_EXPECTS_MSG(injection_is_safe(id, center, c.members, c.token,
                                   config_.params),
                 "seed_entity: placement violates the gap requirement or "
                 "Invariant-1 bounds");
  const EntityId eid{next_entity_id_++};
  cells_[grid_.index_of(id)].members.push_back(Entity{eid, center});
  refresh_occupancy(grid_.index_of(id));
  return eid;
}

EntityId System::seed_entity_unchecked(CellId id, Vec2 center) {
  CF_EXPECTS(grid_.contains(id));
  const EntityId eid{next_entity_id_++};
  cells_[grid_.index_of(id)].members.push_back(Entity{eid, center});
  refresh_occupancy(grid_.index_of(id));
  return eid;
}

void System::corrupt_control_state(CellId id, Dist dist, OptCellId next,
                                   OptCellId token, OptCellId signal) {
  CF_EXPECTS(grid_.contains(id));
  CellState& c = cells_[grid_.index_of(id)];
  c.dist = dist;
  c.next = next;
  c.token = token;
  c.signal = signal;
  note_control_mutation(grid_.index_of(id));
}

}  // namespace cellflow
