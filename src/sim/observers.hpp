// Observers: per-round instrumentation attached to a Simulator.
//
// Observers are passive — they read the engine and the RoundEvents after
// each round (and optionally the intermediate phase states) and accumulate
// measurements. Everything reported in EXPERIMENTS.md flows through one of
// these.
//
// The observer interface and the summary observers are class templates
// over the engine — System, chunk::ChunkedSystem or MessageSystem — and
// read it only through the surface the three share (round events,
// entity_count, for_each_cell, the §III-A oracles of core/predicates.hpp),
// so every engine gets the same checks and the same summary. The plain
// names (Observer, ThroughputMeter, …) mean the System instantiation.
// RoutingStabilizationMonitor and TraceRecorder (sim/trace.hpp) stay
// System-only: each walks all N² cells every round (a BFS, a failed-flag
// diff), which would defeat the chunked engine's sparse store.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "core/predicates.hpp"
#include "core/system.hpp"
#include "msg/msg_audit.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "util/stats.hpp"

namespace cellflow {

template <class Engine>
class BasicObserver {
 public:
  virtual ~BasicObserver() = default;

  /// Called after every completed round.
  virtual void on_round(const Engine& sys, const RoundEvents& ev) = 0;

  /// Called at the engine's intermediate phase points (see UpdatePhase).
  /// Default: ignore.
  virtual void on_phase(const Engine& /*sys*/, UpdatePhase /*phase*/) {}

  /// Called once when the simulation ends.
  virtual void on_finish(const Engine& /*sys*/) {}
};

/// K-round throughput (§IV): arrivals at the target over the observed
/// rounds, divided by the number of rounds. Also keeps a windowed series
/// so convergence of the estimate can be inspected.
template <class Engine>
class BasicThroughputMeter final : public BasicObserver<Engine> {
 public:
  /// `window` is the width of the windowed-throughput series (0 = off).
  explicit BasicThroughputMeter(std::uint64_t window = 0) : window_(window) {}

  void on_round(const Engine& /*sys*/, const RoundEvents& ev) override {
    ++rounds_;
    arrivals_ += ev.arrivals;
    if (window_ == 0) return;
    window_arrivals_ += ev.arrivals;
    if (++window_rounds_ == window_) {
      windowed_.push_back(static_cast<double>(window_arrivals_) /
                          static_cast<double>(window_));
      window_arrivals_ = 0;
      window_rounds_ = 0;
    }
  }

  [[nodiscard]] std::uint64_t rounds() const noexcept { return rounds_; }
  [[nodiscard]] std::uint64_t arrivals() const noexcept { return arrivals_; }
  /// Arrivals / rounds; 0 before the first round.
  [[nodiscard]] double throughput() const noexcept {
    return rounds_ == 0 ? 0.0
                        : static_cast<double>(arrivals_) /
                              static_cast<double>(rounds_);
  }
  /// Windowed throughput samples (one per full window).
  [[nodiscard]] const std::vector<double>& windowed() const noexcept {
    return windowed_;
  }

 private:
  std::uint64_t window_;
  std::uint64_t rounds_ = 0;
  std::uint64_t arrivals_ = 0;
  std::uint64_t window_arrivals_ = 0;
  std::uint64_t window_rounds_ = 0;
  std::vector<double> windowed_;
};

/// Evaluates the §III-A safety oracles every round (Safe, Invariants 1–2,
/// footprint separation; on a MessageSystem msg_audit's full audit, which
/// adds the in-flight batches and conservation) and predicate H at the
/// post-Signal phase point. Collects violations instead of throwing so a
/// test can report them all.
template <class Engine>
class BasicSafetyMonitor final : public BasicObserver<Engine> {
 public:
  void on_round(const Engine& sys, const RoundEvents& /*ev*/) override {
    std::vector<Violation> found;
    if constexpr (std::is_same_v<Engine, MessageSystem>)
      found = msg_audit::check_all(sys);
    else
      found = check_all(sys);
    for (auto& v : found) violations_.push_back(std::move(v));
  }

  void on_phase(const Engine& sys, UpdatePhase phase) override {
    // Lemma 3 asserts H exactly at the post-Signal point of each round.
    if (phase != UpdatePhase::kAfterSignal) return;
    if (auto v = check_h_predicate(sys)) violations_.push_back(*std::move(v));
  }

  [[nodiscard]] bool clean() const noexcept { return violations_.empty(); }
  [[nodiscard]] const std::vector<Violation>& violations() const noexcept {
    return violations_;
  }
  /// First few violations, formatted (test-failure messages).
  [[nodiscard]] std::string report(std::size_t limit = 5) const {
    std::ostringstream os;
    os << violations_.size() << " violation(s)";
    const std::size_t n = std::min(limit, violations_.size());
    for (std::size_t k = 0; k < n; ++k)
      os << "\n  " << to_string(violations_[k]);
    return os.str();
  }

 private:
  std::vector<Violation> violations_;
};

/// Watches the distributed dist/next values converge to the BFS reference
/// (Lemma 6 / Corollary 7). Each round it checks whether every
/// target-connected cell's dist equals ρ and next points along a shortest
/// path; records the first round of an agreement that then persisted to
/// the end of the run. System-only (see the file comment).
class RoutingStabilizationMonitor final : public BasicObserver<System> {
 public:
  void on_round(const System& sys, const RoundEvents& ev) override;

  /// Round at which agreement last became true (and held through the final
  /// observed round); nullopt if never agreed or not holding at the end.
  [[nodiscard]] std::optional<std::uint64_t> stabilized_at() const noexcept;
  [[nodiscard]] bool currently_agrees() const noexcept { return agrees_; }

 private:
  static bool agreement(const System& sys);

  bool agrees_ = false;
  std::optional<std::uint64_t> agree_since_;
};

/// Per-round movement/blocking counters: how often cells had permission,
/// how often a token grant was blocked by an occupied strip.
template <class Engine>
class BasicBlockingStats final : public BasicObserver<Engine> {
 public:
  void on_round(const Engine& /*sys*/, const RoundEvents& ev) override {
    ++rounds_;
    moves_ += ev.moved.size();
    blocks_ += ev.blocked.size();
  }

  [[nodiscard]] std::uint64_t total_moves() const noexcept { return moves_; }
  [[nodiscard]] std::uint64_t total_blocks() const noexcept { return blocks_; }
  [[nodiscard]] std::uint64_t rounds() const noexcept { return rounds_; }
  /// Mean blocked cells per round.
  [[nodiscard]] double mean_blocked_per_round() const noexcept {
    return rounds_ == 0 ? 0.0
                        : static_cast<double>(blocks_) /
                              static_cast<double>(rounds_);
  }
  /// Mean moving cells per round.
  [[nodiscard]] double mean_moving_per_round() const noexcept {
    return rounds_ == 0 ? 0.0
                        : static_cast<double>(moves_) /
                              static_cast<double>(rounds_);
  }

 private:
  std::uint64_t moves_ = 0;
  std::uint64_t blocks_ = 0;
  std::uint64_t rounds_ = 0;
};

/// Tracks the entity population and per-cell occupancy (one for_each_cell
/// walk per round).
template <class Engine>
class BasicOccupancyTracker final : public BasicObserver<Engine> {
 public:
  void on_round(const Engine& sys, const RoundEvents& /*ev*/) override {
    std::size_t population = 0;
    sys.for_each_cell([&](CellId, const CellState& c) {
      population += c.members.size();
      peak_cell_ = std::max(peak_cell_, c.members.size());
    });
    population_.add(static_cast<double>(population));
  }

  [[nodiscard]] const RunningStats& population() const noexcept {
    return population_;
  }
  /// Peak simultaneous entities in any single cell.
  [[nodiscard]] std::size_t peak_cell_occupancy() const noexcept {
    return peak_cell_;
  }

 private:
  RunningStats population_;
  std::size_t peak_cell_ = 0;
};

/// Bridges RoundEvents into a MetricsRegistry: instantaneous gauges
/// (cellflow_round, cellflow_population), per-cell event counters
/// (cellflow_cell_{blocked,moved,injected}_total, labeled cell="i,j"),
/// and — when stream_jsonl is armed — a periodic JSONL snapshot line
/// every N rounds plus one final line at on_finish.
///
/// Runs entirely on the calling (driver) thread, after the round's phase
/// barriers, so everything it derives is deterministic regardless of the
/// engine's ParallelPolicy. Each per-cell counter is looked up in the
/// registry once, on its cell's first event, and its handle kept in a
/// table indexed by cell (allocated on the first round, paged by tile);
/// steady-state cost is one table load per event. Lines are stamped with
/// the engine round of RoundEvents, so a restored run continues the
/// stamps of the run it resumes.
template <class Engine>
class BasicMetricsObserver final : public BasicObserver<Engine> {
 public:
  /// Non-owning: `registry` must outlive the observer.
  explicit BasicMetricsObserver(obs::MetricsRegistry& registry)
      : registry_(registry),
        round_gauge_(&registry.gauge(
            "cellflow_round", "Protocol round counter (instantaneous).")),
        population_(&registry.gauge(
            "cellflow_population",
            "Entities currently in the system (instantaneous).")) {}

  /// Arms periodic JSONL snapshots: one line after every `every` rounds
  /// (0 disarms), plus a final line at on_finish. `out` is non-owning.
  void stream_jsonl(std::ostream* out, std::uint64_t every) {
    jsonl_out_ = out;
    jsonl_every_ = every;
  }

  void on_round(const Engine& sys, const RoundEvents& ev) override {
    if (side_ != sys.grid().side()) {  // first round, or another grid
      side_ = sys.grid().side();
      for (CellCounters* t : {&blocked_, &moved_, &injected_})
        t->reset(side_);
    }
    last_round_ = ev.round;
    round_gauge_->set(static_cast<double>(ev.round));
    population_->set(static_cast<double>(sys.entity_count()));
    for (const CellId id : ev.blocked)
      cell_counter(blocked_, "cellflow_cell_blocked_total",
                   "Signal refusals, by granting cell.", id)
          .inc();
    for (const CellId id : ev.moved)
      cell_counter(moved_, "cellflow_cell_moved_total",
                   "Applied movements, by moving cell.", id)
          .inc();
    for (const auto& [cell, eid] : ev.injected) {
      (void)eid;
      cell_counter(injected_, "cellflow_cell_injected_total",
                   "Accepted injections, by source cell.", cell)
          .inc();
    }
    if (jsonl_out_ != nullptr && jsonl_every_ != 0 &&
        (ev.round + 1) % jsonl_every_ == 0)
      *jsonl_out_ << obs::jsonl_snapshot(registry_, ev.round);
  }

  void on_finish(const Engine& /*sys*/) override {
    if (jsonl_out_ != nullptr)
      *jsonl_out_ << obs::jsonl_snapshot(registry_, last_round_);
  }

 private:
  /// Per-cell counter handles of one metric family, indexed by cell and
  /// paged by square tile: 32×32, or on a grid of side 32 or less one
  /// tile of that side rounded up to a power of two. reset() sizes the
  /// tile index; a tile is allocated on the first lookup of one of its
  /// cells, so a sparse run on a large grid holds only the tiles its
  /// events touch. A null handle is one not yet resolved from the
  /// registry.
  class CellCounters {
   public:
    /// Forgets every handle and sizes the tiles for a side×side grid.
    void reset(int side) {
      shift_ = 0;
      while (shift_ < kMaxShift && (1 << shift_) < side) ++shift_;
      tiles_x_ = ((side - 1) >> shift_) + 1;
      tiles_.clear();
      tiles_.resize(static_cast<std::size_t>(tiles_x_) *
                    static_cast<std::size_t>(tiles_x_));
    }

    /// The handle slot of `id`. Precondition: id is on the reset() grid.
    obs::Counter*& at(CellId id) {
      auto& tile = tiles_[static_cast<std::size_t>(
          (id.j >> shift_) * tiles_x_ + (id.i >> shift_))];
      if (!tile)
        tile = std::make_unique<obs::Counter*[]>(std::size_t{1}
                                                 << (2 * shift_));
      const int mask = (1 << shift_) - 1;
      return tile[static_cast<std::size_t>(((id.j & mask) << shift_) |
                                           (id.i & mask))];
    }

   private:
    static constexpr int kMaxShift = 5;  // 32×32 tiles at most

    int shift_ = 0;
    int tiles_x_ = 0;
    std::vector<std::unique_ptr<obs::Counter*[]>> tiles_;
  };

  obs::Counter& cell_counter(CellCounters& table, const char* name,
                             const char* help, CellId id) {
    obs::Counter*& c = table.at(id);
    if (c == nullptr)
      c = &registry_.counter(
          name, help,
          {{"cell", std::to_string(id.i) + "," + std::to_string(id.j)}});
    return *c;
  }

  obs::MetricsRegistry& registry_;
  obs::Gauge* round_gauge_;
  obs::Gauge* population_;
  int side_ = 0;  // the grid the tables are sized for; 0 before a round
  CellCounters blocked_;
  CellCounters moved_;
  CellCounters injected_;

  std::ostream* jsonl_out_ = nullptr;
  std::uint64_t jsonl_every_ = 0;
  std::uint64_t last_round_ = 0;
};

/// Birth-to-consumption latency per entity (rounds), via injection and
/// consumed-transfer events.
template <class Engine>
class BasicProgressTracker final : public BasicObserver<Engine> {
 public:
  void on_round(const Engine& /*sys*/, const RoundEvents& ev) override {
    for (const auto& [cell, eid] : ev.injected) {
      (void)cell;
      birth_round_.emplace(eid, ev.round);
    }
    for (const TransferEvent& t : ev.transfers) {
      if (!t.consumed) continue;
      const auto it = birth_round_.find(t.entity);
      if (it == birth_round_.end()) continue;  // seeded, not injected
      latency_.add(static_cast<double>(ev.round - it->second));
      birth_round_.erase(it);
    }
  }

  [[nodiscard]] const RunningStats& latency() const noexcept {
    return latency_;
  }
  /// Entities injected but not yet consumed.
  [[nodiscard]] std::size_t in_flight() const noexcept {
    return birth_round_.size();
  }
  [[nodiscard]] std::uint64_t completed() const noexcept {
    return static_cast<std::uint64_t>(latency_.count());
  }

 private:
  std::unordered_map<EntityId, std::uint64_t> birth_round_;
  RunningStats latency_;
};

using Observer = BasicObserver<System>;
using ThroughputMeter = BasicThroughputMeter<System>;
using SafetyMonitor = BasicSafetyMonitor<System>;
using BlockingStats = BasicBlockingStats<System>;
using OccupancyTracker = BasicOccupancyTracker<System>;
using MetricsObserver = BasicMetricsObserver<System>;
using ProgressTracker = BasicProgressTracker<System>;

}  // namespace cellflow
