// EngineTelemetry: contention/imbalance accounting for the round
// engines.
//
// Attributes every nanosecond of a round to one of four components —
//   work         time inside phase bodies (executor task bodies on a
//                pooled round, every stage on an inline one),
//   barrier_wait time an executor idled between finishing its own
//                shards and the stage completing,
//   dispatch     latency from a stage opening to an executor starting
//                its first task of it,
//   merge        the serial post-barrier sections (shard-buffer
//                concatenation, canonical transfer delivery, active-set
//                bookkeeping),
// normalized to *wall-equivalent* nanoseconds (executor-summed time
// divided by the participant count) so the components of one round
// compare directly against that round's wall clock. Phase hooks stay
// outside all four. Per-phase imbalance is
// max/mean over the shard spans of the phase (1.0 when a phase ran as a
// single shard), and the Amdahl serial-fraction estimate over a run is
// 1 − Σwork / Σround.
//
// Determinism boundary (DESIGN.md §7): every duration and ratio here is
// timing — outside the determinism contract, free to differ run to run.
// What *is* inside the contract is the event structure: one histogram
// observation per round per family and one imbalance observation per
// phase per round, so the metric *counts* stay bit-identical across
// ParallelPolicy modes and thread counts (pinned by
// tests/test_engine_telemetry.cpp). Telemetry is attached explicitly
// (System::set_telemetry) and never feeds back into protocol state.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"

namespace cellflow::obs {

/// Wall-equivalent decomposition of one protocol round, produced by the
/// engines and consumed by EngineTelemetry::record_round.
struct RoundBreakdown {
  std::uint64_t round_ns = 0;         ///< wall clock of the whole round
  std::uint64_t work_ns = 0;          ///< phase-body time (÷ width if pooled)
  std::uint64_t barrier_wait_ns = 0;  ///< worker idle at barriers ÷ width
  std::uint64_t dispatch_ns = 0;      ///< stage-open latency ÷ width
  std::uint64_t merge_ns = 0;         ///< serial post-barrier sections
  double imbalance_route = 1.0;       ///< max/mean shard span, Route
  double imbalance_signal = 1.0;
  double imbalance_move = 1.0;
  double parallel_work_fraction = 0.0;  ///< pooled work ÷ (width · round)
  int workers = 1;                      ///< engine width this round
  bool cutover = false;  ///< kAuto pinned this round to the serial engine
  /// Persistent-pool dispatch counters, as per-round deltas of the
  /// pool's cumulative DispatchStats: batches published, and how each
  /// executor wait resolved (observed the epoch while spinning vs.
  /// parked on the condvar). A cutover round reports all three as 0.
  std::uint64_t pool_dispatches = 0;
  std::uint64_t pool_spin_wakes = 0;
  std::uint64_t pool_park_wakes = 0;

  [[nodiscard]] std::uint64_t accounted_ns() const noexcept {
    return work_ns + barrier_wait_ns + dispatch_ns + merge_ns;
  }
};

class EngineTelemetry {
 public:
  /// Creates/binds the telemetry families in `registry`, labeled with the
  /// protocol realization ("shared" | "messages"). The registry must
  /// outlive this object.
  explicit EngineTelemetry(MetricsRegistry& registry,
                           std::string_view realization = "shared");

  EngineTelemetry(const EngineTelemetry&) = delete;
  EngineTelemetry& operator=(const EngineTelemetry&) = delete;

  /// Records one completed round. Called once per update() by the
  /// attached engine, on the round-driving thread.
  void record_round(const RoundBreakdown& b);

  /// Run-level aggregation since construction / the last reset_totals()
  /// (what the benches read to build their breakdown columns).
  struct Totals {
    std::uint64_t rounds = 0;
    std::uint64_t round_ns = 0;
    std::uint64_t work_ns = 0;
    std::uint64_t barrier_wait_ns = 0;
    std::uint64_t dispatch_ns = 0;
    std::uint64_t merge_ns = 0;
    double imbalance_route_sum = 0.0;   ///< Σ per-round imbalance (÷ rounds
    double imbalance_signal_sum = 0.0;  ///<  for the mean)
    double imbalance_move_sum = 0.0;
    std::uint64_t rounds_cutover = 0;  ///< rounds the kAuto cutover ran serial
    std::uint64_t dispatches = 0;      ///< pool batches published
    std::uint64_t spin_wakes = 0;      ///< executor waits resolved spinning
    std::uint64_t park_wakes = 0;      ///< executor waits that parked

    [[nodiscard]] std::uint64_t accounted_ns() const noexcept {
      return work_ns + barrier_wait_ns + dispatch_ns + merge_ns;
    }
    /// Fraction of round wall time the four components explain.
    [[nodiscard]] double coverage() const noexcept {
      return round_ns > 0 ? static_cast<double>(accounted_ns()) /
                                static_cast<double>(round_ns)
                          : 0.0;
    }
    /// Amdahl estimate: fraction of wall time NOT spent in (wall-
    /// equivalent) phase-body work — barriers, dispatch, merges, and
    /// anything unaccounted are all serial overhead for scaling purposes.
    [[nodiscard]] double serial_fraction() const noexcept {
      if (round_ns == 0) return 1.0;
      const double f =
          static_cast<double>(work_ns) / static_cast<double>(round_ns);
      return f < 1.0 ? 1.0 - f : 0.0;
    }
  };
  [[nodiscard]] const Totals& totals() const noexcept { return totals_; }
  void reset_totals() noexcept { totals_ = Totals{}; }

 private:
  Totals totals_;
  Histogram* round_ns_;
  Histogram* imbalance_route_;
  Histogram* imbalance_signal_;
  Histogram* imbalance_move_;
  Counter* work_total_;
  Counter* barrier_total_;
  Counter* dispatch_total_;
  Counter* merge_total_;
  Gauge* workers_;
  Gauge* parallel_fraction_;
  Gauge* serial_fraction_;
  Counter* cutover_rounds_;
  Counter* pool_dispatches_;
  Counter* spin_wakes_;
  Counter* park_wakes_;
};

}  // namespace cellflow::obs
