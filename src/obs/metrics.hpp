// MetricsRegistry: labeled counters, gauges, and histograms for the
// protocol and the simulation harness.
//
// Determinism contract (mirrors DESIGN.md §6 for the parallel engine):
// metric *counts* are part of the observable behavior and must be
// bit-identical across ParallelPolicy modes and thread counts. The hot
// paths therefore never touch the registry from worker threads — the
// round engine accumulates into per-shard plain structs (see
// obs/protocol_metrics.hpp) and merges them in shard order at the phase
// barriers. The metric objects themselves are nevertheless atomic, so a
// stray concurrent increment (e.g. from harness code on another thread) is
// safe rather than undefined; atomicity is a belt, the shard merge is
// the suspenders.
//
// Timings never live here: wall-clock spans go through obs::PhaseProfiler
// (reporting-only, explicitly outside the determinism contract).
//
// The registry owns its metrics; Counter/Gauge/Histogram references stay
// valid for the registry's lifetime. Attach points (System::set_metrics,
// MessageSystem::set_metrics, MetricsObserver) resolve their handles once
// so per-round cost is plain pointer arithmetic, and every path is a
// no-op when no registry is attached. Resolving one is a name lookup and
// then a probe of the family's label index — a hash table of slot
// numbers over the canonical label sets — so registering the thousands of
// per-cell series a large run creates costs O(1) each, not O(series).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace cellflow::obs {

/// One key="value" pair. Label *sets* are kept sorted by key, so the
/// same logical series is found regardless of the order a caller lists
/// the labels in.
struct Label {
  std::string key;
  std::string value;

  friend auto operator<=>(const Label&, const Label&) = default;
};

using Labels = std::vector<Label>;

enum class MetricType { kCounter, kGauge, kHistogram };

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) noexcept;
  [[nodiscard]] double value() const noexcept;

 private:
  std::atomic<std::uint64_t> bits_{0};  // IEEE-754 payload of the double
};

/// Fixed-bucket histogram (Prometheus semantics: each bound is an
/// inclusive upper edge, with an implicit +Inf overflow bucket).
class Histogram {
 public:
  /// `upper_bounds` must be strictly ascending and non-empty.
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double v) noexcept { observe_many(v, 1); }
  /// Records `n` observations of the same value in one step — how the
  /// shard-merged integer tallies of ProtocolCounts enter the histogram
  /// (one deterministic addition per round instead of n).
  void observe_many(double v, std::uint64_t n) noexcept;

  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return bounds_;
  }
  [[nodiscard]] std::uint64_t count() const noexcept;
  [[nodiscard]] double sum() const noexcept;
  /// Per-bucket (non-cumulative) counts, one per bound plus the +Inf
  /// overflow bucket at the back.
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds + Inf
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_bits_{0};
};

/// Point-in-time copy of one labeled series, already flattened to plain
/// numbers — what the exporters consume.
struct SeriesSnapshot {
  Labels labels;
  std::uint64_t counter_value = 0;  ///< kCounter
  double gauge_value = 0.0;         ///< kGauge
  std::uint64_t count = 0;          ///< kHistogram
  double sum = 0.0;                 ///< kHistogram
  /// kHistogram: (upper bound, *cumulative* count), +Inf bucket last.
  std::vector<std::pair<double, std::uint64_t>> buckets;
};

struct FamilySnapshot {
  std::string name;
  std::string help;
  MetricType type = MetricType::kCounter;
  std::vector<SeriesSnapshot> series;  ///< sorted by labels
};

/// Get-or-create registry of metric families. A *family* is (name, help,
/// type[, bounds]); a *series* is a family member with a concrete label
/// set. Re-requesting an existing series returns the same object;
/// re-requesting a name with a mismatched type/help/bounds throws
/// std::runtime_error (silent divergence would corrupt exports).
/// Get-or-create is mutex-guarded and finds a series through its
/// family's label index; see the file comment for how the hot paths avoid
/// the registry entirely.
class MetricsRegistry {
 public:
  // Both out of line: Family is incomplete here.
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Names must match Prometheus conventions: [a-zA-Z_:][a-zA-Z0-9_:]*.
  Counter& counter(std::string_view name, std::string_view help,
                   Labels labels = {});
  Gauge& gauge(std::string_view name, std::string_view help,
               Labels labels = {});
  Histogram& histogram(std::string_view name, std::string_view help,
                       std::vector<double> upper_bounds, Labels labels = {});

  /// Deterministic point-in-time copy: families sorted by name, series
  /// sorted by label set — the same registry contents always export the
  /// same bytes no matter the creation order.
  [[nodiscard]] std::vector<FamilySnapshot> snapshot() const;

 private:
  struct Family;
  Family& family(std::string_view name, std::string_view help,
                 MetricType type, const std::vector<double>& bounds);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Family>> families_;
  std::map<std::string, std::size_t, std::less<>> index_;  // name → slot
};

/// True iff `name` is a valid Prometheus metric name.
[[nodiscard]] bool valid_metric_name(std::string_view name);

}  // namespace cellflow::obs
