// Unit tests for the observability primitives: MetricsRegistry families
// and series, histogram bucket semantics, the ProtocolCounts merge, the
// PhaseProfiler span log, and the attach points on System.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "failure/failure_model.hpp"
#include "helpers.hpp"
#include "obs/export.hpp"
#include "obs/profiler.hpp"
#include "obs/protocol_metrics.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace cellflow {
namespace {

TEST(Metrics, CounterStartsAtZeroAndAccumulates) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("cf_test_total", "help");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Metrics, SameNameAndLabelsReturnsSameSeries) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("cf_test_total", "help", {{"k", "v"}});
  obs::Counter& b = reg.counter("cf_test_total", "help", {{"k", "v"}});
  EXPECT_EQ(&a, &b);
  obs::Counter& other = reg.counter("cf_test_total", "help", {{"k", "w"}});
  EXPECT_NE(&a, &other);
}

TEST(Metrics, LabelOrderDoesNotSplitSeries) {
  obs::MetricsRegistry reg;
  obs::Counter& a =
      reg.counter("cf_test_total", "help", {{"a", "1"}, {"b", "2"}});
  obs::Counter& b =
      reg.counter("cf_test_total", "help", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&a, &b);
}

TEST(Metrics, ConflictingRedefinitionThrows) {
  obs::MetricsRegistry reg;
  reg.counter("cf_test_total", "help");
  EXPECT_THROW(reg.gauge("cf_test_total", "help"), std::runtime_error);
  EXPECT_THROW(reg.counter("cf_test_total", "different help"),
               std::runtime_error);
}

TEST(Metrics, InvalidNamesAndDuplicateLabelKeysThrow) {
  obs::MetricsRegistry reg;
  EXPECT_THROW(reg.counter("0starts_with_digit", "h"), std::runtime_error);
  EXPECT_THROW(reg.counter("has space", "h"), std::runtime_error);
  EXPECT_THROW(reg.counter("cf_ok", "h", {{"k", "1"}, {"k", "2"}}),
               std::runtime_error);
  EXPECT_TRUE(obs::valid_metric_name("cellflow_rounds_total"));
  EXPECT_TRUE(obs::valid_metric_name("_private:scoped"));
  EXPECT_FALSE(obs::valid_metric_name(""));
}

// --- the label index -------------------------------------------------------

/// Label set k of a family: cell="i,j", plus a "kind" label on every
/// third and none at all for k == 0.
obs::Labels labels_of(int k) {
  if (k == 0) return {};
  obs::Labels out{{"cell", std::to_string(k % 141) + "," +
                               std::to_string(k / 141)}};
  if (k % 3 == 0) out.push_back({"kind", std::to_string(k % 7)});
  return out;
}

TEST(MetricsRegistryIndex, GetOrCreateFindsEachOfTwentyThousandSeries) {
  obs::MetricsRegistry reg;
  constexpr int kSeries = 20000;
  std::vector<obs::Counter*> first;
  for (int k = 0; k < kSeries; ++k)
    first.push_back(&reg.counter("cf_cell_total", "help", labels_of(k)));
  EXPECT_EQ(std::set<obs::Counter*>(first.begin(), first.end()).size(),
            static_cast<std::size_t>(kSeries));
  for (int k = kSeries - 1; k >= 0; --k)
    ASSERT_EQ(&reg.counter("cf_cell_total", "help", labels_of(k)),
              first[static_cast<std::size_t>(k)])
        << k;
  ASSERT_EQ(reg.snapshot().size(), 1u);
  EXPECT_EQ(reg.snapshot().front().series.size(),
            static_cast<std::size_t>(kSeries));
}

TEST(MetricsRegistryIndex, PermutedKeyOrderIsOneSeries) {
  obs::MetricsRegistry reg;
  for (int k = 1; k < 500; ++k) (void)reg.gauge("cf_g", "help", labels_of(k));
  std::array<obs::Label, 3> labels{
      {{"a", "1"}, {"b", "2"}, {"c", "3"}}};
  obs::Gauge& want = reg.gauge("cf_g", "help", {labels.begin(), labels.end()});
  int orders = 0;
  do {
    EXPECT_EQ(&reg.gauge("cf_g", "help", {labels.begin(), labels.end()}),
              &want);
    ++orders;
  } while (std::next_permutation(
      labels.begin(), labels.end(),
      [](const obs::Label& x, const obs::Label& y) { return x.key < y.key; }));
  EXPECT_EQ(orders, 6);
  EXPECT_EQ(reg.snapshot().front().series.size(), 500u);
}

TEST(MetricsRegistryIndex, ConflictingRedefinitionStillThrows) {
  obs::MetricsRegistry reg;
  for (int k = 0; k < 1000; ++k)
    (void)reg.counter("cf_cell_total", "help", labels_of(k));
  EXPECT_THROW(reg.gauge("cf_cell_total", "help", labels_of(5)),
               std::runtime_error);
  EXPECT_THROW(reg.counter("cf_cell_total", "other help", labels_of(5)),
               std::runtime_error);
  EXPECT_THROW(
      reg.histogram("cf_cell_total", "help", {1.0, 2.0}, labels_of(5)),
      std::runtime_error);
  EXPECT_THROW(reg.counter("cf_cell_total", "help", {{"k", "1"}, {"k", "2"}}),
               std::runtime_error);
  EXPECT_EQ(reg.snapshot().front().series.size(), 1000u);
}

TEST(MetricsRegistryIndex, ExportBytesDoNotDependOnRegistrationOrder) {
  constexpr int kSeries = 3000;
  std::vector<int> order;
  for (int k = 0; k < kSeries; ++k) order.push_back(k);
  const auto fill = [](obs::MetricsRegistry& reg, const std::vector<int>& ks) {
    for (const int k : ks) {
      reg.counter("cf_c_total", "c", labels_of(k))
          .inc(static_cast<std::uint64_t>(k));
      reg.gauge("cf_g", "g", labels_of(k)).set(0.5 * k);
      reg.histogram("cf_h", "h", {1.0, 10.0, 100.0}, labels_of(k))
          .observe(static_cast<double>(k % 200));
    }
  };
  obs::MetricsRegistry forward;
  fill(forward, order);
  std::reverse(order.begin(), order.end());
  obs::MetricsRegistry backward;
  fill(backward, order);
  Xoshiro256 rng(17);
  for (std::size_t k = order.size(); k > 1; --k)
    std::swap(order[k - 1], order[rng.below(k)]);
  obs::MetricsRegistry shuffled;
  fill(shuffled, order);
  const std::string want = obs::to_prometheus(forward);
  EXPECT_EQ(obs::to_prometheus(backward), want);
  EXPECT_EQ(obs::to_prometheus(shuffled), want);
}

TEST(Metrics, GaugeIsLastWriteWins) {
  obs::MetricsRegistry reg;
  obs::Gauge& g = reg.gauge("cf_test", "help");
  EXPECT_EQ(g.value(), 0.0);
  g.set(2.5);
  g.set(-17.0);
  EXPECT_EQ(g.value(), -17.0);
}

TEST(Metrics, HistogramBucketsAreInclusiveUpperEdges) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("cf_test", "help", {0.0, 1.0, 2.0});
  h.observe(0.0);   // → le=0
  h.observe(1.0);   // → le=1 (inclusive)
  h.observe(1.5);   // → le=2
  h.observe(99.0);  // → +Inf overflow
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 101.5);
  EXPECT_EQ(h.bucket_counts(), (std::vector<std::uint64_t>{1, 1, 1, 1}));
}

TEST(Metrics, HistogramObserveManyMatchesRepeatedObserve) {
  obs::MetricsRegistry reg;
  obs::Histogram& a = reg.histogram("cf_a", "h", {1.0, 2.0});
  obs::Histogram& b = reg.histogram("cf_b", "h", {1.0, 2.0});
  for (int k = 0; k < 7; ++k) a.observe(2.0);
  b.observe_many(2.0, 7);
  EXPECT_EQ(a.bucket_counts(), b.bucket_counts());
  EXPECT_EQ(a.count(), b.count());
  EXPECT_DOUBLE_EQ(a.sum(), b.sum());
}

TEST(Metrics, HistogramRejectsBadBounds) {
  obs::MetricsRegistry reg;
  EXPECT_THROW(reg.histogram("cf_test", "h", {}), std::runtime_error);
  EXPECT_THROW(reg.histogram("cf_test", "h", {2.0, 1.0}), std::runtime_error);
  reg.histogram("cf_ok", "h", {1.0, 2.0});
  EXPECT_THROW(reg.histogram("cf_ok", "h", {1.0, 3.0}), std::runtime_error);
}

TEST(Metrics, SnapshotIsSortedByNameAndLabels) {
  obs::MetricsRegistry reg;
  reg.counter("cf_zz_total", "h").inc(1);
  reg.counter("cf_aa_total", "h", {{"x", "2"}}).inc(2);
  reg.counter("cf_aa_total", "h", {{"x", "1"}}).inc(3);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].name, "cf_aa_total");
  EXPECT_EQ(snap[1].name, "cf_zz_total");
  ASSERT_EQ(snap[0].series.size(), 2u);
  EXPECT_EQ(snap[0].series[0].labels, (obs::Labels{{"x", "1"}}));
  EXPECT_EQ(snap[0].series[0].counter_value, 3u);
  EXPECT_EQ(snap[0].series[1].labels, (obs::Labels{{"x", "2"}}));
}

TEST(Metrics, ProtocolCountsMergeIsFieldwiseAddition) {
  obs::ProtocolCounts a;
  a.route_relaxations = 3;
  a.signal_grants = 1;
  a.ne_prev_sizes = {1, 0, 2, 0, 0};
  obs::ProtocolCounts b;
  b.route_relaxations = 4;
  b.moves = 5;
  b.ne_prev_sizes = {0, 7, 0, 0, 1};
  a.merge(b);
  EXPECT_EQ(a.route_relaxations, 7u);
  EXPECT_EQ(a.signal_grants, 1u);
  EXPECT_EQ(a.moves, 5u);
  EXPECT_EQ(a.ne_prev_sizes, (std::array<std::uint64_t, 5>{1, 7, 2, 0, 1}));
  a.reset();
  EXPECT_EQ(a.route_relaxations, 0u);
  EXPECT_EQ(a.ne_prev_sizes, (std::array<std::uint64_t, 5>{}));
}

TEST(Metrics, ProtocolMetricsFlushesIntoLabeledFamilies) {
  obs::MetricsRegistry reg;
  obs::ProtocolMetrics pm(reg, "shared");
  obs::ProtocolCounts counts;
  counts.route_relaxations = 10;
  counts.injections = 2;
  counts.ne_prev_sizes = {3, 1, 0, 0, 0};
  pm.add(counts);
  pm.add_round();
  pm.add_failure();
  EXPECT_EQ(reg.counter("cellflow_rounds_total", "Protocol rounds executed",
                        {{"realization", "shared"}})
                .value(),
            1u);
  EXPECT_EQ(
      reg.counter("cellflow_route_relaxations_total",
                  "Neighbor dist values examined by Route",
                  {{"realization", "shared"}})
          .value(),
      10u);
  EXPECT_EQ(reg.counter("cellflow_failures_total", "fail transitions applied",
                        {{"realization", "shared"}})
                .value(),
            1u);
}

TEST(Metrics, SystemRunsProduceProtocolCounters) {
  const Params p(0.2, 0.1, 0.1);
  System sys = testing::make_column_system(4, p);
  obs::MetricsRegistry reg;
  sys.set_metrics(&reg);
  NoFailures none;
  Simulator sim(sys, none);
  sim.run(300);

  const obs::Labels shared{{"realization", "shared"}};
  EXPECT_EQ(reg.counter("cellflow_rounds_total", "Protocol rounds executed",
                        shared)
                .value(),
            300u);
  EXPECT_GT(reg.counter("cellflow_source_injections_total",
                        "Entities injected by sources", shared)
                .value(),
            0u);
  EXPECT_GT(reg.counter("cellflow_move_consumptions_total",
                        "Entities consumed by the target", shared)
                .value(),
            0u);
  // Consistency with the System's own totals.
  EXPECT_EQ(reg.counter("cellflow_move_consumptions_total",
                        "Entities consumed by the target", shared)
                .value(),
            sys.total_arrivals());
  EXPECT_EQ(reg.counter("cellflow_source_injections_total",
                        "Entities injected by sources", shared)
                .value(),
            sys.total_injected());
}

TEST(Metrics, DetachingStopsAccumulation) {
  const Params p(0.2, 0.1, 0.1);
  System sys = testing::make_column_system(4, p);
  obs::MetricsRegistry reg;
  sys.set_metrics(&reg);
  NoFailures none;
  Simulator sim(sys, none);
  sim.run(10);
  sys.set_metrics(nullptr);
  sim.run(10);
  const obs::Labels shared{{"realization", "shared"}};
  EXPECT_EQ(reg.counter("cellflow_rounds_total", "Protocol rounds executed",
                        shared)
                .value(),
            10u);
}

TEST(Metrics, ProfilerRecordsPhaseAndShardSpans) {
  obs::PhaseProfiler prof;
  const auto t0 = obs::PhaseProfiler::Clock::now();
  prof.record("route", 0, -1, t0, t0 + std::chrono::microseconds(5));
  prof.record("route", 0, 0, t0, t0 + std::chrono::microseconds(2));
  prof.record("move", 1, -1, t0, t0 + std::chrono::microseconds(3));
  EXPECT_EQ(prof.span_count(), 3u);
  EXPECT_EQ(prof.total_ns("route"), 5000u);
  EXPECT_EQ(prof.total_ns("move"), 3000u);
  EXPECT_EQ(prof.total_ns("signal"), 0u);
  prof.clear();
  EXPECT_EQ(prof.span_count(), 0u);
}

TEST(Metrics, ProfilerAttachedRunCoversEveryPhase) {
  const Params p(0.2, 0.1, 0.1);
  System sys = testing::make_column_system(4, p);
  obs::PhaseProfiler prof;
  sys.set_profiler(&prof);
  NoFailures none;
  Simulator sim(sys, none);
  sim.run(5);
  EXPECT_GT(prof.total_ns("route"), 0u);
  EXPECT_GT(prof.total_ns("signal"), 0u);
  EXPECT_GT(prof.total_ns("move"), 0u);
  EXPECT_GT(prof.total_ns("inject"), 0u);
  EXPECT_GT(prof.total_ns("round"), 0u);
  bool saw_round_1 = false;
  for (const obs::PhaseProfiler::Span& s : prof.spans())
    if (s.round == 1) saw_round_1 = true;
  EXPECT_TRUE(saw_round_1);
}

}  // namespace
}  // namespace cellflow
