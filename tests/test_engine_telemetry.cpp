// EngineTelemetry contract tests (DESIGN.md §7): timings live OUTSIDE
// the determinism contract, but the metric *event structure* lives
// inside it — one histogram observation per round per family, one
// imbalance observation per phase per round — so the observation COUNTS
// must be bit-identical across ParallelPolicy thread counts even though
// every observed value differs. Also pins: telemetry is
// observation-only (attaching it perturbs no protocol state), the
// component decomposition actually explains the round wall clock, and
// the worker/counter tracks in the Chrome-trace export. The first two
// contracts also run on chunk::ChunkedSystem, whose round is the same
// driver: at one chunk (side 8, never pooled) and at 3×3 chunks (side 70,
// whose pooled stages shard live-chunk slices).
#include "obs/engine_telemetry.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "chunk/chunked_system.hpp"
#include "core/system.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "snapshot/snapshot.hpp"

namespace cellflow {
namespace {

SystemConfig telemetry_config(int side = 8) {
  SystemConfig cfg;
  cfg.side = side;
  cfg.params = Params(0.25, 0.05, 0.1);
  cfg.target = CellId{side - 1, side / 2};
  cfg.sources = {CellId{0, 1}, CellId{0, side - 2}};
  return cfg;
}

constexpr int kChunkedSides[] = {8, 70};
const ParallelPolicy kChunkedPolicies[] = {ParallelPolicy::serial(),
                                           ParallelPolicy::parallel(2)};

/// Every Prometheus line that carries an observation/sample COUNT (the
/// deterministic part of a histogram family) — values and sums are
/// timing-dependent and excluded.
std::vector<std::string> count_lines(const std::string& prom) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos < prom.size()) {
    const std::size_t eol = prom.find('\n', pos);
    const std::string line = prom.substr(pos, eol - pos);
    if (line.find("_count") != std::string::npos) out.push_back(line);
    if (eol == std::string::npos) break;
    pos = eol + 1;
  }
  return out;
}

template <class Engine = System>
std::uint64_t run_with_telemetry(const ParallelPolicy& policy, int rounds,
                                 std::string* prom_out, int side = 8) {
  Engine sys(telemetry_config(side));
  sys.set_parallel_policy(policy);
  obs::MetricsRegistry reg;
  obs::EngineTelemetry telemetry(reg);
  sys.set_telemetry(&telemetry);
  for (int r = 0; r < rounds; ++r) sys.update();
  if (prom_out != nullptr) *prom_out = obs::to_prometheus(reg);
  return sys.total_arrivals();
}

TEST(Telemetry, ObservationCountsIdenticalAcrossThreadCounts) {
  constexpr int kRounds = 40;
  std::string serial_prom;
  const std::uint64_t serial_arrivals =
      run_with_telemetry(ParallelPolicy::serial(), kRounds, &serial_prom);
  const std::vector<std::string> serial_counts = count_lines(serial_prom);
  ASSERT_FALSE(serial_counts.empty());
  for (const int threads : {1, 2, 4}) {
    std::string prom;
    const std::uint64_t arrivals =
        run_with_telemetry(ParallelPolicy::parallel(threads), kRounds, &prom);
    EXPECT_EQ(arrivals, serial_arrivals) << threads << " threads";
    EXPECT_EQ(count_lines(prom), serial_counts)
        << "observation counts diverged at " << threads << " threads";
  }
  for (const int side : kChunkedSides) {
    for (const ParallelPolicy& policy : kChunkedPolicies) {
      std::string prom;
      const std::uint64_t arrivals = run_with_telemetry<chunk::ChunkedSystem>(
          policy, kRounds, &prom, side);
      if (side == 8) {
        EXPECT_EQ(arrivals, serial_arrivals);
      }
      EXPECT_EQ(count_lines(prom), serial_counts)
          << "chunked observation counts diverged at side " << side << ", "
          << policy.num_threads << " threads";
    }
  }
}

TEST(Telemetry, AttachingTelemetryPerturbsNoProtocolState) {
  System bare(telemetry_config());
  System observed(telemetry_config());
  obs::MetricsRegistry reg;
  obs::EngineTelemetry telemetry(reg);
  observed.set_telemetry(&telemetry);
  for (int r = 0; r < 60; ++r) {
    bare.update();
    observed.update();
  }
  EXPECT_EQ(bare.total_arrivals(), observed.total_arrivals());
  EXPECT_EQ(bare.total_injected(), observed.total_injected());
  for (const CellId id : bare.grid().all_cells()) {
    const CellState& a = bare.cell(id);
    const CellState& b = observed.cell(id);
    ASSERT_EQ(a.dist, b.dist) << to_string(id);
    ASSERT_EQ(a.next, b.next) << to_string(id);
    ASSERT_EQ(a.token, b.token) << to_string(id);
    ASSERT_EQ(a.signal, b.signal) << to_string(id);
    ASSERT_EQ(a.members, b.members) << to_string(id);
  }
  for (const int side : kChunkedSides) {
    for (const ParallelPolicy& policy : kChunkedPolicies) {
      chunk::ChunkedSystem plain(telemetry_config(side));
      chunk::ChunkedSystem timed(telemetry_config(side));
      plain.set_parallel_policy(policy);
      timed.set_parallel_policy(policy);
      obs::MetricsRegistry chunked_reg;
      obs::EngineTelemetry chunked_telemetry(chunked_reg);
      obs::PhaseProfiler profiler;
      timed.set_telemetry(&chunked_telemetry);
      timed.set_profiler(&profiler);
      for (int r = 0; r < 60; ++r) {
        plain.update();
        timed.update();
        ASSERT_EQ(snapshot::state_digest(plain), snapshot::state_digest(timed))
            << "side " << side << ", " << policy.num_threads
            << " threads, round " << r;
      }
      // Side 8 is one chunk, so no round pools; side 70 pins three
      // chunks live (the target's and both sources'), so every
      // parallel(2) round does.
      const bool pools = side == 70 && policy.num_threads > 1;
      EXPECT_EQ(chunked_telemetry.totals().rounds, 60u);
      EXPECT_EQ(chunked_telemetry.totals().dispatches, pools ? 60u : 0u);
    }
  }
}

TEST(Telemetry, ComponentsExplainTheRoundOnTheSerialEngine) {
  System sys(telemetry_config());
  obs::MetricsRegistry reg;
  obs::EngineTelemetry telemetry(reg);
  sys.set_telemetry(&telemetry);
  for (int r = 0; r < 50; ++r) sys.update();
  const obs::EngineTelemetry::Totals& t = telemetry.totals();
  EXPECT_EQ(t.rounds, 50u);
  EXPECT_GT(t.round_ns, 0u);
  EXPECT_GT(t.work_ns, 0u);
  // Serial engine: no pool, so the pooled components must be zero and
  // work alone must explain (almost) the whole round. The 0.5 floor is
  // deliberately far below the ~0.97 measured even on a loaded box —
  // the test pins "accounting works", not a performance number.
  EXPECT_EQ(t.barrier_wait_ns, 0u);
  EXPECT_EQ(t.dispatch_ns, 0u);
  EXPECT_EQ(t.merge_ns, 0u);
  EXPECT_GT(t.coverage(), 0.5);
  EXPECT_LE(t.accounted_ns(), t.round_ns);
  EXPECT_GE(t.serial_fraction(), 0.0);
  EXPECT_LE(t.serial_fraction(), 1.0);
}

TEST(Telemetry, ComponentsDecomposePooledRounds) {
  System sys(telemetry_config());
  sys.set_parallel_policy(ParallelPolicy::parallel(2));
  obs::MetricsRegistry reg;
  obs::EngineTelemetry telemetry(reg);
  sys.set_telemetry(&telemetry);
  for (int r = 0; r < 50; ++r) sys.update();
  const obs::EngineTelemetry::Totals& t = telemetry.totals();
  EXPECT_EQ(t.rounds, 50u);
  EXPECT_GT(t.work_ns, 0u);
  // Pooled rounds went through dispatch at least once per phase.
  EXPECT_GT(t.dispatch_ns + t.barrier_wait_ns, 0u);
  // Wall-equivalent components of a round cannot exceed its wall (each
  // pooled phase's components sum to exactly that phase's batch span);
  // a generous epsilon absorbs the per-phase integer truncation.
  EXPECT_LE(t.accounted_ns(), t.round_ns + t.rounds * 64);
  EXPECT_GT(t.coverage(), 0.3);
  const double imb_mean =
      t.imbalance_route_sum / static_cast<double>(t.rounds);
  EXPECT_GE(imb_mean, 1.0);
}

TEST(Telemetry, ResetTotalsZeroesTheAggregateOnly) {
  System sys(telemetry_config());
  obs::MetricsRegistry reg;
  obs::EngineTelemetry telemetry(reg);
  sys.set_telemetry(&telemetry);
  for (int r = 0; r < 5; ++r) sys.update();
  ASSERT_EQ(telemetry.totals().rounds, 5u);
  telemetry.reset_totals();
  EXPECT_EQ(telemetry.totals().rounds, 0u);
  EXPECT_EQ(telemetry.totals().round_ns, 0u);
  sys.update();
  EXPECT_EQ(telemetry.totals().rounds, 1u);
}

TEST(Telemetry, TraceExportCarriesWorkerLanesAndCounterTracks) {
  System sys(telemetry_config());
  sys.set_parallel_policy(ParallelPolicy::parallel(2));
  obs::MetricsRegistry reg;
  obs::EngineTelemetry telemetry(reg);
  obs::PhaseProfiler profiler;
  sys.set_telemetry(&telemetry);
  sys.set_profiler(&profiler);
  for (int r = 0; r < 20; ++r) sys.update();
  const std::string trace = obs::to_chrome_trace(profiler);
  // Per-worker spans (dispatch / work / barrier_wait) on named lanes.
  EXPECT_NE(trace.find("\"barrier_wait\""), std::string::npos);
  EXPECT_NE(trace.find("\"worker 0\""), std::string::npos);
  // Counter ("C") events for the imbalance and utilization tracks.
  EXPECT_NE(trace.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(trace.find("\"imbalance_route\""), std::string::npos);
  EXPECT_NE(trace.find("\"parallel_work_fraction\""), std::string::npos);
}

}  // namespace
}  // namespace cellflow
