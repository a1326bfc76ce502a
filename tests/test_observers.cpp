// Tests for the observer/instrumentation layer.
#include "sim/observers.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "failure/failure_model.hpp"
#include "helpers.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace cellflow {
namespace {

const Params kP(0.2, 0.1, 0.1);

TEST(ThroughputMeter, CountsArrivalsOverRounds) {
  System sys = testing::make_column_system(6, kP);
  NoFailures none;
  Simulator sim(sys, none);
  ThroughputMeter meter;
  sim.add_observer(meter);
  sim.run(1000);
  EXPECT_EQ(meter.rounds(), 1000u);
  EXPECT_EQ(meter.arrivals(), sys.total_arrivals());
  EXPECT_DOUBLE_EQ(meter.throughput(),
                   static_cast<double>(meter.arrivals()) / 1000.0);
  EXPECT_GT(meter.throughput(), 0.0);
}

TEST(ThroughputMeter, EmptyMeterReportsZero) {
  const ThroughputMeter meter;
  EXPECT_DOUBLE_EQ(meter.throughput(), 0.0);
  EXPECT_EQ(meter.rounds(), 0u);
}

TEST(ThroughputMeter, WindowedSeriesHasExpectedShape) {
  System sys = testing::make_column_system(6, kP);
  NoFailures none;
  Simulator sim(sys, none);
  ThroughputMeter meter(100);
  sim.add_observer(meter);
  sim.run(1000);
  ASSERT_EQ(meter.windowed().size(), 10u);
  // Warmup: the first window (pipeline filling) has lower throughput than
  // the steady-state tail.
  const auto& w = meter.windowed();
  EXPECT_LT(w.front(), w.back() + 1e-12);
  // Windowed means average to the global throughput.
  double sum = 0.0;
  for (const double x : w) sum += x;
  EXPECT_NEAR(sum / 10.0, meter.throughput(), 1e-9);
}

TEST(SafetyMonitor, CleanOnHealthyRun) {
  System sys = testing::make_column_system(5, kP);
  NoFailures none;
  Simulator sim(sys, none);
  SafetyMonitor safety;
  sim.add_observer(safety);
  sim.run(300);
  EXPECT_TRUE(safety.clean());
  EXPECT_EQ(safety.report(), "0 violation(s)");
}

TEST(SafetyMonitor, FlagsInjectedViolation) {
  System sys = testing::make_column_system(5, kP);
  sys.seed_entity_unchecked(CellId{3, 3}, Vec2{3.5, 3.5});
  sys.seed_entity_unchecked(CellId{3, 3}, Vec2{3.55, 3.55});
  NoFailures none;
  Simulator sim(sys, none);
  SafetyMonitor safety;
  sim.add_observer(safety);
  sim.run(1);
  EXPECT_FALSE(safety.clean());
  EXPECT_NE(safety.report().find("Safe"), std::string::npos);
}

TEST(RoutingStabilizationMonitor, DetectsConvergenceRound) {
  System sys = testing::make_column_system(8, kP);
  NoFailures none;
  Simulator sim(sys, none);
  RoutingStabilizationMonitor monitor;
  sim.add_observer(monitor);
  sim.run(50);
  ASSERT_TRUE(monitor.stabilized_at().has_value());
  // Fresh 8×8 grid converges within the Manhattan diameter (13) + 1.
  EXPECT_LE(*monitor.stabilized_at(), 14u);
}

TEST(RoutingStabilizationMonitor, ResetsOnTopologyChange) {
  System sys = testing::make_column_system(6, kP);
  ScriptedFailures failures({{30, CellId{1, 3}, false}});
  Simulator sim(sys, failures);
  RoutingStabilizationMonitor monitor;
  sim.add_observer(monitor);
  sim.run(200);
  ASSERT_TRUE(monitor.stabilized_at().has_value());
  EXPECT_GE(*monitor.stabilized_at(), 30u);
}

TEST(BlockingStats, CountsMovesAndBlocks) {
  System sys = testing::make_column_system(6, kP);
  NoFailures none;
  Simulator sim(sys, none);
  BlockingStats stats;
  sim.add_observer(stats);
  sim.run(500);
  EXPECT_EQ(stats.rounds(), 500u);
  EXPECT_GT(stats.total_moves(), 0u);
  EXPECT_GT(stats.total_blocks(), 0u);  // saturating source must block sometimes
  EXPECT_GT(stats.mean_moving_per_round(), 0.0);
  EXPECT_GT(stats.mean_blocked_per_round(), 0.0);
}

TEST(OccupancyTracker, TracksPopulationAndPeak) {
  System sys = testing::make_column_system(6, kP);
  NoFailures none;
  Simulator sim(sys, none);
  OccupancyTracker occ;
  sim.add_observer(occ);
  sim.run(500);
  EXPECT_EQ(occ.population().count(), 500u);
  EXPECT_GT(occ.population().mean(), 0.0);
  EXPECT_GE(occ.peak_cell_occupancy(), 1u);
  // d = 0.3 on a unit cell: at most a 4-per-axis lattice even in theory.
  EXPECT_LE(occ.peak_cell_occupancy(), 16u);
}

TEST(ProgressTracker, MeasuresLatencies) {
  System sys = testing::make_column_system(6, kP);
  NoFailures none;
  Simulator sim(sys, none);
  ProgressTracker progress;
  sim.add_observer(progress);
  sim.run(1200);
  EXPECT_GT(progress.completed(), 0u);
  // 5 cells of travel at v = 0.1 with signaling overhead: latency must be
  // at least 1/v per cell traversed (≥ ~40 rounds) and finite.
  EXPECT_GT(progress.latency().mean(), 30.0);
  EXPECT_LT(progress.latency().mean(), 2000.0);
  EXPECT_LE(progress.latency().min(), progress.latency().mean());
}

TEST(ProgressTracker, InFlightMatchesSystemPopulation) {
  System sys = testing::make_column_system(6, kP);
  NoFailures none;
  Simulator sim(sys, none);
  ProgressTracker progress;
  sim.add_observer(progress);
  sim.run(700);
  EXPECT_EQ(progress.in_flight(), sys.entity_count());
}

// --- MetricsObserver's per-cell handles -----------------------------------

using CellTally = std::map<std::string, std::uint64_t>;  // "i,j" → count

std::string cell_label(CellId id) {
  return std::to_string(id.i) + "," + std::to_string(id.j);
}

/// The per-cell event counts, tallied the plain way.
class EventTally final : public Observer {
 public:
  void on_round(const System& /*sys*/, const RoundEvents& ev) override {
    for (const CellId id : ev.blocked) ++blocked[cell_label(id)];
    for (const CellId id : ev.moved) ++moved[cell_label(id)];
    for (const auto& [id, eid] : ev.injected) {
      (void)eid;
      ++injected[cell_label(id)];
    }
  }
  CellTally blocked;
  CellTally moved;
  CellTally injected;
};

/// The values of one per-cell family, keyed by its cell label.
CellTally family_values(const obs::MetricsRegistry& reg,
                        const std::string& name) {
  CellTally out;
  for (const obs::FamilySnapshot& f : reg.snapshot()) {
    if (f.name != name) continue;
    for (const obs::SeriesSnapshot& s : f.series)
      out[s.labels.at(0).value] = s.counter_value;
  }
  return out;
}

TEST(MetricsObserverHandles, PerCellCountersMatchTheEvents) {
  SystemConfig cfg;
  cfg.side = 40;  // 32×32 tiles, the second partial on each axis
  cfg.params = kP;
  cfg.sources = {CellId{38, 0}, CellId{1, 0}, CellId{0, 33}};
  cfg.target = CellId{20, 39};
  System sys(cfg);
  RandomFailRecover failures(0.01, 0.2, 5);
  Simulator sim(sys, failures);
  obs::MetricsRegistry reg;
  MetricsObserver metrics(reg);
  EventTally tally;
  sim.add_observer(metrics);
  sim.add_observer(tally);
  sim.run(400);
  ASSERT_GT(tally.blocked.size(), 0u);
  EXPECT_EQ(family_values(reg, "cellflow_cell_blocked_total"), tally.blocked);
  EXPECT_EQ(family_values(reg, "cellflow_cell_moved_total"), tally.moved);
  EXPECT_EQ(family_values(reg, "cellflow_cell_injected_total"),
            tally.injected);
}

TEST(MetricsObserverHandles, TileEdgesAndGridChangesKeepOneSeriesPerCell) {
  const System small = testing::make_column_system(8, kP);
  const System odd = testing::make_column_system(70, kP);  // 3×3 tiles
  obs::MetricsRegistry reg;
  MetricsObserver metrics(reg);
  const std::vector<CellId> edges{{0, 0},   {69, 69}, {31, 32}, {32, 31},
                                  {69, 0},  {0, 69},  {63, 64}, {64, 63},
                                  {31, 31}, {32, 32}, {3, 3}};
  RoundEvents ev;
  CellTally want;
  for (std::uint64_t round = 0; round < 6; ++round) {
    ev.clear();
    ev.round = round;
    for (std::size_t k = 0; k < edges.size(); ++k) {
      if ((k + round) % 2 == 0) continue;
      ev.moved.push_back(edges[k]);
      ++want[cell_label(edges[k])];
    }
    metrics.on_round(odd, ev);
    // The same observer on another grid: its tables are rebuilt, and the
    // cells they share resolve to the same series.
    ev.clear();
    ev.round = round;
    ev.moved = {CellId{3, 3}, CellId{7, 7}};
    ++want["3,3"];
    ++want["7,7"];
    metrics.on_round(small, ev);
  }
  EXPECT_EQ(family_values(reg, "cellflow_cell_moved_total"), want);
}

TEST(Simulator, RunUntilStopsEarly) {
  System sys = testing::make_column_system(6, kP);
  NoFailures none;
  Simulator sim(sys, none);
  const bool fired = sim.run_until(
      [](const System& s) { return s.total_arrivals() >= 3; }, 5000);
  EXPECT_TRUE(fired);
  EXPECT_EQ(sys.total_arrivals(), 3u);
}

TEST(Simulator, RunUntilRespectsMaxRounds) {
  System sys = testing::make_column_system(6, kP);
  NoFailures none;
  Simulator sim(sys, none);
  const bool fired = sim.run_until(
      [](const System&) { return false; }, 50);
  EXPECT_FALSE(fired);
  EXPECT_EQ(sys.round(), 50u);
}

}  // namespace
}  // namespace cellflow
