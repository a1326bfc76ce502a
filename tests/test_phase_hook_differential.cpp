// Differential pinning of the hook-observed intermediate states of a
// round — x →Route→ xR →Signal→ xS →Move→ x′ →inject (Lemma 3) — across
// every engine: serial, parallel(2), parallel(4) and parallel_auto(2),
// each under both round schedulers, run side by side on a side-32 grid
// with a seeded crowd, fail/recover churn and, on some seeds, a stateful
// RandomChoose (which pins Signal to one in-order pass). A PhaseHook
// records snapshot::state_digest at all four UpdatePhase points; every
// engine must agree with the serial exhaustive reference at every point
// of every round, and the protocol metrics' `_count` lines must match.
// The parallel_auto(2) active-set engine also carries a profiler and
// engine telemetry, which must perturb nothing and must show that the
// engine pooled some rounds, so the hooked pooled plan is exercised.
//
// (Suite name deliberately contains "Differential" so the TSan ctest
// lane picks it up.)
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/choose.hpp"
#include "core/system.hpp"
#include "obs/engine_telemetry.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "snapshot/snapshot.hpp"
#include "util/rng.hpp"

namespace cellflow {
namespace {

constexpr int kSide = 32;
constexpr int kRounds = 50;

// Histogram `_count` sample lines of the exposition, in exposition order.
std::string count_lines(const obs::MetricsRegistry& reg) {
  std::istringstream in(obs::to_prometheus(reg));
  std::string line, out;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.find("_count") != std::string::npos) out += line + '\n';
  }
  return out;
}

struct Engine {
  std::string label;
  std::unique_ptr<System> sys;
  obs::MetricsRegistry reg;
  std::vector<std::uint64_t> seen;  ///< this round's hook digests
};

class PhaseHookDifferential : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(PhaseHookDifferential, EveryEngineAgreesAtEveryPhasePoint) {
  const std::uint64_t seed = GetParam();
  Xoshiro256 rng(seed * 7919 + 3);
  const auto u = [&rng](int n) {
    return static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(n)));
  };

  SystemConfig cfg;
  cfg.side = kSide;
  const double l = rng.uniform(0.1, 0.3);
  const double rs = rng.uniform(0.05, 0.95 - l);
  cfg.params = Params(l, rs, rng.uniform(0.05, l));
  cfg.target = CellId{u(kSide), u(kSide)};
  cfg.sources.clear();
  while (cfg.sources.size() < 3) {
    const CellId c{u(kSide), u(kSide)};
    if (c != cfg.target) cfg.sources.push_back(c);
  }
  cfg.movement_rule =
      seed % 2 == 0 ? MovementRule::kCoupled : MovementRule::kCompacting;
  const bool stateful_choose = seed % 3 == 0;

  // The crowd: one entity at the center of about half the cells.
  std::vector<CellId> crowd;
  for (int j = 0; j < kSide; ++j)
    for (int i = 0; i < kSide; ++i)
      if (CellId{i, j} != cfg.target && rng.bernoulli(0.5))
        crowd.push_back(CellId{i, j});

  const ParallelPolicy policies[] = {
      ParallelPolicy::serial(), ParallelPolicy::parallel(2),
      ParallelPolicy::parallel(4), ParallelPolicy::parallel_auto(2)};
  const RoundScheduler schedulers[] = {RoundScheduler::kExhaustive,
                                       RoundScheduler::kActiveSet};
  std::vector<std::unique_ptr<Engine>> engines;
  for (const RoundScheduler sched : schedulers) {
    for (const ParallelPolicy& policy : policies) {
      auto e = std::make_unique<Engine>();
      e->label = std::string(sched == RoundScheduler::kExhaustive
                                 ? "exhaustive"
                                 : "active") +
                 " threads=" + std::to_string(policy.num_threads) +
                 (policy.cutover == ParallelPolicy::Cutover::kAuto ? " auto"
                                                                   : "");
      std::unique_ptr<ChoosePolicy> choose;
      if (stateful_choose) choose = std::make_unique<RandomChoose>(seed);
      e->sys = std::make_unique<System>(cfg, std::move(choose));
      for (const CellId c : crowd)
        e->sys->seed_entity(c, Vec2{c.i + 0.5, c.j + 0.5});
      e->sys->set_round_scheduler(sched);
      e->sys->set_parallel_policy(policy);
      e->sys->set_metrics(&e->reg);
      Engine* self = e.get();
      e->sys->set_phase_hook([self](const System& s, UpdatePhase) {
        self->seen.push_back(snapshot::state_digest(s));
      });
      engines.push_back(std::move(e));
    }
  }
  Engine& ref = *engines.front();  // serial, exhaustive
  Engine& observed = *engines.back();  // parallel_auto(2), active set
  obs::MetricsRegistry tel_reg;
  obs::EngineTelemetry telemetry(tel_reg);
  obs::PhaseProfiler profiler;
  observed.sys->set_telemetry(&telemetry);
  observed.sys->set_profiler(&profiler);

  for (int round = 0; round < kRounds; ++round) {
    // Identical scripted fail/recover churn for every engine.
    for (const CellId id : ref.sys->grid().all_cells()) {
      const bool failed = ref.sys->cell(id).failed;
      if (failed ? rng.bernoulli(0.1) : rng.bernoulli(0.004)) {
        for (const auto& e : engines) {
          if (failed)
            e->sys->recover(id);
          else
            e->sys->fail(id);
        }
      }
    }
    for (const auto& e : engines) {
      e->seen.clear();
      e->sys->update();
    }
    ASSERT_EQ(ref.seen.size(), 4u) << "hook must fire at all four points";
    for (const auto& e : engines) {
      ASSERT_EQ(e->seen, ref.seen)
          << e->label << " diverged at a phase point, round " << round;
    }
  }

  const std::string want = count_lines(ref.reg);
  ASSERT_FALSE(want.empty());
  for (const auto& e : engines)
    EXPECT_EQ(count_lines(e->reg), want) << e->label;

  const obs::EngineTelemetry::Totals& t = telemetry.totals();
  EXPECT_EQ(t.rounds, static_cast<std::uint64_t>(kRounds));
  // Round 0 never cuts over, so pooling must show up beyond it.
  EXPECT_GT(t.rounds - t.rounds_cutover, 1u) << "the auto engine never pooled";
  EXPECT_GT(profiler.total_ns("round"), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PhaseHookDifferential,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace cellflow
