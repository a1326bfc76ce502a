// Differential pinning of the hook-observed intermediate states of a
// round — x →Route→ xR →Signal→ xS →Move→ x′ →inject (Lemma 3) — across
// every engine: serial, parallel(2), parallel(4) and parallel_auto(2),
// each under both round schedulers, run side by side on a side-32 grid
// with a seeded crowd, fail/recover churn and, on some seeds, a stateful
// RandomChoose (which pins Signal to one in-order pass). A PhaseHook
// records snapshot::state_digest at all four UpdatePhase points; every
// engine must agree with the serial exhaustive reference at every point
// of every round, and the protocol metrics' `_count` lines must match.
// The parallel(2) active-set engine also carries a profiler and engine
// telemetry, which must perturb nothing and must show that the engine
// pooled its rounds, so the hooked pooled plan is exercised. The
// parallel_auto(2) active-set engine carries telemetry too: a side-32
// round is far below the kAuto cutover estimate, so every round after
// round 0 must run inline.
// chunk::ChunkedSystem's hook fires at the same points of the same plan:
// its legs (the same four policies under its one scheduler, active-set,
// on a grid of 2×2 chunks so the pooled legs shard) must record the dense
// exhaustive reference's digests, which the chunked state_digest is built
// to be comparable with.
//
// (Suite name deliberately contains "Differential" so the TSan ctest
// lane picks it up.)
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "chunk/chunked_system.hpp"
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
constexpr int kChunkedSide = 48;  // 2×2 chunks
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

template <class Sys>
struct Engine {
  std::string label;
  std::unique_ptr<Sys> sys;
  obs::MetricsRegistry reg;
  std::vector<std::uint64_t> seen;  ///< this round's hook digests
};

/// One seeded configuration: a random geometry with three sources, a
/// crowd with one entity at the center of about half the cells, and
/// whether the choose policy is the stateful RandomChoose. `rng` goes on
/// to drive the fail/recover churn.
struct Scenario {
  SystemConfig cfg;
  std::vector<CellId> crowd;
  bool stateful_choose = false;
};

Scenario make_scenario(std::uint64_t seed, int side, Xoshiro256& rng) {
  const auto u = [&rng](int n) {
    return static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(n)));
  };
  Scenario sc;
  SystemConfig& cfg = sc.cfg;
  cfg.side = side;
  const double l = rng.uniform(0.1, 0.3);
  const double rs = rng.uniform(0.05, 0.95 - l);
  cfg.params = Params(l, rs, rng.uniform(0.05, l));
  cfg.target = CellId{u(side), u(side)};
  cfg.sources.clear();
  while (cfg.sources.size() < 3) {
    const CellId c{u(side), u(side)};
    if (c != cfg.target) cfg.sources.push_back(c);
  }
  cfg.movement_rule =
      seed % 2 == 0 ? MovementRule::kCoupled : MovementRule::kCompacting;
  sc.stateful_choose = seed % 3 == 0;
  for (int j = 0; j < side; ++j)
    for (int i = 0; i < side; ++i)
      if (CellId{i, j} != cfg.target && rng.bernoulli(0.5))
        sc.crowd.push_back(CellId{i, j});
  return sc;
}

const ParallelPolicy kPolicies[] = {
    ParallelPolicy::serial(), ParallelPolicy::parallel(2),
    ParallelPolicy::parallel(4), ParallelPolicy::parallel_auto(2)};
const RoundScheduler kSchedulers[] = {RoundScheduler::kExhaustive,
                                      RoundScheduler::kActiveSet};

/// Builds one leg of `sc`: crowd seeded, engine configured, metrics on,
/// and a hook recording state_digest at every phase point.
template <class Sys>
std::unique_ptr<Engine<Sys>> make_leg(const Scenario& sc, std::uint64_t seed,
                                      RoundScheduler sched,
                                      const ParallelPolicy& policy) {
  auto e = std::make_unique<Engine<Sys>>();
  e->label = std::string(sched == RoundScheduler::kExhaustive ? "exhaustive"
                                                              : "active") +
             " threads=" + std::to_string(policy.num_threads) +
             (policy.cutover == ParallelPolicy::Cutover::kAuto ? " auto" : "");
  std::unique_ptr<ChoosePolicy> choose;
  if (sc.stateful_choose) choose = std::make_unique<RandomChoose>(seed);
  e->sys = std::make_unique<Sys>(sc.cfg, std::move(choose));
  for (const CellId c : sc.crowd)
    e->sys->seed_entity(c, Vec2{c.i + 0.5, c.j + 0.5});
  e->sys->set_round_scheduler(sched);
  e->sys->set_parallel_policy(policy);
  e->sys->set_metrics(&e->reg);
  Engine<Sys>* self = e.get();
  e->sys->set_phase_hook([self](const Sys& s, UpdatePhase) {
    self->seen.push_back(snapshot::state_digest(s));
  });
  return e;
}

/// Identical scripted fail/recover churn for every leg, decided on `ref`.
template <class... Legs>
void churn(const System& ref, Xoshiro256& rng, Legs&... legs) {
  for (const CellId id : ref.grid().all_cells()) {
    const bool failed = ref.cell(id).failed;
    if (failed ? rng.bernoulli(0.1) : rng.bernoulli(0.004)) {
      const auto apply = [&](auto& group) {
        for (const auto& e : group) {
          if (failed)
            e->sys->recover(id);
          else
            e->sys->fail(id);
        }
      };
      (apply(legs), ...);
    }
  }
}

class PhaseHookDifferential : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(PhaseHookDifferential, EveryEngineAgreesAtEveryPhasePoint) {
  const std::uint64_t seed = GetParam();
  Xoshiro256 rng(seed * 7919 + 3);
  const Scenario sc = make_scenario(seed, kSide, rng);

  std::vector<std::unique_ptr<Engine<System>>> engines;
  for (const RoundScheduler sched : kSchedulers)
    for (const ParallelPolicy& policy : kPolicies)
      engines.push_back(make_leg<System>(sc, seed, sched, policy));
  Engine<System>& ref = *engines.front();  // serial, exhaustive
  Engine<System>& pooled = *engines[std::size(kPolicies) + 1];  // parallel(2)
  Engine<System>& automatic = *engines.back();  // parallel_auto(2), active
  obs::MetricsRegistry tel_reg;
  obs::EngineTelemetry telemetry(tel_reg);
  obs::PhaseProfiler profiler;
  pooled.sys->set_telemetry(&telemetry);
  pooled.sys->set_profiler(&profiler);
  obs::MetricsRegistry auto_tel_reg;
  obs::EngineTelemetry auto_telemetry(auto_tel_reg);
  automatic.sys->set_telemetry(&auto_telemetry);

  for (int round = 0; round < kRounds; ++round) {
    churn(*ref.sys, rng, engines);
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
  EXPECT_GT(t.rounds - t.rounds_cutover, 1u) << "the pooled engine never pooled";
  EXPECT_GT(profiler.total_ns("round"), 0u);
  // Round 0 never cuts over; every later side-32 round does.
  const obs::EngineTelemetry::Totals& a = auto_telemetry.totals();
  EXPECT_EQ(a.rounds, static_cast<std::uint64_t>(kRounds));
  EXPECT_EQ(a.rounds_cutover, static_cast<std::uint64_t>(kRounds - 1));
}

TEST_P(PhaseHookDifferential, ChunkedLegsAgreeWithDenseAtEveryPhasePoint) {
  const std::uint64_t seed = GetParam();
  Xoshiro256 rng(seed * 104729 + 5);
  const Scenario sc = make_scenario(seed, kChunkedSide, rng);

  std::vector<std::unique_ptr<Engine<System>>> dense;
  dense.push_back(make_leg<System>(sc, seed, RoundScheduler::kExhaustive,
                                   ParallelPolicy::serial()));
  Engine<System>& ref = *dense.front();
  std::vector<std::unique_ptr<Engine<chunk::ChunkedSystem>>> legs;
  for (const ParallelPolicy& policy : kPolicies)
    legs.push_back(make_leg<chunk::ChunkedSystem>(
        sc, seed, RoundScheduler::kActiveSet, policy));

  for (int round = 0; round < kRounds; ++round) {
    churn(*ref.sys, rng, dense, legs);
    ref.seen.clear();
    ref.sys->update();
    for (const auto& e : legs) {
      e->seen.clear();
      e->sys->update();
    }
    ASSERT_EQ(ref.seen.size(), 4u) << "hook must fire at all four points";
    for (const auto& e : legs) {
      ASSERT_EQ(e->seen, ref.seen)
          << "chunked " << e->label << " diverged at a phase point, round "
          << round;
    }
  }

  const std::string want = count_lines(ref.reg);
  ASSERT_FALSE(want.empty());
  for (const auto& e : legs)
    EXPECT_EQ(count_lines(e->reg), want) << "chunked " << e->label;
}

INSTANTIATE_TEST_SUITE_P(Seeds, PhaseHookDifferential,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace cellflow
