// Differential pinning of the serial-cutover engine selector: because
// every engine (serial loop, pooled stage plan, kAuto cutover) is
// bit-identical, the policy may be flipped BETWEEN ROUNDS at will — even
// across a snapshot/restore — without the execution noticing. 48 seeds
// cycle serial -> parallel -> parallel_auto per round against a pinned
// serial reference; a fourth engine is snapshot/restored mid-run and must
// re-converge digest-for-digest. Prometheus histogram `_count` lines are
// compared too (timing *values* are wall-clock and excluded; the sample
// COUNTS are part of the determinism contract — a cutover round must
// still record exactly one breakdown).
//
// (Suite name deliberately contains "Differential" so the TSan ctest
// lane picks it up.)
#include <gtest/gtest.h>

#include <algorithm>
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
#include "snapshot/snapshot.hpp"
#include "util/rng.hpp"

namespace cellflow {
namespace {

// The per-round policy cycle. Mixes thread counts, both cutover modes,
// and the plain serial loop; seeded so different scenarios hit different
// flip sequences. `phase` offsets the cycle so two engines in the same
// scenario disagree on which engine runs any given round.
ParallelPolicy policy_for(std::uint64_t seed, int round, int phase) {
  switch ((seed + static_cast<std::uint64_t>(round + phase)) % 6) {
    case 0: return ParallelPolicy::serial();
    case 1: return ParallelPolicy::parallel(2);
    case 2: return ParallelPolicy::parallel_auto(4);
    case 3: return ParallelPolicy::parallel(8);
    case 4: return ParallelPolicy::parallel_auto(2);
    default: return ParallelPolicy::parallel_auto(8);
  }
}

// Histogram `_count` sample lines of the exposition, in exposition
// order. Timing values (sums, buckets) and the wake/dispatch counters
// are engine-dependent by design; the sample counts are not.
std::string count_lines(const obs::MetricsRegistry& reg) {
  std::istringstream in(obs::to_prometheus(reg));
  std::string line, out;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.find("_count") != std::string::npos) out += line + '\n';
  }
  return out;
}

struct Scenario {
  std::uint64_t seed;
};

void PrintTo(const Scenario& s, std::ostream* os) { *os << "seed=" << s.seed; }

class CutoverDifferential : public ::testing::TestWithParam<Scenario> {};

TEST_P(CutoverDifferential, BitIdenticalAcrossPolicyFlipsAndRestore) {
  const std::uint64_t seed = GetParam().seed;
  Xoshiro256 rng(seed * 9421 + 7);

  const auto u = [&rng](int n) {
    return static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(n)));
  };

  // Same random envelope as tests/test_parallel_system.cpp.
  const int side = 4 + static_cast<int>(rng.below(5));  // 4..8
  const double l = rng.uniform(0.1, 0.35);
  const double rs = rng.uniform(0.05, std::min(0.4, 0.95 - l));
  const double v = rng.uniform(0.05, l);
  const CellId target{u(side), u(side)};
  std::vector<CellId> sources;
  const std::size_t n_sources = 1 + rng.below(2);
  while (sources.size() < n_sources) {
    const CellId c{u(side), u(side)};
    if (c == target) continue;
    if (std::find(sources.begin(), sources.end(), c) != sources.end())
      continue;
    sources.push_back(c);
  }

  SystemConfig cfg;
  cfg.side = side;
  cfg.params = Params(l, rs, v);
  cfg.target = target;
  cfg.sources = sources;
  cfg.movement_rule =
      (seed % 2 == 0) ? MovementRule::kCoupled : MovementRule::kCompacting;
  cfg.signal_rule =
      (seed % 5 == 0) ? SignalRule::kAlwaysGrant : SignalRule::kBlocking;

  // ref: pinned serial, instrumented. flip: policy flipped every round,
  // instrumented (telemetry rides the same stage plan). bare: policy
  // flipped on a different cycle phase, uninstrumented.
  System ref{cfg};
  ref.set_parallel_policy(ParallelPolicy::serial());
  obs::MetricsRegistry reg_ref;
  obs::EngineTelemetry tel_ref(reg_ref);
  ref.set_metrics(&reg_ref);
  ref.set_telemetry(&tel_ref);

  System flip{cfg};
  obs::MetricsRegistry reg_flip;
  obs::EngineTelemetry tel_flip(reg_flip);
  flip.set_metrics(&reg_flip);
  flip.set_telemetry(&tel_flip);

  System bare{cfg};

  // restored: forked from `bare` via snapshot at kForkRound, rebuilt with
  // a policy the donor never ran that round, then flipped per round on
  // its own cycle phase. Must shadow the reference exactly from the fork.
  constexpr int kForkRound = 24;
  std::unique_ptr<System> restored;

  for (int round = 0; round < 60; ++round) {
    flip.set_parallel_policy(policy_for(seed, round, 0));
    bare.set_parallel_policy(policy_for(seed, round, 1));
    if (restored) restored->set_parallel_policy(policy_for(seed, round, 2));

    // Identical scripted fail/recover schedule for every engine.
    for (const CellId id : ref.grid().all_cells()) {
      if (ref.cell(id).failed) {
        if (rng.bernoulli(0.05)) {
          ref.recover(id);
          flip.recover(id);
          bare.recover(id);
          if (restored) restored->recover(id);
        }
      } else if (rng.bernoulli(0.012)) {
        ref.fail(id);
        flip.fail(id);
        bare.fail(id);
        if (restored) restored->fail(id);
      }
    }

    ref.update();
    flip.update();
    bare.update();
    if (restored) restored->update();

    const std::uint64_t want = snapshot::state_digest(ref);
    ASSERT_EQ(want, snapshot::state_digest(flip))
        << "flip engine diverged, round " << round;
    ASSERT_EQ(want, snapshot::state_digest(bare))
        << "bare engine diverged, round " << round;
    if (restored) {
      ASSERT_EQ(want, snapshot::state_digest(*restored))
          << "restored engine diverged, round " << round;
    }

    if (round == kForkRound) {
      const std::vector<std::uint8_t> bytes = snapshot::save(bare);
      restored = std::make_unique<System>(cfg);
      restored->set_parallel_policy(ParallelPolicy::parallel_auto(4));
      snapshot::restore(*restored, bytes);
      ASSERT_EQ(want, snapshot::state_digest(*restored)) << "restore";
    }
  }

  // Every histogram must have sampled the same number of rounds on both
  // instrumented engines, cutover rounds included.
  EXPECT_EQ(count_lines(reg_ref), count_lines(reg_flip));
}

std::vector<Scenario> scenarios() {
  std::vector<Scenario> out;
  for (std::uint64_t s = 1; s <= 48; ++s) out.push_back({s});
  return out;
}

INSTANTIATE_TEST_SUITE_P(Seeds, CutoverDifferential,
                         ::testing::ValuesIn(scenarios()));

}  // namespace
}  // namespace cellflow
