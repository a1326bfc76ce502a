// Differential pinning of the parallel round engine (ParallelPolicy):
// for randomized scenarios spanning grid sizes, source counts, failure
// schedules, both MovementRules and both SignalRules, the serial engine
// and the sharded engine at 1/2/4/8 threads must produce *bit-identical*
// full states and event streams after every round — not merely equivalent
// up to reordering. The §III-A oracles run on every round as well, so a
// parallelization bug cannot hide behind a self-consistent-but-wrong
// execution. Also pins the canonicalizations the contract rests on:
// transfer-merge order and source-list order are iteration-order
// invariant, and CELLFLOW_THREADS parsing fails loudly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/choose.hpp"
#include "core/predicates.hpp"
#include "core/system.hpp"
#include "failure/failure_model.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace cellflow {
namespace {

// Bit-exact comparison: every protocol variable of every cell, in exact
// stored order (members insertion order included — the engines must not
// even reorder within a cell).
void expect_bit_identical(const System& a, const System& b, int round,
                          const std::string& label) {
  ASSERT_EQ(a.round(), b.round()) << label << " round " << round;
  ASSERT_EQ(a.total_arrivals(), b.total_arrivals())
      << label << " round " << round;
  ASSERT_EQ(a.total_injected(), b.total_injected())
      << label << " round " << round;
  for (const CellId id : a.grid().all_cells()) {
    const CellState& ca = a.cell(id);
    const CellState& cb = b.cell(id);
    ASSERT_EQ(ca.failed, cb.failed) << label << " " << to_string(id);
    ASSERT_EQ(ca.dist, cb.dist) << label << " " << to_string(id);
    ASSERT_EQ(ca.next, cb.next) << label << " " << to_string(id);
    ASSERT_EQ(ca.token, cb.token) << label << " " << to_string(id);
    ASSERT_EQ(ca.signal, cb.signal) << label << " " << to_string(id);
    ASSERT_EQ(ca.ne_prev, cb.ne_prev) << label << " " << to_string(id);
    ASSERT_EQ(ca.members, cb.members)
        << label << " " << to_string(id) << " round " << round;
  }
}

// The RoundEvents streams must match element-for-element too: observers
// (traces, throughput meters, figure scripts) consume them directly.
void expect_identical_events(const RoundEvents& a, const RoundEvents& b,
                             int round, const std::string& label) {
  ASSERT_EQ(a.round, b.round) << label << " round " << round;
  ASSERT_EQ(a.arrivals, b.arrivals) << label << " round " << round;
  ASSERT_EQ(a.moved, b.moved) << label << " round " << round;
  ASSERT_EQ(a.blocked, b.blocked) << label << " round " << round;
  ASSERT_EQ(a.injected, b.injected) << label << " round " << round;
  ASSERT_EQ(a.transfers.size(), b.transfers.size())
      << label << " round " << round;
  for (std::size_t k = 0; k < a.transfers.size(); ++k) {
    const TransferEvent& ta = a.transfers[k];
    const TransferEvent& tb = b.transfers[k];
    ASSERT_EQ(ta.entity, tb.entity) << label << " round " << round;
    ASSERT_EQ(ta.from, tb.from) << label << " round " << round;
    ASSERT_EQ(ta.to, tb.to) << label << " round " << round;
    ASSERT_EQ(ta.consumed, tb.consumed) << label << " round " << round;
  }
}

struct Scenario {
  std::uint64_t seed;
};

void PrintTo(const Scenario& s, std::ostream* os) { *os << "seed=" << s.seed; }

class ParallelDifferential : public ::testing::TestWithParam<Scenario> {};

TEST_P(ParallelDifferential, BitIdenticalToSerialAtEveryThreadCount) {
  const std::uint64_t seed = GetParam().seed;
  Xoshiro256 rng(seed * 7919 + 13);

  const auto u = [&rng](int n) {
    return static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(n)));
  };

  // Random configuration, same envelope as tests/test_differential.cpp.
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
  // Every 5th seed runs the UNSAFE always-grant ablation: the engines
  // must agree bit-for-bit even on executions that violate Safe.
  cfg.signal_rule =
      (seed % 5 == 0) ? SignalRule::kAlwaysGrant : SignalRule::kBlocking;
  // Every 7th seed uses the stateful RandomChoose policy, which pins the
  // Signal phase to the serial loop even on a pool — equality must
  // hold through that path too. Each engine gets its own instance with
  // the same stream seed.
  const bool random_choose = (seed % 7 == 0);
  const auto choose = [&]() -> std::unique_ptr<ChoosePolicy> {
    return random_choose ? make_choose_policy("random", 1000 + seed) : nullptr;
  };

  System serial{cfg, choose()};
  serial.set_parallel_policy(ParallelPolicy::serial());
  const std::vector<int> thread_counts = {1, 2, 4, 8};
  std::vector<std::unique_ptr<System>> engines;
  for (const int t : thread_counts) {
    engines.push_back(std::make_unique<System>(cfg, choose()));
    engines.back()->set_parallel_policy(ParallelPolicy::parallel(t));
  }

  // Random but identical failure schedule, driven by the serial state.
  for (int round = 0; round < 60; ++round) {
    for (const CellId id : serial.grid().all_cells()) {
      if (serial.cell(id).failed) {
        if (rng.bernoulli(0.05)) {
          serial.recover(id);
          for (auto& e : engines) e->recover(id);
        }
      } else if (rng.bernoulli(0.012)) {
        serial.fail(id);
        for (auto& e : engines) e->fail(id);
      }
    }

    const RoundEvents serial_events = serial.update();
    for (std::size_t k = 0; k < engines.size(); ++k) {
      const RoundEvents& ev = engines[k]->update();
      const std::string label =
          "threads=" + std::to_string(thread_counts[k]);
      expect_bit_identical(serial, *engines[k], round, label);
      expect_identical_events(serial_events, ev, round, label);
    }

    // §III-A oracles, on the serial state and one parallel state. The
    // always-grant ablation violates Safe by design; there only the
    // structural invariant (disjoint Members) is meaningful.
    if (cfg.signal_rule == SignalRule::kBlocking) {
      for (const System* sys : {&serial, engines[1].get()}) {
        const auto violations = check_all(*sys);
        ASSERT_TRUE(violations.empty())
            << "round " << round << ": " << to_string(violations.front());
      }
    } else {
      for (const System* sys : {&serial, engines[1].get()}) {
        const auto violation = check_members_disjoint(*sys);
        ASSERT_FALSE(violation.has_value())
            << "round " << round << ": " << to_string(*violation);
      }
    }
  }
}

std::vector<Scenario> scenarios() {
  std::vector<Scenario> out;
  for (std::uint64_t s = 1; s <= 48; ++s) out.push_back({s});
  return out;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelDifferential,
                         ::testing::ValuesIn(scenarios()));

// The golden corridor of tests/test_golden_trace.cpp, replayed under the
// parallel engine: the pinned verbatim trace must come out of every
// thread count (ISSUE acceptance: 1, 2, and 8 threads).
TEST(ParallelGoldenTrace, PinnedTraceAtEveryThreadCount) {
  for (const int threads : {1, 2, 8}) {
    SystemConfig cfg;
    cfg.side = 3;
    cfg.params = Params(0.25, 0.25, 0.25);
    cfg.sources = {};
    cfg.target = CellId{2, 0};
    System sys(cfg, nullptr, std::make_unique<NullSource>());
    sys.set_parallel_policy(ParallelPolicy::parallel(threads));
    sys.seed_entity(CellId{0, 0}, Vec2{0.5, 0.5});

    NoFailures none;
    Simulator sim(sys, none);
    TraceRecorder trace;
    sim.add_observer(trace);
    sim.run(12);

    const std::string expected =
        "2 transfer p0 <0,0> -> <1,0>\n"
        "6 consume p0 <1,0> -> <2,0>\n";
    EXPECT_EQ(trace.serialize(), expected) << "threads=" << threads;
    EXPECT_EQ(sys.total_arrivals(), 1u) << "threads=" << threads;
  }
}

// --- active-set scheduler ---------------------------------------------
//
// Three-way differential for the active-set round scheduler: the
// reference exhaustive serial engine vs the active-set serial engine vs
// the active-set parallel engine at 1/2/4/8 threads, with fail/recover
// AND adversarial control-state corruption in the schedule (corruption
// is the hard case: it can plant a signal on an otherwise-empty cell and
// a non-adjacent next on an occupied one, both of which the scheduler's
// re-arm rules must chase). Bit-identical states and events required
// after every round, oracles checked throughout.
class ActiveSetDifferential : public ::testing::TestWithParam<Scenario> {};

TEST_P(ActiveSetDifferential, BitIdenticalToExhaustiveSerial) {
  const std::uint64_t seed = GetParam().seed;
  Xoshiro256 rng(seed * 6151 + 29);

  const auto u = [&rng](int n) {
    return static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(n)));
  };

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
  const bool random_choose = (seed % 7 == 0);
  const auto choose = [&]() -> std::unique_ptr<ChoosePolicy> {
    return random_choose ? make_choose_policy("random", 2000 + seed) : nullptr;
  };

  System exhaustive{cfg, choose()};
  exhaustive.set_parallel_policy(ParallelPolicy::serial());
  exhaustive.set_round_scheduler(RoundScheduler::kExhaustive);

  // kActiveSet is the construction default; assert rather than set, so a
  // future default change loudly invalidates this suite's premise.
  System active_serial{cfg, choose()};
  active_serial.set_parallel_policy(ParallelPolicy::serial());
  ASSERT_EQ(active_serial.round_scheduler(), RoundScheduler::kActiveSet);

  const std::vector<int> thread_counts = {1, 2, 4, 8};
  std::vector<std::unique_ptr<System>> engines;
  for (const int t : thread_counts) {
    engines.push_back(std::make_unique<System>(cfg, choose()));
    engines.back()->set_parallel_policy(ParallelPolicy::parallel(t));
  }

  const auto everywhere = [&](const auto& mutate) {
    mutate(exhaustive);
    mutate(active_serial);
    for (auto& e : engines) mutate(*e);
  };

  for (int round = 0; round < 60; ++round) {
    for (const CellId id : exhaustive.grid().all_cells()) {
      if (exhaustive.cell(id).failed) {
        if (rng.bernoulli(0.05))
          everywhere([&](System& s) { s.recover(id); });
      } else if (rng.bernoulli(0.012)) {
        everywhere([&](System& s) { s.fail(id); });
      }
    }
    if (rng.bernoulli(0.08)) {
      const CellId id{u(side), u(side)};
      const auto random_id = [&]() -> OptCellId {
        if (rng.bernoulli(0.3)) return std::nullopt;
        return CellId{u(side), u(side)};
      };
      const Dist dist =
          rng.bernoulli(0.3) ? Dist::infinity() : Dist::finite(rng.below(50));
      const OptCellId next = random_id();
      const OptCellId token = random_id();
      const OptCellId signal = random_id();
      everywhere([&](System& s) {
        s.corrupt_control_state(id, dist, next, token, signal);
      });
    }

    const RoundEvents ref_events = exhaustive.update();
    const RoundEvents serial_events = active_serial.update();
    expect_bit_identical(exhaustive, active_serial, round, "active-serial");
    expect_identical_events(ref_events, serial_events, round, "active-serial");
    for (std::size_t k = 0; k < engines.size(); ++k) {
      const RoundEvents& ev = engines[k]->update();
      const std::string label =
          "active-threads=" + std::to_string(thread_counts[k]);
      expect_bit_identical(exhaustive, *engines[k], round, label);
      expect_identical_events(ref_events, ev, round, label);
    }

    if (cfg.signal_rule == SignalRule::kBlocking) {
      for (const System* sys :
           {&exhaustive, &active_serial, engines[1].get()}) {
        const auto violations = check_all(*sys);
        ASSERT_TRUE(violations.empty())
            << "round " << round << ": " << to_string(violations.front());
      }
    } else {
      const auto violation = check_members_disjoint(active_serial);
      ASSERT_FALSE(violation.has_value())
          << "round " << round << ": " << to_string(*violation);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ActiveSetDifferential,
                         ::testing::ValuesIn(scenarios()));

// Switching schedulers mid-run must be seamless in both directions:
// set_round_scheduler(kActiveSet) rebuilds the stamps/occupancy from the
// current state, so a run that flips back and forth stays bit-identical
// to one that never left kExhaustive.
TEST(ActiveSetScheduler, MidRunToggleIsSeamless) {
  SystemConfig cfg;
  cfg.side = 6;
  cfg.params = Params(0.2, 0.1, 0.1);
  cfg.target = CellId{5, 5};
  cfg.sources = {CellId{0, 0}, CellId{3, 0}};

  System reference{cfg};
  reference.set_round_scheduler(RoundScheduler::kExhaustive);
  System toggled{cfg};

  for (int round = 0; round < 80; ++round) {
    if (round % 17 == 5) toggled.set_round_scheduler(RoundScheduler::kExhaustive);
    if (round % 17 == 11) toggled.set_round_scheduler(RoundScheduler::kActiveSet);
    if (round == 30) {
      reference.fail(CellId{2, 2});
      toggled.fail(CellId{2, 2});
    }
    if (round == 50) {
      reference.recover(CellId{2, 2});
      toggled.recover(CellId{2, 2});
    }
    const RoundEvents ea = reference.update();
    const RoundEvents eb = toggled.update();
    expect_bit_identical(reference, toggled, round, "toggle");
    expect_identical_events(ea, eb, round, "toggle");
  }
  EXPECT_GT(reference.total_arrivals(), 0u);
}

// The point of the scheduler: once routing has stabilized and no entity
// is in flight, every phase's visit count must drop to zero — the system
// is provably quiescent and update() touches no cell at all.
TEST(ActiveSetScheduler, QuiescentSystemVisitsNoCells) {
  SystemConfig cfg;
  cfg.side = 10;
  cfg.params = Params(0.2, 0.1, 0.1);
  cfg.target = CellId{9, 9};
  cfg.sources = {};  // no injections, no entities, ever
  System sys{cfg, nullptr, std::make_unique<NullSource>()};

  for (int round = 0; round < 50; ++round) sys.update();
  const System::SchedulerStats& stats = sys.last_scheduler_stats();
  EXPECT_EQ(stats.route_cells, 0u);
  EXPECT_EQ(stats.signal_cells, 0u);
  EXPECT_EQ(stats.move_cells, 0u);

  // A single perturbation re-arms exactly one neighborhood, then the
  // wave settles back to full quiescence.
  sys.fail(CellId{4, 4});
  sys.update();
  EXPECT_GT(sys.last_scheduler_stats().route_cells, 0u);
  for (int round = 0; round < 60; ++round) sys.update();
  EXPECT_EQ(sys.last_scheduler_stats().route_cells, 0u);
  EXPECT_EQ(sys.last_scheduler_stats().signal_cells, 0u);
  EXPECT_EQ(sys.last_scheduler_stats().move_cells, 0u);

  // Under kExhaustive the same state reports every-cell-every-phase.
  sys.set_round_scheduler(RoundScheduler::kExhaustive);
  sys.update();
  const auto n = static_cast<std::uint64_t>(10 * 10);
  EXPECT_EQ(sys.last_scheduler_stats().route_cells, n);
  EXPECT_EQ(sys.last_scheduler_stats().signal_cells, n);
  EXPECT_EQ(sys.last_scheduler_stats().move_cells, n);
}

// Regression for the latent-nondeterminism fix: canonical_transfer_order
// must map any permutation of the per-cell transfer groups (the degrees
// of freedom an engine's internal iteration order has) back to the
// serial in-order sequence.
TEST(CanonicalOrder, TransferMergeIsIterationOrderInvariant) {
  const Grid grid(5);
  // Serial order: ascending origin-cell index; within a cell, Members
  // (insertion) order. Give some cells multi-entity groups so the
  // within-group order matters.
  std::vector<std::vector<PendingTransfer>> groups;
  std::uint64_t next_id = 0;
  for (const CellId from : grid.all_cells()) {
    if (grid.index_of(from) % 3 != 0) continue;  // sparse, like real rounds
    std::vector<PendingTransfer> group;
    const std::size_t n = 1 + grid.index_of(from) % 2;
    for (std::size_t k = 0; k < n; ++k) {
      group.push_back(PendingTransfer{
          Entity{EntityId{next_id++}, Vec2{0.5, 0.5}}, from,
          CellId{from.i, (from.j + 1) % 5}});
    }
    groups.push_back(std::move(group));
  }
  std::vector<PendingTransfer> serial_order;
  for (const auto& g : groups)
    serial_order.insert(serial_order.end(), g.begin(), g.end());

  Xoshiro256 rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    // Permute whole groups (within-group order is the origin cell's
    // Members order, which no engine reorders).
    auto permuted = groups;
    for (std::size_t k = permuted.size(); k > 1; --k)
      std::swap(permuted[k - 1], permuted[rng.below(k)]);
    std::vector<PendingTransfer> flat;
    for (const auto& g : permuted)
      flat.insert(flat.end(), g.begin(), g.end());

    canonical_transfer_order(grid, flat);

    ASSERT_EQ(flat.size(), serial_order.size());
    for (std::size_t k = 0; k < flat.size(); ++k) {
      ASSERT_EQ(flat[k].entity, serial_order[k].entity) << "trial " << trial;
      ASSERT_EQ(flat[k].from, serial_order[k].from) << "trial " << trial;
      ASSERT_EQ(flat[k].to, serial_order[k].to) << "trial " << trial;
    }
  }
}

// Regression for the other iteration-order freedom: the order the caller
// lists sources in must not affect anything — injection order (and hence
// entity-id assignment) is pinned to ascending cell id at construction.
TEST(CanonicalOrder, SourceListOrderIsIrrelevant) {
  SystemConfig fwd;
  fwd.side = 6;
  fwd.params = Params(0.2, 0.05, 0.15);
  fwd.target = CellId{3, 5};
  fwd.sources = {CellId{0, 0}, CellId{2, 1}, CellId{5, 0}};
  SystemConfig rev = fwd;
  rev.sources = {CellId{5, 0}, CellId{0, 0}, CellId{2, 1},
                 CellId{0, 0}};  // duplicate too

  System a{fwd};
  System b{rev};
  a.set_parallel_policy(ParallelPolicy::serial());
  b.set_parallel_policy(ParallelPolicy::serial());

  const std::vector<CellId> canonical = {CellId{0, 0}, CellId{2, 1},
                                         CellId{5, 0}};
  ASSERT_EQ(std::vector<CellId>(a.sources().begin(), a.sources().end()),
            canonical);
  ASSERT_EQ(std::vector<CellId>(b.sources().begin(), b.sources().end()),
            canonical);

  for (int round = 0; round < 150; ++round) {
    const RoundEvents& ea = a.update();
    const RoundEvents& eb = b.update();
    expect_bit_identical(a, b, round, "source-order");
    expect_identical_events(ea, eb, round, "source-order");
  }
  EXPECT_GT(a.total_injected(), 0u);
}

TEST(ParallelPolicyEnv, ParsesValidValuesAndRejectsGarbage) {
  const char* old = std::getenv("CELLFLOW_THREADS");
  const std::string saved = old != nullptr ? old : "";
  const bool had = old != nullptr;

  // The ambient knob opts into the kAuto serial cutover (a throughput
  // default); explicit set_parallel_policy callers still get kNever.
  ASSERT_EQ(setenv("CELLFLOW_THREADS", "3", 1), 0);
  EXPECT_EQ(parallel_policy_from_env(), ParallelPolicy::parallel_auto(3));
  ASSERT_EQ(setenv("CELLFLOW_THREADS", "0", 1), 0);
  EXPECT_EQ(parallel_policy_from_env(), ParallelPolicy::serial());
  ASSERT_EQ(setenv("CELLFLOW_THREADS", "", 1), 0);
  EXPECT_EQ(parallel_policy_from_env(), ParallelPolicy::serial());
  ASSERT_EQ(unsetenv("CELLFLOW_THREADS"), 0);
  EXPECT_EQ(parallel_policy_from_env(), ParallelPolicy::serial());
  for (const char* bad : {"banana", "-2", "3x", "1000000"}) {
    ASSERT_EQ(setenv("CELLFLOW_THREADS", bad, 1), 0);
    EXPECT_THROW(static_cast<void>(parallel_policy_from_env()),
                 std::runtime_error)
        << bad;
  }

  if (had) {
    ASSERT_EQ(setenv("CELLFLOW_THREADS", saved.c_str(), 1), 0);
  } else {
    ASSERT_EQ(unsetenv("CELLFLOW_THREADS"), 0);
  }
}

TEST(ParallelPolicy, SetPolicyValidatesThreadCount) {
  System sys{SystemConfig{}};
  EXPECT_THROW(sys.set_parallel_policy(ParallelPolicy::parallel(0)),
               ContractViolation);
  // Same bound as CELLFLOW_THREADS — a typo'd CLI flag cannot spawn a
  // runaway number of workers.
  EXPECT_THROW(sys.set_parallel_policy(ParallelPolicy::parallel(100000)),
               ContractViolation);
  sys.set_parallel_policy(ParallelPolicy::parallel(2));
  EXPECT_EQ(sys.parallel_policy(), ParallelPolicy::parallel(2));
  sys.set_parallel_policy(ParallelPolicy::serial());
  EXPECT_EQ(sys.parallel_policy(), ParallelPolicy::serial());
}

}  // namespace
}  // namespace cellflow
