// Integration tests for the System automaton: construction, fail/recover
// semantics, the three-phase update, entity transfer, and consumption.
#include "core/system.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "chunk/chunked_system.hpp"
#include "core/predicates.hpp"
#include "failure/failure_model.hpp"
#include "helpers.hpp"
#include "msg/msg_system.hpp"
#include "sim/observers.hpp"
#include "sim/simulator.hpp"
#include "util/check.hpp"

namespace cellflow {
namespace {

const Params kP(0.2, 0.1, 0.1);  // d = 0.3, v = 0.1

TEST(SystemInit, MatchesFigure3InitialState) {
  System sys = testing::make_column_system(4, kP);
  for (const CellId id : sys.grid().all_cells()) {
    const CellState& c = sys.cell(id);
    EXPECT_TRUE(c.members.empty());
    EXPECT_EQ(c.next, OptCellId{});
    EXPECT_EQ(c.token, OptCellId{});
    EXPECT_EQ(c.signal, OptCellId{});
    EXPECT_FALSE(c.failed);
    if (id == sys.target()) {
      EXPECT_EQ(c.dist, Dist::zero());
    } else {
      EXPECT_TRUE(c.dist.is_infinite());
    }
  }
  EXPECT_EQ(sys.round(), 0u);
  EXPECT_EQ(sys.total_arrivals(), 0u);
}

TEST(SystemInit, InvalidConfigRejected) {
  SystemConfig cfg;
  cfg.side = 4;
  cfg.target = CellId{5, 5};
  EXPECT_THROW(System{cfg}, ContractViolation);

  SystemConfig cfg2;
  cfg2.side = 4;
  cfg2.target = CellId{1, 3};
  cfg2.sources = {CellId{1, 3}};  // source == target
  EXPECT_THROW(System{cfg2}, ContractViolation);

  SystemConfig cfg3;
  cfg3.side = 4;
  cfg3.target = CellId{0, 0};
  cfg3.sources = {CellId{4, 0}};  // outside
  EXPECT_THROW(System{cfg3}, ContractViolation);
}

TEST(SystemRouting, DistancesConvergeToBfsReference) {
  System sys = testing::make_column_system(8, kP);
  // Manhattan diameter of the 8×8 grid from ⟨1,7⟩ is 13; give slack.
  ASSERT_TRUE(testing::run_until_routed(sys, 20));
  const auto rho = sys.reference_distances();
  for (const CellId id : sys.grid().all_cells())
    EXPECT_EQ(sys.cell(id).dist, rho[sys.grid().index_of(id)])
        << "at " << to_string(id);
}

TEST(SystemRouting, NextPointsDownhill) {
  System sys = testing::make_column_system(8, kP);
  ASSERT_TRUE(testing::run_until_routed(sys, 20));
  for (const CellId id : sys.grid().all_cells()) {
    if (id == sys.target()) {
      EXPECT_EQ(sys.cell(id).next, OptCellId{});
      continue;
    }
    const OptCellId next = sys.cell(id).next;
    ASSERT_TRUE(next.has_value()) << "at " << to_string(id);
    EXPECT_EQ(sys.cell(*next).dist.plus_one(), sys.cell(id).dist);
  }
}

TEST(SystemFail, SetsPaperMandatedValues) {
  System sys = testing::make_column_system(4, kP);
  testing::run_rounds(sys, 6);
  sys.fail(CellId{2, 2});
  const CellState& c = sys.cell(CellId{2, 2});
  EXPECT_TRUE(c.failed);
  EXPECT_TRUE(c.dist.is_infinite());
  EXPECT_EQ(c.next, OptCellId{});
  EXPECT_EQ(c.signal, OptCellId{});
}

TEST(SystemFail, FailedCellFreezesEntities) {
  System sys = testing::make_closed_system(4, kP, CellId{3, 3});
  const EntityId e = sys.seed_entity(CellId{1, 1}, Vec2{1.5, 1.5});
  sys.fail(CellId{1, 1});
  testing::run_rounds(sys, 20);
  const Entity* p = sys.cell(CellId{1, 1}).find(e);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->center, (Vec2{1.5, 1.5}));
}

TEST(SystemFail, IsIdempotent) {
  System sys = testing::make_column_system(4, kP);
  sys.fail(CellId{0, 0});
  sys.fail(CellId{0, 0});
  EXPECT_TRUE(sys.cell(CellId{0, 0}).failed);
}

TEST(SystemFail, FailedTargetPoisonsRouting) {
  System sys = testing::make_column_system(4, kP);
  ASSERT_TRUE(testing::run_until_routed(sys, 12));
  sys.fail(sys.target());
  // dist values now grow without bound (count-to-infinity); after many
  // rounds every cell's dist exceeds any previously-valid value.
  testing::run_rounds(sys, 30);
  for (const CellId id : sys.grid().all_cells()) {
    if (id == sys.target()) continue;
    const Dist d = sys.cell(id).dist;
    EXPECT_TRUE(d.is_infinite() || d.hops() > 13u) << to_string(id);
  }
}

TEST(SystemRecover, RestoresRoutingAnchor) {
  System sys = testing::make_column_system(4, kP);
  sys.fail(sys.target());
  testing::run_rounds(sys, 5);
  sys.recover(sys.target());
  EXPECT_FALSE(sys.cell(sys.target()).failed);
  EXPECT_EQ(sys.cell(sys.target()).dist, Dist::zero());
  ASSERT_TRUE(testing::run_until_routed(sys, 40));
}

TEST(SystemRecover, NonFailedCellIsNoOp) {
  System sys = testing::make_column_system(4, kP);
  testing::run_rounds(sys, 8);
  const Dist before = sys.cell(CellId{2, 2}).dist;
  sys.recover(CellId{2, 2});
  EXPECT_EQ(sys.cell(CellId{2, 2}).dist, before);
}

TEST(SystemRecover, OrdinaryCellComesBackBlank) {
  System sys = testing::make_column_system(4, kP);
  testing::run_rounds(sys, 8);
  sys.fail(CellId{2, 2});
  sys.recover(CellId{2, 2});
  const CellState& c = sys.cell(CellId{2, 2});
  EXPECT_FALSE(c.failed);
  EXPECT_TRUE(c.dist.is_infinite());
  EXPECT_EQ(c.next, OptCellId{});
}

TEST(SystemUpdate, EntityWalksColumnAndIsConsumed) {
  System sys = testing::make_closed_system(4, kP, CellId{1, 3});
  // Entity at bottom of ⟨1,0⟩; must travel ~3 cells to the target.
  sys.seed_entity(CellId{1, 0}, Vec2{1.5, 0.1});
  std::uint64_t rounds = 0;
  while (sys.total_arrivals() == 0 && rounds < 500) {
    sys.update();
    ++rounds;
  }
  EXPECT_EQ(sys.total_arrivals(), 1u);
  EXPECT_EQ(sys.entity_count(), 0u);
  // Crossing 3 boundaries plus ~3 cells of travel at v = 0.1 with signal
  // overhead: well under 150 rounds.
  EXPECT_LT(rounds, 150u);
}

TEST(SystemUpdate, ConsumedTransferIsFlagged) {
  System sys = testing::make_closed_system(3, kP, CellId{1, 2});
  sys.seed_entity(CellId{1, 1}, Vec2{1.5, 1.85});
  bool saw_consume = false;
  for (int k = 0; k < 100 && !saw_consume; ++k) {
    const RoundEvents& ev = sys.update();
    for (const TransferEvent& t : ev.transfers) {
      if (t.consumed) {
        saw_consume = true;
        EXPECT_EQ(t.to, (CellId{1, 2}));
        EXPECT_EQ(t.from, (CellId{1, 1}));
      }
    }
  }
  EXPECT_TRUE(saw_consume);
  EXPECT_EQ(sys.total_arrivals(), 1u);
}

TEST(SystemUpdate, NoMovementWithoutSignal) {
  System sys = testing::make_closed_system(3, kP, CellId{1, 2});
  const EntityId e = sys.seed_entity(CellId{1, 0}, Vec2{1.5, 0.5});
  // Fail the cell ahead: its signal presents as ⊥ forever, and routing
  // around it goes through column 0 or 2. Fail those too so the entity is
  // completely walled in.
  sys.fail(CellId{1, 1});
  sys.fail(CellId{0, 0});
  sys.fail(CellId{2, 0});
  testing::run_rounds(sys, 30);
  const Entity* p = sys.cell(CellId{1, 0}).find(e);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->center, (Vec2{1.5, 0.5}));
}

TEST(SystemUpdate, TransferPlacesFlushAtEntryEdge) {
  System sys = testing::make_closed_system(3, kP, CellId{2, 2});
  // Eastbound transfer from ⟨0,2⟩ to ⟨1,2⟩ (then onward): seed near the
  // east edge of ⟨0,2⟩.
  const EntityId e = sys.seed_entity(CellId{0, 2}, Vec2{0.85, 2.5});
  // Run until the entity first appears in ⟨1,2⟩.
  for (int k = 0; k < 60; ++k) {
    sys.update();
    if (const Entity* p = sys.cell(CellId{1, 2}).find(e)) {
      EXPECT_DOUBLE_EQ(p->center.x, 1.1);  // 1 + l/2
      EXPECT_DOUBLE_EQ(p->center.y, 2.5);
      return;
    }
  }
  FAIL() << "entity never transferred";
}

TEST(SystemUpdate, RoundCounterAdvances) {
  System sys = testing::make_column_system(3, kP);
  EXPECT_EQ(sys.round(), 0u);
  testing::run_rounds(sys, 7);
  EXPECT_EQ(sys.round(), 7u);
  EXPECT_EQ(sys.last_events().round, 6u);
}

TEST(SystemSeed, RejectsUnsafePlacement) {
  System sys = testing::make_closed_system(3, kP, CellId{2, 2});
  sys.seed_entity(CellId{0, 0}, Vec2{0.5, 0.5});
  // Within d = 0.3 on both axes of the first entity.
  EXPECT_THROW((void)sys.seed_entity(CellId{0, 0}, Vec2{0.6, 0.6}),
               ContractViolation);
  // Outside the Invariant-1 bounds (sticks over the cell edge).
  EXPECT_THROW((void)sys.seed_entity(CellId{0, 0}, Vec2{0.05, 0.5}),
               ContractViolation);
}

TEST(SystemSeed, AcceptsAxisSeparatedPlacement) {
  System sys = testing::make_closed_system(3, kP, CellId{2, 2});
  sys.seed_entity(CellId{0, 0}, Vec2{0.5, 0.5});
  // Same y, x separated by more than d: legal.
  EXPECT_NO_THROW((void)sys.seed_entity(CellId{0, 0}, Vec2{0.85, 0.5}));
}

TEST(SystemUpdate, TwoEntitiesPipelineThroughColumn) {
  System sys = testing::make_closed_system(4, kP, CellId{1, 3});
  sys.seed_entity(CellId{1, 0}, Vec2{1.5, 0.4});
  sys.seed_entity(CellId{1, 0}, Vec2{1.5, 0.1});
  std::uint64_t rounds = 0;
  while (sys.total_arrivals() < 2 && rounds < 800) {
    sys.update();
    ASSERT_FALSE(check_safe(sys).has_value());
    ++rounds;
  }
  EXPECT_EQ(sys.total_arrivals(), 2u);
}

TEST(SystemPhaseHook, FiresInOrder) {
  System sys = testing::make_column_system(3, kP);
  std::vector<UpdatePhase> phases;
  sys.set_phase_hook([&](const System&, UpdatePhase p) {
    phases.push_back(p);
  });
  sys.update();
  ASSERT_EQ(phases.size(), 4u);
  EXPECT_EQ(phases[0], UpdatePhase::kAfterRoute);
  EXPECT_EQ(phases[1], UpdatePhase::kAfterSignal);
  EXPECT_EQ(phases[2], UpdatePhase::kAfterMove);
  EXPECT_EQ(phases[3], UpdatePhase::kAfterInject);
}

/// Logs a Simulator's callbacks: each on_phase's UpdatePhase, and -1 for
/// each on_round.
template <class Engine>
class CallbackLog final : public BasicObserver<Engine> {
 public:
  void on_round(const Engine&, const RoundEvents&) override {
    log.push_back(-1);
  }
  void on_phase(const Engine&, UpdatePhase p) override {
    log.push_back(static_cast<int>(p));
  }
  std::vector<int> log;
};

/// A Simulator over `sys` calls on_phase four times per round, in
/// UpdatePhase order, before that round's on_round.
template <class Engine>
void expect_simulator_phases_in_order(Engine& sys) {
  BasicNoFailures<Engine> none;
  BasicSimulator<Engine> sim(sys, none);
  CallbackLog<Engine> calls;
  sim.add_observer(calls);
  sim.run(3);
  const std::vector<int> round = {0, 1, 2, 3, -1};
  std::vector<int> want;
  for (int k = 0; k < 3; ++k)
    want.insert(want.end(), round.begin(), round.end());
  EXPECT_EQ(calls.log, want);
}

TEST(SystemPhaseHook, SimulatorFiresInOrderOnChunkedSystem) {
  SystemConfig cfg;
  cfg.side = 3;
  cfg.params = kP;
  cfg.sources = {CellId{1, 0}};
  cfg.target = CellId{1, 2};
  chunk::ChunkedSystem sys(cfg);
  expect_simulator_phases_in_order(sys);
}

TEST(SystemPhaseHook, SimulatorFiresInOrderOnMessageSystem) {
  MsgSystemConfig cfg;
  cfg.side = 3;
  cfg.params = kP;
  cfg.sources = {CellId{1, 0}};
  cfg.target = CellId{1, 2};
  MessageSystem msg(cfg);
  expect_simulator_phases_in_order(msg);
}

TEST(SystemAliveMask, TracksFailures) {
  System sys = testing::make_column_system(3, kP);
  EXPECT_EQ(sys.alive_mask().count(), 9u);
  sys.fail(CellId{0, 0});
  sys.fail(CellId{2, 2});
  EXPECT_EQ(sys.alive_mask().count(), 7u);
  EXPECT_FALSE(sys.alive_mask().test(CellId{0, 0}));
  sys.recover(CellId{0, 0});
  EXPECT_EQ(sys.alive_mask().count(), 8u);
}

TEST(SystemTcMask, ReflectsWalls) {
  System sys = testing::make_column_system(4, kP);
  for (int j = 0; j < 4; ++j) sys.fail(CellId{2, j});
  const CellMask tc = sys.tc_mask();
  // Target ⟨1,3⟩; columns 0–1 connected (8 cells), column 3 cut off.
  EXPECT_TRUE(tc.test(CellId{0, 0}));
  EXPECT_FALSE(tc.test(CellId{3, 0}));
  EXPECT_EQ(tc.count(), 8u);
}

}  // namespace
}  // namespace cellflow
