// Tests for the message-passing realization (paper §II-B). The headline
// property is EXACT equivalence with the shared-variable System under
// identical configurations and failure schedules — the evidence that the
// §II automaton faithfully models the distributed implementation. The
// equivalence covers the round events too: MessageSystem::update()'s
// RoundEvents equal System's field for field, every round.
#include "msg/msg_system.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/system.hpp"
#include "helpers.hpp"
#include "util/check.hpp"

namespace cellflow {
namespace {

const Params kP(0.25, 0.05, 0.1);

MsgSystemConfig msg_config(int side) {
  MsgSystemConfig cfg;
  cfg.side = side;
  cfg.params = kP;
  cfg.sources = {CellId{1, 0}};
  cfg.target = CellId{1, side - 1};
  return cfg;
}

SystemConfig shared_config(int side) {
  SystemConfig cfg;
  cfg.side = side;
  cfg.params = kP;
  cfg.sources = {CellId{1, 0}};
  cfg.target = CellId{1, side - 1};
  return cfg;
}

// Sorted (id, position) snapshot of one cell's members.
std::vector<std::pair<EntityId, Vec2>> snapshot(const CellState& c) {
  std::vector<std::pair<EntityId, Vec2>> out;
  for (const Entity& e : c.members) out.emplace_back(e.id, e.center);
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

void expect_equal_states(const System& a, const MessageSystem& b,
                         std::uint64_t round) {
  ASSERT_EQ(a.total_arrivals(), b.total_arrivals()) << "round " << round;
  ASSERT_EQ(a.total_injected(), b.total_injected()) << "round " << round;
  for (const CellId id : a.grid().all_cells()) {
    const CellState& ca = a.cell(id);
    const CellState& cb = b.cell(id);
    ASSERT_EQ(ca.failed, cb.failed) << to_string(id) << " round " << round;
    ASSERT_EQ(ca.dist, cb.dist) << to_string(id) << " round " << round;
    ASSERT_EQ(ca.next, cb.next) << to_string(id) << " round " << round;
    ASSERT_EQ(ca.signal, cb.signal) << to_string(id) << " round " << round;
    ASSERT_EQ(ca.token, cb.token) << to_string(id) << " round " << round;
    ASSERT_EQ(snapshot(ca), snapshot(cb))
        << to_string(id) << " round " << round;
  }
}

TEST(MessageSystem, ExactlyEquivalentToSharedVariableSystem) {
  System shared{shared_config(6)};
  MessageSystem msg{msg_config(6)};
  for (std::uint64_t k = 0; k < 800; ++k) {
    const RoundEvents& want = shared.update();
    const RoundEvents& got = msg.update();
    testing::expect_same_events(want, got, static_cast<int>(k));
    expect_equal_states(shared, msg, k);
  }
  EXPECT_GT(shared.total_arrivals(), 0u);
}

TEST(MessageSystem, EquivalentUnderScriptedFailures) {
  System shared{shared_config(6)};
  MessageSystem msg{msg_config(6)};
  for (std::uint64_t k = 0; k < 600; ++k) {
    if (k == 50) {
      shared.fail(CellId{1, 3});
      msg.fail(CellId{1, 3});
    }
    if (k == 120) {
      shared.fail(CellId{2, 3});
      msg.fail(CellId{2, 3});
    }
    if (k == 300) {
      shared.recover(CellId{1, 3});
      msg.recover(CellId{1, 3});
    }
    const RoundEvents& want = shared.update();
    const RoundEvents& got = msg.update();
    testing::expect_same_events(want, got, static_cast<int>(k));
    expect_equal_states(shared, msg, k);
  }
}

TEST(MessageSystem, EquivalentWithFailingTarget) {
  System shared{shared_config(5)};
  MessageSystem msg{msg_config(5)};
  for (std::uint64_t k = 0; k < 400; ++k) {
    if (k == 60) {
      shared.fail(shared.target());
      msg.fail(msg.target());
    }
    if (k == 200) {
      shared.recover(shared.target());
      msg.recover(msg.target());
    }
    const RoundEvents& want = shared.update();
    const RoundEvents& got = msg.update();
    testing::expect_same_events(want, got, static_cast<int>(k));
    expect_equal_states(shared, msg, k);
  }
}

// Three-way checks: shared-variable serial ≡ shared-variable parallel
// (4-thread ParallelPolicy) ≡ message-passing, on the same executions.
// The serial↔parallel leg is bit-exact (members in insertion order); the
// shared↔message leg uses the established sorted-snapshot equality.
void expect_exact_equal(const System& a, const System& b,
                        std::uint64_t round) {
  ASSERT_EQ(a.total_arrivals(), b.total_arrivals()) << "round " << round;
  ASSERT_EQ(a.total_injected(), b.total_injected()) << "round " << round;
  for (const CellId id : a.grid().all_cells()) {
    const CellState& ca = a.cell(id);
    const CellState& cb = b.cell(id);
    ASSERT_EQ(ca.failed, cb.failed) << to_string(id) << " round " << round;
    ASSERT_EQ(ca.dist, cb.dist) << to_string(id) << " round " << round;
    ASSERT_EQ(ca.next, cb.next) << to_string(id) << " round " << round;
    ASSERT_EQ(ca.signal, cb.signal) << to_string(id) << " round " << round;
    ASSERT_EQ(ca.token, cb.token) << to_string(id) << " round " << round;
    ASSERT_EQ(ca.members, cb.members) << to_string(id) << " round " << round;
  }
}

TEST(ThreeWay, MultiSourceAgreement) {
  SystemConfig sc = shared_config(6);
  sc.sources = {CellId{1, 0}, CellId{4, 0}};
  sc.target = CellId{2, 5};
  MsgSystemConfig mc = msg_config(6);
  mc.sources = sc.sources;
  mc.target = sc.target;

  System serial{sc};
  serial.set_parallel_policy(ParallelPolicy::serial());
  System par{sc};
  par.set_parallel_policy(ParallelPolicy::parallel(4));
  MessageSystem msg{mc};

  for (std::uint64_t k = 0; k < 500; ++k) {
    serial.update();
    par.update();
    msg.update();
    expect_exact_equal(serial, par, k);
    expect_equal_states(serial, msg, k);
    testing::expect_same_events(serial.last_events(), msg.last_events(),
                                static_cast<int>(k));
  }
  EXPECT_GT(serial.total_arrivals(), 0u);
}

TEST(ThreeWay, AgreementUnderScriptedFailures) {
  System serial{shared_config(6)};
  serial.set_parallel_policy(ParallelPolicy::serial());
  System par{shared_config(6)};
  par.set_parallel_policy(ParallelPolicy::parallel(4));
  MessageSystem msg{msg_config(6)};

  const auto fail_all = [&](CellId id) {
    serial.fail(id);
    par.fail(id);
    msg.fail(id);
  };
  for (std::uint64_t k = 0; k < 400; ++k) {
    if (k == 50) fail_all(CellId{1, 3});
    if (k == 120) fail_all(CellId{2, 3});
    serial.update();
    par.update();
    msg.update();
    expect_exact_equal(serial, par, k);
    expect_equal_states(serial, msg, k);
    testing::expect_same_events(serial.last_events(), msg.last_events(),
                                static_cast<int>(k));
  }
}

TEST(ThreeWay, AgreementThroughFailureAndRecovery) {
  System serial{shared_config(6)};
  serial.set_parallel_policy(ParallelPolicy::serial());
  System par{shared_config(6)};
  par.set_parallel_policy(ParallelPolicy::parallel(4));
  MessageSystem msg{msg_config(6)};

  for (std::uint64_t k = 0; k < 400; ++k) {
    if (k == 40) {
      serial.fail(CellId{1, 3});
      par.fail(CellId{1, 3});
      msg.fail(CellId{1, 3});
    }
    if (k == 200) {
      serial.recover(CellId{1, 3});
      par.recover(CellId{1, 3});
      msg.recover(CellId{1, 3});
    }
    serial.update();
    par.update();
    msg.update();
    expect_exact_equal(serial, par, k);
    expect_equal_states(serial, msg, k);
    testing::expect_same_events(serial.last_events(), msg.last_events(),
                                static_cast<int>(k));
  }
  // Flow resumes through the recovered cell.
  EXPECT_GT(serial.total_arrivals(), 0u);
}

TEST(MessageSystem, SilentNeighborReadsAsInfiniteDistance) {
  // Footnote 1 made executable: crash a cell and verify its neighbors'
  // dist rises as if the cell reported ∞ — without any failure detector.
  MessageSystem msg{msg_config(5)};
  for (int k = 0; k < 12; ++k) msg.update();
  const Dist before = msg.cell(CellId{1, 2}).dist;
  EXPECT_TRUE(before.is_finite());
  // Wall the routing column so the crash forces a detour.
  msg.fail(CellId{1, 3});
  msg.fail(CellId{0, 3});
  msg.fail(CellId{2, 3});
  msg.fail(CellId{3, 3});
  for (int k = 0; k < 80; ++k) msg.update();
  // Column cut: everything below row 3 is disconnected, dists grow
  // unboundedly past any previous finite value.
  const Dist after = msg.cell(CellId{1, 2}).dist;
  EXPECT_TRUE(after.is_infinite() || after > before);
}

TEST(MessageSystem, MessageComplexityPerRound) {
  // Per round: 3 broadcast exchanges over the directed neighbor pairs
  // (4·N·(N−1) directed edges on an N×N grid) from live cells, plus the
  // data plane: at most one TransferBatch offer per (granting cell,
  // round) — each cell grants at most once per round — and one
  // TransferAck per delivered batch. With all cells alive:
  //   ≥ 3 · 4·N·(N−1) and ≤ that + 2·N².
  MessageSystem msg{msg_config(6)};
  for (int k = 0; k < 50; ++k) {
    msg.update();
    const std::uint64_t edges = 4ull * 6 * 5;
    EXPECT_GE(msg.last_round_messages(), 3 * edges);
    EXPECT_LE(msg.last_round_messages(), 3 * edges + 2ull * 6 * 6);
  }
  // The reliable data plane never retransmits: every batch is acked in
  // the round it was offered, so sent transfer batches == sent acks.
  EXPECT_EQ(msg.network().sent_count(PayloadType::kTransfer),
            msg.network().sent_count(PayloadType::kAck));
  EXPECT_GT(msg.network().sent_count(PayloadType::kTransfer), 0u);
}

TEST(MessageSystem, CrashedProcessesSendNothing) {
  MessageSystem msg{msg_config(4)};
  msg.update();
  const std::uint64_t live_round = msg.last_round_messages();
  // Crash half the grid; message volume must drop accordingly.
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 2; ++j) msg.fail(CellId{i, j});
  msg.update();
  EXPECT_LT(msg.last_round_messages(), live_round);
}

TEST(MessageSystem, ConfigValidation) {
  MsgSystemConfig bad = msg_config(4);
  bad.target = CellId{9, 9};
  EXPECT_THROW(MessageSystem{bad}, ContractViolation);
  MsgSystemConfig bad2 = msg_config(4);
  bad2.sources = {bad2.target};
  EXPECT_THROW(MessageSystem{bad2}, ContractViolation);
}

}  // namespace
}  // namespace cellflow
