// Unit tests for the Signal function (Figure 5): entry-strip conditions in
// all four directions, token acquisition/rotation, and blocking semantics.
#include "core/signal.hpp"

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "obs/protocol_metrics.hpp"
#include "util/check.hpp"

namespace cellflow {
namespace {

// l = 0.2, rs = 0.1 → d = 0.3; cell under test is ⟨2,3⟩ spanning
// [2,3]×[3,4].
const Params kP(0.2, 0.1, 0.1);
const CellId kSelf{2, 3};
const CellId kEast{3, 3};
const CellId kWest{1, 3};
const CellId kNorth{2, 4};
const CellId kSouth{2, 2};

Entity at(double x, double y) { return Entity{EntityId{0}, Vec2{x, y}}; }

TEST(EntryStrip, EmptyCellIsClearAllDirections) {
  for (const CellId t : {kEast, kWest, kNorth, kSouth})
    EXPECT_TRUE(entry_strip_clear(kSelf, t, {}, kP));
}

TEST(EntryStrip, EastBoundary) {
  // Condition: px + l/2 ≤ i+1−d = 2.7, i.e. px ≤ 2.6.
  const Entity ok[] = {at(2.6, 3.5)};
  EXPECT_TRUE(entry_strip_clear(kSelf, kEast, ok, kP));
  const Entity bad[] = {at(2.61, 3.5)};
  EXPECT_FALSE(entry_strip_clear(kSelf, kEast, bad, kP));
}

TEST(EntryStrip, WestBoundary) {
  // Condition: px − l/2 ≥ i+d = 2.3, i.e. px ≥ 2.4.
  const Entity ok[] = {at(2.4, 3.5)};
  EXPECT_TRUE(entry_strip_clear(kSelf, kWest, ok, kP));
  const Entity bad[] = {at(2.39, 3.5)};
  EXPECT_FALSE(entry_strip_clear(kSelf, kWest, bad, kP));
}

TEST(EntryStrip, NorthBoundary) {
  // Condition: py + l/2 ≤ j+1−d = 3.7, i.e. py ≤ 3.6.
  const Entity ok[] = {at(2.5, 3.6)};
  EXPECT_TRUE(entry_strip_clear(kSelf, kNorth, ok, kP));
  const Entity bad[] = {at(2.5, 3.61)};
  EXPECT_FALSE(entry_strip_clear(kSelf, kNorth, bad, kP));
}

TEST(EntryStrip, SouthBoundary) {
  // Condition: py − l/2 ≥ j+d = 3.3, i.e. py ≥ 3.4. (This is the case the
  // paper's Figure 5 typesets with the i−1 typo.)
  const Entity ok[] = {at(2.5, 3.4)};
  EXPECT_TRUE(entry_strip_clear(kSelf, kSouth, ok, kP));
  const Entity bad[] = {at(2.5, 3.39)};
  EXPECT_FALSE(entry_strip_clear(kSelf, kSouth, bad, kP));
}

TEST(EntryStrip, OneBadEntityBlocksAmongMany) {
  const Entity members[] = {at(2.5, 3.5), at(2.9, 3.5)};  // 2.9 blocks east
  EXPECT_FALSE(entry_strip_clear(kSelf, kEast, members, kP));
  EXPECT_TRUE(entry_strip_clear(kSelf, kWest, members, kP));
}

TEST(EntryStrip, NonNeighborViolatesContract) {
  EXPECT_THROW((void)entry_strip_clear(kSelf, CellId{4, 4}, {}, kP),
               ContractViolation);
  EXPECT_THROW((void)entry_strip_clear(kSelf, kSelf, {}, kP),
               ContractViolation);
}

// --- apply_signal ----------------------------------------------------

SignalResult step(std::vector<Entity> members, const NeighborSet& ne_prev,
                  OptCellId token) {
  RoundRobinChoose rr;
  CellState c;
  c.members = std::move(members);
  c.token = token;
  NeighborMask mask = 0;
  for (const CellId id : ne_prev) {
    EXPECT_NE(neighbor_bit(kSelf, id), 0) << to_string(id);
    mask |= neighbor_bit(kSelf, id);
  }
  (void)apply_signal(c, kSelf, mask, SignalRule::kBlocking, kP, rr, nullptr);
  return SignalResult{c.signal, c.token};
}

TEST(SignalStep, NoPredecessorsNoGrant) {
  const auto r = step({}, {}, std::nullopt);
  EXPECT_EQ(r.signal, OptCellId{});
  EXPECT_EQ(r.token, OptCellId{});
}

TEST(SignalStep, AcquiresTokenAndGrantsWhenClear) {
  const auto r = step({}, {kWest}, std::nullopt);
  EXPECT_EQ(r.signal, OptCellId(kWest));
  // Rotation with |NEPrev| = 1 keeps the same token (Figure 5 line 12).
  EXPECT_EQ(r.token, OptCellId(kWest));
}

TEST(SignalStep, BlocksWhenStripOccupied) {
  // Entity at x = 2.2 occupies the west strip (needs px ≥ 2.4).
  const auto r = step({at(2.2, 3.5)}, {kWest}, std::nullopt);
  EXPECT_EQ(r.signal, OptCellId{});
  // Blocking keeps the token — the same neighbor is retried (line 14).
  EXPECT_EQ(r.token, OptCellId(kWest));
}

TEST(SignalStep, BlockedTokenPersistsAcrossRounds) {
  const auto r1 = step({at(2.2, 3.5)}, {kWest, kEast}, kWest);
  EXPECT_EQ(r1.signal, OptCellId{});
  EXPECT_EQ(r1.token, OptCellId(kWest));
  // Even though kEast's strip is clear, the token holder stays kWest: the
  // protocol trades a round of throughput for fairness.
}

TEST(SignalStep, GrantRotatesTokenAwayFromServed) {
  // Both strips clear; token kWest granted, rotation must move off kWest.
  const auto r = step({}, {kWest, kEast}, kWest);
  EXPECT_EQ(r.signal, OptCellId(kWest));
  EXPECT_EQ(r.token, OptCellId(kEast));
}

TEST(SignalStep, RotationCyclesThroughThreePredecessors) {
  const NeighborSet three = {kWest, kSouth, kEast};  // sorted: W,S,E
  NeighborSet sorted = three;
  std::sort(sorted.begin(), sorted.end());
  OptCellId token = std::nullopt;
  std::vector<CellId> grants;
  for (int k = 0; k < 6; ++k) {
    const auto r = step({}, sorted, token);
    ASSERT_TRUE(r.signal.has_value());
    grants.push_back(*r.signal);
    token = r.token;
  }
  // Every predecessor served twice over 6 rounds.
  for (const CellId c : sorted)
    EXPECT_EQ(std::count(grants.begin(), grants.end(), c), 2);
}

TEST(SignalStep, EmptyNEPrevWithStaleTokenStillGrantsThenDrops) {
  // Token held from an earlier round, but the predecessor emptied:
  // NEPrev = {}. The strip is clear, so the grant goes out (harmless) and
  // the token is dropped (Figure 5 line 13: else token := ⊥).
  const auto r = step({}, {}, kWest);
  EXPECT_EQ(r.signal, OptCellId(kWest));
  EXPECT_EQ(r.token, OptCellId{});
}

TEST(SignalStep, StaleTokenRotationReentersNEPrev) {
  // Token kNorth is stale (not in NEPrev = {kWest}); grant happens, and
  // rotation must pick from NEPrev.
  const auto r = step({}, {kWest}, kNorth);
  EXPECT_EQ(r.signal, OptCellId(kNorth));
  EXPECT_EQ(r.token, OptCellId(kWest));
}

TEST(SignalStep, DepartedHolderChurnDoesNotStarveSurvivors) {
  // Adversarial NEPrev churn around the stale-holder rotation branch
  // (signal.cpp: `others` may equal ne_prev when the stale token holder
  // left NEPrev): kNorth's cell refills on even rounds and empties again
  // right after being served, so rotation repeatedly runs with a token
  // naming a departed predecessor. The persistent kWest/kEast must keep
  // being served at a bounded gap — the rotation position may neither
  // reset to the front nor wedge on the departed holder.
  OptCellId token = std::nullopt;
  std::vector<CellId> grants;
  bool stale_branch_seen = false;
  for (int round = 0; round < 30; ++round) {
    NeighborSet ne_prev = {kWest, kEast};
    if (round % 2 == 0) ne_prev.push_back(kNorth);
    std::sort(ne_prev.begin(), ne_prev.end());
    if (token.has_value() && ne_prev.size() > 1 &&
        std::find(ne_prev.begin(), ne_prev.end(), *token) == ne_prev.end())
      stale_branch_seen = true;
    const auto r = step({}, ne_prev, token);
    ASSERT_TRUE(r.signal.has_value()) << "round " << round;
    grants.push_back(*r.signal);
    token = r.token;
  }
  EXPECT_TRUE(stale_branch_seen);
  // No starvation of the persistent predecessors: each is served within
  // every window of 4 consecutive rounds.
  for (const CellId pred : {kWest, kEast}) {
    int gap = 0;
    int worst = 0;
    for (const CellId g : grants) {
      gap = g == pred ? 0 : gap + 1;
      worst = std::max(worst, gap);
    }
    EXPECT_LE(worst, 3) << "starved " << to_string(pred);
    EXPECT_GE(std::count(grants.begin(), grants.end(), pred), 10)
        << to_string(pred);
  }
}

TEST(SignalStep, GrantRequiresOnlyTokenDirectionClear) {
  // Entity blocks the east strip but not the west one; token kWest grants.
  const auto r = step({at(2.9, 3.5)}, {kWest, kEast}, kWest);
  EXPECT_EQ(r.signal, OptCellId(kWest));
}

// apply_signal's fast path: with NEPrev empty and no token, Figure 5
// outputs ⊥ whatever the cell stored, without a choose call. Pinned
// against the general path — neighbors_in, token_discipline with the
// square strip and apply_signal's tally rules, spelled out here — for
// every stored signal (⊥, each neighbour, a non-neighbour) and NEPrev,
// under both grant rules, empty and with a member in every strip, with
// counts attached.
class CountingChoose final : public ChoosePolicy {
 public:
  CellId choose(CellId, std::span<const CellId> candidates,
                OptCellId) override {
    ++calls;
    return candidates.front();
  }
  int calls = 0;
};

TEST(SignalStep, IdleFastPathMatchesGeneralPath) {
  const OptCellId stored_signals[] = {std::nullopt, kWest,       kSouth,
                                      kNorth,       kEast,       CellId{7, 7}};
  const std::vector<Entity> memberships[] = {{}, {at(2.5, 3.5)}};
  for (const SignalRule rule :
       {SignalRule::kBlocking, SignalRule::kAlwaysGrant}) {
    for (const std::vector<Entity>& members : memberships) {
      for (const OptCellId& stored_signal : stored_signals) {
        for (unsigned stored = 0; stored < 16; ++stored) {
          CellState c;
          c.members = members;
          c.signal = stored_signal;
          c.ne_prev = static_cast<NeighborMask>(stored);
          CountingChoose choose;
          obs::ProtocolCounts got;
          const bool blocked =
              apply_signal(c, kSelf, 0, rule, kP, choose, &got);

          const NeighborSet none = neighbors_in(kSelf, NeighborMask{0});
          CountingChoose ref_choose;
          const SignalResult want = token_discipline(
              std::span<const CellId>(none), OptCellId{},
              [](CellId t) { return Grid::are_neighbors(kSelf, t); },
              [&](CellId t) {
                return rule == SignalRule::kAlwaysGrant ||
                       entry_strip_clear(kSelf, t, members, kP);
              },
              [&](std::span<const CellId> candidates, OptCellId previous) {
                return ref_choose.choose(kSelf, candidates, previous);
              });
          obs::ProtocolCounts tally;
          ++tally.ne_prev_sizes[none.size()];
          if (want.signal.has_value()) ++tally.signal_grants;

          SCOPED_TRACE("signal " + to_string(stored_signal) + " NEPrev " +
                       std::to_string(stored));
          EXPECT_FALSE(blocked);
          EXPECT_EQ(c.signal, want.signal);
          EXPECT_EQ(c.token, want.token);
          EXPECT_EQ(c.ne_prev, 0);
          EXPECT_EQ(c.members.size(), members.size());
          EXPECT_EQ(choose.calls, 0);
          EXPECT_EQ(ref_choose.calls, 0);
          EXPECT_EQ(got.ne_prev_sizes, tally.ne_prev_sizes);
          EXPECT_EQ(got.signal_grants, tally.signal_grants);
          EXPECT_EQ(got.signal_blocks, 0u);
          EXPECT_EQ(got.signal_token_rotations, 0u);
        }
      }
    }
  }
}

TEST(SignalStep, UnsortedNEPrevViolatesContract) {
  const CellId unsorted[] = {kEast, kWest};  // kWest < kEast
  const auto any = [](CellId) { return true; };
  EXPECT_THROW((void)token_discipline(std::span<const CellId>(unsorted),
                                      OptCellId{}, any, any,
                                      round_robin_choice<CellId>),
               ContractViolation);
}

}  // namespace
}  // namespace cellflow
