// Tests for the hexagonal-tessellation extension (§V "arbitrary
// tessellations"): lattice geometry, strips measured to edge planes,
// compaction movement with corner clamping, continuous transfers, and
// the Euclidean safety oracle under load and failures.
#include "hexflow/hex_system.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "snapshot/wire.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace cellflow {
namespace {

const Params kP(0.25, 0.05, 0.1);  // d = 0.3, d + v = 0.4 ≤ a ≈ 0.866

HexSystem rhombus(int side = 6) {
  HexSystemConfig cfg;
  cfg.side = side;
  cfg.params = kP;
  cfg.sources = {HexId{1, 0}};
  cfg.target = HexId{1, side - 1};
  return HexSystem(cfg);
}

TEST(HexGrid, IndexRoundTripAndContainment) {
  const HexGrid g(5);
  EXPECT_EQ(g.cell_count(), 25u);
  for (std::size_t k = 0; k < g.cell_count(); ++k)
    EXPECT_EQ(g.index_of(g.id_of(k)), k);
  EXPECT_TRUE(g.contains(HexId{4, 4}));
  EXPECT_FALSE(g.contains(HexId{5, 0}));
  EXPECT_THROW(HexGrid(0), ContractViolation);
}

TEST(HexGrid, SixNeighborsInTheInterior) {
  const HexGrid g(5);
  EXPECT_EQ(g.neighbors(HexId{2, 2}).size(), 6u);
  // Rhombus corners: the acute corner ⟨0,0⟩ keeps only the +q and +r
  // neighbors; the obtuse corner ⟨4,0⟩ keeps −q, −q+r (diagonal), +r.
  EXPECT_EQ(g.neighbors(HexId{0, 0}).size(), 2u);
  EXPECT_EQ(g.neighbors(HexId{4, 0}).size(), 3u);
}

TEST(HexGrid, NeighborCentersAtTwiceInradius) {
  const HexGrid g(5);
  const HexId a{2, 2};
  for (const HexId b : g.neighbors(a)) {
    EXPECT_NEAR(l2_distance(g.center(a), g.center(b)), 2.0 * kHexInradius,
                1e-12);
    EXPECT_TRUE(g.are_neighbors(a, b));
    EXPECT_TRUE(g.are_neighbors(b, a));
  }
  EXPECT_FALSE(g.are_neighbors(a, HexId{4, 2}));
  EXPECT_FALSE(g.are_neighbors(a, a));
}

TEST(HexGrid, EdgeNormalsAreUnitAndOpposite) {
  const HexGrid g(5);
  const HexId a{2, 2};
  for (const HexId b : g.neighbors(a)) {
    const Vec2 n = g.edge_normal(a, b);
    EXPECT_NEAR(std::hypot(n.x, n.y), 1.0, 1e-12);
    const Vec2 m = g.edge_normal(b, a);
    EXPECT_NEAR(n.x + m.x, 0.0, 1e-12);
    EXPECT_NEAR(n.y + m.y, 0.0, 1e-12);
  }
}

TEST(HexGrid, HexDistanceMatchesBfsOnOpenGrid) {
  const HexGrid g(6);
  const HexId target{2, 3};
  HexSystemConfig cfg;
  cfg.side = 6;
  cfg.params = kP;
  cfg.sources = {};
  cfg.target = target;
  const HexSystem sys(cfg);
  const auto rho = sys.reference_distances();
  for (const HexId id : g.all_cells()) {
    ASSERT_TRUE(rho[g.index_of(id)].is_finite());
    EXPECT_EQ(rho[g.index_of(id)].hops(),
              static_cast<std::uint64_t>(g.hex_distance(id, target)))
        << to_string(id);
  }
}

TEST(HexFeasibility, AcceptsAndRejects) {
  EXPECT_TRUE(hex_feasible(Params(0.25, 0.05, 0.1)));
  // d + v = 0.25+0.55+0.06 = 0.86 ≤ 0.866.
  EXPECT_TRUE(hex_feasible(Params(0.25, 0.55, 0.06)));
  // d + v = 0.25+0.6+0.06 = 0.91 > inradius.
  EXPECT_FALSE(hex_feasible(Params(0.25, 0.6, 0.06)));
  HexSystemConfig cfg;
  cfg.params = Params(0.25, 0.6, 0.06);
  EXPECT_THROW(HexSystem{cfg}, ContractViolation);
}

TEST(HexSystem, RoutingConvergesToReference) {
  HexSystem sys = rhombus(6);
  for (int k = 0; k < 12; ++k) sys.update();
  const auto rho = sys.reference_distances();
  for (const HexId id : sys.grid().all_cells())
    EXPECT_EQ(sys.cell(id).dist, rho[sys.grid().index_of(id)])
        << to_string(id);
}

TEST(HexSystem, RoutingRecoversAroundFailures) {
  HexSystem sys = rhombus(6);
  for (int k = 0; k < 12; ++k) sys.update();
  sys.fail(HexId{1, 2});
  sys.fail(HexId{2, 2});
  for (int k = 0; k < 80; ++k) sys.update();
  const auto rho = sys.reference_distances();
  for (const HexId id : sys.grid().all_cells()) {
    if (rho[sys.grid().index_of(id)].is_finite()) {
      EXPECT_EQ(sys.cell(id).dist, rho[sys.grid().index_of(id)]);
    }
  }
}

TEST(HexSystem, EdgeDistanceGeometry) {
  HexSystem sys = rhombus(6);
  const HexId a{2, 2};
  const HexId b = sys.grid().neighbors(a).front();
  // At the cell center the edge distance equals the inradius.
  EXPECT_NEAR(sys.edge_distance(a, b, sys.grid().center(a)), kHexInradius,
              1e-12);
  // Halfway to the neighbor's center, it is zero (the shared edge).
  const Vec2 mid = 0.5 * (sys.grid().center(a) + sys.grid().center(b));
  EXPECT_NEAR(sys.edge_distance(a, b, mid), 0.0, 1e-12);
}

TEST(HexSystem, StripConditionTracksEdgeDistance) {
  HexSystem sys = rhombus(6);
  const HexId cell{2, 2};
  const HexId nb = sys.grid().neighbors(cell).front();
  const Vec2 n = sys.grid().edge_normal(cell, nb);
  // Entity well clear of the strip (at the cell center).
  sys.seed_entity(cell, sys.grid().center(cell));
  EXPECT_TRUE(sys.strip_clear(cell, nb));
  // Entity inside the strip: d + v = 0.4 from the edge means projection
  // > a − 0.4 from the center.
  const Vec2 in_strip =
      sys.grid().center(cell) + (kHexInradius - 0.2) * n;
  sys.seed_entity(cell, in_strip);
  EXPECT_FALSE(sys.strip_clear(cell, nb));
}

TEST(HexSystem, EntityTravelsAndIsConsumed) {
  HexSystemConfig cfg;
  cfg.side = 5;
  cfg.params = kP;
  cfg.sources = {};
  cfg.target = HexId{1, 4};
  HexSystem sys(cfg);
  sys.seed_entity(HexId{1, 0}, sys.grid().center(HexId{1, 0}));
  std::uint64_t rounds = 0;
  while (sys.total_arrivals() < 1 && rounds < 1000) {
    sys.update();
    ++rounds;
  }
  EXPECT_EQ(sys.total_arrivals(), 1u);
  EXPECT_EQ(sys.entity_count(), 0u);
}

TEST(HexSystem, ContinuousTransferPreservesPosition) {
  // The defining difference from the square protocol: no snap. Track an
  // entity across a hand-off and verify its displacement that round is
  // ≤ v (pure motion, no placement jump).
  HexSystemConfig cfg;
  cfg.side = 4;
  cfg.params = kP;
  cfg.sources = {};
  cfg.target = HexId{1, 3};
  HexSystem sys(cfg);
  const EntityId e =
      sys.seed_entity(HexId{1, 0}, sys.grid().center(HexId{1, 0}));
  Vec2 prev{};
  bool have_prev = false;
  for (int k = 0; k < 600 && sys.total_arrivals() == 0; ++k) {
    if (const auto* p = [&]() -> const HexEntity* {
          for (const HexId id : sys.grid().all_cells())
            if (const HexEntity* q = sys.cell(id).find(e)) return q;
          return nullptr;
        }()) {
      if (have_prev) {
        EXPECT_LE(l2_distance(p->center, prev), kP.velocity() + 1e-9)
            << "round " << k;
      }
      prev = p->center;
      have_prev = true;
    }
    sys.update();
  }
}

// Counts the grants at every post-Signal point and keeps the first
// violation of H (Lemma 3) seen there.
struct HWatchHex {
  std::uint64_t grants = 0;
  std::string violation;

  void attach(HexSystem& sys) {
    sys.set_phase_hook([this](const HexSystem& s, UpdatePhase phase) {
      if (phase != UpdatePhase::kAfterSignal) return;
      for (const HexCellState& c : s.cells()) grants += c.signal.has_value();
      if (violation.empty()) violation = check_hex_h(s);
    });
  }
};

TEST(HexOracles, HFiresOnAnOccupiedGrantedStrip) {
  // x = ⟨1,3⟩ grants its predecessor below; an entity then placed 0.3 <
  // d + v from the shared edge occupies the strip H promised clear.
  HexSystemConfig cfg;
  cfg.side = 5;
  cfg.params = kP;
  cfg.sources = {};
  cfg.target = HexId{1, 4};
  HexSystem sys(cfg);
  const HexId x{1, 3};
  const HexId pred{1, 2};
  for (int k = 0; k < 10; ++k) sys.update();
  ASSERT_EQ(sys.cell(pred).next, OptHexId{x});
  sys.seed_entity(pred, sys.grid().center(pred));
  sys.update();
  ASSERT_EQ(sys.cell(x).signal, OptHexId{pred});
  EXPECT_TRUE(check_hex_h(sys).empty());
  const Vec2 n = sys.grid().edge_normal(x, pred);
  sys.seed_entity(x, sys.grid().center(x) + (kHexInradius - 0.3) * n);
  EXPECT_EQ(check_hex_h(sys).rfind("H violated at " + to_string(x), 0), 0u)
      << check_hex_h(sys);
}

class HexSafety : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HexSafety, OraclesHoldUnderTrafficAndFailures) {
  HexSystem sys = rhombus(6);
  HWatchHex h;
  h.attach(sys);
  Xoshiro256 rng(GetParam());
  for (int k = 0; k < 1200; ++k) {
    for (const HexId id : sys.grid().all_cells()) {
      if (sys.cell(id).failed) {
        if (rng.bernoulli(0.08)) sys.recover(id);
      } else if (rng.bernoulli(0.015)) {
        sys.fail(id);
      }
    }
    sys.update();
    ASSERT_TRUE(h.violation.empty()) << h.violation << " at round " << k;
    const std::string safe = check_hex_safe(sys);
    ASSERT_TRUE(safe.empty()) << safe << " at round " << k;
    const std::string member = check_hex_membership(sys, 1e-9);
    ASSERT_TRUE(member.empty()) << member << " at round " << k;
  }
  EXPECT_GT(sys.total_injected(), 0u);
  // Non-vacuity: H covered thousands of grants.
  EXPECT_GT(h.grants, 1000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HexSafety,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

TEST(HexSystem, SaturatedThroughputComparableToSquare) {
  // Same parameters as the Fig-7 v=0.1 series; the hex lattice's longer
  // cells (center spacing 2a ≈ 1.73 vs 1) slow per-cell traversal, so
  // expect the same order of magnitude, not equality.
  HexSystem sys = rhombus(6);
  for (int k = 0; k < 2500; ++k) sys.update();
  const double thr = static_cast<double>(sys.total_arrivals()) / 2500.0;
  EXPECT_GT(thr, 0.01);
  EXPECT_LT(thr, 0.5);
}

TEST(HexSystem, DocumentedTurnGridlockRegime) {
  // The hex lattice's documented limitation: only straight routes
  // deliver. Compaction moves entities along the exit normal alone, so an
  // entity that entered through any edge other than the one opposite its
  // cell's exit drifts until it reaches a non-granted edge plane and is
  // capped at 0 from then on. On ⟨0,0⟩ → ⟨2,5⟩ the route turns at
  // ⟨0,5⟩: its lead entity sits at distance 0 from the edge it shares
  // with ⟨1,4⟩ although ⟨1,5⟩ grants ⟨0,5⟩, and the whole route wedges —
  // safely: spacing and membership hold every round, throughput freezes.
  // The straight twin ⟨0,0⟩ → ⟨0,5⟩ delivers at the same load.
  HexSystemConfig cfg;
  cfg.side = 6;
  cfg.params = kP;
  cfg.sources = {HexId{0, 0}};
  cfg.target = HexId{2, 5};
  HexSystem turn(cfg);
  for (int k = 0; k < 5000; ++k) {
    turn.update();
    ASSERT_TRUE(check_hex_safe(turn).empty()) << "round " << k;
    ASSERT_TRUE(check_hex_membership(turn).empty()) << "round " << k;
  }
  EXPECT_EQ(turn.total_arrivals(), 0u);
  EXPECT_EQ(turn.entity_count(), 32u);

  cfg.target = HexId{0, 5};
  HexSystem straight(cfg);
  for (int k = 0; k < 5000; ++k) straight.update();
  EXPECT_EQ(straight.total_arrivals(), 984u);
}

TEST(HexSystem, SeedValidation) {
  HexSystem sys = rhombus(6);
  const Vec2 c = sys.grid().center(HexId{2, 2});
  sys.seed_entity(HexId{2, 2}, c);
  // Too close (L2 < d = 0.3).
  EXPECT_THROW((void)sys.seed_entity(HexId{2, 2}, c + Vec2{0.2, 0.1}),
               ContractViolation);
  // Outside the hexagon.
  EXPECT_THROW(
      (void)sys.seed_entity(HexId{2, 2}, c + Vec2{2.0, 0.0}),
      ContractViolation);
  // Adequately spaced.
  EXPECT_NO_THROW((void)sys.seed_entity(HexId{2, 2}, c + Vec2{0.0, 0.45}));
}

TEST(HexSystem, FrozenWhenDisconnected) {
  HexSystemConfig cfg;
  cfg.side = 4;
  cfg.params = kP;
  cfg.sources = {};
  cfg.target = HexId{3, 3};
  HexSystem sys(cfg);
  const EntityId e = sys.seed_entity(HexId{0, 0}, sys.grid().center(HexId{0, 0}));
  for (const HexId nb : sys.grid().neighbors(HexId{0, 0})) sys.fail(nb);
  for (int k = 0; k < 80; ++k) sys.update();
  const HexEntity* p = sys.cell(HexId{0, 0}).find(e);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->center, sys.grid().center(HexId{0, 0}));
}

// --- HexGolden: the whole per-round state, pinned ----------------------
//
// Three sources feed one target, so cells see several nonempty
// predecessors at once and the token rotates among them; a seeded
// fail/recover stream (target exempt) resets cells mid-flight. Every
// round folds every cell's Figure-3 variables and members into one
// digest, and every 100 rounds the BFS reference ρ too. The literals
// pin the protocol step: any change to Route, the token discipline,
// the resets, movement or injection on this lattice moves them.

void fold_id(snapshot::DigestAccumulator& d, const OptHexId& id) {
  d.boolean(id.has_value());
  if (id.has_value()) {
    d.i32(id->q);
    d.i32(id->r);
  }
}

void fold_dist(snapshot::DigestAccumulator& d, Dist x) {
  d.u64(x.is_infinite() ? ~0ULL : x.hops());
}

struct HexGoldenRun {
  std::uint64_t digest = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t injected = 0;
  std::uint64_t multi_pred_cell_rounds = 0;  ///< |NEPrev| ≥ 2
  std::uint64_t grant_handoffs = 0;  ///< grant to a new holder
};

HexGoldenRun run_hex_golden(std::uint64_t seed) {
  HexSystemConfig cfg;
  cfg.side = 6;
  cfg.params = kP;
  cfg.sources = {HexId{0, 0}, HexId{3, 0}, HexId{5, 0}};
  cfg.target = HexId{2, 5};
  HexSystem sys(cfg);
  const HexGrid& g = sys.grid();
  Xoshiro256 rng(seed);
  snapshot::DigestAccumulator d;
  HexGoldenRun out;
  std::vector<OptHexId> last_grant(g.cell_count());
  for (int k = 0; k < 1200; ++k) {
    for (const HexId id : g.all_cells()) {
      if (id == cfg.target) continue;
      if (sys.cell(id).failed) {
        if (rng.bernoulli(0.08)) sys.recover(id);
      } else if (rng.bernoulli(0.015)) {
        sys.fail(id);
      }
    }
    sys.update();
    EXPECT_TRUE(check_hex_safe(sys).empty()) << "round " << k;
    for (const HexId id : g.all_cells()) {
      const HexCellState& c = sys.cell(id);
      d.boolean(c.failed);
      fold_dist(d, c.dist);
      fold_id(d, c.next);
      fold_id(d, c.token);
      fold_id(d, c.signal);
      d.u64(neighbor_count(c.ne_prev));
      for (const HexId p : neighbors_in(id, c.ne_prev)) fold_id(d, p);
      d.u64(c.members.size());
      for (const HexEntity& e : c.members) {
        d.u64(e.id.value);
        d.f64(e.center.x);
        d.f64(e.center.y);
      }
      if (neighbor_count(c.ne_prev) >= 2) ++out.multi_pred_cell_rounds;
      OptHexId& last = last_grant[g.index_of(id)];
      if (c.signal.has_value()) {
        if (last.has_value() && *last != *c.signal) ++out.grant_handoffs;
        last = c.signal;
      }
    }
    if (k % 100 == 99)
      for (const Dist x : sys.reference_distances()) fold_dist(d, x);
  }
  out.digest = d.value();
  out.arrivals = sys.total_arrivals();
  out.injected = sys.total_injected();
  return out;
}

TEST(HexGolden, SeedOnePinsStateArrivalsAndTokenTraffic) {
  const HexGoldenRun r = run_hex_golden(1);
  EXPECT_EQ(r.digest, 0x008bab00a943f99fULL);
  EXPECT_EQ(r.arrivals, 3u);
  EXPECT_EQ(r.injected, 231u);
  // Non-vacuity: the run exercises rotation among several predecessors.
  EXPECT_EQ(r.multi_pred_cell_rounds, 5345u);
  EXPECT_EQ(r.grant_handoffs, 1814u);
}

TEST(HexGolden, SeedTwoPinsStateArrivalsAndTokenTraffic) {
  const HexGoldenRun r = run_hex_golden(2);
  EXPECT_EQ(r.digest, 0x127816643bdf74c8ULL);
  EXPECT_EQ(r.arrivals, 2u);
  EXPECT_EQ(r.injected, 205u);
  EXPECT_EQ(r.multi_pred_cell_rounds, 4979u);
  EXPECT_EQ(r.grant_handoffs, 1585u);
}

TEST(HexGolden, TwoPredecessorsShareTheTokenAndABlockKeepsIt) {
  // Every neighbor of the target ⟨2,2⟩ but x = ⟨2,3⟩ is failed, so x's
  // live neighbors a = ⟨1,4⟩ and b = ⟨3,3⟩ both route through x.
  HexSystemConfig cfg;
  cfg.side = 6;
  cfg.params = kP;
  cfg.sources = {};
  cfg.target = HexId{2, 2};
  HexSystem sys(cfg);
  const HexId x{2, 3};
  const HexId a{1, 4};
  const HexId b{3, 3};
  for (const HexId nb : sys.grid().neighbors(cfg.target))
    if (nb != x) sys.fail(nb);
  for (int k = 0; k < 20; ++k) sys.update();
  ASSERT_EQ(sys.cell(a).next, OptHexId{x});
  ASSERT_EQ(sys.cell(b).next, OptHexId{x});
  sys.seed_entity(a, sys.grid().center(a));
  sys.seed_entity(b, sys.grid().center(b));
  // x's own entity sits 0.2 < d + v from the edge it shares with b.
  sys.seed_entity(x, sys.grid().center(x) +
                         (kHexInradius - 0.2) * sys.grid().edge_normal(x, b));

  // Round 1: x acquires the smaller id, grants it, and rotates the token
  // to the other predecessor (a < b).
  sys.update();
  EXPECT_EQ(neighbor_count(sys.cell(x).ne_prev), 2u);
  EXPECT_EQ(sys.cell(x).signal, OptHexId{a});
  EXPECT_EQ(sys.cell(x).token, OptHexId{b});

  // Round 2: the strip toward the token holder b is still occupied, so
  // x blocks everyone and keeps serving b.
  ASSERT_FALSE(sys.strip_clear(x, b));
  sys.update();
  EXPECT_EQ(sys.cell(x).signal, OptHexId{});
  EXPECT_EQ(sys.cell(x).token, OptHexId{b});
}

}  // namespace
}  // namespace cellflow
