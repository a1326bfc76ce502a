// Differential pinning of the corners of the kActiveSet Signal and Move
// gates (DESIGN.md §9). Each case runs a serial kExhaustive System as the
// reference beside three kActiveSet engines — System serial, System
// parallel(2) and a chunk::ChunkedSystem of 2×2 chunks under parallel(2)
// — and requires the same snapshot::state_digest at all four UpdatePhase
// points of every round, the same RoundEvents and, at the end, the same
// Prometheus exposition (the protocol counters, moves included). Every
// case runs under both movement rules and with both a round-robin and a
// stateful RandomChoose, whose stream sees any Signal visit that calls
// choose. The corners:
//   1. under kCoupled a cell whose stale token names a neighbour that has
//      left NEPrev grants it while it is empty, and the empty grantee
//      must still emit its `moved` event and `moves` tally;
//   2. corrupt_control_state plants dist 0 and a signal on a failed cell:
//      the signal names an empty live neighbour, whose next then points
//      at the failed cell, so that neighbour is granted every round;
//   3. a token naming a non-neighbour (off the lattice or off the grid)
//      must be dropped by the next Signal, with or without candidates.
// The cells sit on the chunk borders (i or j = 31 | 32), so the chunked
// leg reads them across chunks and shards.
//
// (Suite name deliberately contains "Differential" so the TSan ctest
// lane picks it up.)
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "chunk/chunked_system.hpp"
#include "core/choose.hpp"
#include "core/source.hpp"
#include "core/system.hpp"
#include "helpers.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "snapshot/snapshot.hpp"

namespace cellflow {
namespace {

constexpr int kSide = 48;  // 2×2 chunks of 32×32
constexpr CellId kTarget{40, 40};

struct Variant {
  MovementRule rule;
  bool random_choose;
};

const Variant kVariants[] = {{MovementRule::kCoupled, false},
                             {MovementRule::kCoupled, true},
                             {MovementRule::kCompacting, false},
                             {MovementRule::kCompacting, true}};

std::string describe(const Variant& v) {
  return std::string(v.rule == MovementRule::kCoupled ? "coupled"
                                                      : "compacting") +
         (v.random_choose ? " random-choose" : " round-robin");
}

/// No sources: the entities are seeded, so only the protocol moves them.
SystemConfig gate_config(MovementRule rule) {
  SystemConfig cfg;
  cfg.side = kSide;
  cfg.params = Params(0.25, 0.05, 0.2);
  cfg.target = kTarget;
  cfg.sources.clear();
  cfg.movement_rule = rule;
  return cfg;
}

template <class Sys>
struct Leg {
  std::string label;
  std::unique_ptr<Sys> sys;
  obs::MetricsRegistry reg;
  std::vector<std::uint64_t> seen;  ///< this round's hook digests
  /// Extra reference-side probe, called at every phase point.
  std::function<void(const Sys&, UpdatePhase)> probe;
};

template <class Sys>
std::unique_ptr<Leg<Sys>> make_leg(const SystemConfig& cfg, const Variant& v,
                                   RoundScheduler sched,
                                   const ParallelPolicy& policy,
                                   std::string label) {
  auto leg = std::make_unique<Leg<Sys>>();
  leg->label = std::move(label);
  std::unique_ptr<ChoosePolicy> choose;
  if (v.random_choose) choose = std::make_unique<RandomChoose>(17);
  leg->sys = std::make_unique<Sys>(cfg, std::move(choose),
                                   std::make_unique<NullSource>());
  leg->sys->set_round_scheduler(sched);
  leg->sys->set_parallel_policy(policy);
  leg->sys->set_metrics(&leg->reg);
  Leg<Sys>* self = leg.get();
  leg->sys->set_phase_hook([self](const Sys& s, UpdatePhase phase) {
    self->seen.push_back(snapshot::state_digest(s));
    if (self->probe) self->probe(s, phase);
  });
  return leg;
}

/// The exhaustive serial reference and the three kActiveSet legs, driven
/// in lockstep.
class Legs {
 public:
  Legs(const SystemConfig& cfg, const Variant& v)
      : ref_(make_leg<System>(cfg, v, RoundScheduler::kExhaustive,
                              ParallelPolicy::serial(), "reference")),
        serial_(make_leg<System>(cfg, v, RoundScheduler::kActiveSet,
                                 ParallelPolicy::serial(), "active serial")),
        pooled_(make_leg<System>(cfg, v, RoundScheduler::kActiveSet,
                                 ParallelPolicy::parallel(2),
                                 "active parallel(2)")),
        chunked_(make_leg<chunk::ChunkedSystem>(
            cfg, v, RoundScheduler::kActiveSet, ParallelPolicy::parallel(2),
            "chunked active parallel(2)")) {}

  [[nodiscard]] const System& ref() const { return *ref_->sys; }
  void set_probe(std::function<void(const System&, UpdatePhase)> probe) {
    ref_->probe = std::move(probe);
  }

  /// Applies the same mutation to every leg.
  template <class F>
  void everywhere(F&& f) {
    f(*ref_->sys);
    f(*serial_->sys);
    f(*pooled_->sys);
    f(*chunked_->sys);
  }

  /// One round on every leg, checked against the reference at every
  /// phase point. Returns the reference's events.
  RoundEvents step(int round) {
    ref_->seen.clear();
    RoundEvents want = ref_->sys->update();
    EXPECT_EQ(ref_->seen.size(), 4u) << "hook must fire at all four points";
    check(*serial_, want, round);
    check(*pooled_, want, round);
    check(*chunked_, want, round);
    return want;
  }

  /// The protocol counters of every leg, as exposed, against the
  /// reference's.
  void expect_same_metrics() const {
    const std::string want = obs::to_prometheus(ref_->reg);
    ASSERT_FALSE(want.empty());
    EXPECT_EQ(obs::to_prometheus(serial_->reg), want) << serial_->label;
    EXPECT_EQ(obs::to_prometheus(pooled_->reg), want) << pooled_->label;
    EXPECT_EQ(obs::to_prometheus(chunked_->reg), want) << chunked_->label;
  }

 private:
  template <class Sys>
  void check(Leg<Sys>& leg, const RoundEvents& want, int round) {
    leg.seen.clear();
    const RoundEvents& got = leg.sys->update();
    EXPECT_EQ(leg.seen, ref_->seen)
        << leg.label << " diverged at a phase point, round " << round;
    SCOPED_TRACE(leg.label);
    testing::expect_same_events(want, got, round);
  }

  std::unique_ptr<Leg<System>> ref_;
  std::unique_ptr<Leg<System>> serial_;
  std::unique_ptr<Leg<System>> pooled_;
  std::unique_ptr<Leg<chunk::ChunkedSystem>> chunked_;
};

Vec2 center_of(CellId c) { return Vec2{c.i + 0.5, c.j + 0.5}; }

/// Two single-file corridors into the target: one east along row 40
/// across the i = 31 | 32 border, one north along column 40 across the
/// j = 31 | 32 border.
template <class Sys>
void seed_corridors(Sys& s) {
  for (const CellId c : {CellId{26, 40}, CellId{28, 40}, CellId{30, 40},
                         CellId{40, 26}, CellId{40, 28}, CellId{40, 30}})
    s.seed_entity(c, center_of(c));
}

TEST(GateDifferential, StaleTokenHolderIsGrantedWhileEmpty) {
  for (const Variant& v : kVariants) {
    SCOPED_TRACE(describe(v));
    Legs legs(gate_config(v.rule), v);
    legs.everywhere([](auto& s) { seed_corridors(s); });
    // On the reference, after Signal: live empty cells whose destination
    // grants them — stale token holders served after they emptied.
    std::uint64_t empty_grants = 0;
    std::vector<CellId> granted_empty;
    legs.set_probe([&](const System& s, UpdatePhase phase) {
      if (phase != UpdatePhase::kAfterSignal) return;
      granted_empty.clear();
      s.for_each_cell([&](CellId id, const CellState& c) {
        if (c.failed || c.has_entities() || !c.next.has_value()) return;
        if (s.cell(*c.next).signal == OptCellId{id}) granted_empty.push_back(id);
      });
      empty_grants += granted_empty.size();
    });
    for (int round = 0; round < 130; ++round) {
      const RoundEvents ev = legs.step(round);
      if (v.rule != MovementRule::kCoupled) continue;
      for (const CellId id : granted_empty) {
        EXPECT_NE(std::find(ev.moved.begin(), ev.moved.end(), id),
                  ev.moved.end())
            << "an empty grantee must move under kCoupled, round " << round;
      }
    }
    EXPECT_GT(empty_grants, 0u) << "the scenario never granted an empty cell";
    EXPECT_GT(legs.ref().total_arrivals(), 0u);
    legs.expect_same_metrics();
  }
}

TEST(GateDifferential, CorruptedFailedCellGrantsEmptyNeighbour) {
  // X and Y straddle the i = 31 | 32 chunk border, away from the
  // corridors: both stay empty.
  const CellId x{32, 20};
  const CellId y{31, 20};
  for (const Variant& v : kVariants) {
    SCOPED_TRACE(describe(v));
    Legs legs(gate_config(v.rule), v);
    legs.everywhere([](auto& s) { seed_corridors(s); });
    int round = 0;
    for (; round < 10; ++round) legs.step(round);
    legs.everywhere([&](auto& s) {
      s.fail(x);
      s.corrupt_control_state(x, Dist::zero(), std::nullopt, std::nullopt,
                              OptCellId{y});
    });
    std::uint64_t empty_moves = 0;
    for (const int stop = round + 30; round < stop; ++round) {
      const RoundEvents ev = legs.step(round);
      ASSERT_TRUE(legs.ref().cell(x).failed);
      ASSERT_EQ(legs.ref().cell(x).signal, OptCellId{y});
      ASSERT_FALSE(legs.ref().cell(y).has_entities());
      if (legs.ref().cell(y).next == OptCellId{x} &&
          std::find(ev.moved.begin(), ev.moved.end(), y) != ev.moved.end())
        ++empty_moves;
    }
    if (v.rule == MovementRule::kCoupled)
      EXPECT_GT(empty_moves, 0u) << "Y was never granted by the failed cell";
    else
      EXPECT_EQ(empty_moves, 0u) << "an empty cell never moves compacting";
    legs.everywhere([&](auto& s) { s.recover(x); });
    for (const int stop = round + 20; round < stop; ++round) legs.step(round);
    legs.expect_same_metrics();
  }
}

TEST(GateDifferential, TokenNamingANonNeighbourIsDropped) {
  for (const Variant& v : kVariants) {
    SCOPED_TRACE(describe(v));
    Legs legs(gate_config(v.rule), v);
    legs.everywhere([](auto& s) { seed_corridors(s); });
    int round = 0;
    for (; round < 24; ++round) legs.step(round);
    // Z1 idles on the chunk border; Z3 sits on the grid's west edge, its
    // token naming the off-grid cell west of it; Z2 is where the row
    // corridor's leading entity is headed, so it has a NEPrev.
    const CellId z1{31, 12};
    const CellId z3{0, 12};
    CellId lead{0, 40};
    legs.ref().for_each_cell([&](CellId id, const CellState& c) {
      if (id.j == 40 && id.i < kTarget.i && c.has_entities() && id.i > lead.i)
        lead = id;
    });
    ASSERT_TRUE(legs.ref().cell(lead).next.has_value());
    const CellId z2 = *legs.ref().cell(lead).next;
    const auto corrupt_token = [&](CellId z, CellId token) {
      const CellState c = legs.ref().cell(z);
      legs.everywhere([&](auto& s) {
        s.corrupt_control_state(z, c.dist, c.next, OptCellId{token}, c.signal);
      });
    };
    corrupt_token(z1, CellId{5, 5});
    corrupt_token(z2, CellId{z2.i, z2.j + 5});
    corrupt_token(z3, CellId{-1, 12});
    legs.step(round++);
    EXPECT_FALSE(legs.ref().cell(z1).token.has_value());
    EXPECT_NE(legs.ref().cell(z2).token, (OptCellId{CellId{z2.i, z2.j + 5}}));
    for (const int stop = round + 60; round < stop; ++round) legs.step(round);
    legs.expect_same_metrics();
  }
}

}  // namespace
}  // namespace cellflow
