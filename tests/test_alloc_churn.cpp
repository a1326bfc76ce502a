// The zero-allocation contract of the round hot path (DESIGN.md §10).
// This executable — and only this executable among the tests — links the
// global operator-new interposer (src/obs/alloc_interposer.cpp), so
// obs::alloc_totals() counts every heap allocation in the process.
//
// Contract under test: once a System has run long enough for every
// scratch buffer to reach its high-water mark (warm-up), update() makes
// ZERO heap allocations per round — on the serial engine, on the
// parallel engine at every thread count, on the active-set scheduler,
// under the kCompacting movement rule, and on MessageSystem over a
// SyncNetwork. Open systems (injection
// creates entities, consumption retires them) are additionally bounded:
// population growth may legitimately grow member/event vectors until
// saturation, but never unboundedly.
//
// Under ThreadSanitizer the strict-zero assertions are relaxed to the
// bounded form: TSan wraps the allocator and may shift library internals
// onto operator new, which is outside the contract being pinned.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/source.hpp"
#include "core/system.hpp"
#include "msg/msg_system.hpp"
#include "obs/alloc_stats.hpp"

#if defined(__SANITIZE_THREAD__)
#define CELLFLOW_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CELLFLOW_TSAN 1
#endif
#endif
#ifndef CELLFLOW_TSAN
#define CELLFLOW_TSAN 0
#endif

namespace {

using namespace cellflow;

/// Saturated closed system: one centered entity everywhere but the
/// target, no sources (micro_active_set's dense shape, side 12).
System make_dense_closed(MovementRule rule = MovementRule::kCoupled) {
  SystemConfig cfg;
  cfg.side = 12;
  cfg.params = Params(0.2, 0.05, 0.2);
  cfg.target = CellId{11, 6};
  cfg.sources = {};
  cfg.movement_rule = rule;
  System sys(cfg, nullptr, std::make_unique<NullSource>());
  for (const CellId id : sys.grid().all_cells()) {
    if (id == sys.target()) continue;
    sys.seed_entity(id, Vec2{static_cast<double>(id.i) + 0.5,
                             static_cast<double>(id.j) + 0.5});
  }
  return sys;
}

/// Allocation traffic of `rounds` update()s after a `warmup` that grows
/// every buffer to its high-water mark.
obs::AllocTotals churn(System& sys, int warmup, int rounds) {
  for (int k = 0; k < warmup; ++k) sys.update();
  const obs::AllocWindow window;
  for (int k = 0; k < rounds; ++k) sys.update();
  return window.delta();
}

void expect_alloc_free(System& sys, const char* label) {
  const obs::AllocTotals t = churn(sys, 600, 200);
#if CELLFLOW_TSAN
  // Bounded, not zero, under TSan (see file comment).
  EXPECT_LT(t.allocs, 200u) << label;
#else
  EXPECT_EQ(t.allocs, 0u) << label << ": allocations in steady state";
  EXPECT_EQ(t.bytes, 0u) << label;
#endif
}

TEST(AllocChurn, InterposerIsLinkedAndCounts) {
  ASSERT_TRUE(obs::alloc_interposer_linked())
      << "interposer translation unit missing from this binary — every "
         "other assertion in this file would pass vacuously";
  const obs::AllocWindow window;
  {
    std::vector<int> v(1000);
    ASSERT_EQ(v.size(), 1000u);  // keep the buffer alive and observable
  }
  const obs::AllocTotals t = window.delta();
  EXPECT_GE(t.allocs, 1u);
  EXPECT_GE(t.bytes, 1000u * sizeof(int));
  EXPECT_GE(t.frees, 1u);
}

TEST(AllocChurn, SerialSteadyStateIsAllocationFree) {
  System sys = make_dense_closed();
  sys.set_round_scheduler(RoundScheduler::kExhaustive);
  expect_alloc_free(sys, "serial exhaustive");
}

TEST(AllocChurn, ParallelSteadyStateIsAllocationFreeAtEveryWidth) {
  for (const int threads : {1, 2, 4, 8}) {
    System sys = make_dense_closed();
    sys.set_round_scheduler(RoundScheduler::kExhaustive);
    sys.set_parallel_policy(ParallelPolicy::parallel(threads));
    expect_alloc_free(
        sys, ("parallel-" + std::to_string(threads)).c_str());
  }
}

TEST(AllocChurn, ActiveSetSteadyStateIsAllocationFree) {
  System sys = make_dense_closed();
  sys.set_round_scheduler(RoundScheduler::kActiveSet);
  expect_alloc_free(sys, "active-set");
}

TEST(AllocChurn, CompactingSteadyStateIsAllocationFree) {
  System sys = make_dense_closed(MovementRule::kCompacting);
  sys.set_round_scheduler(RoundScheduler::kExhaustive);
  expect_alloc_free(sys, "compacting");
}

TEST(AllocChurn, OpenSystemInjectionChurnIsBounded) {
  // The default column workload: a source injecting every round, the
  // target consuming. Population and event logs reach saturation during
  // warm-up; after it, a round may touch the allocator only through
  // genuinely new state (an entity vector crossing a capacity it has
  // never reached), which the long warm-up makes rare — bounded well
  // below one allocation per round on average.
  SystemConfig cfg;  // defaults: side 8, source {1,0}, target {1,7}
  System sys(cfg);
  const obs::AllocTotals t = churn(sys, 600, 400);
  EXPECT_LT(t.allocs, 40u) << "open-system churn not bounded";
}

TEST(AllocChurn, MessageSystemSteadyStateIsAllocationFree) {
  // The message-passing realization over the reliable SyncNetwork: five
  // exchanges per round through neighbour-slot mailboxes sized at
  // construction or reused at their high-water mark, stack-array dist
  // views, in-place batch moves, and transfer slots read in place from
  // the sender's retained batch (no wire copy). After the warm-up fills
  // every member vector and batch to its high-water mark, a round makes
  // no allocation at all — on the open column workload, which injects
  // and consumes every few rounds.
  MsgSystemConfig cfg;  // defaults: side 8, source {1,0}, target {1,7}
  MessageSystem msg(std::move(cfg));
  for (int k = 0; k < 600; ++k) msg.update();
  const obs::AllocWindow window;
  constexpr int kRounds = 400;
  for (int k = 0; k < kRounds; ++k) msg.update();
  const obs::AllocTotals t = window.delta();
#if CELLFLOW_TSAN
  // Bounded, not zero, under TSan (see file comment).
  EXPECT_LT(t.allocs, static_cast<std::uint64_t>(kRounds));
#else
  EXPECT_EQ(t.allocs, 0u) << "message-system allocations in steady state";
  EXPECT_EQ(t.bytes, 0u);
#endif
}

}  // namespace
