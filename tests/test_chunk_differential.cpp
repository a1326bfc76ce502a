// Chunked-vs-dense differential fuzzing (ISSUE 8 / DESIGN.md §12): the
// ChunkedSystem must be observationally identical to the dense System —
// same per-cell state, same counters, same Prometheus exposition — at
// every (engine, thread count, scheduler) combination, under randomized
// configurations and adversarial fail/recover churn that repeatedly
// targets parked regions. The dense serial active-set engine is the
// reference; a MessageSystem leg rides along on small grids so all three
// realizations stay pinned together. The §III-A safety oracles run on
// the reference every round.
//
// Seed layout: every 4th seed uses a multi-chunk side (33..40) so chunk
// borders, parking, and fault-in churn are actually exercised; the rest
// use the dense suite's 4..7 sides where the full per-cell compare is
// cheap enough to run every round.
#include <gtest/gtest.h>

#include <algorithm>

#include "chunk/chunked_system.hpp"
#include "core/predicates.hpp"
#include "core/system.hpp"
#include "msg/msg_system.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "snapshot/snapshot.hpp"
#include "util/rng.hpp"

namespace cellflow {
namespace {

struct FuzzCase {
  std::uint64_t seed;
};

void PrintTo(const FuzzCase& c, std::ostream* os) { *os << "seed=" << c.seed; }

class ChunkDifferential : public ::testing::TestWithParam<FuzzCase> {};

void expect_cells_equal(const System& dense, const chunk::ChunkedSystem& ck,
                        const char* leg, int round) {
  for (const CellId id : dense.grid().all_cells()) {
    const CellState& a = dense.cell(id);
    const CellState b = ck.cell(id);
    ASSERT_EQ(a.failed, b.failed)
        << leg << " " << to_string(id) << " round " << round;
    ASSERT_EQ(a.dist, b.dist)
        << leg << " " << to_string(id) << " round " << round;
    ASSERT_EQ(a.next, b.next)
        << leg << " " << to_string(id) << " round " << round;
    ASSERT_EQ(a.token, b.token)
        << leg << " " << to_string(id) << " round " << round;
    ASSERT_EQ(a.signal, b.signal)
        << leg << " " << to_string(id) << " round " << round;
    ASSERT_TRUE(std::equal(a.ne_prev.begin(), a.ne_prev.end(),
                           b.ne_prev.begin(), b.ne_prev.end()))
        << leg << " " << to_string(id) << " round " << round;
    ASSERT_EQ(a.members, b.members)
        << leg << " " << to_string(id) << " round " << round;
  }
}

TEST_P(ChunkDifferential, ChunkedMatchesDenseAndMessageRealizations) {
  const std::uint64_t seed = GetParam().seed;
  Xoshiro256 rng(seed);

  const bool multi_chunk = (seed % 4 == 0);
  const int side = multi_chunk ? 33 + static_cast<int>(rng.below(8))
                               : 4 + static_cast<int>(rng.below(4));
  const int rounds = multi_chunk ? 120 : 250;
  const double l = rng.uniform(0.1, 0.35);
  const double rs = rng.uniform(0.05, std::min(0.4, 0.95 - l));
  const double v = rng.uniform(0.05, l);
  const auto random_cell = [&] {
    return CellId{
        static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(side))),
        static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(side)))};
  };
  const CellId target = random_cell();
  CellId source = target;
  while (source == target) source = random_cell();

  SystemConfig sc;
  sc.side = side;
  sc.params = Params(l, rs, v);
  sc.target = target;
  sc.sources = {source};

  // Reference: dense, serial, active-set, §III-A oracles every round.
  System dense{sc};
  dense.set_parallel_policy(ParallelPolicy::serial());
  obs::MetricsRegistry dense_reg;
  dense.set_metrics(&dense_reg);

  // Chunked legs: serial/active-set (metrics-compared), parallel-2 with
  // the exhaustive scheduler, parallel-4 with active-set, and the kAuto
  // leg below (metrics-compared). Registries are separate because the
  // chunked engine exports under the same realization label as the dense
  // shared-variable engine.
  chunk::ChunkedSystem ck_serial{sc};
  ck_serial.set_parallel_policy(ParallelPolicy::serial());
  obs::MetricsRegistry chunk_reg;
  ck_serial.set_metrics(&chunk_reg);

  chunk::ChunkedSystem ck_serial_ex{sc};
  ck_serial_ex.set_parallel_policy(ParallelPolicy::serial());
  ck_serial_ex.set_round_scheduler(RoundScheduler::kExhaustive);

  chunk::ChunkedSystem ck_par2{sc};
  ck_par2.set_parallel_policy(ParallelPolicy::parallel(2));
  ck_par2.set_round_scheduler(RoundScheduler::kExhaustive);

  chunk::ChunkedSystem ck_par4{sc};
  ck_par4.set_parallel_policy(ParallelPolicy::parallel(4));

  // kAuto leg: parallel_auto(2) switches between the pooled plan and the
  // inline one round by round (choose_round_engine), so it pins that
  // cutover — per-round digests and its own metrics.
  chunk::ChunkedSystem ck_auto2{sc};
  ck_auto2.set_parallel_policy(ParallelPolicy::parallel_auto(2));
  obs::MetricsRegistry auto_reg;
  ck_auto2.set_metrics(&auto_reg);

  // Message-passing leg on the small grids only (it is the slow engine;
  // the dense suite already pins it, here it anchors the three-way
  // equivalence per seed).
  const bool with_msg = side <= 8;
  MsgSystemConfig mc;
  mc.side = side;
  mc.params = Params(l, rs, v);
  mc.target = target;
  mc.sources = {source};
  MessageSystem msg{mc};

  for (int round = 0; round < rounds; ++round) {
    // Identical adversarial failure schedule on every leg. On the
    // multi-chunk sides this keeps faulting cells inside parked chunks,
    // exercising the park/unpark churn path.
    for (const CellId id : dense.grid().all_cells()) {
      if (dense.cell(id).failed) {
        if (rng.bernoulli(0.05)) {
          dense.recover(id);
          ck_serial.recover(id);
          ck_serial_ex.recover(id);
          ck_par2.recover(id);
          ck_par4.recover(id);
          ck_auto2.recover(id);
          if (with_msg) msg.recover(id);
        }
      } else if (rng.bernoulli(0.01)) {
        dense.fail(id);
        ck_serial.fail(id);
        ck_serial_ex.fail(id);
        ck_par2.fail(id);
        ck_par4.fail(id);
        ck_auto2.fail(id);
        if (with_msg) msg.fail(id);
      }
    }
    dense.update();
    ck_serial.update();
    ck_serial_ex.update();
    ck_par2.update();
    ck_par4.update();
    ck_auto2.update();
    if (with_msg) msg.update();

    for (const Violation& v2 : check_all(dense)) {
      FAIL() << "round " << round << ": " << to_string(v2);
    }

    ASSERT_EQ(dense.total_arrivals(), ck_serial.total_arrivals())
        << "round " << round;
    ASSERT_EQ(dense.total_injected(), ck_serial.total_injected())
        << "round " << round;

    const std::uint64_t want = snapshot::state_digest(dense);
    if (snapshot::state_digest(ck_serial) != want) {
      expect_cells_equal(dense, ck_serial, "serial", round);
      FAIL() << "serial digest diverged without a cell diff, round "
             << round;
    }
    if (snapshot::state_digest(ck_serial_ex) != want) {
      expect_cells_equal(dense, ck_serial_ex, "serial-exhaustive", round);
      FAIL() << "serial-exhaustive digest diverged without a cell diff, "
                "round " << round;
    }
    if (snapshot::state_digest(ck_par2) != want) {
      expect_cells_equal(dense, ck_par2, "par2-exhaustive", round);
      FAIL() << "par2 digest diverged without a cell diff, round " << round;
    }
    if (snapshot::state_digest(ck_par4) != want) {
      expect_cells_equal(dense, ck_par4, "par4", round);
      FAIL() << "par4 digest diverged without a cell diff, round " << round;
    }
    if (snapshot::state_digest(ck_auto2) != want) {
      expect_cells_equal(dense, ck_auto2, "auto2", round);
      FAIL() << "auto2 digest diverged without a cell diff, round " << round;
    }
    if (!multi_chunk) {
      // The digest is the cheap O(N²) equality; on the small sides also
      // run the field-by-field compare so a future digest-collision bug
      // cannot mask a divergence.
      expect_cells_equal(dense, ck_serial, "serial", round);
    }

    if (with_msg) {
      ASSERT_EQ(dense.total_arrivals(), msg.total_arrivals())
          << "round " << round;
      for (const CellId id : dense.grid().all_cells()) {
        const CellState& a = dense.cell(id);
        const CellState& b = msg.cell(id);
        ASSERT_EQ(a.dist, b.dist) << to_string(id) << " round " << round;
        ASSERT_EQ(a.next, b.next) << to_string(id) << " round " << round;
        ASSERT_EQ(a.signal, b.signal) << to_string(id) << " round " << round;
        auto sa = a.members;
        auto sb = b.members;
        const auto by_id = [](const Entity& x, const Entity& y) {
          return x.id < y.id;
        };
        std::sort(sa.begin(), sa.end(), by_id);
        std::sort(sb.begin(), sb.end(), by_id);
        ASSERT_EQ(sa, sb) << to_string(id) << " round " << round;
      }
    }
  }

  // The Prometheus expositions must be byte-identical: same families,
  // same labels, same counter values — the `_count` acceptance gate.
  EXPECT_EQ(obs::to_prometheus(dense_reg), obs::to_prometheus(chunk_reg));
  EXPECT_EQ(obs::to_prometheus(dense_reg), obs::to_prometheus(auto_reg));
}

std::vector<FuzzCase> fuzz_cases() {
  std::vector<FuzzCase> cases;
  for (std::uint64_t s = 1; s <= 48; ++s) cases.push_back({s});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChunkDifferential,
                         ::testing::ValuesIn(fuzz_cases()));

}  // namespace
}  // namespace cellflow
