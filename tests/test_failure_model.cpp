// Tests for the failure environments (scripted, stochastic, carving).
#include "failure/failure_model.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "chunk/chunked_system.hpp"
#include "grid/path.hpp"
#include "helpers.hpp"
#include "msg/msg_system.hpp"

namespace cellflow {
namespace {

const Params kP(0.2, 0.1, 0.1);

TEST(NoFailuresModel, IsQuiescentAndInert) {
  System sys = testing::make_column_system(4, kP);
  NoFailures none;
  EXPECT_TRUE(none.quiescent());
  none.apply(sys);
  EXPECT_EQ(sys.alive_mask().count(), 16u);
}

TEST(ScriptedFailures, AppliesAtExactRounds) {
  System sys = testing::make_column_system(4, kP);
  ScriptedFailures script({{3, CellId{2, 2}, false},
                           {7, CellId{0, 0}, false},
                           {10, CellId{2, 2}, true}});
  for (int round = 0; round < 12; ++round) {
    script.apply(sys);
    sys.update();
    if (round == 3) {
      EXPECT_TRUE(sys.cell(CellId{2, 2}).failed);
    }
    if (round == 6) {
      EXPECT_FALSE(sys.cell(CellId{0, 0}).failed);
    }
    if (round == 7) {
      EXPECT_TRUE(sys.cell(CellId{0, 0}).failed);
    }
    if (round == 10) {
      EXPECT_FALSE(sys.cell(CellId{2, 2}).failed);
    }
  }
  EXPECT_TRUE(sys.cell(CellId{0, 0}).failed);  // never recovered
}

TEST(ScriptedFailures, OutOfOrderInputIsSorted) {
  System sys = testing::make_column_system(4, kP);
  ScriptedFailures script({{9, CellId{0, 0}, false}, {2, CellId{3, 3}, false}});
  EXPECT_EQ(script.last_fail_round(), 9u);
  for (int round = 0; round < 3; ++round) {
    script.apply(sys);
    sys.update();
  }
  EXPECT_TRUE(sys.cell(CellId{3, 3}).failed);
  EXPECT_FALSE(sys.cell(CellId{0, 0}).failed);
}

TEST(ScriptedFailures, QuiescenceAfterLastFail) {
  System sys = testing::make_column_system(4, kP);
  ScriptedFailures script({{1, CellId{0, 0}, false}, {5, CellId{0, 0}, true}});
  EXPECT_FALSE(script.quiescent());
  for (int round = 0; round < 3; ++round) {
    script.apply(sys);
    sys.update();
  }
  EXPECT_TRUE(script.quiescent());  // only a recover remains
}

TEST(RandomFailRecover, RatesMatchStatistically) {
  System sys = testing::make_column_system(8, kP);
  RandomFailRecover model(0.05, 0.25, 99);
  std::uint64_t failed_rounds = 0;
  std::uint64_t cell_rounds = 0;
  for (int round = 0; round < 2000; ++round) {
    model.apply(sys);
    sys.update();
    for (const CellState& c : sys.cells()) {
      ++cell_rounds;
      if (c.failed) ++failed_rounds;
    }
  }
  // Stationary failed fraction = pf / (pf + pr) = 0.05 / 0.3 ≈ 0.167.
  const double frac =
      static_cast<double>(failed_rounds) / static_cast<double>(cell_rounds);
  EXPECT_NEAR(frac, 0.167, 0.04);
  EXPECT_GT(model.total_failures(), 0u);
  EXPECT_GT(model.total_recoveries(), 0u);
  EXPECT_FALSE(model.quiescent());
}

TEST(RandomFailRecover, ProtectTargetExemptsTarget) {
  System sys = testing::make_column_system(6, kP);
  RandomFailRecover model(0.5, 0.1, 7, /*protect_target=*/true);
  for (int round = 0; round < 200; ++round) {
    model.apply(sys);
    EXPECT_FALSE(sys.cell(sys.target()).failed);
    sys.update();
  }
}

TEST(RandomFailRecover, UnprotectedTargetCanFailAndRecover) {
  System sys = testing::make_column_system(6, kP);
  RandomFailRecover model(0.5, 0.5, 7, /*protect_target=*/false);
  bool target_failed_once = false;
  for (int round = 0; round < 200; ++round) {
    model.apply(sys);
    if (sys.cell(sys.target()).failed) target_failed_once = true;
    sys.update();
  }
  EXPECT_TRUE(target_failed_once);
  // §IV: recovery of tid resets dist_tid = 0 so routing can re-anchor.
  if (!sys.cell(sys.target()).failed) {
    EXPECT_EQ(sys.cell(sys.target()).dist, Dist::zero());
  }
}

TEST(RandomFailRecover, InvalidProbabilitiesRejected) {
  EXPECT_THROW(RandomFailRecover(-0.1, 0.5, 1), ContractViolation);
  EXPECT_THROW(RandomFailRecover(0.5, 1.5, 1), ContractViolation);
}

TEST(RandomFailRecover, DeterministicUnderSeed) {
  auto run = [](std::uint64_t seed) {
    System sys = testing::make_column_system(6, kP);
    RandomFailRecover model(0.1, 0.2, seed);
    for (int round = 0; round < 100; ++round) {
      model.apply(sys);
      sys.update();
    }
    std::string fingerprint;
    for (const CellState& c : sys.cells())
      fingerprint += c.failed ? 'X' : '.';
    return fingerprint;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

// --- the fail/recover stream, pinned against the loop it replaced --------

/// Forwards to an engine and logs every fail/recover call.
template <class Engine>
class Recording {
 public:
  explicit Recording(Engine& sys) : sys_(sys) {}
  [[nodiscard]] const Grid& grid() const { return sys_.grid(); }
  [[nodiscard]] CellId target() const { return sys_.target(); }
  [[nodiscard]] decltype(auto) cell(CellId id) const { return sys_.cell(id); }
  [[nodiscard]] bool is_failed(CellId id) const { return sys_.is_failed(id); }
  void fail(CellId id) {
    calls_.emplace_back(false, id);
    sys_.fail(id);
  }
  void recover(CellId id) {
    calls_.emplace_back(true, id);
    sys_.recover(id);
  }
  /// The calls since the last take(), as (recover?, cell).
  std::vector<std::pair<bool, CellId>> take() {
    return std::exchange(calls_, {});
  }

 private:
  Engine& sys_;
  std::vector<std::pair<bool, CellId>> calls_;
};

/// RandomFailRecover as it was first written: Grid::all_cells() and one
/// Xoshiro256::bernoulli per cell, the protected target's draw consumed
/// and ignored.
struct ReferenceFailRecover {
  double pf;
  double pr;
  bool protect_target;
  Xoshiro256 rng;
  std::uint64_t failures = 0;
  std::uint64_t recoveries = 0;

  template <class Engine>
  void apply(Engine& sys) {
    for (const CellId id : sys.grid().all_cells()) {
      if (sys.cell(id).failed) {
        if (rng.bernoulli(pr)) {
          sys.recover(id);
          ++recoveries;
        }
      } else {
        if (protect_target && id == sys.target()) {
          (void)rng.bernoulli(pf);
          continue;
        }
        if (rng.bernoulli(pf)) {
          sys.fail(id);
          ++failures;
        }
      }
    }
  }
};

/// 300 rounds of the model and the reference on twin engines: the same
/// calls every round, the same totals, the same generator state.
template <class Engine, class Config>
void expect_same_stream(const Config& cfg, double pf, double pr,
                        bool protect) {
  Engine a(cfg);
  Engine b(cfg);
  Recording<Engine> ra(a);
  Recording<Engine> rb(b);
  BasicRandomFailRecover<Recording<Engine>> model(pf, pr, 321, protect);
  ReferenceFailRecover ref{pf, pr, protect, Xoshiro256(321)};
  std::uint64_t calls = 0;
  for (int round = 0; round < 300; ++round) {
    model.apply(ra);
    ref.apply(rb);
    const auto got = ra.take();
    ASSERT_EQ(got, rb.take()) << "round " << round;
    calls += got.size();
    a.update();
    b.update();
  }
  EXPECT_GT(calls, 0u);
  EXPECT_EQ(model.total_failures(), ref.failures);
  EXPECT_EQ(model.total_recoveries(), ref.recoveries);
  EXPECT_EQ(model.generator().state(), ref.rng.state());
}

SystemConfig stream_config() {
  SystemConfig cfg;
  cfg.side = 12;
  cfg.params = kP;
  cfg.sources = {CellId{1, 0}, CellId{7, 0}};
  cfg.target = CellId{5, 11};
  return cfg;
}

TEST(FailRecoverStream, MatchesTheBernoulliLoopOnSystem) {
  for (const bool protect : {true, false}) {
    expect_same_stream<System>(stream_config(), 0.05, 0.2, protect);
    expect_same_stream<System>(stream_config(), 0.5, 1.0, protect);
  }
}

TEST(FailRecoverStream, MatchesTheBernoulliLoopOnChunkedSystem) {
  for (const bool protect : {true, false}) {
    expect_same_stream<chunk::ChunkedSystem>(stream_config(), 0.05, 0.2,
                                             protect);
    expect_same_stream<chunk::ChunkedSystem>(stream_config(), 0.5, 1.0,
                                             protect);
  }
}

// A side-160 store whose routing wave is still spreading from a corner
// target: chunks behind the wave park once quiet — some of them holding
// failed cells — and chunks ahead of it stay virgin until a failure or
// the wave reaches them. The trial then reads `failed` in every chunk
// state, in a parked chunk through the summary's kFailedBit (is_failed),
// while the reference reads the cell ChunkedSystem::cell rebuilds.
TEST(FailRecoverStream, MatchesTheBernoulliLoopOnParkedAndVirginChunks) {
  using chunk::ChunkedCellStore;
  using chunk::ChunkedSystem;
  SystemConfig cfg;
  cfg.side = 160;
  cfg.params = kP;
  cfg.sources = {};
  cfg.target = CellId{2, 2};
  constexpr double kPf = 2e-5;
  constexpr double kPr = 0.05;
  ChunkedSystem a(cfg);
  ChunkedSystem b(cfg);
  Recording<ChunkedSystem> ra(a);
  Recording<ChunkedSystem> rb(b);
  BasicRandomFailRecover<Recording<ChunkedSystem>> model(kPf, kPr, 321, true);
  ReferenceFailRecover ref{kPf, kPr, true, Xoshiro256(321)};
  const ChunkedCellStore& store = a.store();
  int rounds_with_virgin_and_parked = 0;
  std::uint64_t parked_failed_cells = 0;  // summed over rounds
  std::uint64_t recoveries_in_parked = 0;
  std::uint64_t calls = 0;
  std::vector<ChunkedCellStore::State> before(store.chunk_count());
  for (int round = 0; round < 300; ++round) {
    std::size_t virgin = 0;
    for (std::size_t q = 0; q < store.chunk_count(); ++q) {
      before[q] = store.state(q);
      if (before[q] == ChunkedCellStore::State::kVirgin) ++virgin;
      if (before[q] != ChunkedCellStore::State::kParked) continue;
      for (const std::uint8_t meta : store.parked(q).meta)
        if ((meta & chunk::ParkedChunk::kFailedBit) != 0) ++parked_failed_cells;
    }
    if (virgin > 0 && store.parked_count() > 0) ++rounds_with_virgin_and_parked;
    model.apply(ra);
    ref.apply(rb);
    const auto got = ra.take();
    ASSERT_EQ(got, rb.take()) << "round " << round;
    calls += got.size();
    for (const auto& [recover, id] : got) {
      if (recover && before[store.layout().chunk_of(id)] ==
                         ChunkedCellStore::State::kParked)
        ++recoveries_in_parked;
    }
    a.update();
    b.update();
  }
  EXPECT_GT(calls, 0u);
  EXPECT_EQ(model.total_failures(), ref.failures);
  EXPECT_EQ(model.total_recoveries(), ref.recoveries);
  EXPECT_EQ(model.generator().state(), ref.rng.state());
  EXPECT_GT(rounds_with_virgin_and_parked, 0);
  EXPECT_GT(parked_failed_cells, 0u);
  EXPECT_GT(recoveries_in_parked, 0u);
}

TEST(FailRecoverStream, MatchesTheBernoulliLoopOnMessageSystem) {
  const SystemConfig sc = stream_config();
  MsgSystemConfig mc;
  mc.side = sc.side;
  mc.params = sc.params;
  mc.target = sc.target;
  mc.sources = sc.sources;
  for (const bool protect : {true, false}) {
    expect_same_stream<MessageSystem>(mc, 0.05, 0.2, protect);
    expect_same_stream<MessageSystem>(mc, 0.5, 1.0, protect);
  }
}

TEST(CarvePath, FailsExactlyOffPathCells) {
  System sys = testing::make_column_system(8, kP);
  const Path path = make_turning_path(sys.grid(), CellId{1, 0},
                                      Direction::kNorth, Direction::kEast, 8, 2);
  carve_path(sys, path);
  for (const CellId id : sys.grid().all_cells())
    EXPECT_EQ(sys.cell(id).failed, !path.contains(id)) << to_string(id);
  EXPECT_EQ(sys.alive_mask().count(), 8u);
}

TEST(CarveMask, KeepsExactlyMaskedCells) {
  System sys = testing::make_column_system(4, kP);
  const CellMask keep = CellMask::of(sys.grid(), {{1, 0}, {1, 1}, {1, 2}, {1, 3}});
  carve_mask(sys, keep);
  EXPECT_EQ(sys.alive_mask().count(), 4u);
  EXPECT_FALSE(sys.cell(CellId{0, 0}).failed == false);
  EXPECT_FALSE(sys.cell(CellId{1, 2}).failed);
}

}  // namespace
}  // namespace cellflow
