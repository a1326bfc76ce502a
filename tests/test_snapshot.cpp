// Round-trip property suite for src/snapshot (DESIGN.md §11): save at
// round k, restore into a FRESH process-equivalent engine, run both the
// original and the restored engine m more rounds in lockstep — the state
// digest must match at EVERY boundary, the §III-A safety oracles must
// stay clean on the restored engine, and a metrics registry attached at
// the restore boundary must produce byte-identical Prometheus output on
// both. 48 seeds sweep engine (serial / parallel×{2,4}) × scheduler
// (active-set / exhaustive) × realization (shared / message) × network
// (reliable / faulty with partitions) × policies (random choose,
// rate-limited source, stochastic failures).
//
// Also pinned: save∘restore∘save is byte-stable, every mismatch path
// (wrong config, wrong realization, absent failure model) throws
// kConfigMismatch while leaving the target engine untouched — restores
// are atomic — and the SnapshotGolden cases pin literal bytes and
// digests across builds.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "chunk/chunked_system.hpp"
#include "core/choose.hpp"
#include "core/predicates.hpp"
#include "core/source.hpp"
#include "core/system.hpp"
#include "failure/failure_model.hpp"
#include "msg/msg_audit.hpp"
#include "msg/msg_system.hpp"
#include "net/faulty_network.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "snapshot/replay.hpp"
#include "snapshot/snapshot.hpp"
#include "util/rng.hpp"

namespace cellflow {
namespace {

struct Case {
  std::uint64_t seed;
};

void PrintTo(const Case& c, std::ostream* os) { *os << "seed=" << c.seed; }

std::vector<Case> cases() {
  std::vector<Case> v;
  for (std::uint64_t s = 1; s <= 48; ++s) v.push_back(Case{s});
  return v;
}

// ---- shared-variable realization -----------------------------------

/// Everything needed to build the SAME engine twice: a fresh build with
/// identical seeds is the "process-equivalent engine" of the contract.
struct SharedSetup {
  SystemConfig cfg;
  std::string policy;
  double source_rate = 1.0;
  double pf = 0.0;
  double pr = 0.0;
  std::uint64_t choose_seed = 0;
  std::uint64_t source_seed = 0;
  std::uint64_t failure_seed = 0;
  ParallelPolicy parallel = ParallelPolicy::serial();
  RoundScheduler scheduler = RoundScheduler::kActiveSet;
  std::uint64_t k = 0;  // rounds before the snapshot
  std::uint64_t m = 0;  // rounds after the restore
};

SharedSetup shared_setup(std::uint64_t seed) {
  SplitMix64 sm(seed);
  SharedSetup s;
  const int side = 4 + static_cast<int>(sm.next() % 3);  // 4..6
  s.cfg.side = side;
  s.cfg.params = Params(sm.next() % 2 == 0 ? 0.25 : 0.2, 0.05, 0.1);
  s.cfg.sources = {CellId{1, 0}};
  s.cfg.target = CellId{1, side - 1};
  s.policy = sm.next() % 2 == 0 ? "round-robin" : "random";
  s.source_rate = sm.next() % 2 == 0 ? 1.0 : 0.8;
  if (sm.next() % 2 == 0) {
    s.pf = 0.02;
    s.pr = 0.1;
  }
  s.choose_seed = sm.next();
  s.source_seed = sm.next();
  s.failure_seed = sm.next();
  switch (sm.next() % 3) {
    case 0: s.parallel = ParallelPolicy::serial(); break;
    case 1: s.parallel = ParallelPolicy::parallel(2); break;
    default: s.parallel = ParallelPolicy::parallel(4); break;
  }
  s.scheduler = sm.next() % 2 == 0 ? RoundScheduler::kActiveSet
                                   : RoundScheduler::kExhaustive;
  s.k = 30 + sm.next() % 50;
  s.m = 20 + sm.next() % 40;
  return s;
}

std::unique_ptr<System> build_shared(const SharedSetup& s,
                                     std::unique_ptr<FailureModel>& failures) {
  std::unique_ptr<SourcePolicy> source;
  if (s.source_rate >= 1.0) {
    source = std::make_unique<EntryEdgeSource>();
  } else {
    source = std::make_unique<RateLimitedSource>(s.source_rate,
                                                 s.source_seed);
  }
  auto sys = std::make_unique<System>(
      s.cfg, make_choose_policy(s.policy, s.choose_seed), std::move(source));
  sys->set_parallel_policy(s.parallel);
  sys->set_round_scheduler(s.scheduler);
  if (s.pf > 0.0) {
    failures = std::make_unique<RandomFailRecover>(s.pf, s.pr,
                                                   s.failure_seed);
  } else {
    failures = std::make_unique<NoFailures>();
  }
  return sys;
}

void step_shared(System& sys, FailureModel& failures) {
  failures.apply(sys);
  sys.update();
}

class SnapshotRoundTrip : public ::testing::TestWithParam<Case> {};

TEST_P(SnapshotRoundTrip, SharedEngineResumesBitIdentically) {
  const SharedSetup setup = shared_setup(GetParam().seed);

  std::unique_ptr<FailureModel> fail_a;
  const std::unique_ptr<System> ap = build_shared(setup, fail_a);
  System& a = *ap;
  for (std::uint64_t r = 0; r < setup.k; ++r) step_shared(a, *fail_a);
  ASSERT_TRUE(check_all(a).empty());

  const std::vector<std::uint8_t> bytes = snapshot::save(a, fail_a.get());

  std::unique_ptr<FailureModel> fail_b;
  const std::unique_ptr<System> bp = build_shared(setup, fail_b);
  System& b = *bp;
  snapshot::restore(b, bytes, fail_b.get());

  ASSERT_EQ(snapshot::state_digest(a), snapshot::state_digest(b));
  // save ∘ restore ∘ save is byte-stable.
  EXPECT_EQ(snapshot::save(b, fail_b.get()), bytes);

  // ProtocolCounts from the restore boundary onward must be identical:
  // attach a fresh registry to each engine and compare the full
  // Prometheus exposition at the end (byte-deterministic).
  obs::MetricsRegistry reg_a, reg_b;
  a.set_metrics(&reg_a);
  b.set_metrics(&reg_b);

  for (std::uint64_t r = 0; r < setup.m; ++r) {
    step_shared(a, *fail_a);
    step_shared(b, *fail_b);
    ASSERT_EQ(snapshot::state_digest(a), snapshot::state_digest(b))
        << "diverged at round " << b.round();
    const auto violations = check_all(b);
    ASSERT_TRUE(violations.empty())
        << "restored engine violated " << to_string(violations.front());
  }
  EXPECT_EQ(obs::to_prometheus(reg_a), obs::to_prometheus(reg_b));
  EXPECT_EQ(a.total_arrivals(), b.total_arrivals());
  EXPECT_EQ(a.total_injected(), b.total_injected());
}

// ---- message-passing realization ------------------------------------

struct MessageSetup {
  MsgSystemConfig cfg;
  bool faulty = false;
  NetFaultSpec spec;
  std::uint64_t net_seed = 0;
  double pf = 0.0;
  double pr = 0.0;
  std::uint64_t env_seed = 0;
  std::uint64_t k = 0;
  std::uint64_t m = 0;
};

MessageSetup message_setup(std::uint64_t seed) {
  SplitMix64 sm(seed);
  MessageSetup s;
  const int side = 4 + static_cast<int>(sm.next() % 2);  // 4..5
  s.cfg.side = side;
  s.cfg.params = Params(0.25, 0.05, 0.1);
  s.cfg.sources = {CellId{1, 0}};
  s.cfg.target = CellId{1, side - 1};
  s.faulty = sm.next() % 2 == 0;
  if (s.faulty) {
    s.spec.drop_prob = 0.1;
    s.spec.dup_prob = 0.05;
    s.spec.delay_prob = 0.05;
    s.spec.max_delay_rounds = 2;
    if (sm.next() % 2 == 0) {
      // A mid-run column partition, active across the snapshot boundary
      // for some seeds.
      NetPartition part{20, 60, CellMask(Grid(side))};
      for (const CellId id : Grid(side).all_cells())
        if (id.j < 2) part.side.set(id);
      s.spec.partitions = {part};
    }
  }
  s.net_seed = sm.next();
  if (sm.next() % 2 == 0) {
    s.pf = 0.01;
    s.pr = 0.1;
  }
  s.env_seed = sm.next();
  s.k = 30 + sm.next() % 40;
  s.m = 20 + sm.next() % 30;
  return s;
}

std::unique_ptr<MessageSystem> build_message(const MessageSetup& s) {
  std::unique_ptr<NetworkModel> net;
  if (s.faulty) net = std::make_unique<FaultyNetwork>(s.spec, s.net_seed);
  return std::make_unique<MessageSystem>(s.cfg, std::move(net));
}

/// cellflow_sim's message-mode environment: fail/recover drawn from one
/// external stream (the snapshot's optional env-rng section).
void step_message(MessageSystem& msg, Xoshiro256& env, double pf,
                  double pr) {
  if (pf > 0.0) {
    for (const CellId id : msg.grid().all_cells()) {
      if (msg.cell(id).failed) {
        if (env.bernoulli(pr)) msg.recover(id);
      } else if (env.bernoulli(pf)) {
        msg.fail(id);
      }
    }
  }
  msg.update();
}

TEST_P(SnapshotRoundTrip, MessageEngineResumesBitIdentically) {
  const MessageSetup setup = message_setup(GetParam().seed);

  const std::unique_ptr<MessageSystem> ap = build_message(setup);
  MessageSystem& a = *ap;
  Xoshiro256 env_a(setup.env_seed);
  for (std::uint64_t r = 0; r < setup.k; ++r) {
    step_message(a, env_a, setup.pf, setup.pr);
  }
  ASSERT_TRUE(msg_audit::check_all(a).empty());

  const std::vector<std::uint8_t> bytes = snapshot::save(a, &env_a);

  const std::unique_ptr<MessageSystem> bp = build_message(setup);
  MessageSystem& b = *bp;
  Xoshiro256 env_b(setup.env_seed ^ 0xDEAD);  // overwritten by restore
  snapshot::restore(b, bytes, &env_b);

  ASSERT_EQ(snapshot::state_digest(a), snapshot::state_digest(b));
  EXPECT_EQ(env_a.state(), env_b.state());
  EXPECT_EQ(snapshot::save(b, &env_b), bytes);

  obs::MetricsRegistry reg_a, reg_b;
  a.set_metrics(&reg_a);
  b.set_metrics(&reg_b);

  for (std::uint64_t r = 0; r < setup.m; ++r) {
    step_message(a, env_a, setup.pf, setup.pr);
    step_message(b, env_b, setup.pf, setup.pr);
    ASSERT_EQ(snapshot::state_digest(a), snapshot::state_digest(b))
        << "diverged at round " << b.round();
    const auto violations = msg_audit::check_all(b);
    ASSERT_TRUE(violations.empty())
        << "restored engine violated " << violations.front().predicate
        << " at " << to_string(violations.front().cell) << ": "
        << violations.front().detail;
  }
  EXPECT_EQ(obs::to_prometheus(reg_a), obs::to_prometheus(reg_b));
  EXPECT_EQ(a.total_arrivals(), b.total_arrivals());
  EXPECT_EQ(a.total_messages(), b.total_messages());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotRoundTrip,
                         ::testing::ValuesIn(cases()));

// ---- mismatch paths are typed and atomic -----------------------------

SystemConfig small_config() {
  SystemConfig cfg;
  cfg.side = 4;
  cfg.params = Params(0.25, 0.05, 0.1);
  cfg.sources = {CellId{1, 0}};
  cfg.target = CellId{1, 3};
  return cfg;
}

std::vector<std::uint8_t> run_and_save(System& sys, std::uint64_t rounds) {
  for (std::uint64_t r = 0; r < rounds; ++r) sys.update();
  return snapshot::save(sys);
}

TEST(SnapshotMismatch, DifferentParamsRejectedAtomically) {
  System a(small_config());
  const auto bytes = run_and_save(a, 20);

  SystemConfig other = small_config();
  other.params = Params(0.25, 0.1, 0.1);  // different rs
  System b(other);
  for (std::uint64_t r = 0; r < 5; ++r) b.update();
  const std::uint64_t before = snapshot::state_digest(b);

  try {
    snapshot::restore(b, bytes);
    FAIL() << "mismatched config accepted";
  } catch (const snapshot::SnapshotError& e) {
    EXPECT_EQ(e.code(), snapshot::Errc::kConfigMismatch);
  }
  EXPECT_EQ(snapshot::state_digest(b), before) << "failed restore mutated";
}

TEST(SnapshotMismatch, DifferentGridSideRejected) {
  System a(small_config());
  const auto bytes = run_and_save(a, 10);
  SystemConfig other = small_config();
  other.side = 5;
  other.target = CellId{1, 4};
  System b(other);
  EXPECT_THROW(snapshot::restore(b, bytes), snapshot::SnapshotError);
}

TEST(SnapshotMismatch, SharedSnapshotRejectedByMessageEngine) {
  System a(small_config());
  const auto bytes = run_and_save(a, 10);

  MsgSystemConfig mcfg;
  mcfg.side = 4;
  mcfg.params = Params(0.25, 0.05, 0.1);
  mcfg.sources = {CellId{1, 0}};
  mcfg.target = CellId{1, 3};
  MessageSystem b(mcfg);
  const std::uint64_t before = snapshot::state_digest(b);
  try {
    snapshot::restore(b, bytes);
    FAIL() << "shared snapshot accepted by message engine";
  } catch (const snapshot::SnapshotError& e) {
    EXPECT_EQ(e.code(), snapshot::Errc::kConfigMismatch);
  }
  EXPECT_EQ(snapshot::state_digest(b), before);
}

TEST(SnapshotMismatch, MessageSnapshotRejectedBySharedEngine) {
  MsgSystemConfig mcfg;
  mcfg.side = 4;
  mcfg.params = Params(0.25, 0.05, 0.1);
  mcfg.sources = {CellId{1, 0}};
  mcfg.target = CellId{1, 3};
  MessageSystem a(mcfg);
  for (int r = 0; r < 10; ++r) a.update();
  const auto bytes = snapshot::save(a);

  System b(small_config());
  const std::uint64_t before = snapshot::state_digest(b);
  try {
    snapshot::restore(b, bytes);
    FAIL() << "message snapshot accepted by shared engine";
  } catch (const snapshot::SnapshotError& e) {
    EXPECT_EQ(e.code(), snapshot::Errc::kConfigMismatch);
  }
  EXPECT_EQ(snapshot::state_digest(b), before);
}

TEST(SnapshotMismatch, FailureModelPresenceMustMatch) {
  System a(small_config());
  NoFailures failures;
  for (int r = 0; r < 10; ++r) a.update();
  const auto with = snapshot::save(a, &failures);
  const auto without = snapshot::save(a);

  System b(small_config());
  NoFailures fb;
  // Carried state but no model supplied, and vice versa.
  EXPECT_THROW(snapshot::restore(b, with), snapshot::SnapshotError);
  EXPECT_THROW(snapshot::restore(b, without, &fb),
               snapshot::SnapshotError);
  // Matched shapes both succeed.
  EXPECT_NO_THROW(snapshot::restore(b, with, &fb));
  EXPECT_NO_THROW(snapshot::restore(b, without));
}

TEST(SnapshotMismatch, NetworkKindMustMatch) {
  MsgSystemConfig mcfg;
  mcfg.side = 4;
  mcfg.params = Params(0.25, 0.05, 0.1);
  mcfg.sources = {CellId{1, 0}};
  mcfg.target = CellId{1, 3};
  MessageSystem sync_sys(mcfg);
  for (int r = 0; r < 10; ++r) sync_sys.update();
  const auto bytes = snapshot::save(sync_sys);

  NetFaultSpec spec;
  spec.drop_prob = 0.1;
  MessageSystem faulty_sys(mcfg,
                           std::make_unique<FaultyNetwork>(spec, 1));
  try {
    snapshot::restore(faulty_sys, bytes);
    FAIL() << "sync snapshot accepted by faulty-network engine";
  } catch (const snapshot::SnapshotError& e) {
    EXPECT_EQ(e.code(), snapshot::Errc::kConfigMismatch);
  }
}

// execution_digest leaves out only the fault schedule's private state:
// a SyncNetwork run and a zero-fault FaultyNetwork run of one config
// agree on it (state_digest tells them apart by the schedule's rng),
// while a fault that changed the run changes it.
TEST(SnapshotDigest, ExecutionDigestIgnoresOnlyTheFaultSchedule) {
  MsgSystemConfig mcfg;
  mcfg.side = 6;
  mcfg.params = Params(0.25, 0.05, 0.1);
  mcfg.sources = {CellId{0, 3}};
  mcfg.target = CellId{5, 3};
  NetFaultSpec lossy;
  lossy.drop_prob = 0.1;
  MessageSystem sync_sys(mcfg);
  MessageSystem idle_sys(mcfg,
                         std::make_unique<FaultyNetwork>(NetFaultSpec{}, 1));
  MessageSystem lossy_sys(mcfg, std::make_unique<FaultyNetwork>(lossy, 1));
  for (int r = 0; r < 30; ++r) {
    sync_sys.update();
    idle_sys.update();
    lossy_sys.update();
  }
  EXPECT_EQ(snapshot::execution_digest(sync_sys),
            snapshot::execution_digest(idle_sys));
  EXPECT_NE(snapshot::state_digest(sync_sys),
            snapshot::state_digest(idle_sys));
  EXPECT_NE(snapshot::execution_digest(sync_sys),
            snapshot::execution_digest(lossy_sys));
}

// ---- golden pins ------------------------------------------------------
//
// Every test above is a same-build round trip, so a change that alters
// the writer and the reader together, or the digest, passes them all.
// These cases pin literal values instead: the FNV-1a of the saved bytes
// and the state digests, for one engine of each realization and for a
// replay log. Every input is seeded and every field is fixed-width
// little-endian (doubles as their bit patterns), so the literals hold
// under every build preset. A deliberate format change bumps
// kSnapVersion, keeps the old version decoding (ROADMAP item 2a) and
// re-derives these literals.

std::uint64_t hash_of(const std::vector<std::uint8_t>& bytes) {
  return snapshot::fnv1a(bytes);
}

TEST(SnapshotGolden, SharedEngineWithPoliciesAndFailures) {
  SystemConfig cfg;
  cfg.side = 8;
  cfg.params = Params(0.25, 0.05, 0.1);
  cfg.sources = {CellId{1, 0}, CellId{6, 0}};
  cfg.target = CellId{4, 7};
  System sys(cfg, make_choose_policy("random", 11),
             std::make_unique<RateLimitedSource>(0.7, 12));
  RandomFailRecover failures(0.02, 0.1, 13);
  for (int r = 0; r < 150; ++r) step_shared(sys, failures);
  ASSERT_GT(sys.total_arrivals(), 0u);

  const std::vector<std::uint8_t> bytes = snapshot::save(sys, &failures);
  EXPECT_EQ(bytes.size(), 3091u);
  EXPECT_EQ(hash_of(bytes), 0x0c74be4326f1bdbfULL);
  EXPECT_EQ(snapshot::state_digest(sys), 0x3c2f8adbff25b5d3ULL);
}

TEST(SnapshotGolden, ChunkedEngineWithLiveAndParkedChunks) {
  SystemConfig cfg;
  cfg.side = 96;
  cfg.params = Params(0.25, 0.05, 0.1);
  cfg.sources = {CellId{2, 0}};
  cfg.target = CellId{2, 20};
  chunk::ChunkedSystem sys(cfg, make_choose_policy("random", 5),
                           std::make_unique<RateLimitedSource>(0.5, 9));
  for (int r = 0; r < 100; ++r) sys.update();
  // Six live chunks, two parked (on the wire as summaries), one virgin
  // (absent from the wire).
  ASSERT_EQ(sys.store().live_count(), 6u);
  ASSERT_EQ(sys.store().parked_count(), 2u);
  ASSERT_EQ(sys.store().chunk_count(), 9u);

  const std::vector<std::uint8_t> bytes = snapshot::save(sys);
  EXPECT_EQ(bytes.size(), 177831u);
  EXPECT_EQ(hash_of(bytes), 0x933fdde33ed45530ULL);
  EXPECT_EQ(snapshot::state_digest(sys), 0x3328fef78f043de8ULL);
}

TEST(SnapshotGolden, MessageEngineWithDelayedMessagesAndEnvRng) {
  MsgSystemConfig cfg;
  cfg.side = 5;
  cfg.params = Params(0.25, 0.05, 0.1);
  cfg.sources = {CellId{1, 0}};
  cfg.target = CellId{1, 4};
  NetFaultSpec spec;
  spec.drop_prob = 0.1;
  spec.dup_prob = 0.05;
  spec.delay_prob = 0.2;
  spec.max_delay_rounds = 3;
  auto net = std::make_unique<FaultyNetwork>(spec, 17);
  const FaultyNetwork& faulty = *net;
  MessageSystem msg(cfg, std::move(net));
  Xoshiro256 env(19);
  for (int r = 0; r < 60; ++r) step_message(msg, env, 0.01, 0.1);
  ASSERT_GT(faulty.delayed_in_flight(), 0u);

  const std::vector<std::uint8_t> bytes = snapshot::save(msg, &env);
  EXPECT_EQ(bytes.size(), 8159u);
  EXPECT_EQ(hash_of(bytes), 0xa65a77faa726314dULL);
  EXPECT_EQ(snapshot::state_digest(msg), 0xac0740fc8440a4e9ULL);
  EXPECT_EQ(snapshot::execution_digest(msg), 0x96dee68d9bb78f0eULL);
}

TEST(SnapshotGolden, ReplayLogWithCorruption) {
  System sys(small_config(), make_choose_policy("random", 31),
             std::make_unique<RateLimitedSource>(0.8, 32));
  RandomFailRecover failures(0.03, 0.2, 33);
  snapshot::RunRecorder rec(sys, &failures);
  for (int r = 0; r < 25; ++r) rec.step();
  rec.note_corrupt(CellId{2, 2}, Dist::finite(7), CellId{2, 3},
                   CellId{2, 1}, std::nullopt);
  for (int r = 0; r < 25; ++r) rec.step();

  const std::vector<std::uint8_t> bytes = rec.log().to_bytes();
  EXPECT_EQ(bytes.size(), 1584u);
  EXPECT_EQ(hash_of(bytes), 0x677c2be2735c1c89ULL);
  EXPECT_EQ(snapshot::state_digest(sys), 0x859efcbfd1d766ddULL);
}

TEST(SnapshotFiles, WriteReadRoundTrip) {
  System a(small_config());
  const auto bytes = run_and_save(a, 15);
  const std::string path = ::testing::TempDir() + "cellflow_snap_rt.bin";
  snapshot::write_file(path, bytes);
  EXPECT_EQ(snapshot::read_file(path), bytes);
  EXPECT_THROW((void)snapshot::read_file(path + ".missing"),
               snapshot::SnapshotError);
}

}  // namespace
}  // namespace cellflow
