// Unit tests for util/thread_pool.hpp — the substrate of the parallel
// round engine. The determinism-critical property is that shard
// boundaries are a pure function of (size, shard count); the pool itself
// only needs to run every task exactly once and surface exceptions.
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/check.hpp"

namespace cellflow {
namespace {

// The partition the round engines shard with: shard_range_at over every
// shard shard_count yields.
std::vector<ShardRange> partition(std::size_t size, int shards) {
  const std::size_t count = shard_count(size, shards);
  std::vector<ShardRange> out;
  for (std::size_t s = 0; s < count; ++s)
    out.push_back(shard_range_at(size, count, s));
  return out;
}

// One parallel stage of `count` tasks: the single-batch form of
// run_plan.
void run_batch(ThreadPool& pool, std::size_t count,
               FunctionRef<void(std::size_t)> task) {
  const ThreadPool::PlanStage stage{true, count, task};
  pool.run_plan(&stage, 1);
}

TEST(ShardRanges, EmptyRangeYieldsNoShards) {
  for (const int shards : {1, 2, 8}) {
    EXPECT_TRUE(partition(0, shards).empty()) << shards;
  }
}

TEST(ShardRanges, RangeSmallerThanShardCountYieldsSingletons) {
  const auto ranges = partition(3, 8);
  ASSERT_EQ(ranges.size(), 3u);
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(ranges[s], (ShardRange{s, s + 1}));
  }
}

TEST(ShardRanges, ExactBoundariesArePinned) {
  // (10, 4): 10 = 4·2 + 2, so the first two shards get the extra element.
  const std::vector<ShardRange> expected = {
      {0, 3}, {3, 6}, {6, 8}, {8, 10}};
  EXPECT_EQ(partition(10, 4), expected);
  // Even split.
  const std::vector<ShardRange> even = {{0, 2}, {2, 4}, {4, 6}, {6, 8}};
  EXPECT_EQ(partition(8, 4), even);
}

TEST(ShardRanges, DeterministicForGivenSizeAndThreads) {
  for (std::size_t size = 0; size <= 64; ++size) {
    for (int shards = 1; shards <= 9; ++shards) {
      const auto a = partition(size, shards);
      const auto b = partition(size, shards);
      ASSERT_EQ(a, b) << "size=" << size << " shards=" << shards;
    }
  }
}

TEST(ShardRanges, PartitionInvariants) {
  for (std::size_t size = 1; size <= 64; ++size) {
    for (int shards = 1; shards <= 9; ++shards) {
      const auto ranges = partition(size, shards);
      ASSERT_EQ(ranges.size(),
                std::min<std::size_t>(static_cast<std::size_t>(shards), size));
      std::size_t cursor = 0;
      std::size_t min_len = size, max_len = 0;
      for (const ShardRange& r : ranges) {
        ASSERT_EQ(r.begin, cursor);        // contiguous, ascending
        ASSERT_GT(r.end, r.begin);         // non-empty
        min_len = std::min(min_len, r.end - r.begin);
        max_len = std::max(max_len, r.end - r.begin);
        cursor = r.end;
      }
      ASSERT_EQ(cursor, size);             // covers [0, size)
      ASSERT_LE(max_len - min_len, 1u);    // balanced
    }
  }
}

TEST(ShardRanges, RejectsNonPositiveShardCount) {
  EXPECT_THROW(partition(10, 0), ContractViolation);
}

TEST(ThreadPool, RejectsNonPositiveThreadCount) {
  EXPECT_THROW(ThreadPool pool(0), ContractViolation);
}

TEST(ThreadPool, EmptyBatchReturnsWithoutInvokingTask) {
  ThreadPool pool(4);
  int calls = 0;
  run_batch(pool, 0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<int> hits(997, 0);  // distinct slots — no synchronization
  run_batch(pool, hits.size(), [&](std::size_t k) { ++hits[k]; });
  for (std::size_t k = 0; k < hits.size(); ++k)
    ASSERT_EQ(hits[k], 1) << "task " << k;
}

TEST(ThreadPool, BatchSmallerThanThreadCount) {
  ThreadPool pool(8);
  std::vector<int> hits(3, 0);
  run_batch(pool, hits.size(), [&](std::size_t k) { ++hits[k]; });
  EXPECT_EQ(hits, (std::vector<int>{1, 1, 1}));
}

TEST(ThreadPool, ReusableAcrossManyBatches) {
  ThreadPool pool(3);
  std::uint64_t total = 0;
  for (int batch = 0; batch < 50; ++batch) {
    std::vector<std::uint64_t> out(17, 0);
    run_batch(pool, out.size(), [&](std::size_t k) { out[k] = k + 1; });
    total += std::accumulate(out.begin(), out.end(), std::uint64_t{0});
  }
  EXPECT_EQ(total, 50u * (17u * 18u / 2u));
}

TEST(ThreadPool, PropagatesLowestIndexException) {
  ThreadPool pool(4);
  // Several tasks throw; the rethrown one must deterministically be the
  // lowest task index, independent of which worker ran what, and the
  // non-throwing tasks must still have executed.
  std::vector<int> hits(64, 0);
  try {
    run_batch(pool, hits.size(), [&](std::size_t k) {
      if (k == 5 || k == 2 || k == 40)
        throw std::runtime_error("task " + std::to_string(k));
      ++hits[k];
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 2");
  }
  for (std::size_t k = 0; k < hits.size(); ++k) {
    if (k == 5 || k == 2 || k == 40) continue;
    ASSERT_EQ(hits[k], 1) << "task " << k;
  }
}

TEST(ThreadPool, UsableAfterException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      run_batch(pool, 4,
                [](std::size_t) { throw std::runtime_error("boom"); }),
      std::runtime_error);
  std::vector<int> hits(8, 0);
  run_batch(pool, hits.size(), [&](std::size_t k) { ++hits[k]; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 8);
}

TEST(PlanStage, StagesAreStrictlyBarriered) {
  // A later stage must observe every write of the earlier one: stage 0
  // fills hits, the serial stage sums it, stage 2 checks the sum.
  ThreadPool pool(4);
  const std::size_t n = 64;
  std::vector<int> hits(n, 0);
  int serial_sum = 0;
  std::atomic<int> checked{0};
  const auto fill = [&](std::size_t k) { hits[k] = 1; };
  const auto sum = [&](std::size_t) {
    serial_sum = std::accumulate(hits.begin(), hits.end(), 0);
  };
  const auto check = [&](std::size_t) {
    if (serial_sum == static_cast<int>(n)) checked.fetch_add(1);
  };
  const ThreadPool::PlanStage stages[] = {
      {true, n, fill}, {false, 0, sum}, {true, 8, check}};
  pool.run_plan(stages, 3);
  EXPECT_EQ(serial_sum, static_cast<int>(n));
  EXPECT_EQ(checked.load(), 8);
}

TEST(PlanStage, SerialStageRunsOnTheCallingThread) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id seen;
  const auto body = [&](std::size_t) { seen = std::this_thread::get_id(); };
  const ThreadPool::PlanStage stages[] = {{false, 0, body}};
  pool.run_plan(stages, 1);
  EXPECT_EQ(seen, caller);
}

TEST(PlanStage, AbortSkipsLaterStagesAndRethrowsLowestPair) {
  ThreadPool pool(4);
  std::atomic<int> later{0};
  const auto faulty = [](std::size_t k) {
    if (k == 2 || k == 5) throw std::runtime_error("task " + std::to_string(k));
  };
  const auto after = [&](std::size_t) { later.fetch_add(1); };
  const ThreadPool::PlanStage stages[] = {{true, 8, faulty}, {true, 8, after}};
  try {
    pool.run_plan(stages, 2);
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 2");
  }
  EXPECT_EQ(later.load(), 0);
  // The pool stays usable after an aborted plan.
  std::vector<int> hits(8, 0);
  run_batch(pool, hits.size(), [&](std::size_t k) { ++hits[k]; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 8);
}

TEST(PlanStage, ReusableAcrossManyPlans) {
  ThreadPool pool(4);
  std::atomic<std::uint64_t> total{0};
  const auto add = [&](std::size_t k) { total.fetch_add(k + 1); };
  const auto noop = [](std::size_t) {};
  for (int i = 0; i < 50; ++i) {
    const ThreadPool::PlanStage stages[] = {
        {true, 16, add}, {false, 0, noop}, {true, 16, add}};
    pool.run_plan(stages, 3);
  }
  EXPECT_EQ(total.load(), 50u * 2u * (16u * 17u / 2u));
}

TEST(PlanStage, PoolOfOneRunsEverythingInline) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> off_thread{0};
  const auto body = [&](std::size_t) {
    if (std::this_thread::get_id() != caller) off_thread.fetch_add(1);
  };
  const ThreadPool::PlanStage stages[] = {{true, 7, body}, {false, 0, body}};
  pool.run_plan(stages, 2);
  EXPECT_EQ(off_thread.load(), 0);
}

TEST(ThreadPool, DispatchStatsCountEachPublishedBatch) {
  ThreadPool pool(2);
  const DispatchStats before = pool.dispatch_stats();
  const auto noop = [](std::size_t) {};
  run_batch(pool, 4, noop);
  const ThreadPool::PlanStage stages[] = {{true, 4, noop}, {true, 4, noop}};
  pool.run_plan(stages, 2);  // a whole plan is a single dispatch
  const DispatchStats after = pool.dispatch_stats();
  EXPECT_EQ(after.dispatches - before.dispatches, 2u);
  EXPECT_GE(after.spin_wakes + after.park_wakes,
            before.spin_wakes + before.park_wakes);
}

}  // namespace
}  // namespace cellflow
