// Unit tests for the transport layer (src/net): NetworkModel's canonical
// delivery order and statistics, SyncNetwork's reliability, and
// FaultyNetwork's seeded fault schedule taken one fault kind at a time.
// The end-to-end properties (equivalence, safety under faults,
// restabilization) live in test_net_faults.cpp.
#include "net/faulty_network.hpp"
#include "net/network_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "grid/grid.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace cellflow {
namespace {

Message dist_msg(CellId from, CellId to, std::uint64_t hops) {
  return Message{from, to, DistAnnounce{Dist::finite(hops)}};
}

Dist dist_of(const Message& m) { return std::get<DistAnnounce>(m.payload).dist; }

TEST(SyncNetwork, DeliversToAddresseeOnly) {
  Grid grid(3);
  SyncNetwork net;
  net.begin_round(0);
  net.send(dist_msg(CellId{0, 0}, CellId{0, 1}, 1));
  net.send(dist_msg(CellId{2, 2}, CellId{2, 1}, 2));
  const auto inboxes = net.deliver_all(grid);
  ASSERT_EQ(inboxes.size(), grid.cell_count());
  EXPECT_EQ(inboxes[grid.index_of(CellId{0, 1})].size(), 1u);
  EXPECT_EQ(inboxes[grid.index_of(CellId{2, 1})].size(), 1u);
  std::size_t delivered = 0;
  for (std::size_t k = 0; k < inboxes.size(); ++k)
    delivered += inboxes[k].size();
  EXPECT_EQ(delivered, 2u);
  EXPECT_EQ(net.last_exchange_messages(), 2u);
}

TEST(SyncNetwork, CanonicalOrderSortsBySenderAndKeepsLinkFifo) {
  Grid grid(3);
  SyncNetwork net;
  net.begin_round(0);
  const CellId rx{1, 1};
  // Send from three neighbors in DESCENDING sender order, with two
  // messages on the (2,1)→(1,1) link to exercise the FIFO tie break.
  net.send(dist_msg(CellId{2, 1}, rx, 9));
  net.send(dist_msg(CellId{2, 1}, rx, 10));
  net.send(dist_msg(CellId{1, 2}, rx, 11));
  net.send(dist_msg(CellId{0, 1}, rx, 12));
  const auto inboxes = net.deliver_all(grid);
  const auto& inbox = inboxes[grid.index_of(rx)];
  ASSERT_EQ(inbox.size(), 4u);
  // Ascending sender id; the duplicate link retains send order.
  EXPECT_EQ(inbox[0].sender, (CellId{0, 1}));
  EXPECT_EQ(inbox[1].sender, (CellId{1, 2}));
  EXPECT_EQ(inbox[2].sender, (CellId{2, 1}));
  EXPECT_EQ(inbox[3].sender, (CellId{2, 1}));
  EXPECT_EQ(std::get<DistAnnounce>(inbox[2].payload).dist, Dist::finite(9));
  EXPECT_EQ(std::get<DistAnnounce>(inbox[3].payload).dist, Dist::finite(10));
}

// The barrier's counting pass and per-inbox sender pass must deliver
// exactly what a stable sort of the send queue by (receiver index,
// sender) gives. Each queue mixes random links carrying several
// interleaved messages with the shape MessageSystem sends: every cell
// broadcasting to grid.neighbors in index order, whose arrival order at
// a receiver is NOT sender order (index order is j-major, CellId order
// i-major). The dist payload stamps each message with its queue
// position, so equal stamps mean the very same message.
TEST(SyncNetwork, DeliveryMatchesStableSortReference) {
  for (std::uint64_t seed = 1; seed <= 48; ++seed) {
    Xoshiro256 rng(seed);
    SyncNetwork net;
    Inboxes inboxes;  // reused across barriers, as MessageSystem does
    for (int side = 1; side <= 9; ++side) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " side " +
                   std::to_string(side));
      const Grid grid(side);
      const std::size_t cells = grid.cell_count();
      std::vector<std::pair<CellId, CellId>> links(1 + rng.below(2 * cells));
      for (auto& [from, to] : links) {
        from = grid.id_of(rng.below(cells));
        to = grid.id_of(rng.below(cells));
      }
      std::vector<Message> queue;
      const auto send_random = [&] {
        for (std::uint64_t n = rng.below(3 * links.size()); n > 0; --n) {
          const auto& [from, to] = links[rng.below(links.size())];
          queue.push_back(dist_msg(from, to, queue.size()));
        }
      };
      send_random();
      for (std::size_t k = 0; k < cells; ++k) {
        const CellId from = grid.id_of(k);
        for (const CellId to : grid.neighbors(from))
          queue.push_back(dist_msg(from, to, queue.size()));
      }
      send_random();

      net.begin_round(0);
      for (const Message& m : queue) net.send(m);
      net.deliver_all(grid, inboxes);

      std::vector<Message> reference = queue;
      std::stable_sort(reference.begin(), reference.end(),
                       [&](const Message& a, const Message& b) {
                         const std::size_t ra = grid.index_of(a.receiver);
                         const std::size_t rb = grid.index_of(b.receiver);
                         return ra != rb ? ra < rb : a.sender < b.sender;
                       });
      ASSERT_EQ(inboxes.size(), cells);
      std::size_t at = 0;
      for (std::size_t k = 0; k < cells; ++k) {
        for (const Message& m : inboxes[k]) {
          ASSERT_LT(at, reference.size());
          ASSERT_EQ(grid.index_of(m.receiver), k);
          ASSERT_EQ(m.sender, reference[at].sender);
          ASSERT_EQ(dist_of(m), dist_of(reference[at]));
          ++at;
        }
      }
      EXPECT_EQ(at, reference.size());
    }
  }
}

TEST(SyncNetwork, CountsMessagesPerPayloadType) {
  Grid grid(3);
  SyncNetwork net;
  const CellId a{0, 0};
  const CellId b{0, 1};
  net.begin_round(0);
  net.send(Message{a, b, DistAnnounce{Dist::finite(1)}});
  net.send(Message{a, b, IntentAnnounce{OptCellId{b}, true}});
  net.send(Message{a, b, GrantAnnounce{OptCellId{a}, 1, 0}});
  net.send(Message{a, b, TransferBatch{1, {}}});
  net.send(Message{a, b, TransferAck{1}});
  net.send(Message{a, b, TransferAck{2}});
  (void)net.deliver_all(grid);
  EXPECT_EQ(net.sent_count(PayloadType::kDist), 1u);
  EXPECT_EQ(net.sent_count(PayloadType::kIntent), 1u);
  EXPECT_EQ(net.sent_count(PayloadType::kGrant), 1u);
  EXPECT_EQ(net.sent_count(PayloadType::kTransfer), 1u);
  EXPECT_EQ(net.sent_count(PayloadType::kAck), 2u);
  EXPECT_EQ(net.total_messages(), 6u);
  EXPECT_EQ(net.barrier_count(), 1u);
  for (std::size_t f = 0; f < kNetFaultCount; ++f)
    EXPECT_EQ(net.fault_count(static_cast<NetFault>(f)), 0u);
  EXPECT_TRUE(net.quiescent());
}

TEST(SyncNetwork, BarrierClearsTheQueue) {
  Grid grid(3);
  SyncNetwork net;
  net.begin_round(0);
  net.send(dist_msg(CellId{0, 0}, CellId{0, 1}, 1));
  (void)net.deliver_all(grid);
  // Second barrier with nothing queued delivers nothing.
  const auto inboxes = net.deliver_all(grid);
  for (std::size_t k = 0; k < inboxes.size(); ++k)
    EXPECT_TRUE(inboxes[k].empty());
  EXPECT_EQ(net.last_exchange_messages(), 0u);
}

TEST(SyncNetwork, RejectsMessagesToUnknownProcesses) {
  Grid grid(3);
  SyncNetwork net;
  net.begin_round(0);
  net.send(dist_msg(CellId{0, 0}, CellId{7, 7}, 1));
  EXPECT_THROW((void)net.deliver_all(grid), ContractViolation);
}

TEST(FaultyNetwork, DropAllDeliversNothingAndCounts) {
  Grid grid(3);
  NetFaultSpec spec;
  spec.drop_prob = 1.0;
  FaultyNetwork net(spec, 1);
  net.begin_round(0);
  net.send(dist_msg(CellId{0, 0}, CellId{0, 1}, 1));
  net.send(Message{CellId{0, 0}, CellId{0, 1}, TransferAck{1}});
  const auto inboxes = net.deliver_all(grid);
  for (std::size_t k = 0; k < inboxes.size(); ++k)
    EXPECT_TRUE(inboxes[k].empty());
  EXPECT_EQ(net.fault_count(NetFault::kDropped), 2u);
  EXPECT_EQ(net.fault_count(NetFault::kDropped, PayloadType::kDist), 1u);
  EXPECT_EQ(net.fault_count(NetFault::kDropped, PayloadType::kAck), 1u);
  EXPECT_FALSE(net.quiescent());  // the adversary never ceases by default
}

TEST(FaultyNetwork, DuplicateAllDeliversTwoCopies) {
  Grid grid(3);
  NetFaultSpec spec;
  spec.dup_prob = 1.0;
  FaultyNetwork net(spec, 1);
  net.begin_round(0);
  net.send(dist_msg(CellId{0, 0}, CellId{0, 1}, 1));
  const auto inboxes = net.deliver_all(grid);
  EXPECT_EQ(inboxes[grid.index_of(CellId{0, 1})].size(), 2u);
  EXPECT_EQ(net.fault_count(NetFault::kDuplicated), 1u);
}

TEST(FaultyNetwork, DelayResurfacesAtTheSameExchangeOfALaterRound) {
  Grid grid(3);
  NetFaultSpec spec;
  spec.delay_prob = 1.0;
  spec.max_delay_rounds = 1;
  FaultyNetwork net(spec, 1);
  // Round 0, exchange 1: the message is buffered, not delivered.
  net.begin_round(0);
  net.send(dist_msg(CellId{0, 0}, CellId{0, 1}, 3));
  auto inboxes = net.deliver_all(grid);
  EXPECT_TRUE(inboxes[grid.index_of(CellId{0, 1})].empty());
  EXPECT_EQ(net.delayed_in_flight(), 1u);
  // Remaining exchanges of round 0: still buffered.
  for (std::uint64_t e = 1; e < kExchangesPerRound; ++e) {
    inboxes = net.deliver_all(grid);
    EXPECT_TRUE(inboxes[grid.index_of(CellId{0, 1})].empty()) << e;
  }
  // Round 1, exchange 1 (max_delay_rounds = 1 → exactly one round late):
  // the stale DistAnnounce arrives at a dist barrier again.
  net.begin_round(1);
  inboxes = net.deliver_all(grid);
  ASSERT_EQ(inboxes[grid.index_of(CellId{0, 1})].size(), 1u);
  EXPECT_EQ(std::get<DistAnnounce>(
                inboxes[grid.index_of(CellId{0, 1})][0].payload)
                .dist,
            Dist::finite(3));
  EXPECT_EQ(net.delayed_in_flight(), 0u);
  EXPECT_EQ(net.fault_count(NetFault::kDelayed), 1u);
}

// Duplicates and multi-round delays re-enter the barrier out of send
// order, yet every inbox still reads ascending in sender, and along one
// link a per-link send counter (carried as the dist payload) never
// decreases: a released late copy precedes the fresh sends, and a
// duplicate sits next to its original.
TEST(FaultyNetwork, DeliveryKeepsSenderOrderAndLinkFifo) {
  NetFaultSpec spec;
  spec.dup_prob = 0.3;
  spec.delay_prob = 0.3;
  spec.max_delay_rounds = 3;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Grid grid(static_cast<int>(2 + seed % 6));
    const std::size_t cells = grid.cell_count();
    FaultyNetwork net(spec, seed);
    Xoshiro256 rng(seed);
    Inboxes inboxes;
    std::vector<std::uint64_t> sent(cells * cells, 0);       // per link
    std::vector<std::uint64_t> delivered(cells * cells, 0);  // per link
    std::uint64_t late = 0;
    for (std::uint64_t round = 0; round < 12; ++round) {
      net.begin_round(round);
      for (std::uint64_t e = 0; e < kExchangesPerRound; ++e) {
        for (std::size_t k = 0; k < cells; ++k) {
          const CellId from = grid.id_of(k);
          for (const CellId to : grid.neighbors(from)) {
            std::uint64_t& n = sent[k * cells + grid.index_of(to)];
            for (std::uint64_t copy = rng.below(3); copy > 0; --copy)
              net.send(dist_msg(from, to, ++n));
          }
        }
        net.deliver_all(grid, inboxes);
        for (std::size_t r = 0; r < cells; ++r) {
          const Inbox inbox = inboxes[r];
          for (std::size_t n = 0; n < inbox.size(); ++n) {
            const Message& m = inbox[n];
            const std::uint64_t count = dist_of(m).hops();
            std::uint64_t& high =
                delivered[grid.index_of(m.sender) * cells + r];
            if (count < high) ++late;
            high = std::max(high, count);
            if (n == 0) continue;
            const Message& prev = inbox[n - 1];
            ASSERT_LE(prev.sender, m.sender);
            if (prev.sender == m.sender) {
              ASSERT_LE(dist_of(prev).hops(), count);
            }
          }
        }
      }
    }
    // The schedule really did re-order the wire: copies and late
    // releases both reached the inboxes checked above.
    EXPECT_GT(net.fault_count(NetFault::kDuplicated), 0u);
    EXPECT_GT(net.fault_count(NetFault::kDelayed), 0u);
    EXPECT_GT(late, 0u);
  }
}

TEST(FaultyNetwork, PartitionCutsCrossingMessagesWhileActive) {
  Grid grid(2);
  const NetPartition part{1, 3,
                          CellMask::of(grid, {CellId{0, 0}, CellId{0, 1}})};
  NetFaultSpec spec;
  spec.partitions = {part};
  FaultyNetwork net(spec, 1);

  const auto crossing = [&] {
    net.send(dist_msg(CellId{0, 0}, CellId{1, 0}, 1));  // crosses
    net.send(dist_msg(CellId{0, 0}, CellId{0, 1}, 1));  // same side
    const auto inboxes = net.deliver_all(grid);
    return inboxes[grid.index_of(CellId{1, 0})].size();
  };

  net.begin_round(0);
  EXPECT_EQ(crossing(), 1u);  // not yet active
  net.begin_round(1);
  EXPECT_EQ(crossing(), 0u);  // active: the crossing message is cut
  EXPECT_FALSE(net.quiescent());
  net.begin_round(2);
  EXPECT_EQ(crossing(), 0u);
  net.begin_round(3);
  EXPECT_EQ(crossing(), 1u);  // healed
  EXPECT_TRUE(net.quiescent());
  EXPECT_EQ(net.fault_count(NetFault::kPartitioned, PayloadType::kDist),
            2u);
  // The same-side link was never touched.
  EXPECT_EQ(net.fault_count(NetFault::kDropped), 0u);
}

TEST(FaultyNetwork, StochasticFaultsCeaseAfterLastFaultRound) {
  Grid grid(2);
  NetFaultSpec spec;
  spec.drop_prob = 1.0;
  spec.last_fault_round = 1;
  FaultyNetwork net(spec, 1);
  net.begin_round(1);
  net.send(dist_msg(CellId{0, 0}, CellId{0, 1}, 1));
  auto inboxes = net.deliver_all(grid);
  EXPECT_TRUE(inboxes[grid.index_of(CellId{0, 1})].empty());
  EXPECT_FALSE(net.quiescent());  // round 1 is still fault-eligible
  net.begin_round(2);
  EXPECT_TRUE(net.quiescent());
  net.send(dist_msg(CellId{0, 0}, CellId{0, 1}, 1));
  inboxes = net.deliver_all(grid);
  EXPECT_EQ(inboxes[grid.index_of(CellId{0, 1})].size(), 1u);
}

TEST(FaultyNetwork, ZeroSpecConsumesNoRandomnessAndIsQuiescent) {
  Grid grid(2);
  FaultyNetwork net(NetFaultSpec{}, 99);
  EXPECT_FALSE(net.spec().stochastic());
  EXPECT_TRUE(net.quiescent());
  net.begin_round(0);
  net.send(dist_msg(CellId{0, 0}, CellId{1, 0}, 1));
  const auto inboxes = net.deliver_all(grid);
  EXPECT_EQ(inboxes[grid.index_of(CellId{1, 0})].size(), 1u);
  for (std::size_t f = 0; f < kNetFaultCount; ++f)
    EXPECT_EQ(net.fault_count(static_cast<NetFault>(f)), 0u);
}

}  // namespace
}  // namespace cellflow
