// Unit tests for the transport layer (src/net): the neighbour-slot
// mailboxes' canonical delivery order and statistics, SyncNetwork's
// reliability, and FaultyNetwork's seeded fault schedule taken one fault
// kind at a time. The end-to-end properties (equivalence, safety under
// faults, restabilization) live in test_net_faults.cpp.
#include "net/faulty_network.hpp"
#include "net/network_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "grid/grid.hpp"
#include "util/rng.hpp"

namespace cellflow {
namespace {

/// One message as its receiver reads it.
struct Delivery {
  std::size_t receiver = 0;
  CellId sender;
  std::uint64_t stamp = 0;
  bool late = false;  // a copy the network delivered late

  friend bool operator==(const Delivery&, const Delivery&) = default;
};

std::uint64_t stamp_of(const Message& m) {
  return std::get<DistAnnounce>(m.payload).dist.hops();
}

/// A test sender plane over one grid: every slot carries a dist stamp,
/// one per sender on a broadcast exchange and one per link on a list
/// exchange, and every inbox is read back in canonical order.
class Plane {
 public:
  explicit Plane(int side) : grid_(side) {}

  [[nodiscard]] const Grid& grid() const noexcept { return grid_; }
  [[nodiscard]] std::uint32_t at(CellId id) const {
    return static_cast<std::uint32_t>(grid_.index_of(id));
  }
  /// Every cell's lattice links: the broadcast MessageSystem sends.
  [[nodiscard]] std::vector<std::uint8_t> all_links() const {
    std::vector<std::uint8_t> masks(grid_.cell_count());
    for (std::size_t k = 0; k < masks.size(); ++k)
      masks[k] = lattice_links(grid_, grid_.id_of(k));
    return masks;
  }

  /// Broadcast exchange: sender k writes stamps[k] toward every
  /// direction set in masks[k]; returns every inbox, receivers ascending.
  std::vector<Delivery> broadcast(NetworkModel& net,
                                  std::vector<std::uint8_t> masks,
                                  std::vector<std::uint64_t> stamps,
                                  PayloadType type = PayloadType::kDist) {
    fresh_ = std::move(masks);
    stamps_ = std::move(stamps);
    std::uint64_t sent = 0;
    for (const std::uint8_t m : fresh_)
      sent += static_cast<std::uint64_t>(std::popcount(m));
    Exchange x(type, grid_, fresh_, sent, &Plane::payload, this);
    net.exchange(x);
    std::vector<Delivery> out;
    std::span<const Message> late = net.late();
    for (std::size_t r = 0; r < grid_.cell_count(); ++r)
      x.read_inbox(late, grid_.id_of(r),
                 [&](Direction, std::size_t n, const Message* copy) {
                   out.push_back(copy == nullptr
                                     ? Delivery{r, grid_.id_of(n), stamps_[n],
                                                false}
                                     : Delivery{r, copy->sender,
                                                stamp_of(*copy), true});
                 });
    return out;
  }

  /// List exchange: links[n] carries stamps[n]; returns every delivery
  /// in canonical order.
  std::vector<Delivery> list(NetworkModel& net, std::vector<Link> links,
                             std::vector<std::uint64_t> stamps,
                             PayloadType type = PayloadType::kDist) {
    links_ = std::move(links);
    stamps_ = std::move(stamps);
    fresh_.clear();
    for (std::size_t n = 0; n < links_.size(); ++n) {
      links_[n].slot = static_cast<std::uint32_t>(n);
      fresh_.push_back(direction_bit(links_[n].to));
    }
    Exchange x(type, grid_, links_, fresh_, &Plane::payload, this);
    net.exchange(x);
    std::vector<Delivery> out;
    x.for_each_delivery(net.late(), order_,
                      [&](std::size_t r, std::size_t from, const Link* link,
                          const Message* copy) {
                        out.push_back(Delivery{
                            r, grid_.id_of(from),
                            link != nullptr ? stamps_[link->slot]
                                            : stamp_of(*copy),
                            link == nullptr});
                      });
    return out;
  }

 private:
  static Payload payload(const void* self, PayloadType,
                         const Link& link) {
    return DistAnnounce{
        Dist::finite(static_cast<const Plane*>(self)->stamps_[link.slot])};
  }

  Grid grid_;
  std::vector<std::uint8_t> fresh_;
  std::vector<Link> links_;
  std::vector<std::uint64_t> stamps_;
  std::vector<Arrival> order_;
};

std::vector<Delivery> inbox_of(const std::vector<Delivery>& all,
                               std::size_t r) {
  std::vector<Delivery> out;
  for (const Delivery& d : all)
    if (d.receiver == r) out.push_back(d);
  return out;
}

/// A message of a send queue, for the stable-sort reference.
struct Sent {
  std::size_t receiver;
  CellId sender;
  std::uint64_t stamp;
  bool late;
};

/// The canonical order: a stable sort of the deliveries in send order by
/// (receiver index, sender).
std::vector<Delivery> stable_sorted(std::vector<Sent> queue) {
  std::stable_sort(queue.begin(), queue.end(),
                   [](const Sent& a, const Sent& b) {
                     return a.receiver != b.receiver ? a.receiver < b.receiver
                                                     : a.sender < b.sender;
                   });
  std::vector<Delivery> out;
  for (const Sent& s : queue)
    out.push_back(Delivery{s.receiver, s.sender, s.stamp, s.late});
  return out;
}

TEST(SyncNetwork, DeliversToAddresseeOnly) {
  Plane plane(3);
  SyncNetwork net;
  net.begin_round(0);
  const auto got = plane.list(
      net, {Link{plane.at(CellId{0, 0}), Direction::kNorth},
            Link{plane.at(CellId{2, 2}), Direction::kSouth}},
      {1, 2});
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], (Delivery{plane.at(CellId{0, 1}), CellId{0, 0}, 1, false}));
  EXPECT_EQ(got[1], (Delivery{plane.at(CellId{2, 1}), CellId{2, 2}, 2, false}));
  EXPECT_EQ(net.last_exchange_messages(), 2u);
  EXPECT_TRUE(net.late().empty());
}

TEST(SyncNetwork, CanonicalOrderSortsBySenderAndKeepsLinkFifo) {
  Plane plane(3);
  SyncNetwork net;
  net.begin_round(0);
  const CellId rx{1, 1};
  // Send from three neighbors in DESCENDING sender order, with two
  // messages on the (2,1)→(1,1) link to exercise the FIFO tie break.
  const auto got = plane.list(
      net, {Link{plane.at(CellId{2, 1}), Direction::kWest},
            Link{plane.at(CellId{2, 1}), Direction::kWest},
            Link{plane.at(CellId{1, 2}), Direction::kSouth},
            Link{plane.at(CellId{0, 1}), Direction::kEast}},
      {9, 10, 11, 12});
  const auto inbox = inbox_of(got, plane.at(rx));
  ASSERT_EQ(inbox.size(), 4u);
  // Ascending sender id; the two-message link retains send order.
  EXPECT_EQ(inbox[0].sender, (CellId{0, 1}));
  EXPECT_EQ(inbox[1].sender, (CellId{1, 2}));
  EXPECT_EQ(inbox[2].sender, (CellId{2, 1}));
  EXPECT_EQ(inbox[3].sender, (CellId{2, 1}));
  EXPECT_EQ(inbox[2].stamp, 9u);
  EXPECT_EQ(inbox[3].stamp, 10u);
}

// A broadcast receiver reads its neighbours ascending in CellId, although
// senders write in index order — j-major, so (i,j−1) before (i−1,j).
TEST(SyncNetwork, BroadcastReadsNeighboursAscending) {
  Plane plane(3);
  SyncNetwork net;
  net.begin_round(0);
  std::vector<std::uint64_t> stamps(9);
  for (std::size_t k = 0; k < stamps.size(); ++k) stamps[k] = 100 + k;
  const auto got = plane.broadcast(net, plane.all_links(), stamps);
  EXPECT_EQ(got.size(), 24u);  // 4·N·(N−1) directed lattice links
  const auto inbox = inbox_of(got, plane.at(CellId{1, 1}));
  ASSERT_EQ(inbox.size(), 4u);
  EXPECT_EQ(inbox[0].sender, (CellId{0, 1}));
  EXPECT_EQ(inbox[1].sender, (CellId{1, 0}));
  EXPECT_EQ(inbox[2].sender, (CellId{1, 2}));
  EXPECT_EQ(inbox[3].sender, (CellId{2, 1}));
  EXPECT_EQ(inbox[1].stamp, 101u);
}

// The mailboxes must deliver exactly what a stable sort of the send
// queue by (receiver index, sender) gives, over random neighbour-link
// schedules: broadcast exchanges whose senders each write a random
// subset of their lattice links (and the full broadcast MessageSystem
// sends), and list exchanges carrying several interleaved messages per
// link. Every stamp is distinct per slot, so equal stamps mean the very
// same message.
TEST(SyncNetwork, DeliveryMatchesStableSortReference) {
  for (std::uint64_t seed = 1; seed <= 48; ++seed) {
    Xoshiro256 rng(seed);
    SyncNetwork net;
    for (int side = 1; side <= 9; ++side) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " side " +
                   std::to_string(side));
      Plane plane(side);
      const Grid& grid = plane.grid();
      const std::size_t cells = grid.cell_count();
      net.begin_round(0);

      for (const bool full : {true, false}) {
        std::vector<std::uint8_t> masks = plane.all_links();
        if (!full)
          for (std::uint8_t& m : masks)
            m &= static_cast<std::uint8_t>(rng.below(16));
        std::vector<std::uint64_t> stamps(cells);
        std::vector<Sent> queue;
        for (std::size_t k = 0; k < cells; ++k) {
          stamps[k] = rng.below(1000);
          for (const Direction d : kAllDirections)
            if ((masks[k] & direction_bit(d)) != 0)
              queue.push_back(Sent{neighbor_index(grid, k, d), grid.id_of(k),
                                   stamps[k], false});
        }
        EXPECT_EQ(plane.broadcast(net, masks, stamps), stable_sorted(queue));
        EXPECT_EQ(net.last_exchange_messages(), queue.size());
      }

      std::vector<Link> pool;
      for (std::size_t k = 0; k < cells; ++k)
        for (const Direction d : kAllDirections)
          if ((lattice_links(grid, grid.id_of(k)) & direction_bit(d)) != 0)
            pool.push_back(Link{static_cast<std::uint32_t>(k), d, 0});
      std::vector<Link> links;
      std::vector<std::uint64_t> stamps;
      std::vector<Sent> queue;
      if (!pool.empty()) {
        for (std::uint64_t n = rng.below(3 * pool.size()); n > 0; --n) {
          const Link l = pool[rng.below(pool.size())];
          links.push_back(l);
          stamps.push_back(links.size());
          queue.push_back(Sent{neighbor_index(grid, l.sender, l.to),
                               grid.id_of(l.sender), links.size(), false});
        }
      }
      EXPECT_EQ(plane.list(net, links, stamps), stable_sorted(queue));
    }
  }
}

TEST(SyncNetwork, CountsMessagesPerPayloadType) {
  Plane plane(3);
  SyncNetwork net;
  const Link ab{plane.at(CellId{0, 0}), Direction::kNorth};
  net.begin_round(0);
  (void)plane.list(net, {ab}, {1}, PayloadType::kDist);
  (void)plane.list(net, {ab}, {1}, PayloadType::kIntent);
  (void)plane.list(net, {ab}, {1}, PayloadType::kGrant);
  (void)plane.list(net, {ab}, {1}, PayloadType::kTransfer);
  (void)plane.list(net, {ab, ab}, {1, 2}, PayloadType::kAck);
  EXPECT_EQ(net.sent_count(PayloadType::kDist), 1u);
  EXPECT_EQ(net.sent_count(PayloadType::kIntent), 1u);
  EXPECT_EQ(net.sent_count(PayloadType::kGrant), 1u);
  EXPECT_EQ(net.sent_count(PayloadType::kTransfer), 1u);
  EXPECT_EQ(net.sent_count(PayloadType::kAck), 2u);
  EXPECT_EQ(net.total_messages(), 6u);
  EXPECT_EQ(net.barrier_count(), 5u);
  // A broadcast counts every link its live senders wrote.
  (void)plane.broadcast(net, plane.all_links(),
                        std::vector<std::uint64_t>(9, 0));
  EXPECT_EQ(net.sent_count(PayloadType::kDist), 25u);
  for (std::size_t f = 0; f < kNetFaultCount; ++f)
    EXPECT_EQ(net.fault_count(static_cast<NetFault>(f)), 0u);
  EXPECT_TRUE(net.quiescent());
}

// A barrier leaves nothing behind: the next exchange, with nothing sent,
// delivers nothing.
TEST(SyncNetwork, BarrierClearsTheQueue) {
  Plane plane(3);
  SyncNetwork net;
  net.begin_round(0);
  (void)plane.list(net, {Link{plane.at(CellId{0, 0}), Direction::kNorth}},
                   {1});
  EXPECT_TRUE(plane.list(net, {}, {}).empty());
  EXPECT_TRUE(
      plane.broadcast(net, std::vector<std::uint8_t>(9, 0),
                      std::vector<std::uint64_t>(9, 0))
          .empty());
  EXPECT_EQ(net.last_exchange_messages(), 0u);
}

TEST(FaultyNetwork, DropAllDeliversNothingAndCounts) {
  Plane plane(3);
  NetFaultSpec spec;
  spec.drop_prob = 1.0;
  FaultyNetwork net(spec, 1);
  net.begin_round(0);
  const Link ab{plane.at(CellId{0, 0}), Direction::kNorth};
  EXPECT_TRUE(plane.list(net, {ab}, {1}, PayloadType::kDist).empty());
  EXPECT_TRUE(plane.list(net, {ab}, {1}, PayloadType::kAck).empty());
  EXPECT_EQ(net.fault_count(NetFault::kDropped), 2u);
  EXPECT_EQ(net.fault_count(NetFault::kDropped, PayloadType::kDist), 1u);
  EXPECT_EQ(net.fault_count(NetFault::kDropped, PayloadType::kAck), 1u);
  EXPECT_EQ(net.last_exchange_messages(), 0u);
  EXPECT_FALSE(net.quiescent());  // the adversary never ceases by default
}

TEST(FaultyNetwork, DuplicateAllDeliversTwoCopies) {
  Plane plane(3);
  NetFaultSpec spec;
  spec.dup_prob = 1.0;
  FaultyNetwork net(spec, 1);
  net.begin_round(0);
  const auto got = plane.list(
      net, {Link{plane.at(CellId{0, 0}), Direction::kNorth}}, {1});
  ASSERT_EQ(got.size(), 2u);
  // The copy is read first, then the link's fresh slot.
  EXPECT_TRUE(got[0].late);
  EXPECT_FALSE(got[1].late);
  EXPECT_EQ(got[0].stamp, got[1].stamp);
  EXPECT_EQ(net.fault_count(NetFault::kDuplicated), 1u);
  EXPECT_EQ(net.last_exchange_messages(), 2u);
}

TEST(FaultyNetwork, DelayResurfacesAtTheSameExchangeOfALaterRound) {
  Plane plane(3);
  NetFaultSpec spec;
  spec.delay_prob = 1.0;
  spec.max_delay_rounds = 1;
  FaultyNetwork net(spec, 1);
  const Link ab{plane.at(CellId{0, 0}), Direction::kNorth};
  // Round 0, exchange 1: the message is buffered, not delivered.
  net.begin_round(0);
  EXPECT_TRUE(plane.list(net, {ab}, {3}).empty());
  EXPECT_EQ(net.delayed_in_flight(), 1u);
  // Remaining exchanges of round 0: still buffered.
  for (std::uint64_t e = 1; e < kExchangesPerRound; ++e)
    EXPECT_TRUE(plane.list(net, {}, {}).empty()) << e;
  // Round 1, exchange 1 (max_delay_rounds = 1 → exactly one round late):
  // the stale DistAnnounce arrives at a dist barrier again.
  net.begin_round(1);
  const auto got = plane.list(net, {}, {});
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], (Delivery{plane.at(CellId{0, 1}), CellId{0, 0}, 3, true}));
  EXPECT_EQ(net.delayed_in_flight(), 0u);
  EXPECT_EQ(net.fault_count(NetFault::kDelayed), 1u);
}

// Duplicates and multi-round delays re-enter the barrier out of send
// order, over random neighbour-link schedules, yet every inbox is exactly
// a stable sort by (receiver, sender) of the late copies (in arrival
// order) followed by the fresh slots (in send order): it reads ascending
// in sender, with each link's late copies ahead of its fresh slot. On
// the broadcast exchanges — one slot per link, the plane's shape for
// dist, intent, grant and transfer — a per-sender send counter (carried
// as the stamp) never decreases along one link: a released late copy
// precedes the fresh slot, and a duplicate sits next to its original.
TEST(FaultyNetwork, DeliveryKeepsSenderOrderAndLinkFifo) {
  NetFaultSpec spec;
  spec.dup_prob = 0.3;
  spec.delay_prob = 0.3;
  spec.max_delay_rounds = 3;
  for (std::uint64_t seed = 1; seed <= 48; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Plane plane(static_cast<int>(2 + seed % 6));
    const Grid& grid = plane.grid();
    const std::size_t cells = grid.cell_count();
    FaultyNetwork net(spec, seed);
    Xoshiro256 rng(seed);
    std::vector<std::uint64_t> counter(cells, 0);            // per sender
    std::vector<std::uint64_t> delivered(cells * cells, 0);  // per link
    std::uint64_t late = 0;
    for (std::uint64_t round = 0; round < 12; ++round) {
      net.begin_round(round);
      for (std::uint64_t e = 0; e < kExchangesPerRound; ++e) {
        std::vector<Sent> fresh;
        std::vector<Delivery> got;
        const bool list = rng.below(4) == 0;
        if (!list) {
          std::vector<std::uint8_t> masks = plane.all_links();
          std::vector<std::uint64_t> stamps(cells);
          for (std::size_t k = 0; k < cells; ++k) {
            masks[k] &= static_cast<std::uint8_t>(rng.below(16));
            stamps[k] = masks[k] != 0 ? ++counter[k] : 0;
            for (const Direction d : kAllDirections)
              if ((masks[k] & direction_bit(d)) != 0)
                fresh.push_back(Sent{neighbor_index(grid, k, d),
                                     grid.id_of(k), stamps[k], false});
          }
          got = plane.broadcast(net, masks, stamps);
        } else {
          // Several messages per link, each with a fresh stamp.
          std::vector<Link> links;
          std::vector<std::uint64_t> stamps;
          for (std::size_t k = 0; k < cells; ++k) {
            for (const Direction d : kAllDirections) {
              if ((lattice_links(grid, grid.id_of(k)) & direction_bit(d)) == 0)
                continue;
              for (std::uint64_t copy = rng.below(3); copy > 0; --copy) {
                links.push_back(Link{static_cast<std::uint32_t>(k), d, 0});
                stamps.push_back(++counter[k]);
                fresh.push_back(Sent{neighbor_index(grid, k, d),
                                     grid.id_of(k), stamps.back(), false});
              }
            }
          }
          got = plane.list(net, links, stamps);
        }
        // The reference: late copies in arrival order, then the fresh
        // slots the network did not withhold, in send order.
        std::vector<Sent> queue;
        for (const Message& m : net.late())
          queue.push_back(Sent{grid.index_of(m.receiver), m.sender,
                               stamp_of(m), true});
        for (const Sent& s : fresh) {
          const bool kept = std::any_of(got.begin(), got.end(),
                                        [&](const Delivery& d) {
                                          return !d.late &&
                                                 d.receiver == s.receiver &&
                                                 d.sender == s.sender &&
                                                 d.stamp == s.stamp;
                                        });
          if (kept) queue.push_back(s);
        }
        ASSERT_EQ(got, stable_sorted(queue));
        ASSERT_EQ(got.size(), net.last_exchange_messages());
        for (std::size_t n = 0; n < got.size(); ++n) {
          const Delivery& m = got[n];
          std::uint64_t& high =
              delivered[grid.index_of(m.sender) * cells + m.receiver];
          if (m.stamp < high) ++late;
          high = std::max(high, m.stamp);
          if (n == 0 || got[n - 1].receiver != m.receiver) continue;
          const Delivery& prev = got[n - 1];
          ASSERT_LE(prev.sender, m.sender);
          if (!list && prev.sender == m.sender) {
            ASSERT_LE(prev.stamp, m.stamp);
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

// A scripted adversary that lands three messages on one link at one
// barrier: round 0 withholds the link's slot and keeps a copy; round 1
// releases that copy and duplicates the round's fresh slot.
class ReplayOnceNetwork final : public NetworkModel {
 public:
  explicit ReplayOnceNetwork(CellId receiver) : receiver_(receiver) {}

 protected:
  void transmit(Exchange& x) override {
    x.for_each_link([&](const Link& link) {
      if (x.receiver(link) != receiver_ || x.sender(link) != CellId{2, 1})
        return;
      if (!held_) {
        note_fault(NetFault::kDelayed, x.type());
        held_ = x.message(link);
        x.withhold(link);
        return;
      }
      deliver_late(*held_);
      note_fault(NetFault::kDuplicated, x.type());
      deliver_late(x.message(link));
    });
  }

 private:
  CellId receiver_;
  std::optional<Message> held_;
};

TEST(FaultyNetwork, LateCopyAndDuplicateLandAheadOfTheFreshSlot) {
  Plane plane(3);
  const CellId rx{1, 1};
  ReplayOnceNetwork net(rx);
  std::vector<std::uint64_t> stamps(9);
  for (std::size_t k = 0; k < stamps.size(); ++k) stamps[k] = 10 + k;
  net.begin_round(0);
  const auto first = inbox_of(plane.broadcast(net, plane.all_links(), stamps),
                              plane.at(rx));
  ASSERT_EQ(first.size(), 3u);  // (2,1)'s slot withheld
  EXPECT_EQ(first.back().sender, (CellId{1, 2}));

  for (std::uint64_t& s : stamps) s += 100;
  net.begin_round(1);
  const auto got = inbox_of(plane.broadcast(net, plane.all_links(), stamps),
                            plane.at(rx));
  const CellId east{2, 1};
  const std::uint64_t old_stamp = 10 + plane.at(east);
  const std::uint64_t new_stamp = 110 + plane.at(east);
  const std::vector<Delivery> want = {
      {plane.at(rx), CellId{0, 1}, 110 + plane.at(CellId{0, 1}), false},
      {plane.at(rx), CellId{1, 0}, 110 + plane.at(CellId{1, 0}), false},
      {plane.at(rx), CellId{1, 2}, 110 + plane.at(CellId{1, 2}), false},
      {plane.at(rx), east, old_stamp, true},   // released late copy
      {plane.at(rx), east, new_stamp, true},   // duplicate
      {plane.at(rx), east, new_stamp, false},  // the fresh slot
  };
  EXPECT_EQ(got, want);
  EXPECT_EQ(net.last_exchange_messages(), 24u + 2u);
}

TEST(FaultyNetwork, PartitionCutsCrossingMessagesWhileActive) {
  Plane plane(2);
  const NetPartition part{
      1, 3, CellMask::of(plane.grid(), {CellId{0, 0}, CellId{0, 1}})};
  NetFaultSpec spec;
  spec.partitions = {part};
  FaultyNetwork net(spec, 1);

  const auto crossing = [&] {
    const auto got = plane.list(
        net, {Link{plane.at(CellId{0, 0}), Direction::kEast},    // crosses
              Link{plane.at(CellId{0, 0}), Direction::kNorth}},  // same side
        {1, 1});
    return inbox_of(got, plane.at(CellId{1, 0})).size();
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
  Plane plane(2);
  NetFaultSpec spec;
  spec.drop_prob = 1.0;
  spec.last_fault_round = 1;
  FaultyNetwork net(spec, 1);
  const Link ab{plane.at(CellId{0, 0}), Direction::kNorth};
  net.begin_round(1);
  EXPECT_TRUE(plane.list(net, {ab}, {1}).empty());
  EXPECT_FALSE(net.quiescent());  // round 1 is still fault-eligible
  net.begin_round(2);
  EXPECT_TRUE(net.quiescent());
  EXPECT_EQ(plane.list(net, {ab}, {1}).size(), 1u);
}

TEST(FaultyNetwork, ZeroSpecConsumesNoRandomnessAndIsQuiescent) {
  Plane plane(2);
  FaultyNetwork net(NetFaultSpec{}, 99);
  EXPECT_FALSE(net.spec().stochastic());
  EXPECT_TRUE(net.quiescent());
  net.begin_round(0);
  const auto got = plane.broadcast(net, plane.all_links(), {1, 2, 3, 4});
  EXPECT_EQ(got.size(), 8u);
  for (std::size_t f = 0; f < kNetFaultCount; ++f)
    EXPECT_EQ(net.fault_count(static_cast<NetFault>(f)), 0u);
}

}  // namespace
}  // namespace cellflow
