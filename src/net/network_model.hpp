// NetworkModel: the transport abstraction behind the message-passing
// realization, mirroring FailureModel's shape (src/failure). Every §II-B
// message goes to a lattice neighbour and each exchange carries one
// payload type, so the plane is a set of typed neighbour-slot mailboxes,
// not a message queue:
//
//   net.begin_round(r);   // once per protocol round
//   ...                   // each live sender writes its slots
//   net.exchange(x);      // the exchange barrier over Exchange x
//   ...                   // each receiver reads its neighbours' slots
//
// A sender writes one fixed slot per (sender, lattice direction). The
// broadcast exchanges (dist, intent, grant) hold one value per sender and
// a direction mask of the links it wrote; the transfer and ack exchanges
// hold a list of links, each with its own payload (a transfer slot is a
// view of the sender's retained batch, never a copy). The receiver's
// realization owns the slot values; an Exchange gives the network the
// links and their "fresh" flags.
//
// The barrier runs the fault hook `transmit` over the sent links in send
// order — dense sender index, then Grid::neighbors order; a list exchange
// in list order — and the hook may withhold a link's fresh slot (drop,
// delay, partition). A copy the network delivers late (a duplicate, a
// released delayed message) is built as a Message only then, and kept in
// the late list for this barrier.
//
// Delivery order is CANONICAL and documented: each inbox reads ascending
// in sender id (CellId order: (i−1,j), (i,j−1), (i,j+1), (i+1,j)), and
// along one link the late copies come first, in arrival order, then the
// link's fresh slots in send order. For a link that carries one message
// an exchange (all but acks), that is the order a stable sort by
// (receiver, sender) of the barrier's deliveries in send order gives,
// with released delayed copies queued ahead of the fresh sends.
// Exchange::read_inbox and Exchange::for_each_delivery walk that order;
// on a SyncNetwork the late list is empty and delivery does nothing.
//
// Subclasses shape which slots the barrier delivers (drop, delay,
// duplicate, partition — see faulty_network.hpp) by overriding
// `transmit`; the reliable SyncNetwork below delivers every slot. The base
// class owns the late list, per-payload-type send counters, and per-type
// fault counters (zero for a reliable network).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "grid/grid.hpp"
#include "net/message.hpp"

namespace cellflow::snapshot {
struct Access;
}  // namespace cellflow::snapshot

namespace cellflow {

/// Transport fault kinds, indexable for per-type statistics.
enum class NetFault : std::size_t {
  kDropped = 0,
  kDelayed = 1,
  kDuplicated = 2,
  kPartitioned = 3,
};
inline constexpr std::size_t kNetFaultCount = 4;

[[nodiscard]] constexpr const char* to_string(NetFault f) {
  switch (f) {
    case NetFault::kDropped: return "dropped";
    case NetFault::kDelayed: return "delayed";
    case NetFault::kDuplicated: return "duplicated";
    case NetFault::kPartitioned: return "partitioned";
  }
  return "?";
}

/// Bit of direction d in a mailbox direction mask.
[[nodiscard]] constexpr std::uint8_t direction_bit(Direction d) noexcept {
  return static_cast<std::uint8_t>(1u << static_cast<unsigned>(d));
}

/// Direction mask of the in-grid neighbours of `id`.
[[nodiscard]] inline std::uint8_t lattice_links(const Grid& grid,
                                               CellId id) noexcept {
  std::uint8_t mask = 0;
  if (id.i + 1 < grid.side()) mask |= direction_bit(Direction::kEast);
  if (id.i > 0) mask |= direction_bit(Direction::kWest);
  if (id.j + 1 < grid.side()) mask |= direction_bit(Direction::kNorth);
  if (id.j > 0) mask |= direction_bit(Direction::kSouth);
  return mask;
}

/// Dense index of the neighbour of cell `k` in direction `d`.
/// Precondition: that neighbour is on the grid.
[[nodiscard]] inline std::size_t neighbor_index(const Grid& grid,
                                               std::size_t k,
                                               Direction d) noexcept {
  const auto side = static_cast<std::size_t>(grid.side());
  switch (d) {
    case Direction::kEast: return k + 1;
    case Direction::kWest: return k - 1;
    case Direction::kNorth: return k + side;
    case Direction::kSouth: return k - side;
  }
  return k;
}

/// One sent link: the sender's dense index, the direction of its
/// receiver, and the index of the link's fresh flag in its Exchange.
struct Link {
  std::uint32_t sender = 0;
  Direction to = Direction::kEast;
  std::uint32_t slot = 0;
};

/// One delivery of a list exchange, keyed for the canonical order: a late
/// copy's rank is its place in the late list, a fresh link's is the
/// number of late copies plus its place in the list.
struct Arrival {
  std::size_t receiver = 0;
  CellId sender;
  std::uint32_t rank = 0;
};

/// One exchange's sends as the barrier and the fault hook see them: the
/// links in send order, each with a fresh flag the hook may clear, and
/// the payload of any link on demand (for a copy delivered late). After
/// the barrier it reads the inboxes back in canonical order.
class Exchange {
 public:
  /// Builds the payload a link of this exchange carries; called only for
  /// a late copy.
  using PayloadFn = Payload (*)(const void* owner, PayloadType type,
                                const Link& link);

  /// A broadcast exchange: sender k wrote a slot toward every direction
  /// set in fresh[k]; `sent` is the number of those bits.
  Exchange(PayloadType type, const Grid& grid, std::span<std::uint8_t> fresh,
           std::uint64_t sent, PayloadFn payload, const void* owner) noexcept
      : type_(type), grid_(&grid), fresh_(fresh), sent_(sent),
        broadcast_(true), payload_(payload), owner_(owner) {}

  /// A list exchange: links[n] is fresh while fresh[n] holds
  /// direction_bit(links[n].to) (its slot is n).
  Exchange(PayloadType type, const Grid& grid, std::span<const Link> links,
           std::span<std::uint8_t> fresh, PayloadFn payload,
           const void* owner) noexcept
      : type_(type), grid_(&grid), links_(links), fresh_(fresh),
        sent_(links.size()), broadcast_(false), payload_(payload),
        owner_(owner) {}

  [[nodiscard]] PayloadType type() const noexcept { return type_; }
  [[nodiscard]] const Grid& grid() const noexcept { return *grid_; }
  /// Links written: the messages this exchange sends.
  [[nodiscard]] std::uint64_t sent() const noexcept { return sent_; }
  /// Fresh slots withheld at this barrier.
  [[nodiscard]] std::uint64_t withheld() const noexcept { return withheld_; }

  /// f(link) for every sent link, in send order. Inlined into the hook,
  /// so a fault stream it keeps in a local stays in registers.
  template <class F>
  [[gnu::always_inline]] void for_each_link(F&& f) const {
    if (!broadcast_) {
      for (const Link& link : links_) f(link);
      return;
    }
    for (std::uint32_t k = 0; k < fresh_.size(); ++k) {
      const std::uint8_t mask = fresh_[k];
      if (mask == 0) continue;
      for (const Direction d : kAllDirections)
        if ((mask & direction_bit(d)) != 0) f(Link{k, d, k});
    }
  }

  [[nodiscard]] CellId sender(const Link& link) const {
    return grid_->id_of(link.sender);
  }
  [[nodiscard]] CellId receiver(const Link& link) const {
    return grid_->id_of(neighbor_index(*grid_, link.sender, link.to));
  }
  /// Whether the link's fresh slot is delivered at this barrier.
  [[nodiscard]] bool fresh(const Link& link) const noexcept {
    return (fresh_[link.slot] & direction_bit(link.to)) != 0;
  }
  /// Withholds the link's fresh slot from this barrier.
  void withhold(const Link& link) noexcept {
    fresh_[link.slot] &= static_cast<std::uint8_t>(~direction_bit(link.to));
    ++withheld_;
  }
  /// The link's message, built for a copy the network delivers late.
  [[nodiscard]] Message message(const Link& link) const {
    return Message{sender(link), receiver(link),
                   payload_(owner_, type_, link)};
  }

  /// Receiver `self`'s inbox in a broadcast exchange after its barrier,
  /// in canonical order: for each lattice neighbour, ascending in CellId,
  /// the late copies it sent to `self`, then its fresh slot. Calls
  /// f(direction of the sender, sender index, copy), where `copy` is the
  /// late Message or null for the fresh slot (the caller reads that
  /// payload from its own outbox). `late` is the unread tail of the
  /// network's late list: receivers are read in ascending index order,
  /// and the copies of a receiver skipped are dropped here.
  template <class F>
  void read_inbox(std::span<const Message>& late, CellId self, F&& f) const {
    const int side = grid_->side();
    const std::size_t r = static_cast<std::size_t>(self.j) *
                              static_cast<std::size_t>(side) +
                          static_cast<std::size_t>(self.i);
    // Dense order is j-major.
    const auto before = [self](CellId c) {
      return c.j != self.j ? c.j < self.j : c.i < self.i;
    };
    while (!late.empty() && before(late.front().receiver))
      late = late.subspan(1);
    const bool mine = !late.empty() && late.front().receiver == self;
    const std::uint8_t* fresh = fresh_.data();
    const auto visit = [&](Direction d, std::size_t n) {
      if (mine) {
        const auto [di, dj] = step_of(d);
        const CellId from{self.i + di, self.j + dj};
        while (!late.empty() && late.front().receiver == self &&
               late.front().sender == from) {
          f(d, n, &late.front());
          late = late.subspan(1);
        }
      }
      if ((fresh[n] & direction_bit(opposite(d))) != 0)
        f(d, n, static_cast<const Message*>(nullptr));
    };
    const auto row = static_cast<std::size_t>(side);
    if (self.i > 0) visit(Direction::kWest, r - 1);
    if (self.j > 0) visit(Direction::kSouth, r - row);
    if (self.j + 1 < side) visit(Direction::kNorth, r + row);
    if (self.i + 1 < side) visit(Direction::kEast, r + 1);
  }

  /// Every delivery of a list exchange after its barrier, in canonical
  /// order: receivers ascending in index, each inbox ascending in sender,
  /// each link's late copies (from `late`, the network's late list) before
  /// its fresh slots in list order. Calls f(receiver index, sender index,
  /// link, copy): `copy` is the late Message, or null for the fresh slot
  /// of `link`. `order` is scratch the caller keeps, so it stops
  /// allocating.
  template <class F>
  void for_each_delivery(std::span<const Message> late,
                         std::vector<Arrival>& order, F&& f) const {
    const auto copies = static_cast<std::uint32_t>(late.size());
    order.clear();
    for (std::uint32_t n = 0; n < copies; ++n)
      order.push_back(
          Arrival{grid_->index_of(late[n].receiver), late[n].sender, n});
    for (std::uint32_t n = 0; n < links_.size(); ++n)
      if (fresh(links_[n]))
        order.push_back(
            Arrival{neighbor_index(*grid_, links_[n].sender, links_[n].to),
                    sender(links_[n]), copies + n});
    std::sort(order.begin(), order.end(),
              [](const Arrival& a, const Arrival& b) {
                if (a.receiver != b.receiver) return a.receiver < b.receiver;
                if (a.sender != b.sender) return a.sender < b.sender;
                return a.rank < b.rank;
              });
    for (const Arrival& a : order) {
      if (a.rank < copies) {
        const Message& m = late[a.rank];
        f(a.receiver, grid_->index_of(m.sender),
          static_cast<const Link*>(nullptr), &m);
      } else {
        const Link& link = links_[a.rank - copies];
        f(a.receiver, static_cast<std::size_t>(link.sender), &link,
          static_cast<const Message*>(nullptr));
      }
    }
  }

 private:
  PayloadType type_;
  const Grid* grid_;
  std::span<const Link> links_;
  std::span<std::uint8_t> fresh_;
  std::uint64_t sent_ = 0;
  std::uint64_t withheld_ = 0;
  bool broadcast_;
  PayloadFn payload_;
  const void* owner_;
};

class NetworkModel {
 public:
  NetworkModel() = default;
  NetworkModel(const NetworkModel&) = delete;
  NetworkModel& operator=(const NetworkModel&) = delete;
  virtual ~NetworkModel() = default;

  /// Round boundary notification (before the round's first exchange).
  void begin_round(std::uint64_t round) noexcept { round_ = round; }

  /// Exchange barrier: counts x's links as sent, runs the fault schedule
  /// over them, and orders the late copies it delivers by (receiver
  /// index, sender), keeping each link's in arrival order. The late list
  /// stays valid until the next barrier.
  void exchange(Exchange& x);

  /// Late copies delivered at the most recent barrier, in the order
  /// above. Empty on a reliable network.
  [[nodiscard]] std::span<const Message> late() const noexcept {
    return late_;
  }

  /// True once the schedule can no longer perturb an exchange: no fault
  /// will fire and nothing is buffered for late delivery. Mirrors
  /// FailureModel::quiescent so stabilization-after-faults-cease is
  /// testable with the same notion of "the adversary has stopped".
  [[nodiscard]] virtual bool quiescent() const noexcept { return true; }

  // --- Statistics -----------------------------------------------------

  /// Messages sent since construction (all exchanges).
  [[nodiscard]] std::uint64_t total_messages() const noexcept {
    return total_messages_;
  }
  /// Messages sent, by payload type.
  [[nodiscard]] std::uint64_t sent_count(PayloadType t) const noexcept {
    return sent_counts_[static_cast<std::size_t>(t)];
  }
  /// Messages delivered at the most recent barrier.
  [[nodiscard]] std::uint64_t last_exchange_messages() const noexcept {
    return last_exchange_;
  }
  /// Barriers (exchange calls) since construction.
  [[nodiscard]] std::uint64_t barrier_count() const noexcept {
    return barriers_;
  }
  /// Faults applied so far, by kind and payload type. A reliable network
  /// reports zero everywhere.
  [[nodiscard]] std::uint64_t fault_count(NetFault f,
                                          PayloadType t) const noexcept {
    return fault_counts_[static_cast<std::size_t>(f)]
                        [static_cast<std::size_t>(t)];
  }
  /// Faults of one kind summed over payload types.
  [[nodiscard]] std::uint64_t fault_count(NetFault f) const noexcept;

 protected:
  /// Fault-schedule hook: walk x's links (Exchange::for_each_link),
  /// withhold fresh slots, and hand every late copy to deliver_late, in
  /// arrival order. The barrier index and round are available via
  /// barrier_count() / current_round(). The reliable base delivers every
  /// fresh slot and nothing late.
  virtual void transmit(Exchange& x) { (void)x; }

  /// Delivers a copy at this barrier, ahead of its link's fresh slot.
  void deliver_late(Message m) { late_.push_back(std::move(m)); }

  [[nodiscard]] std::uint64_t current_round() const noexcept {
    return round_;
  }
  void note_fault(NetFault f, PayloadType t) noexcept {
    ++fault_counts_[static_cast<std::size_t>(f)][static_cast<std::size_t>(t)];
  }

 private:
  // Snapshot/restore (src/snapshot) serializes the transport counters.
  friend struct snapshot::Access;

  std::vector<Message> late_;  ///< this barrier's late copies
  std::uint64_t round_ = 0;
  std::uint64_t total_messages_ = 0;
  std::uint64_t last_exchange_ = 0;
  std::uint64_t barriers_ = 0;
  std::array<std::uint64_t, kPayloadTypeCount> sent_counts_{};
  std::array<std::array<std::uint64_t, kPayloadTypeCount>, kNetFaultCount>
      fault_counts_{};
};

/// The reliable instance: every slot written is delivered, unaltered, at
/// the next barrier (paper §II-B's synchronous broadcast reading).
class SyncNetwork final : public NetworkModel {};

}  // namespace cellflow
