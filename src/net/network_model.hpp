// NetworkModel: the transport abstraction behind the message-passing
// realization, mirroring FailureModel's shape (src/failure). The round
// driver owns one instance and pushes every exchange through it:
//
//   net.begin_round(r);              // once per protocol round
//   net.send(m); ...                 // any number of times per exchange
//   net.deliver_all(grid, inboxes);  // the exchange barrier
//
// Delivery order is CANONICAL and documented: each inbox reads ascending
// in sender id (CellId order), and each (sender → receiver) link keeps
// its queue order (per-link FIFO). Every realization sees the same base
// order, so a faulty delivery schedule is a seeded transformation of a
// deterministic sequence, not incidental queue order.
//
// The barrier builds that order in O(M) for M delivered messages, in two
// passes over 32-bit message indices, never moving a message:
//   1. a counting pass over grid.index_of(receiver) scatters the indices
//      into one flat CSR array with one offset per cell (stable: each
//      inbox keeps queue order);
//   2. a stable insertion pass per inbox orders it by sender. Every inbox
//      needs it, not only the ones holding FaultyNetwork's late or
//      duplicated copies: senders emit in index order, which is j-major
//      (index_of = j*side + i), while CellId compares i-major, so a
//      receiver's four neighbours arrive as (i,j−1), (i−1,j), (i+1,j),
//      (i,j+1) and are delivered as (i−1,j), (i,j−1), (i,j+1), (i+1,j).
// Inboxes are views into the barrier's delivery buffer, which the network
// reuses: an Inbox stays valid until the next barrier (or the next
// snapshot restore), and the next deliver_all overwrites it.
//
// Subclasses shape *which* queued messages the barrier delivers (drop,
// delay, duplicate, partition — see faulty_network.hpp) by overriding
// `transmit`; the reliable SyncNetwork below delivers everything. The
// base class owns the queue, the canonical order, per-payload-type send
// counters, and per-type fault counters (zero for a reliable network).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "net/message.hpp"

namespace cellflow::snapshot {
struct Access;
}  // namespace cellflow::snapshot

namespace cellflow {

class Grid;

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

/// One process's inbox: the messages addressed to it in canonical order,
/// as a read-only random-access range over message indices into the
/// barrier's delivery buffer (valid until the next barrier).
class Inbox {
 public:
  class iterator {
   public:
    iterator(const Message* messages, const std::uint32_t* at) noexcept
        : messages_(messages), at_(at) {}
    [[nodiscard]] const Message& operator*() const noexcept {
      return messages_[*at_];
    }
    iterator& operator++() noexcept {
      ++at_;
      return *this;
    }
    [[nodiscard]] bool operator==(const iterator& o) const noexcept {
      return at_ == o.at_;
    }

   private:
    const Message* messages_;
    const std::uint32_t* at_;
  };

  Inbox(const Message* messages, const std::uint32_t* first,
        const std::uint32_t* last) noexcept
      : messages_(messages), first_(first), last_(last) {}

  [[nodiscard]] std::size_t size() const noexcept {
    return static_cast<std::size_t>(last_ - first_);
  }
  [[nodiscard]] bool empty() const noexcept { return first_ == last_; }
  [[nodiscard]] const Message& operator[](std::size_t n) const noexcept {
    return messages_[first_[n]];
  }
  [[nodiscard]] iterator begin() const noexcept { return {messages_, first_}; }
  [[nodiscard]] iterator end() const noexcept { return {messages_, last_}; }

 private:
  const Message* messages_;
  const std::uint32_t* first_;
  const std::uint32_t* last_;
};

/// One exchange's deliveries in CSR form: inbox k covers the message
/// indices [offsets[k], offsets[k+1]) of one flat index array. Filled by
/// NetworkModel::deliver_all; the caller keeps the object across
/// exchanges so its two arrays stop allocating once warm.
class Inboxes {
 public:
  /// Number of inboxes: grid.cell_count() of the last barrier, 0 before
  /// the first one and after clear().
  [[nodiscard]] std::size_t size() const noexcept {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  /// Inbox of the process with `grid.index_of(receiver) == k`.
  [[nodiscard]] Inbox operator[](std::size_t k) const noexcept {
    return Inbox{messages_, index_.data() + offsets_[k],
                 index_.data() + offsets_[k + 1]};
  }
  /// Drops every inbox (a restore replaces the buffer they view).
  void clear() noexcept {
    messages_ = nullptr;
    offsets_.clear();
    index_.clear();
  }

 private:
  friend class NetworkModel;

  const Message* messages_ = nullptr;
  std::vector<std::uint32_t> offsets_;
  std::vector<std::uint32_t> index_;
};

class NetworkModel {
 public:
  NetworkModel() = default;
  NetworkModel(const NetworkModel&) = delete;
  NetworkModel& operator=(const NetworkModel&) = delete;
  virtual ~NetworkModel() = default;

  /// Round boundary notification (before the round's first exchange).
  void begin_round(std::uint64_t round) noexcept { round_ = round; }

  /// Queues a message for the current exchange.
  void send(Message m);

  /// Exchange barrier: runs the fault schedule over the queue, clears it,
  /// and fills `inboxes` with the surviving messages in canonical order,
  /// one inbox per process, indexed by `grid.index_of(receiver)`. The
  /// inboxes view this network's delivery buffer and stay valid until
  /// the next barrier.
  void deliver_all(const Grid& grid, Inboxes& inboxes);

  /// Returning form of the barrier, for one-off callers; same contract.
  [[nodiscard]] Inboxes deliver_all(const Grid& grid);

  /// True once the schedule can no longer perturb an exchange: no fault
  /// will fire and nothing is buffered for late delivery. Mirrors
  /// FailureModel::quiescent so stabilization-after-faults-cease is
  /// testable with the same notion of "the adversary has stopped".
  [[nodiscard]] virtual bool quiescent() const noexcept { return true; }

  // --- Statistics -----------------------------------------------------

  /// Messages accepted by send() since construction (all exchanges).
  [[nodiscard]] std::uint64_t total_messages() const noexcept {
    return total_messages_;
  }
  /// Messages accepted by send(), by payload type.
  [[nodiscard]] std::uint64_t sent_count(PayloadType t) const noexcept {
    return sent_counts_[static_cast<std::size_t>(t)];
  }
  /// Messages delivered at the most recent barrier.
  [[nodiscard]] std::uint64_t last_exchange_messages() const noexcept {
    return last_exchange_;
  }
  /// Barriers (deliver_all calls) since construction.
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
  /// Fault-schedule hook: consume `sent` (this exchange's queue, in send
  /// order) and append every message to deliver at this barrier to `out`
  /// (passed in empty; order irrelevant — the caller canonicalizes). The
  /// base barrier index and round are available via barrier_count() /
  /// current_round(). The reliable base swaps the buffers, so the queue
  /// and delivery vectors ping-pong without allocating.
  virtual void transmit(std::vector<Message>&& sent,
                        std::vector<Message>& out);

  [[nodiscard]] std::uint64_t current_round() const noexcept {
    return round_;
  }
  void note_fault(NetFault f, PayloadType t) noexcept {
    ++fault_counts_[static_cast<std::size_t>(f)][static_cast<std::size_t>(t)];
  }

 private:
  // Snapshot/restore (src/snapshot) serializes the transport counters.
  friend struct snapshot::Access;

  std::vector<Message> in_flight_;
  std::vector<Message> deliver_;  ///< the barrier's delivery buffer
  std::uint64_t round_ = 0;
  std::uint64_t total_messages_ = 0;
  std::uint64_t last_exchange_ = 0;
  std::uint64_t barriers_ = 0;
  std::array<std::uint64_t, kPayloadTypeCount> sent_counts_{};
  std::array<std::array<std::uint64_t, kPayloadTypeCount>, kNetFaultCount>
      fault_counts_{};
};

/// The reliable instance: every queued message is delivered, unaltered,
/// at the next barrier (paper §II-B's synchronous broadcast reading).
class SyncNetwork final : public NetworkModel {};

}  // namespace cellflow
