#include "net/network_model.hpp"

#include <limits>
#include <utility>

#include "grid/grid.hpp"
#include "util/check.hpp"

namespace cellflow {

void NetworkModel::send(Message m) {
  ++sent_counts_[static_cast<std::size_t>(payload_type_of(m.payload))];
  ++total_messages_;
  in_flight_.push_back(std::move(m));
}

Inboxes NetworkModel::deliver_all(const Grid& grid) {
  Inboxes inboxes;
  deliver_all(grid, inboxes);
  return inboxes;
}

void NetworkModel::deliver_all(const Grid& grid, Inboxes& inboxes) {
  deliver_.clear();
  transmit(std::move(in_flight_), deliver_);
  in_flight_.clear();
  ++barriers_;
  last_exchange_ = deliver_.size();
  CF_EXPECTS_MSG(deliver_.size() < std::numeric_limits<std::uint32_t>::max(),
                 "exchange exceeds 32-bit message indices");
  const auto count = static_cast<std::uint32_t>(deliver_.size());
  const std::size_t cells = grid.cell_count();

  // Counting pass: offsets[r] ends as the start of inbox r. Counting into
  // the inbox's own slot, summing inclusively and then scattering back to
  // front with a pre-decrement keeps each inbox in queue order.
  std::vector<std::uint32_t>& offsets = inboxes.offsets_;
  std::vector<std::uint32_t>& index = inboxes.index_;
  offsets.assign(cells + 1, 0);
  for (const Message& m : deliver_) {
    CF_EXPECTS_MSG(grid.contains(m.receiver), "message to unknown process");
    ++offsets[grid.index_of(m.receiver)];
  }
  std::uint32_t end = 0;
  for (std::size_t r = 0; r < cells; ++r) {
    end += offsets[r];
    offsets[r] = end;
  }
  offsets[cells] = count;
  index.resize(count);
  for (std::uint32_t k = count; k-- > 0;)
    index[--offsets[grid.index_of(deliver_[k].receiver)]] = k;

  // Sender pass: a stable insertion sort per inbox (an inbox holds a
  // handful of messages — the lattice degree plus fault copies).
  for (std::size_t r = 0; r < cells; ++r) {
    const std::uint32_t first = offsets[r];
    for (std::uint32_t n = first + 1; n < offsets[r + 1]; ++n) {
      const std::uint32_t k = index[n];
      const CellId sender = deliver_[k].sender;
      std::uint32_t hole = n;
      for (; hole > first && sender < deliver_[index[hole - 1]].sender; --hole)
        index[hole] = index[hole - 1];
      index[hole] = k;
    }
  }
  inboxes.messages_ = deliver_.data();
}

void NetworkModel::transmit(std::vector<Message>&& sent,
                            std::vector<Message>& out) {
  // `out` arrives empty (see the header contract): swapping hands the
  // queue to the barrier and recycles the previous delivery buffer as
  // the next round's queue — no allocation either way.
  out.swap(sent);
}

std::uint64_t NetworkModel::fault_count(NetFault f) const noexcept {
  std::uint64_t n = 0;
  for (std::size_t t = 0; t < kPayloadTypeCount; ++t)
    n += fault_counts_[static_cast<std::size_t>(f)][t];
  return n;
}

}  // namespace cellflow
