#include "net/network_model.hpp"

#include <algorithm>

namespace cellflow {

void NetworkModel::exchange(Exchange& x) {
  sent_counts_[static_cast<std::size_t>(x.type())] += x.sent();
  total_messages_ += x.sent();
  late_.clear();
  transmit(x);
  ++barriers_;
  // The receivers merge the late copies by (receiver, sender); stable, so
  // each link keeps its arrival order.
  const Grid& grid = x.grid();
  std::stable_sort(late_.begin(), late_.end(),
                   [&grid](const Message& a, const Message& b) {
                     const std::size_t ra = grid.index_of(a.receiver);
                     const std::size_t rb = grid.index_of(b.receiver);
                     return ra != rb ? ra < rb : a.sender < b.sender;
                   });
  last_exchange_ = x.sent() - x.withheld() + late_.size();
}

std::uint64_t NetworkModel::fault_count(NetFault f) const noexcept {
  std::uint64_t n = 0;
  for (std::size_t t = 0; t < kPayloadTypeCount; ++t)
    n += fault_counts_[static_cast<std::size_t>(f)][t];
  return n;
}

}  // namespace cellflow
