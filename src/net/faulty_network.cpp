#include "net/faulty_network.hpp"

#include <algorithm>

namespace cellflow {

bool FaultyNetwork::quiescent() const noexcept {
  if (spec_.stochastic() && current_round() <= spec_.last_fault_round)
    return false;
  for (const NetPartition& p : spec_.partitions)
    if (!p.healed(current_round())) return false;
  return delayed_.empty();
}

void FaultyNetwork::transmit(std::vector<Message>&& sent,
                             std::vector<Message>& out) {
  const std::uint64_t barrier = barrier_count();
  const std::uint64_t round = current_round();

  // Release buffered messages whose delay elapsed — before this
  // exchange's fresh sends, preserving per-link FIFO in the canonical
  // order (the delayed message was sent in an earlier round).
  for (Delayed& d : delayed_)
    if (d.release_barrier == barrier) out.push_back(std::move(d.message));
  delayed_.erase(std::remove_if(delayed_.begin(), delayed_.end(),
                                [barrier](const Delayed& d) {
                                  return d.release_barrier == barrier;
                                }),
                 delayed_.end());

  const bool stochastic =
      spec_.stochastic() && round <= spec_.last_fault_round;

  for (Message& m : sent) {
    const PayloadType type = payload_type_of(m.payload);

    // Scripted partitions cut deterministically, consuming no randomness.
    const bool cut = std::any_of(
        spec_.partitions.begin(), spec_.partitions.end(),
        [&](const NetPartition& p) { return p.cuts(round, m.sender, m.receiver); });
    if (cut) {
      note_fault(NetFault::kPartitioned, type);
      continue;
    }

    if (stochastic) {
      if (spec_.drop_prob > 0.0 && rng_.bernoulli(spec_.drop_prob)) {
        note_fault(NetFault::kDropped, type);
        continue;
      }
      if (spec_.dup_prob > 0.0 && rng_.bernoulli(spec_.dup_prob)) {
        note_fault(NetFault::kDuplicated, type);
        out.push_back(m);  // extra copy at this barrier; original follows
      }
      if (spec_.delay_prob > 0.0 && rng_.bernoulli(spec_.delay_prob)) {
        note_fault(NetFault::kDelayed, type);
        const std::uint64_t rounds_late =
            1 + rng_.below(std::max<std::uint64_t>(spec_.max_delay_rounds, 1));
        delayed_.push_back(Delayed{
            barrier + rounds_late * kExchangesPerRound, std::move(m)});
        continue;
      }
    }
    out.push_back(std::move(m));
  }
}

}  // namespace cellflow
