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

void FaultyNetwork::transmit(Exchange& x) {
  const std::uint64_t barrier = barrier_count();
  const std::uint64_t round = current_round();

  // Release buffered messages whose delay elapsed — ahead of this
  // exchange's fresh slots, preserving per-link FIFO in the canonical
  // order (the delayed message was sent in an earlier round).
  for (Delayed& d : delayed_)
    if (d.release_barrier == barrier) deliver_late(std::move(d.message));
  std::erase_if(delayed_, [barrier](const Delayed& d) {
    return d.release_barrier == barrier;
  });

  const bool stochastic =
      spec_.stochastic() && round <= spec_.last_fault_round;
  const bool partitioned =
      std::any_of(spec_.partitions.begin(), spec_.partitions.end(),
                  [round](const NetPartition& p) { return p.active(round); });
  if (!stochastic && !partitioned) return;

  // Each trial is bernoulli(p)'s own draw and decision, against a cut
  // computed once per barrier; p = 0 draws nothing (its cut is 0 exactly
  // when p is). The stream runs in a local copy, written back at the end.
  const auto cut = [stochastic](double p) {
    return stochastic && p > 0.0 ? Xoshiro256::bernoulli_cut(p) : 0;
  };
  const std::uint64_t drop = cut(spec_.drop_prob);
  const std::uint64_t dup = cut(spec_.dup_prob);
  const std::uint64_t delay = cut(spec_.delay_prob);
  const std::uint64_t max_delay =
      std::max<std::uint64_t>(spec_.max_delay_rounds, 1);
  const PayloadType type = x.type();
  Xoshiro256 rng = rng_;
  // Inlined into the walk, so the stream stays in registers.
  x.for_each_link([&](const Link& link) __attribute__((always_inline)) {
    // Scripted partitions cut deterministically, consuming no randomness.
    if (partitioned) {
      const CellId from = x.sender(link);
      const CellId to = x.receiver(link);
      const bool cut_off = std::any_of(
          spec_.partitions.begin(), spec_.partitions.end(),
          [&](const NetPartition& p) { return p.cuts(round, from, to); });
      if (cut_off) {
        note_fault(NetFault::kPartitioned, type);
        x.withhold(link);
        return;
      }
    }
    if (drop != 0 && Xoshiro256::succeeds(rng.draw53(), drop)) {
      note_fault(NetFault::kDropped, type);
      x.withhold(link);
      return;
    }
    if (dup != 0 && Xoshiro256::succeeds(rng.draw53(), dup)) {
      note_fault(NetFault::kDuplicated, type);
      deliver_late(x.message(link));  // extra copy; the fresh slot follows
    }
    if (delay != 0 && Xoshiro256::succeeds(rng.draw53(), delay)) {
      note_fault(NetFault::kDelayed, type);
      const std::uint64_t rounds_late = 1 + rng.below(max_delay);
      delayed_.push_back(Delayed{barrier + rounds_late * kExchangesPerRound,
                                 x.message(link)});
      x.withhold(link);
    }
  });
  rng_ = rng;
}

}  // namespace cellflow
