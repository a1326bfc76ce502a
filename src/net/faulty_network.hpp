// FaultyNetwork: a NetworkModel that subjects every exchange to a
// seeded, deterministic fault schedule — the adversary of the
// stabilization theorems (Lemma 6, Theorem 10) made executable.
//
// Faults, applied per sent link in send order (dense sender index, then
// Grid::neighbors order; a list exchange in list order), one Xoshiro256
// stream for the whole schedule, each trial an integer draw against a
// cut computed once per barrier (Xoshiro256::bernoulli_cut):
//
//   partition    an active partition separates sender and receiver →
//                the message is cut (no RNG draw; partitions are
//                scripted, not sampled)
//   drop         i.i.d. with probability drop_prob: the fresh slot is
//                withheld
//   duplicate    i.i.d. with probability dup_prob: a copy is delivered
//                late at the same barrier, ahead of the fresh slot
//   delay        i.i.d. with probability delay_prob: the fresh slot is
//                withheld and a copy resurfaces 1..max_delay_rounds
//                ROUNDS later, ahead of that barrier's fresh slots, at the
//                same exchange position of the later round (delays are
//                whole multiples of kExchangesPerRound barriers, so a
//                delayed DistAnnounce arrives at a dist barrier — a
//                genuinely stale value, not a payload at the wrong
//                phase)
//
// With all probabilities zero and no partition active the hook does not
// walk the links: it consumes no randomness and delivers exactly
// SyncNetwork's schedule — bit-identical executions (pinned by
// tests/test_net_faults.cpp's differential).
//
// Quiescence mirrors FailureModel: the stochastic faults cease after
// `last_fault_round` (inclusive), and quiescent() reports true once the
// current round is past it, every partition has healed, and the delay
// buffer has drained — from that barrier on the network is
// indistinguishable from SyncNetwork, which is what the restabilization
// tests and bench/ablation_message_loss key on.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "grid/mask.hpp"
#include "net/network_model.hpp"
#include "util/rng.hpp"

namespace cellflow {

/// A scripted partition: while active (start_round ≤ round < end_round),
/// every message between a cell in `side` and a cell outside it is cut.
/// Set `side` to a single link's endpoint region for a link partition or
/// to a half-grid for a region partition; it heals at end_round.
struct NetPartition {
  std::uint64_t start_round = 0;
  std::uint64_t end_round = 0;
  CellMask side;

  [[nodiscard]] bool active(std::uint64_t round) const noexcept {
    return round >= start_round && round < end_round;
  }
  [[nodiscard]] bool healed(std::uint64_t round) const noexcept {
    return round >= end_round;
  }
  /// True iff the partition, active at `round`, separates a from b.
  [[nodiscard]] bool cuts(std::uint64_t round, CellId a, CellId b) const {
    return active(round) && side.test(a) != side.test(b);
  }
};

struct NetFaultSpec {
  double drop_prob = 0.0;
  double dup_prob = 0.0;
  double delay_prob = 0.0;
  /// Delay magnitude: uniform in 1..max_delay_rounds whole rounds.
  std::uint64_t max_delay_rounds = 1;
  /// Last round (inclusive) in which the stochastic faults may fire;
  /// the default never ceases (a stochastic-forever adversary).
  std::uint64_t last_fault_round = std::numeric_limits<std::uint64_t>::max();
  std::vector<NetPartition> partitions;

  [[nodiscard]] bool stochastic() const noexcept {
    return drop_prob > 0.0 || dup_prob > 0.0 || delay_prob > 0.0;
  }
};

class FaultyNetwork final : public NetworkModel {
 public:
  FaultyNetwork(NetFaultSpec spec, std::uint64_t seed)
      : spec_(std::move(spec)), rng_(seed) {}

  [[nodiscard]] bool quiescent() const noexcept override;

  [[nodiscard]] const NetFaultSpec& spec() const noexcept { return spec_; }
  /// Messages currently buffered for late delivery.
  [[nodiscard]] std::size_t delayed_in_flight() const noexcept {
    return delayed_.size();
  }

 protected:
  void transmit(Exchange& x) override;

 private:
  // Snapshot/restore (src/snapshot) serializes the fault stream and the
  // delayed-message queue.
  friend struct snapshot::Access;

  struct Delayed {
    std::uint64_t release_barrier;
    Message message;
  };

  NetFaultSpec spec_;
  Xoshiro256 rng_;
  std::vector<Delayed> delayed_;
};

}  // namespace cellflow
