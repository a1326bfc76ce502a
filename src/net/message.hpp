// Message vocabulary of the distributed realization (paper §II-B). One
// protocol round decomposes into five synchronous exchanges:
//
//   exchange 1:  DistAnnounce{dist}             → Route inputs
//   exchange 2:  IntentAnnounce{next, nonempty} → Signal inputs (NEPrev)
//   exchange 3:  GrantAnnounce{signal, seq, rd} → Move guard
//   exchange 4:  TransferBatch{seq, entities}   → Members hand-off
//   exchange 5:  TransferAck{seq}               → hand-off confirmation
//
// Exchanges 4–5 implement a per-link stop-and-wait session so the data
// plane is loss-proof by construction (DESIGN.md §8): the sender retains
// the entities it flushed at the boundary and re-offers the batch every
// round until the receiver confirms; `seq` (stamped from the receiver's
// grant) deduplicates re-offers and duplicated deliveries. Control-plane
// messages are droppable with the paper's footnote-1 semantics: a missed
// DistAnnounce reads as dist = ∞, a missed IntentAnnounce as "does not
// want in", a missed GrantAnnounce as signal = ⊥. A GrantAnnounce
// additionally carries the round it was issued in and *expires* with
// that round — §II-B's exchange structure exists precisely because Move
// must read fresh signal values, so a delayed grant confers nothing.
//
// On the wire these payloads live in typed neighbour-slot mailboxes
// (net/network_model.hpp): a sender's fresh slot holds the payload's
// fields, and a transfer slot is a view of the retained batch. A Message
// — sender, receiver and a Payload variant — is built only for a copy the
// network delivers late (a duplicate, a delayed message, a captured one),
// and is the form the snapshot codec writes for FaultyNetwork's delay
// queue.
#pragma once

#include <cstddef>
#include <cstdint>
#include <variant>
#include <vector>

#include "core/entity.hpp"
#include "util/dist_value.hpp"
#include "util/ids.hpp"

namespace cellflow {

/// Synchronous exchanges (network barriers) per protocol round.
inline constexpr std::uint64_t kExchangesPerRound = 5;

/// Exchange 1 payload: routing estimate.
struct DistAnnounce {
  Dist dist;
};

/// Exchange 2 payload: forwarding intent and occupancy.
struct IntentAnnounce {
  OptCellId next;
  bool has_entities = false;
};

/// Exchange 3 payload: permission grant. `seq` numbers the session the
/// receiver may answer with a TransferBatch; `round` is the issue round —
/// the permission expires when the round ends (a delayed grant must not
/// authorize a move against a strip that was only clear in the past).
struct GrantAnnounce {
  OptCellId signal;
  std::uint64_t seq = 0;
  std::uint64_t round = 0;
};

/// Exchange 4 payload: the entities that crossed the boundary under grant
/// `seq`, already re-placed flush with the destination's entry edge
/// (Figure 6 lines 13–20). Retained by the sender until acknowledged.
struct TransferBatch {
  std::uint64_t seq = 0;
  std::vector<Entity> entities;
};

/// Exchange 5 payload: the batch stamped `seq` was accepted (idempotent).
struct TransferAck {
  std::uint64_t seq = 0;
};

using Payload = std::variant<DistAnnounce, IntentAnnounce, GrantAnnounce,
                             TransferBatch, TransferAck>;

struct Message {
  CellId sender;
  CellId receiver;
  Payload payload;
};

/// Payload kinds, indexable for per-type statistics.
enum class PayloadType : std::size_t {
  kDist = 0,
  kIntent = 1,
  kGrant = 2,
  kTransfer = 3,
  kAck = 4,
};
inline constexpr std::size_t kPayloadTypeCount = 5;

[[nodiscard]] constexpr PayloadType payload_type_of(const Payload& p) {
  return static_cast<PayloadType>(p.index());
}

[[nodiscard]] constexpr const char* to_string(PayloadType t) {
  switch (t) {
    case PayloadType::kDist: return "dist";
    case PayloadType::kIntent: return "intent";
    case PayloadType::kGrant: return "grant";
    case PayloadType::kTransfer: return "transfer";
    case PayloadType::kAck: return "ack";
  }
  return "?";
}

}  // namespace cellflow
