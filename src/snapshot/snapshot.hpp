// Versioned binary snapshots of full engine state (ROADMAP item 5,
// DESIGN.md §11).
//
// A snapshot captures everything a fresh, process-equivalent engine needs
// to continue a run bit-identically: for the shared-variable `System` the
// per-cell protocol state (Figure 3 variables + members + failed), the
// round/arrival/entity-id counters, and the mutable state of the attached
// Choose/Source policies and (optionally) the FailureModel; for the
// `MessageSystem` additionally the per-link stop-and-wait sessions
// (retained batches, seq ledgers — the "stable storage" of DESIGN.md §8)
// and the `NetworkModel` transport state including a FaultyNetwork's
// fault stream and delayed-message queue. All `Xoshiro256` streams travel
// as their four state words (util/rng.hpp pins the serialized format).
//
// The headline contract (pinned by tests/test_snapshot.cpp): save at
// round k, restore into a fresh engine built with the same configuration,
// run to k+m ⇒ state digest and every ProtocolCounts series bit-identical
// to the uninterrupted run — at every thread count, both realizations,
// both of System's round schedulers, and under active network faults.
// Restores are atomic: on any error the target engine is untouched.
//
// One codec serves every realization (snapshot.cpp): each piece of state
// has a single encoder, generic over the sink, that writes both the wire
// bytes and the state digests; every restore runs one section walk and
// one all-or-nothing policy commit, and each realization adds only its
// own sections and its final swap. tests/test_snapshot.cpp's
// SnapshotGolden cases pin literal bytes and digests across builds.
//
// What is deliberately NOT serialized (derived or per-round scratch):
// System's active-set scheduler structures and Route's dist snapshot
// (re-derived by rebuild_active_sets(), valid at any round boundary),
// RoundEvents, the MessageSystem's mailbox slots and per-round grant and
// ack lists (rewritten before every use) and its list of processes
// holding a retained batch (rebuilt from the links on restore), and the
// NetworkModel's late copies (those of the last barrier only). Snapshots
// are round-boundary-only: the barrier count is a whole number of
// rounds.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "snapshot/wire.hpp"

namespace cellflow {
template <class Engine>
class BasicFailureModel;
class MessageSystem;
class System;
class Xoshiro256;
using FailureModel = BasicFailureModel<System>;  // failure/failure_model.hpp
}  // namespace cellflow

namespace cellflow::chunk {
class ChunkedSystem;
}  // namespace cellflow::chunk

namespace cellflow::snapshot {

/// Serializes the full state of `sys` (round boundary only). When
/// `failures` is non-null its mutable state rides along, so a restored
/// run reproduces the same fail/recover schedule.
[[nodiscard]] std::vector<std::uint8_t> save(const System& sys,
                                             const FailureModel* failures =
                                                 nullptr);

/// Restores a snapshot into `sys`, which must have been built with the
/// same SystemConfig and equivalent policies (same types/parameters; the
/// snapshot carries only their mutable state). Atomic: on throw, `sys`
/// and `failures` are unchanged.
/// @throws SnapshotError (see wire.hpp for the code taxonomy)
void restore(System& sys, std::span<const std::uint8_t> bytes,
             FailureModel* failures = nullptr);

/// MessageSystem form. `env_rng` is the environment's fail/recover stream
/// (cellflow_sim hands over its RandomFailRecover's generator); pass the
/// same pointer shape on save and restore.
[[nodiscard]] std::vector<std::uint8_t> save(const MessageSystem& msg,
                                             const Xoshiro256* env_rng =
                                                 nullptr);
void restore(MessageSystem& msg, std::span<const std::uint8_t> bytes,
             Xoshiro256* env_rng = nullptr);

/// ChunkedSystem form (DESIGN.md §12): only *materialized* chunks go on
/// the wire — live chunks as full per-cell state, parked chunks as their
/// {dist, meta} summaries — so snapshot size is proportional to the
/// active region, not N². Restore rebuilds the same chunk states (then
/// re-derives scheduler aux), so a restored engine parks, faults-in, and
/// computes exactly like the uninterrupted one.
/// `failures` is the chunked engine's failure model, with the same
/// section as the System form.
[[nodiscard]] std::vector<std::uint8_t> save(
    const chunk::ChunkedSystem& sys,
    const BasicFailureModel<chunk::ChunkedSystem>* failures = nullptr);
void restore(chunk::ChunkedSystem& sys, std::span<const std::uint8_t> bytes,
             BasicFailureModel<chunk::ChunkedSystem>* failures = nullptr);

/// FNV-1a-64 digest of the observable engine state (round, counters,
/// every cell's protocol + physical variables; the message form adds the
/// per-link sessions and transport state), hashed through the same field
/// encoders that write those pieces to a snapshot. Two engines with equal
/// digests at a round boundary continue identically under identical
/// inputs — the equality currency of the round-trip tests and the replay
/// bisector.
[[nodiscard]] std::uint64_t state_digest(const System& sys);
[[nodiscard]] std::uint64_t state_digest(const MessageSystem& msg);
/// state_digest(msg) without a FaultyNetwork's private schedule state (its
/// rng words and delay queue): what two transports that deliver the same
/// messages agree on, so a SyncNetwork run and a zero-fault FaultyNetwork
/// run of one configuration digest equal.
[[nodiscard]] std::uint64_t execution_digest(const MessageSystem& msg);
/// Digests the full N×N cell space in row-major order — materialized or
/// not (non-live cells via their rest-state reconstruction) — so the
/// value is comparable across storage models: a ChunkedSystem and a dense
/// System in the same protocol state produce the SAME digest.
[[nodiscard]] std::uint64_t state_digest(const chunk::ChunkedSystem& sys);

/// File helpers for the CLI. write_file throws std::runtime_error on I/O
/// failure; read_file throws SnapshotError{kTruncated} on a missing or
/// unreadable file.
void write_file(const std::string& path,
                std::span<const std::uint8_t> bytes);
[[nodiscard]] std::vector<std::uint8_t> read_file(const std::string& path);

}  // namespace cellflow::snapshot
