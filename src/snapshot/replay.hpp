// Record-replay log for divergence bisection (ROADMAP item 5, DESIGN.md
// §11). A ReplayLog captures everything the *environment* fed a run —
// fail/recover events (whether scripted or drawn from a stochastic
// FailureModel), deliberate control-state corruptions, and the per-round
// injection trace — plus a state digest at every round boundary.
//
// Re-driving: restore any snapshot taken during the recorded run, then
// `replay()` the log. The engine's own Choose/Source policies resume from
// their snapshotted rng state, so injections re-arise naturally and the
// log's injection events act as a consistency check rather than an input.
// The per-boundary digests then pinpoint the FIRST round at which the
// replayed execution deviates from the recorded one — the bisection
// primitive: a corrupted or miscompiled engine state surfaces as
// `first_divergence == the boundary where the states first differ`, not
// as a vague end-of-run mismatch (tests/test_replay.cpp).
//
// The log itself travels in the same strict wire envelope as snapshots
// (magic "CFRL"), so adversarial bytes fail with typed SnapshotErrors.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/entity.hpp"
#include "util/dist_value.hpp"
#include "util/ids.hpp"

namespace cellflow {
template <class Engine>
class BasicFailureModel;
class System;
using FailureModel = BasicFailureModel<System>;  // failure/failure_model.hpp
}  // namespace cellflow

namespace cellflow::snapshot {

/// One round-stamped environment event. `round` is the round the event
/// belongs to: fail/recover/corrupt are applied at the boundary BEFORE
/// round `round` executes; an inject event records an injection performed
/// BY round `round` (an output echoed for consistency checking).
struct ReplayEvent {
  enum class Kind : std::uint8_t {
    kFail = 0,
    kRecover = 1,
    kCorrupt = 2,
    kInject = 3,
  };

  Kind kind = Kind::kFail;
  std::uint64_t round = 0;
  CellId cell;

  // kCorrupt payload: the values written into the cell's control state.
  Dist dist;
  OptCellId next;
  OptCellId token;
  OptCellId signal;

  // kInject payload.
  EntityId entity;
  Vec2 center;
};

/// The recorded run: a starting boundary (round + digest), the event
/// stream (rounds nondecreasing), and one digest per executed round.
/// digests[n] is the boundary digest after round start_round + n executed.
struct ReplayLog {
  std::uint64_t start_round = 0;
  std::uint64_t start_digest = 0;
  std::vector<ReplayEvent> events;
  std::vector<std::uint64_t> digests;

  /// Rounds covered: replay can start at any boundary in
  /// [start_round, start_round + digests.size()].
  [[nodiscard]] std::uint64_t end_round() const noexcept {
    return start_round + digests.size();
  }

  [[nodiscard]] std::vector<std::uint8_t> to_bytes() const;
  /// Strict decode (same guarantees as snapshot restore).
  /// @throws SnapshotError
  [[nodiscard]] static ReplayLog from_bytes(
      std::span<const std::uint8_t> bytes);
};

/// Wraps a System (and optionally the FailureModel driving it) and
/// records a ReplayLog while the run progresses. Call step() instead of
/// `failures->apply(sys); sys.update()`.
class RunRecorder {
 public:
  /// Starts recording at sys's current round boundary. When `failures`
  /// is non-null, step() applies it and diffs the failed flags into
  /// fail/recover events — the stochastic schedule becomes a concrete
  /// recorded trace.
  explicit RunRecorder(System& sys, FailureModel* failures = nullptr);

  /// One recorded round: apply the failure model, execute the round,
  /// record the injection trace and the boundary digest.
  void step();

  /// Applies a deliberate control-state corruption at the current
  /// boundary AND records it, so a replay reproduces the perturbation.
  void note_corrupt(CellId id, Dist dist, OptCellId next, OptCellId token,
                    OptCellId signal);

  [[nodiscard]] const ReplayLog& log() const noexcept { return log_; }

 private:
  System& sys_;
  FailureModel* failures_;
  ReplayLog log_;
  std::vector<bool> prev_failed_;
};

struct ReplayReport {
  std::uint64_t rounds_replayed = 0;
  /// Earliest round boundary whose digest differs from the recording
  /// (the bisection answer); nullopt when the replay tracked the
  /// recording exactly.
  std::optional<std::uint64_t> first_divergence;
  /// False if the replayed engine's injections deviated from the
  /// recorded trace — the restored Source policy is not the one that
  /// drove the recording.
  bool inputs_consistent = true;
};

/// Re-drives `sys` — positioned at any boundary the log covers, e.g.
/// freshly restored from a mid-run snapshot — through the rest of the
/// recorded run, applying the logged environment events and comparing
/// digests at every boundary. Does not stop at the first divergence (the
/// report keeps the earliest); contract-checks that sys.round() lies
/// inside the log's range.
[[nodiscard]] ReplayReport replay(System& sys, const ReplayLog& log);

}  // namespace cellflow::snapshot
