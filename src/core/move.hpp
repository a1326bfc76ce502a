// The Move function (paper Figure 6) decomposed into pure helpers.
//
// Cell ⟨i,j⟩ with next = ⟨m,n⟩ moves all its entities by v toward ⟨m,n⟩
// iff signal_{m,n} = ⟨i,j⟩. Entities whose edge crosses the shared
// boundary leave the cell: they are consumed if ⟨m,n⟩ is the target,
// otherwise re-placed flush against the entry edge of ⟨m,n⟩:
//
//   crossing (line 7):   e.g. east: px + l/2 > i+1
//   placement (13–20):   east: px := m + l/2      west:  px := m+1 − l/2
//                        north: py := n + l/2     south: py := n+1 − l/2
//   (the perpendicular coordinate is preserved — simultaneous transfers of
//    abreast entities stay separated, cf. proof of Theorem 5)
//
// Note on the published pseudocode: Figure 6's west/south placements are
// typeset as "px := m − l/2" which would land *outside* cell ⟨m,n⟩;
// Invariant 1 (i + l/2 ≤ px ≤ i+1 − l/2 for members of cell i) fixes the
// evident intent to m+1 − l/2 (flush with the entry edge), which we use.
//
// apply_move is one cell's whole Move transition (the permission check's
// outcome in, the crossers out). The cross-cell bookkeeping (reading the
// destination's signal, appending to the destination, target
// consumption, simultaneity) is the engines' job — see system.hpp.
#pragma once

#include <vector>

#include "core/cell_state.hpp"
#include "core/entity.hpp"
#include "core/params.hpp"
#include "grid/grid.hpp"
#include "util/ids.hpp"

namespace cellflow::obs {
struct ProtocolCounts;
}  // namespace cellflow::obs

namespace cellflow {

/// Which movement rule Move uses. kCoupled is the paper's protocol (all
/// entities of a cell move identically, only with permission).
/// kCompacting is the §V "relaxed coupling" extension: entities advance
/// independently within the cell (see compact_move_step below),
/// preserving safety and progress while letting queues close up during
/// blocked rounds.
enum class MovementRule {
  kCoupled,     ///< Figure 6 as published
  kCompacting,  ///< §V relaxed-coupling extension
};

/// Result of moving one cell's entities for one round.
struct MoveResult {
  /// Entities still in the cell, positions advanced by v.
  std::vector<Entity> staying;
  /// Entities that crossed the boundary toward `toward`, already re-placed
  /// flush with the entry edge of the destination cell.
  std::vector<Entity> crossed;
};

/// Advances every entity of cell `self` by v toward neighbor `toward` and
/// splits them into staying/crossed. Pure: works on a copy.
/// Precondition: `toward` is a lattice neighbor of `self`.
[[nodiscard]] MoveResult move_step(CellId self, CellId toward,
                                   std::vector<Entity> members,
                                   const Params& params);

/// In-place form of move_step — the round hot path (DESIGN.md §10).
/// Partitions `members` with a stable two-pointer pass: stayers keep
/// their exact relative order in `members` (the write index never
/// overtakes the read index, so no unread element is clobbered), and
/// crossers are *appended* to `crossed_out` in that same order, already
/// re-placed at the destination's entry edge. No allocation unless
/// `crossed_out` must grow. move_step delegates here, so the two forms
/// cannot diverge.
void move_step_inplace(CellId self, CellId toward,
                       std::vector<Entity>& members,
                       std::vector<Entity>& crossed_out,
                       const Params& params);

/// True iff entity `p` (center after displacement) sticks out of cell
/// `self` across the edge shared with `toward` (Figure 6 line 7).
[[nodiscard]] bool crosses_boundary(CellId self, CellId toward,
                                    const Entity& p, const Params& params);

/// Entry placement (Figure 6 lines 13–20): returns `p` with the coordinate
/// along the motion axis snapped flush to the entry edge of `dest`.
[[nodiscard]] Entity place_at_entry(CellId from, CellId dest, Entity p,
                                    const Params& params);

// --- Relaxed coupling (paper §V, future work) -------------------------
//
// "For practical applications, we need algorithms that tolerate a relaxed
// coupling between entities and allow them some degree of independent
// movement while preserving safety and progress."
//
// compact_move_step realizes the natural relaxation: entities in a cell
// advance toward `toward` *independently*, each by up to v, subject to
//   (1) staying ≥ d behind every same-lane entity ahead of it (a lane is
//       the set of entities within < d on the perpendicular axis — pairs
//       separated ≥ d perpendicular are unconstrained, exactly mirroring
//       the Safe predicate's disjunction);
//   (2) not crossing the boundary unless the cell holds permission
//       (signal_{toward} = self), in which case the front may cross and
//       transfer exactly as in Figure 6;
//   (3) never entering the entry strip this cell has *promised* via its
//       own current signal when that promise is along the motion
//       direction — otherwise an incoming transfer could land within d
//       of a compacted resident (this constraint is what preserves the
//       proof of Theorem 5; see tests/test_relaxed_coupling.cpp).
//
// Unlike the paper's coupled Move, compaction advances entities even in
// rounds where the cell has no permission — queues close up behind the
// boundary instead of freezing, which is where the throughput gain
// comes from (bench/ablation_relaxed_coupling).

struct CompactionContext {
  /// Cell holds permission to transfer (signal of `toward` names it).
  bool may_cross = false;
  /// Direction of this cell's own granted signal, if any: the strip that
  /// must stay clear for the incoming transfer.
  std::optional<Direction> promised_strip;
};

/// One compaction round for cell `self` toward `toward`.
/// Precondition: `toward` is a lattice neighbor; members satisfy Safe.
[[nodiscard]] MoveResult compact_move_step(CellId self, CellId toward,
                                           std::vector<Entity> members,
                                           const Params& params,
                                           const CompactionContext& ctx);

/// In-place form of compact_move_step (same contract as
/// move_step_inplace): sorts `members` front-to-back and partitions it
/// stably, so `members` afterwards equals the pure form's `staying` —
/// the sort is part of the semantics (the pure form's staying is sorted
/// too), not an artifact. compact_move_step delegates here.
void compact_move_step_inplace(CellId self, CellId toward,
                               std::vector<Entity>& members,
                               std::vector<Entity>& crossed_out,
                               const Params& params,
                               const CompactionContext& ctx);

/// One cell's Move transition, shared by every square-grid engine.
/// Precondition: the cell is not failed and c.next names a lattice
/// neighbor, the destination; `permitted` is whether the destination's
/// signal names `self` (Figure 6's guard, read by the engine). kCoupled
/// moves every member only with permission; kCompacting compacts
/// whenever the cell is nonempty, crosses only with permission, and
/// keeps out of the strip the cell's own signal has promised (`grid`
/// resolves its direction). Clears `crossed_out` and fills it with the
/// crossers, already placed at the destination's entry edge; unless
/// `counts` is null, tallies the movement and the crossers. Returns true
/// iff the cell applied a movement (RoundEvents::moved).
bool apply_move(CellState& c, CellId self, bool permitted, MovementRule rule,
                const Grid& grid, const Params& params,
                std::vector<Entity>& crossed_out, obs::ProtocolCounts* counts);

}  // namespace cellflow
