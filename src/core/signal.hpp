// The Signal function (paper Figure 5) as a pure per-cell step.
//
// Signal is the heart of the protocol: it maintains safety by *blocking*
// (refusing entity transfers into a cell whose boundary strip is occupied)
// and progress by *fair token rotation* over the nonempty predecessors.
//
//   NEPrev := {⟨m,n⟩ ∈ Nbrs : next_{m,n} = ⟨i,j⟩ ∧ Members_{m,n} ≠ ∅}
//   if token = ⊥ then token := choose NEPrev
//   if (strip of depth d from the edge shared with token is entity-free)
//     signal := token
//     rotate token within NEPrev (away from the served neighbor if possible)
//   else
//     signal := ⊥ ; token unchanged   // keep serving the same neighbor —
//                                     // this retry is what makes blocking fair
//
// Note on the published pseudocode: Figure 5's fourth strip condition reads
// "token = i−1 ∧ py − l/2 ≥ j + d", an obvious typo for the *south*
// neighbor ⟨i,j−1⟩ (the first two cases cover east/west, the third north).
// We implement the evident intent; predicate H in §III-A confirms it.
#pragma once

#include <span>
#include <vector>

#include "core/cell_state.hpp"
#include "core/choose.hpp"
#include "core/params.hpp"
#include "grid/grid.hpp"
#include "util/ids.hpp"

namespace cellflow::obs {
struct ProtocolCounts;
}  // namespace cellflow::obs

namespace cellflow {

/// Which grant rule Signal uses. The paper argues its blocking
/// permission-to-move policy is *necessary* for safety; kAlwaysGrant is
/// the broken strawman that grants without the entry-strip check, kept so
/// the necessity claim is demonstrable (bench/ablation_signal_necessity
/// and tests/test_signal_necessity.cpp show it violates Theorem 5).
enum class SignalRule {
  kBlocking,     ///< Figure 5 as published (the protocol)
  kAlwaysGrant,  ///< UNSAFE ablation: grant the token holder unconditionally
};

/// True iff the strip of depth d = rs + l inward from the edge of cell
/// `self` shared with neighbor `toward` contains no part of any member's
/// safety region — Figure 5 lines 4–7, equivalently one disjunct of
/// predicate H (§III-A):
///   east  (⟨i+1,j⟩): ∀p. px + l/2 ≤ i+1−d
///   west  (⟨i−1,j⟩): ∀p. px − l/2 ≥ i+d
///   north (⟨i,j+1⟩): ∀p. py + l/2 ≤ j+1−d
///   south (⟨i,j−1⟩): ∀p. py − l/2 ≥ j+d
/// Precondition: `toward` is a lattice neighbor of `self`.
[[nodiscard]] bool entry_strip_clear(CellId self, CellId toward,
                                     std::span<const Entity> members,
                                     const Params& params);

struct SignalResult {
  OptCellId signal;
  OptCellId token;
  /// NEPrev as computed this round (sorted ascending by id). Inline
  /// storage (see cell_state.hpp's NeighborSet): moving it into the
  /// cell's ne_prev never allocates.
  NeighborSet ne_prev;
};

/// Inputs to one Signal step for cell `self`. `ne_prev` must already hold
/// the nonempty predecessors — the System computes it from neighbors'
/// freshly-routed `next` values and their (pre-Move) Members — sorted
/// ascending. `token` is the cell's previous token value.
struct SignalInputs {
  CellId self;
  std::span<const Entity> members;
  NeighborSet ne_prev;
  OptCellId token;
};

/// Executes Figure 5 for one non-faulty cell. `choose` realizes the two
/// nondeterministic choices (see choose.hpp).
[[nodiscard]] SignalResult signal_step(SignalInputs in, const Params& params,
                                       ChoosePolicy& choose);

/// The UNSAFE always-grant ablation (see SignalRule::kAlwaysGrant):
/// identical token bookkeeping, but the entry-strip check is skipped —
/// the token holder is always granted. Exists only to demonstrate that
/// the blocking rule is necessary for Theorem 5.
[[nodiscard]] SignalResult signal_step_always_grant(SignalInputs in,
                                                    ChoosePolicy& choose);

/// One cell's Signal transition, shared by every square-grid engine once
/// it has gathered the cell's NEPrev (the nonempty neighbors whose fresh
/// next names `self`, in any order). Precondition: the cell is not
/// failed. Runs signal_step or signal_step_always_grant by `rule`, writes
/// signal, token and ne_prev back into `c` and, unless `counts` is null,
/// tallies |NEPrev|, grants, blocks and token rotations. Returns true iff
/// the cell had a candidate (a token or a nonempty NEPrev) yet granted
/// nobody — a blocked grant (RoundEvents::blocked).
bool apply_signal(CellState& c, CellId self, NeighborSet ne_prev,
                  SignalRule rule, const Params& params, ChoosePolicy& choose,
                  obs::ProtocolCounts* counts);

}  // namespace cellflow
