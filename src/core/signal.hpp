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
// Only the strip test depends on the tessellation, so token_discipline
// is written once over the cell-id type, taking the adjacency test, the
// strip test and `choose` as parameters: apply_signal instantiates it for
// the square-grid engines, MfSystem for its flow-pure NEPrev, and
// core/lattice_system.hpp for the hex and 3-D lattices.
//
// Note on the published pseudocode: Figure 5's fourth strip condition reads
// "token = i−1 ∧ py − l/2 ≥ j + d", an obvious typo for the *south*
// neighbor ⟨i,j−1⟩ (the first two cases cover east/west, the third north).
// We implement the evident intent; predicate H in §III-A confirms it.
#pragma once

#include <algorithm>
#include <optional>
#include <span>

#include "core/cell_state.hpp"
#include "core/choose.hpp"
#include "core/params.hpp"
#include "grid/grid.hpp"
#include "util/check.hpp"
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

template <typename Id>
struct BasicSignalResult {
  std::optional<Id> signal;
  std::optional<Id> token;
};
using SignalResult = BasicSignalResult<CellId>;

/// Figure 5's token discipline for one non-faulty cell on any
/// tessellation. `ne_prev` lists the nonempty predecessors, sorted
/// ascending (neighbors_in of the cell's NEPrev mask); `token` is the
/// cell's previous token. The tessellation supplies `adjacent(id)` (is
/// `id` a lattice neighbor of the cell?), `strip_clear(id)` (is the entry
/// strip toward `id` free of the cell's members?) and
/// `choose(candidates, previous)`. In order:
///   1. drop a token naming a non-neighbor — only transient corruption
///      can put one there, and the protocol itself only ever stores
///      neighbor ids;
///   2. acquire a token from NEPrev if none is held (line 3);
///   3. grant the holder iff its strip is clear (lines 4–9);
///   4. after a grant, rotate the token away from the served neighbor
///      (lines 10–12);
///   5. on a block, keep the token: the same neighbor is retried next
///      round, which is what makes blocking fair (line 14).
/// The caller stores NEPrev itself, as a mask (see apply_signal).
template <typename Id, typename Adjacent, typename StripClear,
          typename Choose>
[[nodiscard]] BasicSignalResult<Id> token_discipline(
    std::span<const Id> ne_prev, std::optional<Id> token,
    Adjacent&& adjacent, StripClear&& strip_clear, Choose&& choose) {
  CF_EXPECTS(std::is_sorted(ne_prev.begin(), ne_prev.end()));
  BasicSignalResult<Id> out;
  if (token.has_value() && !adjacent(*token)) token = std::nullopt;
  if (!token.has_value() && !ne_prev.empty())
    token = choose(ne_prev, std::optional<Id>{});
  out.token = token;
  if (!token.has_value() || !strip_clear(*token)) return out;
  out.signal = token;
  if (ne_prev.size() > 1) {
    BasicNeighborSet<Id> others;
    for (const Id c : ne_prev)
      if (c != *token) others.push_back(c);
    // `others` may equal ne_prev when the stale token holder left NEPrev.
    out.token = choose(std::span<const Id>(others), token);
  } else if (ne_prev.size() == 1) {
    out.token = ne_prev.front();
  } else {
    out.token = std::nullopt;
  }
  return out;
}

/// One cell's Signal transition for the square-grid engines, which also
/// keep ProtocolCounts; every tessellation shares the token_discipline
/// inside it. Call it once the cell's NEPrev is gathered as a mask (the
/// nonempty neighbors whose fresh next names `self`). Precondition: the
/// cell is not failed. Runs token_discipline over the mask's ids with the
/// square entry strip — for kAlwaysGrant a strip test that always passes
/// — writes signal, token and the mask back into `c` and, unless `counts`
/// is null, tallies |NEPrev|, grants, blocks and token rotations. Returns
/// true iff the cell had a candidate (a token or a nonempty NEPrev) yet
/// granted nobody — a blocked grant (RoundEvents::blocked).
bool apply_signal(CellState& c, CellId self, NeighborMask ne_prev,
                  SignalRule rule, const Params& params, ChoosePolicy& choose,
                  obs::ProtocolCounts* counts);

}  // namespace cellflow
