// The Route function (paper Figure 4) as a pure per-cell step.
//
//   if ¬failed_{i,j} ∧ ⟨i,j⟩ ≠ tid then
//     dist_{i,j} := ( min over ⟨m,n⟩ ∈ Nbrs_{i,j} of dist_{m,n} ) + 1
//     if dist_{i,j} = ∞ then next_{i,j} := ⊥
//     else next_{i,j} := argmin over ⟨m,n⟩ ∈ Nbrs_{i,j} of (dist_{m,n}, ⟨m,n⟩)
//
// This is a synchronous distance-vector (Bellman–Ford) update: each round
// every non-faulty cell recomputes from its neighbors' *previous-round*
// estimates, ties broken by neighbor id. Failed neighbors report ∞
// (fail sets dist := ∞ — "neighbors do not receive a timely response").
// It is self-stabilizing: dist/next are recomputed from scratch every
// round, so arbitrary corruption is washed out (Lemma 6 / Corollary 7).
#pragma once

#include <span>
#include <utility>

#include "core/cell_state.hpp"
#include "util/dist_value.hpp"
#include "util/ids.hpp"

namespace cellflow::obs {
struct ProtocolCounts;
}  // namespace cellflow::obs

namespace cellflow {

/// One neighbor's identifier together with its previous-round dist value
/// as read over the (modeled) shared variable.
struct NeighborDist {
  CellId id;
  Dist dist;
};

struct RouteResult {
  Dist dist;
  OptCellId next;
};

/// Computes the new (dist, next) for a non-faulty, non-target cell.
/// `neighbor_dists` holds every in-grid neighbor (any order). The caller
/// is responsible for skipping failed cells and the target — their
/// dist/next are pinned by fail() and apply_route respectively.
[[nodiscard]] RouteResult route_step(
    std::span<const NeighborDist> neighbor_dists);

/// One cell's Route transition, shared by every square-grid engine once
/// it has gathered the cell's neighbor dists (however it stores them).
/// Precondition: the cell is not failed. The target pins dist := 0 and
/// next := ⊥ every round — which also washes out adversarial corruption
/// of its control state — and ignores `neighbor_dists`; any other cell
/// takes route_step over them. Writes dist/next into `c` and, unless
/// `counts` is null, tallies one relaxation per gathered neighbor (none
/// for the target) and one dist change when dist moved. Returns whether
/// dist changed: the only Route output another cell reads, and hence
/// what the active-set schedulers re-arm on.
bool apply_route(CellState& c, bool is_target,
                 std::span<const NeighborDist> neighbor_dists,
                 obs::ProtocolCounts* counts);

}  // namespace cellflow
