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
// Nothing here depends on the tessellation, so route_step is written once
// over the cell-id type; the hex and 3-D engines gather their neighbors'
// (id, dist) pairs and call it like the square-grid ones.
#pragma once

#include <optional>
#include <span>
#include <type_traits>
#include <utility>

#include "core/cell_state.hpp"
#include "util/check.hpp"
#include "util/dist_value.hpp"
#include "util/ids.hpp"

namespace cellflow::obs {
struct ProtocolCounts;
}  // namespace cellflow::obs

namespace cellflow {

/// One neighbor's identifier together with its previous-round dist value
/// as read over the (modeled) shared variable.
template <typename Id>
struct BasicNeighborDist {
  Id id;
  Dist dist;
};
using NeighborDist = BasicNeighborDist<CellId>;

template <typename Id>
struct BasicRouteResult {
  Dist dist;
  std::optional<Id> next;
};
using RouteResult = BasicRouteResult<CellId>;

/// Computes the new (dist, next) for a non-faulty, non-target cell.
/// `neighbor_dists` holds every in-grid neighbor (any order). The caller
/// is responsible for skipping failed cells and the target — their
/// dist/next are pinned by fail() and apply_route respectively. `Id` is
/// not deduced: square-grid callers name no id type (braced lists
/// included), other tessellations name theirs.
template <typename Id = CellId>
[[nodiscard]] BasicRouteResult<Id> route_step(
    std::span<const BasicNeighborDist<std::type_identity_t<Id>>>
        neighbor_dists) {
  CF_EXPECTS_MSG(
      !neighbor_dists.empty(),
      "a cell on a lattice of two or more cells has at least one neighbor");
  // argmin over (dist, id), lexicographic — the paper's tie-break.
  const BasicNeighborDist<Id>* best = &neighbor_dists.front();
  for (const BasicNeighborDist<Id>& nd : neighbor_dists.subspan(1)) {
    if (nd.dist < best->dist ||
        (nd.dist == best->dist && nd.id < best->id)) {
      best = &nd;
    }
  }
  BasicRouteResult<Id> r;
  r.dist = best->dist.plus_one();
  if (r.dist.is_finite()) r.next = best->id;
  return r;
}

/// One cell's Route transition for the square-grid engines (System,
/// ChunkedSystem, MessageSystem), which also keep ProtocolCounts; every
/// tessellation shares the route_step inside it. Call it once the cell's
/// neighbor dists are gathered (however the engine stores them).
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
