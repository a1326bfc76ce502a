// Per-cell protocol state — the variables of Cell_{i,j} (paper Figure 3):
//
//   Members  : Set[P]   := {}      entities located in the cell
//   NEPrev   : Set[ID⊥] := {}      nonempty neighbors whose next points here
//   next, signal, token : ID⊥ := ⊥
//   dist     : N∞       := ∞       (target: 0)
//   failed   : B        := false
//
// Members/dist/next/signal are the *shared* variables a neighbor may read
// (Figure 2); token/NEPrev/failed are private. The variables do not depend
// on the tessellation, so BasicCellState is written once over the cell-id
// and entity types: CellState is the square grid's, HexCellState
// (hexflow/) and CellState3 (flow3d/) the extensions'. The read/write
// discipline of the three update phases lives in route.hpp / signal.hpp /
// move.hpp / system.hpp, and the fail / recover environment actions below
// serve every tessellation.
#pragma once

#include <optional>
#include <vector>

#include "core/entity.hpp"
#include "util/dist_value.hpp"
#include "util/ids.hpp"
#include "util/small_vec.hpp"

namespace cellflow {

/// NEPrev and its derivatives (Signal's rotation candidates, grant lists):
/// at most the lattice degree many ids — 4 on the square grid, 6 on the
/// hex/3d extensions — so inline capacity 8 never spills to the heap
/// (DESIGN.md §10). Sorted ascending wherever the protocol stores it.
template <typename Id>
using BasicNeighborSet = SmallVec<Id, 8>;
using NeighborSet = BasicNeighborSet<CellId>;

template <typename Id, typename EntityT>
struct BasicCellState {
  /// Members_{i,j}. Order is insertion order; identity is Entity::id.
  std::vector<EntityT> members;

  /// dist_{i,j}: estimated hop distance to the target. Initially ∞
  /// (Dist's default); the target cell is initialized to 0.
  Dist dist = Dist::infinity();

  /// next_{i,j}: the neighbor this cell tries to move its entities toward.
  std::optional<Id> next;

  /// token_{i,j}: the nonempty predecessor currently being served (mutual
  /// exclusion / fairness token of the Signal function).
  std::optional<Id> token;

  /// signal_{i,j}: the neighbor (if any) granted permission to move its
  /// entities toward this cell this round; ⊥ blocks all predecessors.
  std::optional<Id> signal;

  /// NEPrev_{i,j}: nonempty neighbors with next = this cell, as computed
  /// by the most recent Signal phase (kept for observability/tests).
  BasicNeighborSet<Id> ne_prev;

  /// failed_{i,j}: crash flag. A failed cell does nothing — it never moves
  /// its entities and neighbors read dist = ∞ / signal = ⊥ from it.
  bool failed = false;

  [[nodiscard]] bool has_entities() const noexcept { return !members.empty(); }

  /// Finds a member by id; nullptr if absent.
  [[nodiscard]] const EntityT* find(EntityId id) const noexcept {
    for (const EntityT& e : members)
      if (e.id == id) return &e;
    return nullptr;
  }
};

using CellState = BasicCellState<CellId, Entity>;

/// fail(⟨i,j⟩)'s effect on the cell, shared by every engine on every
/// tessellation: failed := true, dist := ∞, next := ⊥. Because a failed
/// cell "never communicates", neighbors must read signal = ⊥ from it, so
/// the shared signal clears too; the private token and NEPrev are simply
/// lost. Members freeze in place. Returns whether the cell was live (the
/// action is idempotent; engines count only real crashes).
template <typename Id, typename EntityT>
bool apply_fail(BasicCellState<Id, EntityT>& c) noexcept {
  const bool was_live = !c.failed;
  c.failed = true;
  c.dist = Dist::infinity();
  c.next = std::nullopt;
  c.signal = std::nullopt;
  c.token = std::nullopt;
  c.ne_prev.clear();
  return was_live;
}

/// §IV recovery's effect on the cell, shared by every engine on every
/// tessellation: failed := false with the protocol state back at its
/// initial values (the target re-anchors at dist 0, so routing
/// restabilizes toward it within O(N²) rounds — Corollary 7). Members are
/// retained: entities frozen on the failed cell resume their journey.
/// No-op returning false on a live cell.
template <typename Id, typename EntityT>
bool apply_recover(BasicCellState<Id, EntityT>& c, bool is_target) noexcept {
  if (!c.failed) return false;
  c.failed = false;
  c.dist = is_target ? Dist::zero() : Dist::infinity();
  c.next = std::nullopt;
  c.token = std::nullopt;
  c.signal = std::nullopt;
  c.ne_prev.clear();
  return true;
}

}  // namespace cellflow
