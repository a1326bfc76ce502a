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
// (hexflow/) and CellState3 (flow3d/) the extensions'. NEPrev is a set of
// lattice neighbors, so every lattice stores it as a one-byte mask over
// its directions (NeighborMask), which keeps the square grid's cell at
// 72 bytes. The read/write discipline of the three update phases lives in
// route.hpp / signal.hpp / move.hpp / system.hpp, and the fail / recover
// environment actions below serve every tessellation.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/entity.hpp"
#include "grid/grid.hpp"
#include "util/dist_value.hpp"
#include "util/ids.hpp"
#include "util/small_vec.hpp"

namespace cellflow {

/// NEPrev_{i,j} as a set of lattice directions: bit k stands for
/// ascending_neighbors(self)[k], the cell's k-th lattice neighbor in
/// ascending id order (declared next to each id type: grid.hpp,
/// hex_grid.hpp, grid3.hpp). One byte covers every lattice here (degree
/// 4 or 6), and reading the bits low to high yields the ids ascending —
/// the order Signal's candidate lists and the snapshot codec use — without
/// a sort (DESIGN.md §10).
using NeighborMask = std::uint8_t;

/// The bit of `nb` among the lattice neighbors of `self`, or 0 when `nb`
/// is not one of them.
template <typename Id>
[[nodiscard]] constexpr NeighborMask neighbor_bit(Id self, Id nb) noexcept {
  const auto nbrs = ascending_neighbors(self);
  for (std::size_t k = 0; k < nbrs.size(); ++k)
    if (nbrs[k] == nb) return static_cast<NeighborMask>(1u << k);
  return 0;
}

/// The mask of the lattice neighbors `nb` of `self` for which
/// is_member(nb) holds, asked in ascending id order. `is_member` sees
/// off-lattice ids too; it answers false for them.
template <typename Id, typename IsMember>
[[nodiscard]] NeighborMask neighbor_mask(Id self, IsMember&& is_member) {
  const auto nbrs = ascending_neighbors(self);
  NeighborMask mask = 0;
  for (std::size_t k = 0; k < nbrs.size(); ++k)
    if (is_member(nbrs[k])) mask |= static_cast<NeighborMask>(1u << k);
  return mask;
}

/// |mask|.
[[nodiscard]] constexpr std::size_t neighbor_count(NeighborMask mask) noexcept {
  return static_cast<std::size_t>(std::popcount(mask));
}

/// Candidate lists derived from NEPrev (Signal's token_discipline input
/// and its rotation candidates): at most the lattice degree many ids — 4
/// on the square grid, 6 on the hex/3d extensions — so inline capacity 8
/// never spills to the heap. Sorted ascending wherever the protocol uses
/// one.
template <typename Id>
using BasicNeighborSet = SmallVec<Id, 8>;
using NeighborSet = BasicNeighborSet<CellId>;

/// The ids of `mask`'s neighbors of `self`, ascending.
template <typename Id>
[[nodiscard]] BasicNeighborSet<Id> neighbors_in(Id self, NeighborMask mask) {
  const auto nbrs = ascending_neighbors(self);
  BasicNeighborSet<Id> out;
  for (std::size_t k = 0; k < nbrs.size(); ++k)
    if (((mask >> k) & 1) != 0) out.push_back(nbrs[k]);
  return out;
}

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
  /// by the most recent Signal phase (kept for observability/tests), as a
  /// NeighborMask over this cell's lattice neighbors. Its own byte, never
  /// a bit-field shared with `failed`: a sharded Signal phase writes a
  /// cell's mask while the cell's neighbors read its `failed`.
  NeighborMask ne_prev = 0;

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

// Members (24 B), dist (8), next/token/signal (3 × 12), NEPrev (1) and
// failed (1): every N² walk reads this stride.
static_assert(sizeof(CellState) <= 72);

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
  c.ne_prev = 0;
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
  c.ne_prev = 0;
  return true;
}

}  // namespace cellflow
