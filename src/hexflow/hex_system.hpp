// The protocol on the hexagonal tessellation — what changes and why.
//
// The square-grid design carries over wholesale, and so does its code:
// the Figure-3 state, Route, Figure 5's token discipline with round-robin
// choose, the fail/recover resets, the BFS reference ρ and the round
// around them all come from core/lattice_system.hpp. This file keeps the
// geometry: the strip test, movement and injection. Three things had to
// be re-derived for non-square cells:
//
// 1. MEMBERSHIP IS BY CENTER. On squares, entities transfer when their
//    *edge* touches the boundary and are then snapped flush inside the
//    next cell. The snap is what keeps Invariant 1 tidy there, but for
//    general polygons it breaks safety: two entities crossing together
//    would both be snapped to the same edge offset, collapsing the
//    component of their separation along the edge normal. Here an entity
//    belongs to the cell containing its CENTER, transfers happen when the
//    center crosses the shared edge, and positions are never adjusted —
//    transfer is pure relabeling. Identical motion plus relabeling means
//    every intra-cell pairwise distance is preserved by construction.
//    (Entities may physically straddle an edge mid-transit, the hex
//    analogue of the paper's tolerated adjacent-cell proximity.)
//
// 2. SAFE IS EUCLIDEAN. With circular entities (diameter l) the natural
//    predicate is pairwise center distance ≥ d = l + rs within each cell
//    (physical edge gap ≥ rs). Axis disjunctions don't generalize to six
//    edge directions; plain L2 does, and the continuous transfer of (1)
//    is exactly what makes it inductive.
//
// 3. STRIP DEPTH IS d + v, measured from the shared edge to entity
//    CENTERS — at grant time AND through the round. A grant admits an
//    entity whose center ends up to v PAST the edge (into the granting
//    cell), so for the pair to end the round ≥ d apart the residents
//    must still be ≥ d + v from the edge after their own movement; the
//    compaction step enforces this as an explicit per-entity floor
//    toward the promised edge. (Mutual grants cannot deliver in the
//    same round: the Lemma-4 argument survives verbatim — a cell about
//    to push an entity over an edge has that entity inside its own
//    strip toward the receiver, so it cannot simultaneously have
//    granted the reverse direction.)
//
// Feasibility: d + v ≤ a (the strip fits inside the inradius) and l ≤ a.
//
// Limitation: only straight routes deliver. Compaction moves entities
// along the exit normal alone, so an entity that entered through any edge
// but the one opposite the exit reaches a non-granted edge plane and is
// capped at 0 from then on: a route with a turn wedges, safely (see
// HexSystem.DocumentedTurnGridlockRegime).
#pragma once

#include <string>
#include <vector>

#include "core/cell_state.hpp"
#include "core/lattice_system.hpp"
#include "core/params.hpp"
#include "hexflow/hex_grid.hpp"
#include "util/ids.hpp"

namespace cellflow {

struct HexEntity {
  EntityId id;
  Vec2 center;

  friend bool operator==(const HexEntity&, const HexEntity&) noexcept =
      default;
};

using HexCellState = BasicCellState<HexId, HexEntity>;

struct HexSystemConfig {
  int side = 6;                      ///< N×N rhombus of hexagons
  Params params{0.25, 0.05, 0.1};
  HexId target{1, 4};
  std::vector<HexId> sources{HexId{1, 0}};
};

/// True iff the params satisfy the hexagonal feasibility conditions
/// (d + v ≤ inradius, l ≤ inradius) on top of Params' own constraints.
[[nodiscard]] bool hex_feasible(const Params& params) noexcept;

class HexSystem : public LatticeSystem<HexSystem, HexGrid, HexEntity> {
 public:
  explicit HexSystem(HexSystemConfig config);

  /// Validated direct placement (tests / initial conditions): center
  /// inside the cell's hexagon, pairwise L2 spacing ≥ d.
  EntityId seed_entity(HexId id, Vec2 center);

  /// True iff the strip toward `toward` is clear: every member's center
  /// at distance ≥ d + v from the shared edge.
  [[nodiscard]] bool strip_clear(HexId self, HexId toward) const;

  /// Signed distance from a point to the edge shared with `toward`,
  /// positive inside `self` (i.e. a − projection onto the edge normal).
  [[nodiscard]] double edge_distance(HexId self, HexId toward, Vec2 p) const;

  /// True iff `p` lies inside cell `id`'s hexagon (strictly, up to eps).
  [[nodiscard]] bool inside_hex(HexId id, Vec2 p, double eps = 0.0) const;

 private:
  friend LatticeSystem;

  void move_cell(HexCellState& c, HexId self, HexId dest, bool permitted,
                 std::vector<HexEntity>& crossed) const;
  [[nodiscard]] Vec2 entry_point(HexId source) const;
  /// Center inside the hexagon and ≥ d (L2) from every member: the
  /// seeding rule, which injection extends with the token-strip test.
  [[nodiscard]] bool fits(HexId id, Vec2 center) const;
  [[nodiscard]] bool admits(HexId source, Vec2 center) const;
};

extern template class LatticeSystem<HexSystem, HexGrid, HexEntity>;

/// Safe-hex oracle: pairwise center distance ≥ d within every cell.
/// Returns a description of the first violation, or empty.
[[nodiscard]] std::string check_hex_safe(const HexSystem& sys,
                                         double eps = 1e-9);

/// Membership oracle: every entity's center inside its cell's hexagon.
[[nodiscard]] std::string check_hex_membership(const HexSystem& sys,
                                               double eps = 1e-9);

/// Predicate H on the hexagon (Lemma 3), for the post-Signal state: every
/// cell's signal names a lattice neighbor, and every member's center is
/// at least d + v − eps from the edge shared with it (the strip depth
/// derived above).
[[nodiscard]] std::string check_hex_h(const HexSystem& sys,
                                      double eps = 1e-9);

}  // namespace cellflow
