// The protocol on the hexagonal tessellation — what changes and why.
//
// The square-grid design carries over wholesale: per-round Route
// (Bellman–Ford with id tie-break), the token/signal blocking discipline,
// simultaneous movement, source injection, fail/recover. Three things had
// to be re-derived for non-square cells:
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
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/params.hpp"
#include "hexflow/hex_grid.hpp"
#include "util/dist_value.hpp"
#include "util/ids.hpp"

namespace cellflow {

struct HexEntity {
  EntityId id;
  Vec2 center;

  friend bool operator==(const HexEntity&, const HexEntity&) noexcept =
      default;
};

struct HexCellState {
  std::vector<HexEntity> members;
  Dist dist = Dist::infinity();
  OptHexId next;
  OptHexId token;
  OptHexId signal;
  std::vector<HexId> ne_prev;
  bool failed = false;

  [[nodiscard]] bool has_entities() const noexcept { return !members.empty(); }
  [[nodiscard]] const HexEntity* find(EntityId id) const noexcept {
    for (const HexEntity& e : members)
      if (e.id == id) return &e;
    return nullptr;
  }
};

struct HexSystemConfig {
  int side = 6;                      ///< N×N rhombus of hexagons
  Params params{0.25, 0.05, 0.1};
  HexId target{1, 4};
  std::vector<HexId> sources{HexId{1, 0}};
};

/// True iff the params satisfy the hexagonal feasibility conditions
/// (d + v ≤ inradius, l ≤ inradius) on top of Params' own constraints.
[[nodiscard]] bool hex_feasible(const Params& params) noexcept;

class HexSystem {
 public:
  explicit HexSystem(HexSystemConfig config);

  [[nodiscard]] const HexGrid& grid() const noexcept { return grid_; }
  [[nodiscard]] const Params& params() const noexcept {
    return config_.params;
  }
  [[nodiscard]] HexId target() const noexcept { return config_.target; }

  [[nodiscard]] const HexCellState& cell(HexId id) const {
    return cells_[grid_.index_of(id)];
  }
  [[nodiscard]] std::uint64_t round() const noexcept { return round_; }
  [[nodiscard]] std::uint64_t total_arrivals() const noexcept {
    return total_arrivals_;
  }
  [[nodiscard]] std::uint64_t total_injected() const noexcept {
    return next_entity_id_;
  }
  [[nodiscard]] std::size_t entity_count() const noexcept;

  [[nodiscard]] std::vector<Dist> reference_distances() const;

  void fail(HexId id);
  void recover(HexId id);

  void update();

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
  void route_phase();
  void signal_phase();
  void move_phase();
  void inject_phase();
  [[nodiscard]] static HexId rotate_choice(
      std::span<const HexId> sorted_candidates, const OptHexId& previous);

  HexSystemConfig config_;
  HexGrid grid_;
  std::vector<HexCellState> cells_;

  std::uint64_t round_ = 0;
  std::uint64_t total_arrivals_ = 0;
  std::uint64_t next_entity_id_ = 0;
  std::vector<Dist> dist_snapshot_;
};

/// Safe-hex oracle: pairwise center distance ≥ d within every cell.
/// Returns a description of the first violation, or empty.
[[nodiscard]] std::string check_hex_safe(const HexSystem& sys,
                                         double eps = 1e-9);

/// Membership oracle: every entity's center inside its cell's hexagon.
[[nodiscard]] std::string check_hex_membership(const HexSystem& sys,
                                               double eps = 1e-9);

}  // namespace cellflow
