// Hexagonal tessellation (paper §V): "The case for arbitrary
// tessellations of the plane seems interesting as well as challenging,
// particularly if the algorithms are to have asymptotically optimal
// throughput." This module instantiates the protocol on the canonical
// non-square tessellation — the regular hexagonal grid — and documents
// exactly which parts of the square-grid design carry over and which had
// to change (see hex_system.hpp).
//
// Geometry: pointy-top regular hexagons of side s = 1, inradius
// a = √3/2, laid out in axial coordinates (q, r) over an N×N rhombus.
// A cell's six neighbors sit at center distance 2a; the shared edge is
// the perpendicular bisector of the center segment, so the *unit vector
// toward the neighbor's center is the shared edge's normal* — all strip,
// crossing, and movement arithmetic reduces to projections onto that
// normal.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "geometry/vec2.hpp"
#include "util/check.hpp"

namespace cellflow {

/// Axial-coordinate identifier of a hexagonal cell. Ordered
/// lexicographically (q, then r) — the Route tie-break order.
struct HexId {
  std::int32_t q = 0;
  std::int32_t r = 0;

  friend constexpr auto operator<=>(const HexId&, const HexId&) = default;
};

using OptHexId = std::optional<HexId>;

[[nodiscard]] std::string to_string(HexId id);
[[nodiscard]] std::string to_string(const OptHexId& id);

/// The six axial neighbor offsets, in the deterministic order used for
/// iteration (and thus token round-robin).
inline constexpr std::array<std::array<std::int32_t, 2>, 6> kHexDirections = {
    {{1, 0}, {1, -1}, {0, -1}, {-1, 0}, {-1, 1}, {0, 1}}};

/// The six axial neighbors of `id` in ascending HexId order, on the
/// rhombus or not. Position k is bit k of a NeighborMask
/// (core/cell_state.hpp).
[[nodiscard]] constexpr std::array<HexId, 6> ascending_neighbors(
    HexId id) noexcept {
  return {{{id.q - 1, id.r},
           {id.q - 1, id.r + 1},
           {id.q, id.r - 1},
           {id.q, id.r + 1},
           {id.q + 1, id.r - 1},
           {id.q + 1, id.r}}};
}

/// Side length of every hexagon (fixed at 1).
inline constexpr double kHexSide = 1.0;
/// Inradius a = √3/2 · s: distance from a cell center to each edge.
inline constexpr double kHexInradius = 0.8660254037844386;

class HexGrid {
 public:
  /// N×N rhombus of cells, axial coordinates in [0,N)². N ≥ 1.
  explicit HexGrid(int side) : side_(side) {
    CF_EXPECTS_MSG(side >= 1, "hex grid side must be positive");
  }

  [[nodiscard]] int side() const noexcept { return side_; }
  [[nodiscard]] std::size_t cell_count() const noexcept {
    return static_cast<std::size_t>(side_) * static_cast<std::size_t>(side_);
  }

  [[nodiscard]] bool contains(HexId id) const noexcept {
    return id.q >= 0 && id.q < side_ && id.r >= 0 && id.r < side_;
  }

  [[nodiscard]] std::size_t index_of(HexId id) const {
    CF_EXPECTS(contains(id));
    return static_cast<std::size_t>(id.r) * static_cast<std::size_t>(side_) +
           static_cast<std::size_t>(id.q);
  }

  [[nodiscard]] HexId id_of(std::size_t index) const {
    CF_EXPECTS(index < cell_count());
    return HexId{
        static_cast<std::int32_t>(index % static_cast<std::size_t>(side_)),
        static_cast<std::int32_t>(index / static_cast<std::size_t>(side_))};
  }

  /// Euclidean center of a cell (pointy-top axial layout).
  [[nodiscard]] Vec2 center(HexId id) const noexcept {
    constexpr double kSqrt3 = 1.7320508075688772;
    return Vec2{kSqrt3 * (static_cast<double>(id.q) +
                          static_cast<double>(id.r) / 2.0),
                1.5 * static_cast<double>(id.r)};
  }

  /// Neighbor in direction slot k ∈ [0,6), or nullopt off the rhombus.
  [[nodiscard]] OptHexId neighbor(HexId id, int k) const {
    CF_EXPECTS(contains(id));
    CF_EXPECTS(k >= 0 && k < 6);
    const HexId n{id.q + kHexDirections[static_cast<std::size_t>(k)][0],
                  id.r + kHexDirections[static_cast<std::size_t>(k)][1]};
    if (!contains(n)) return std::nullopt;
    return n;
  }

  [[nodiscard]] std::vector<HexId> neighbors(HexId id) const;

  [[nodiscard]] bool are_neighbors(HexId a, HexId b) const noexcept;

  /// Unit normal of the edge shared with adjacent `to` — also the motion
  /// direction toward it. Precondition: are_neighbors(from, to).
  [[nodiscard]] Vec2 edge_normal(HexId from, HexId to) const;

  /// Hop (graph) distance on the axial lattice, ignoring failures.
  [[nodiscard]] int hex_distance(HexId a, HexId b) const noexcept;

  [[nodiscard]] std::vector<HexId> all_cells() const;

 private:
  int side_;
};

}  // namespace cellflow
