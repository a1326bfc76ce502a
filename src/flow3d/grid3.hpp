// 3-D extension (paper §V): "our algorithm is presented for a two
// dimensional square-grid partition, however, an extension to three
// dimensional rectangular partitions follows in an obvious way."
//
// This module makes the "obvious way" concrete. Cells are unit cubes on
// an nx×ny×nz box lattice; entities are l×l×l cubes; the neighborhood is
// the 6-face adjacency. Everything the 2-D protocol wrote as four
// directional cases becomes one axis-generic formula:
//
//   direction            = (axis ∈ {x,y,z}, sign ∈ {−1,+1})
//   entry strip clear    = ∀p: sign>0 ? p[axis]+l/2 ≤ base+1−d
//                              : p[axis]−l/2 ≥ base+d
//   boundary crossing    = sign>0 ? p[axis]+l/2 > base+1 : p[axis]−l/2 < base
//   entry placement      = p[axis] := sign>0 ? dest+l/2 : dest+1−l/2
//
// with the two perpendicular coordinates untouched — which is also why
// Theorem 5's proof generalizes verbatim: it only ever argues about the
// motion axis and "some axis" separation.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/check.hpp"

namespace cellflow {

/// Identifier of a 3-D cell: the integer corner of its unit cube.
/// Ordered lexicographically — the Route tie-break order, as in 2-D.
struct CellId3 {
  std::int32_t x = 0;
  std::int32_t y = 0;
  std::int32_t z = 0;

  friend constexpr auto operator<=>(const CellId3&, const CellId3&) = default;

  [[nodiscard]] constexpr std::int32_t operator[](int axis) const {
    return axis == 0 ? x : axis == 1 ? y : z;
  }
  constexpr std::int32_t& operator[](int axis) {
    return axis == 0 ? x : axis == 1 ? y : z;
  }
};

using OptCellId3 = std::optional<CellId3>;

[[nodiscard]] std::string to_string(CellId3 id);
[[nodiscard]] std::string to_string(const OptCellId3& id);

/// A point in 3-space (entity centers).
struct Vec3 {
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;

  friend constexpr bool operator==(Vec3, Vec3) noexcept = default;

  [[nodiscard]] constexpr double operator[](int axis) const {
    return axis == 0 ? x : axis == 1 ? y : z;
  }
  constexpr double& operator[](int axis) {
    return axis == 0 ? x : axis == 1 ? y : z;
  }
};

/// One of the six face directions: an axis and a sign.
struct Direction3 {
  int axis = 0;   ///< 0 = x, 1 = y, 2 = z
  int sign = 1;   ///< +1 or −1

  friend constexpr bool operator==(Direction3, Direction3) noexcept = default;
};

inline constexpr std::array<Direction3, 6> kAllDirections3 = {
    Direction3{0, 1}, Direction3{0, -1}, Direction3{1, 1},
    Direction3{1, -1}, Direction3{2, 1}, Direction3{2, -1}};

/// The six face neighbors of `id` in ascending CellId3 order, on the
/// lattice or not. Position k is bit k of a NeighborMask
/// (core/cell_state.hpp).
[[nodiscard]] constexpr std::array<CellId3, 6> ascending_neighbors(
    CellId3 id) noexcept {
  return {{{id.x - 1, id.y, id.z},
           {id.x, id.y - 1, id.z},
           {id.x, id.y, id.z - 1},
           {id.x, id.y, id.z + 1},
           {id.x, id.y + 1, id.z},
           {id.x + 1, id.y, id.z}}};
}

/// The rectangular box lattice.
class Grid3 {
 public:
  /// Preconditions: all extents >= 1.
  Grid3(int nx, int ny, int nz) : nx_(nx), ny_(ny), nz_(nz) {
    CF_EXPECTS_MSG(nx >= 1 && ny >= 1 && nz >= 1,
                   "grid extents must be positive");
  }

  [[nodiscard]] int nx() const noexcept { return nx_; }
  [[nodiscard]] int ny() const noexcept { return ny_; }
  [[nodiscard]] int nz() const noexcept { return nz_; }
  [[nodiscard]] std::size_t cell_count() const noexcept {
    return static_cast<std::size_t>(nx_) * static_cast<std::size_t>(ny_) *
           static_cast<std::size_t>(nz_);
  }

  [[nodiscard]] bool contains(CellId3 id) const noexcept {
    return id.x >= 0 && id.x < nx_ && id.y >= 0 && id.y < ny_ && id.z >= 0 &&
           id.z < nz_;
  }

  [[nodiscard]] std::size_t index_of(CellId3 id) const {
    CF_EXPECTS(contains(id));
    return (static_cast<std::size_t>(id.z) * static_cast<std::size_t>(ny_) +
            static_cast<std::size_t>(id.y)) *
               static_cast<std::size_t>(nx_) +
           static_cast<std::size_t>(id.x);
  }

  [[nodiscard]] CellId3 id_of(std::size_t index) const {
    CF_EXPECTS(index < cell_count());
    const auto nx = static_cast<std::size_t>(nx_);
    const auto ny = static_cast<std::size_t>(ny_);
    return CellId3{static_cast<std::int32_t>(index % nx),
                   static_cast<std::int32_t>((index / nx) % ny),
                   static_cast<std::int32_t>(index / (nx * ny))};
  }

  [[nodiscard]] OptCellId3 neighbor(CellId3 id, Direction3 d) const {
    CF_EXPECTS(contains(id));
    CellId3 n = id;
    n[d.axis] += d.sign;
    if (!contains(n)) return std::nullopt;
    return n;
  }

  [[nodiscard]] std::vector<CellId3> neighbors(CellId3 id) const;

  /// True iff the cells share a face.
  [[nodiscard]] bool are_neighbors(CellId3 a, CellId3 b) const noexcept;

  /// Direction from `from` to face-adjacent `to`.
  /// Precondition: are_neighbors(from, to).
  [[nodiscard]] Direction3 direction_between(CellId3 from, CellId3 to) const;

  [[nodiscard]] int manhattan(CellId3 a, CellId3 b) const noexcept {
    int d = 0;
    for (int axis = 0; axis < 3; ++axis) {
      const int delta = a[axis] - b[axis];
      d += delta >= 0 ? delta : -delta;
    }
    return d;
  }

  [[nodiscard]] std::vector<CellId3> all_cells() const;

 private:
  int nx_;
  int ny_;
  int nz_;
};

}  // namespace cellflow
