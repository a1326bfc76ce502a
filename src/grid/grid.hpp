// N×N grid topology (paper §II-B): cells identified by ⟨i,j⟩ ∈ [N−1]²,
// cell ⟨i,j⟩ occupying the unit square with bottom-left corner (i,j);
// ⟨m,n⟩ is a neighbor of ⟨i,j⟩ iff |i−m| + |j−n| = 1 (4-neighborhood).
#pragma once

#include <array>
#include <cstddef>
#include <optional>
#include <vector>

#include "geometry/rect.hpp"
#include "util/check.hpp"
#include "util/ids.hpp"

namespace cellflow {

/// One of the four lattice directions; the order fixes the deterministic
/// neighbor-iteration order used throughout (and therefore the token
/// round-robin order of the default choose policy).
enum class Direction { kEast = 0, kWest = 1, kNorth = 2, kSouth = 3 };

inline constexpr std::array<Direction, 4> kAllDirections = {
    Direction::kEast, Direction::kWest, Direction::kNorth, Direction::kSouth};

/// Unit step of a direction.
[[nodiscard]] constexpr std::array<int, 2> step_of(Direction d) noexcept {
  switch (d) {
    case Direction::kEast: return {1, 0};
    case Direction::kWest: return {-1, 0};
    case Direction::kNorth: return {0, 1};
    case Direction::kSouth: return {0, -1};
  }
  return {0, 0};
}

[[nodiscard]] constexpr Direction opposite(Direction d) noexcept {
  switch (d) {
    case Direction::kEast: return Direction::kWest;
    case Direction::kWest: return Direction::kEast;
    case Direction::kNorth: return Direction::kSouth;
    case Direction::kSouth: return Direction::kNorth;
  }
  return Direction::kEast;
}

[[nodiscard]] const char* to_cstring(Direction d) noexcept;

/// The four lattice neighbors of `id` in ascending CellId order —
/// ⟨i−1,j⟩, ⟨i,j−1⟩, ⟨i,j+1⟩, ⟨i+1,j⟩ — on the grid or not. Position k
/// is bit k of a NeighborMask (core/cell_state.hpp).
[[nodiscard]] constexpr std::array<CellId, 4> ascending_neighbors(
    CellId id) noexcept {
  return {{{id.i - 1, id.j}, {id.i, id.j - 1}, {id.i, id.j + 1},
           {id.i + 1, id.j}}};
}

/// The square grid. Stateless beyond its side length; provides id/index
/// mapping, adjacency, and geometry of cells.
class Grid {
 public:
  /// Precondition: side >= 1 (paper uses N ≥ 2; a 1×1 grid is legal but
  /// degenerate — the target is the whole world).
  explicit Grid(int side) : side_(side) {
    CF_EXPECTS_MSG(side >= 1, "grid side must be positive");
  }

  [[nodiscard]] int side() const noexcept { return side_; }
  [[nodiscard]] std::size_t cell_count() const noexcept {
    return static_cast<std::size_t>(side_) * static_cast<std::size_t>(side_);
  }

  [[nodiscard]] bool contains(CellId id) const noexcept {
    return id.i >= 0 && id.i < side_ && id.j >= 0 && id.j < side_;
  }

  /// Row-major dense index of a cell. Precondition: contains(id).
  [[nodiscard]] std::size_t index_of(CellId id) const {
    CF_EXPECTS(contains(id));
    return static_cast<std::size_t>(id.j) * static_cast<std::size_t>(side_) +
           static_cast<std::size_t>(id.i);
  }

  /// Inverse of index_of. Precondition: index < cell_count().
  [[nodiscard]] CellId id_of(std::size_t index) const {
    CF_EXPECTS(index < cell_count());
    return CellId{static_cast<std::int32_t>(index % static_cast<std::size_t>(side_)),
                  static_cast<std::int32_t>(index / static_cast<std::size_t>(side_))};
  }

  /// The neighbor of `id` in direction `d`, or nullopt at the boundary.
  [[nodiscard]] OptCellId neighbor(CellId id, Direction d) const {
    CF_EXPECTS(contains(id));
    const auto [di, dj] = step_of(d);
    const CellId n{id.i + di, id.j + dj};
    if (!contains(n)) return std::nullopt;
    return n;
  }

  /// Nbrs_{i,j}: all in-grid neighbors, in kAllDirections order.
  [[nodiscard]] std::vector<CellId> neighbors(CellId id) const;

  /// |Nbrs_{i,j}|: 4 minus one per grid boundary the cell touches (the
  /// only cell of a 1×1 grid has degree 0).
  [[nodiscard]] int degree(CellId id) const noexcept {
    int d = 4;
    if (id.i == 0) --d;
    if (id.i == side_ - 1) --d;
    if (id.j == 0) --d;
    if (id.j == side_ - 1) --d;
    return d;
  }

  /// True iff |i−m| + |j−n| = 1.
  [[nodiscard]] static bool are_neighbors(CellId a, CellId b) noexcept {
    const int di = a.i - b.i;
    const int dj = a.j - b.j;
    return (di == 0 || dj == 0) && (di * di + dj * dj == 1);
  }

  /// Direction from `from` to adjacent cell `to`.
  /// Precondition: are_neighbors(from, to).
  [[nodiscard]] Direction direction_between(CellId from, CellId to) const;

  /// Manhattan distance between two cell ids (lattice metric, ignores
  /// failures — see mask.hpp for failure-aware path distance ρ).
  [[nodiscard]] int manhattan(CellId a, CellId b) const noexcept {
    const int di = a.i > b.i ? a.i - b.i : b.i - a.i;
    const int dj = a.j > b.j ? a.j - b.j : b.j - a.j;
    return di + dj;
  }

  /// The unit square occupied by a cell.
  [[nodiscard]] Rect cell_rect(CellId id) const {
    CF_EXPECTS(contains(id));
    return Rect::unit_cell(id.i, id.j);
  }

  /// All ids in row-major order (j outer, i inner).
  [[nodiscard]] std::vector<CellId> all_cells() const;

 private:
  int side_;
};

}  // namespace cellflow
