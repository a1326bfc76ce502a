// Cell masks and failure-aware connectivity.
//
// This module is the *reference oracle* side of the analysis: it computes
// the paper's path distance ρ(x, ⟨i,j⟩) — the hop distance to the target
// through non-faulty cells — and the target-connected set TC(x) (§III-B),
// by plain BFS over a snapshot of which cells are alive. The distributed
// Route function must converge to exactly these values once failures cease
// (Lemma 6); tests compare the two. The BFS is written once over the grid
// type, so the hex and 3-D engines' reference ρ is this one too.
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

#include "grid/grid.hpp"
#include "util/dist_value.hpp"
#include "util/ids.hpp"

namespace cellflow {

/// A boolean per cell of a grid (e.g. "alive", "on path").
class CellMask {
 public:
  /// All-false mask over `grid`.
  explicit CellMask(const Grid& grid)
      : side_(grid.side()), bits_(grid.cell_count(), false) {}

  /// Mask with every cell set.
  static CellMask all(const Grid& grid);
  /// Mask with exactly the given cells set.
  static CellMask of(const Grid& grid, const std::vector<CellId>& cells);

  [[nodiscard]] int side() const noexcept { return side_; }
  [[nodiscard]] std::size_t size() const noexcept { return bits_.size(); }

  [[nodiscard]] bool test(CellId id) const { return bits_[index(id)]; }
  void set(CellId id, bool value = true) { bits_[index(id)] = value; }

  /// Number of set cells.
  [[nodiscard]] std::size_t count() const noexcept;

  /// Complement, intersection.
  [[nodiscard]] CellMask operator~() const;
  [[nodiscard]] CellMask operator&(const CellMask& other) const;

  /// Ids of all set cells in row-major order.
  [[nodiscard]] std::vector<CellId> set_cells() const;

  friend bool operator==(const CellMask&, const CellMask&) = default;

 private:
  [[nodiscard]] std::size_t index(CellId id) const {
    CF_EXPECTS(id.i >= 0 && id.i < side_ && id.j >= 0 && id.j < side_);
    return static_cast<std::size_t>(id.j) * static_cast<std::size_t>(side_) +
           static_cast<std::size_t>(id.i);
  }

  int side_;
  std::vector<bool> bits_;
};

/// ρ(x, ·) on any lattice: BFS hop distance from every cell to `target`
/// through cells where `alive(id)` holds, indexed like `grid.index_of`.
/// Cells that are not alive get ∞ (the paper defines ρ = ∞ for failed
/// cells); unreachable alive cells also get ∞. The target itself gets 0
/// if alive, else ∞. `GridT` provides cell_count, index_of and neighbors.
template <typename GridT, typename Id, typename Alive>
[[nodiscard]] std::vector<Dist> path_distances(const GridT& grid, Id target,
                                               Alive&& alive) {
  std::vector<Dist> dist(grid.cell_count(), Dist::infinity());
  if (!alive(target)) return dist;
  std::deque<Id> frontier;
  dist[grid.index_of(target)] = Dist::zero();
  frontier.push_back(target);
  while (!frontier.empty()) {
    const Id cur = frontier.front();
    frontier.pop_front();
    const Dist next_d = dist[grid.index_of(cur)].plus_one();
    for (const Id nb : grid.neighbors(cur)) {
      if (!alive(nb)) continue;
      if (dist[grid.index_of(nb)].is_infinite()) {
        dist[grid.index_of(nb)] = next_d;
        frontier.push_back(nb);
      }
    }
  }
  return dist;
}

/// ρ(x, ·) on the square grid, with `alive` as a mask.
[[nodiscard]] std::vector<Dist> path_distances(const Grid& grid,
                                               const CellMask& alive,
                                               CellId target);

/// TC(x): the set of target-connected cells (finite ρ).
[[nodiscard]] CellMask target_connected(const Grid& grid,
                                        const CellMask& alive, CellId target);

}  // namespace cellflow
