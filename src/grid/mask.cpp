#include "grid/mask.hpp"

namespace cellflow {

CellMask CellMask::all(const Grid& grid) {
  CellMask m(grid);
  m.bits_.assign(m.bits_.size(), true);
  return m;
}

CellMask CellMask::of(const Grid& grid, const std::vector<CellId>& cells) {
  CellMask m(grid);
  for (const CellId c : cells) m.set(c);
  return m;
}

std::size_t CellMask::count() const noexcept {
  std::size_t n = 0;
  for (const bool b : bits_)
    if (b) ++n;
  return n;
}

CellMask CellMask::operator~() const {
  CellMask m = *this;
  for (std::size_t k = 0; k < m.bits_.size(); ++k) m.bits_[k] = !m.bits_[k];
  return m;
}

CellMask CellMask::operator&(const CellMask& other) const {
  CF_EXPECTS(side_ == other.side_);
  CellMask m = *this;
  for (std::size_t k = 0; k < m.bits_.size(); ++k)
    m.bits_[k] = m.bits_[k] && other.bits_[k];
  return m;
}

std::vector<CellId> CellMask::set_cells() const {
  std::vector<CellId> out;
  for (std::size_t k = 0; k < bits_.size(); ++k) {
    if (bits_[k])
      out.push_back(
          CellId{static_cast<std::int32_t>(k % static_cast<std::size_t>(side_)),
                 static_cast<std::int32_t>(k / static_cast<std::size_t>(side_))});
  }
  return out;
}

std::vector<Dist> path_distances(const Grid& grid, const CellMask& alive,
                                 CellId target) {
  CF_EXPECTS(grid.contains(target));
  CF_EXPECTS(grid.side() == alive.side());
  return path_distances(grid, target,
                        [&](CellId id) { return alive.test(id); });
}

CellMask target_connected(const Grid& grid, const CellMask& alive,
                          CellId target) {
  const auto dist = path_distances(grid, alive, target);
  CellMask tc(grid);
  for (std::size_t k = 0; k < grid.cell_count(); ++k)
    if (dist[k].is_finite()) tc.set(grid.id_of(k));
  return tc;
}

}  // namespace cellflow
