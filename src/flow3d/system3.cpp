#include "flow3d/system3.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace cellflow {

bool entry_strip_clear3(CellId3 self, CellId3 toward,
                        std::span<const Entity3> members,
                        const Params& params) {
  int axis = -1;
  for (int a = 0; a < 3; ++a) {
    if (toward[a] == self[a]) continue;
    CF_EXPECTS_MSG(axis == -1 && (toward[a] == self[a] + 1 ||
                                  toward[a] == self[a] - 1),
                   "entry_strip_clear3: cells do not share a face");
    axis = a;
  }
  CF_EXPECTS_MSG(axis >= 0, "entry_strip_clear3: cells are identical");
  const int sign = toward[axis] > self[axis] ? 1 : -1;
  const double half = params.entity_length() / 2.0;
  const double d = params.center_spacing();
  const auto base = static_cast<double>(self[axis]);
  return std::all_of(members.begin(), members.end(), [&](const Entity3& p) {
    return sign > 0 ? p.center[axis] + half <= base + 1.0 - d
                    : p.center[axis] - half >= base + d;
  });
}

System3::System3(System3Config config)
    : LatticeSystem(Grid3(config.nx, config.ny, config.nz), config.params,
                    config.target, std::move(config.sources)) {}

void System3::move_cell(CellState3& c, CellId3 self, CellId3 dest,
                        bool permitted, std::vector<Entity3>& crossed) const {
  // Rigid coupling: every member moves v toward `dest`, and only on its
  // grant.
  if (!permitted) return;
  const double half = params().entity_length() / 2.0;
  const Direction3 dir = grid().direction_between(self, dest);
  const auto base = static_cast<double>(self[dir.axis]);
  std::size_t kept = 0;
  for (Entity3 p : c.members) {
    p.center[dir.axis] += params().velocity() * static_cast<double>(dir.sign);
    const bool crossed_face = dir.sign > 0
                                  ? p.center[dir.axis] + half > base + 1.0
                                  : p.center[dir.axis] - half < base;
    if (crossed_face) {
      // Entry placement flush with the destination face; perpendicular
      // coordinates preserved.
      const auto dbase = static_cast<double>(dest[dir.axis]);
      p.center[dir.axis] = dir.sign > 0 ? dbase + half : dbase + 1.0 - half;
      crossed.push_back(p);
    } else {
      c.members[kept++] = p;
    }
  }
  c.members.resize(kept);
}

bool System3::admits(CellId3 source, Vec3 center) const {
  const double half = params().entity_length() / 2.0;
  const double d = params().center_spacing();
  for (int axis = 0; axis < 3; ++axis) {
    const auto base = static_cast<double>(source[axis]);
    if (center[axis] - half < base || center[axis] + half > base + 1.0)
      return false;
  }
  const CellState3& c = cell(source);
  for (const Entity3& q : c.members) {
    const auto apart = [&](int axis) {
      return std::abs(center[axis] - q.center[axis]) >= d;
    };
    if (!apart(0) && !apart(1) && !apart(2)) return false;
  }
  if (c.token.has_value() && strip_clear(source, *c.token)) {
    const Entity3 added{EntityId{~0ULL}, center};
    return entry_strip_clear3(source, *c.token, {&added, 1}, params());
  }
  return true;
}

Vec3 System3::entry_point(CellId3 source) const {
  // Entry-face placement opposite the travel direction.
  Vec3 center{static_cast<double>(source.x) + 0.5,
              static_cast<double>(source.y) + 0.5,
              static_cast<double>(source.z) + 0.5};
  if (const OptCellId3 next = cell(source).next) {
    const Direction3 toward = grid().direction_between(source, *next);
    const auto base = static_cast<double>(source[toward.axis]);
    const double half = params().entity_length() / 2.0;
    center[toward.axis] = toward.sign > 0 ? base + half : base + 1.0 - half;
  }
  return center;
}

EntityId System3::seed_entity(CellId3 id, Vec3 center) {
  CF_EXPECTS(grid().contains(id));
  CF_EXPECTS_MSG(admits(id, center),
                 "seed_entity: placement violates the gap requirement or "
                 "cell bounds");
  return place(id, center);
}

template class LatticeSystem<System3, Grid3, Entity3>;

}  // namespace cellflow
