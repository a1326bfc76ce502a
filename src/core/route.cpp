#include "core/route.hpp"

#include "obs/protocol_metrics.hpp"

namespace cellflow {

bool apply_route(CellState& c, bool is_target,
                 std::span<const NeighborDist> neighbor_dists,
                 obs::ProtocolCounts* counts) {
  RouteResult r{Dist::zero(), std::nullopt};
  if (!is_target) r = route_step(neighbor_dists);
  const bool changed = c.dist != r.dist;
  if (counts != nullptr) {
    if (!is_target) counts->route_relaxations += neighbor_dists.size();
    if (changed) ++counts->route_dist_changes;
  }
  c.dist = r.dist;
  c.next = r.next;
  return changed;
}

}  // namespace cellflow
