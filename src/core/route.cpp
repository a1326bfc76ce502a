#include "core/route.hpp"

#include "obs/protocol_metrics.hpp"
#include "util/check.hpp"

namespace cellflow {

RouteResult route_step(std::span<const NeighborDist> neighbor_dists) {
  CF_EXPECTS_MSG(!neighbor_dists.empty(),
                 "a grid cell always has at least two neighbors");
  // argmin over (dist, id), lexicographic — the paper's tie-break.
  const NeighborDist* best = &neighbor_dists.front();
  for (const NeighborDist& nd : neighbor_dists.subspan(1)) {
    if (nd.dist < best->dist ||
        (nd.dist == best->dist && nd.id < best->id)) {
      best = &nd;
    }
  }
  RouteResult r;
  r.dist = best->dist.plus_one();
  if (r.dist.is_infinite()) {
    r.next = std::nullopt;
  } else {
    r.next = best->id;
  }
  return r;
}

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
