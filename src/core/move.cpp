#include "core/move.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/protocol_metrics.hpp"
#include "util/check.hpp"

namespace cellflow {

bool crosses_boundary(CellId self, CellId toward, const Entity& p,
                      const Params& params) {
  const double half = params.entity_length() / 2.0;
  const auto i = static_cast<double>(self.i);
  const auto j = static_cast<double>(self.j);
  if (toward.i == self.i + 1 && toward.j == self.j)
    return p.center.x + half > i + 1.0;
  if (toward.i == self.i - 1 && toward.j == self.j)
    return p.center.x - half < i;
  if (toward.i == self.i && toward.j == self.j + 1)
    return p.center.y + half > j + 1.0;
  if (toward.i == self.i && toward.j == self.j - 1)
    return p.center.y - half < j;
  CF_CHECK_MSG(false, "crosses_boundary: cells are not lattice neighbors");
  return false;
}

Entity place_at_entry(CellId from, CellId dest, Entity p,
                      const Params& params) {
  const double half = params.entity_length() / 2.0;
  const auto m = static_cast<double>(dest.i);
  const auto n = static_cast<double>(dest.j);
  if (dest.i == from.i + 1 && dest.j == from.j) {  // entering from the west
    p.center.x = m + half;
  } else if (dest.i == from.i - 1 && dest.j == from.j) {  // from the east
    p.center.x = m + 1.0 - half;
  } else if (dest.i == from.i && dest.j == from.j + 1) {  // from the south
    p.center.y = n + half;
  } else if (dest.i == from.i && dest.j == from.j - 1) {  // from the north
    p.center.y = n + 1.0 - half;
  } else {
    CF_CHECK_MSG(false, "place_at_entry: cells are not lattice neighbors");
  }
  return p;
}

void compact_move_step_inplace(CellId self, CellId toward,
                               std::vector<Entity>& members,
                               std::vector<Entity>& crossed_out,
                               const Params& params,
                               const CompactionContext& ctx) {
  const int di = toward.i - self.i;
  const int dj = toward.j - self.j;
  CF_EXPECTS_MSG((di == 0 || dj == 0) && di * di + dj * dj == 1,
                 "compact_move_step: cells are not lattice neighbors");
  const bool horizontal = (dj == 0);
  const double sign = horizontal ? static_cast<double>(di)
                                 : static_cast<double>(dj);
  const double half = params.entity_length() / 2.0;
  const double d = params.center_spacing();
  const double v = params.velocity();

  // Work in the "u" coordinate: u = sign · (motion-axis position), so
  // moving forward always means increasing u.
  const auto u_of = [&](const Entity& p) {
    return sign * (horizontal ? p.center.x : p.center.y);
  };
  const auto perp_of = [&](const Entity& p) {
    return horizontal ? p.center.y : p.center.x;
  };
  const auto set_u = [&](Entity& p, double u) {
    if (horizontal) {
      p.center.x = sign * u;
    } else {
      p.center.y = sign * u;
    }
  };

  // The boundary toward `toward`, in u: sign>0 crosses at (base+1), sign<0
  // at base — both map to u_boundary with crossing when u + l/2 > u_b.
  const double base =
      horizontal ? static_cast<double>(self.i) : static_cast<double>(self.j);
  const double u_boundary = sign > 0 ? base + 1.0 : -base;

  // Constraint (3): the promised strip, when along the motion direction.
  // Strip toward +motion: centers must satisfy u + l/2 ≤ u_boundary − d.
  double u_strip_cap = std::numeric_limits<double>::infinity();
  if (ctx.promised_strip.has_value()) {
    const auto [si, sj] = step_of(*ctx.promised_strip);
    const bool same_direction = (si == di && sj == dj);
    if (same_direction) u_strip_cap = u_boundary - d - half;
  }

  // Front-to-back processing order.
  std::sort(members.begin(), members.end(),
            [&](const Entity& a, const Entity& b) { return u_of(a) > u_of(b); });

  // Stable two-pointer partition: members[0, w) are the already-placed
  // entities still in the cell (exactly the `placed` prefix the lane
  // constraint reads); w <= r throughout, so members[w] = p never
  // clobbers an unread element.
  std::size_t w = 0;
  for (std::size_t r = 0; r < members.size(); ++r) {
    Entity p = members[r];
    const double u = u_of(p);
    double cap = u + v;                       // at most v per round
    cap = std::min(cap, u_strip_cap);         // promised strip stays clear
    if (!ctx.may_cross) cap = std::min(cap, u_boundary - half);  // flush max
    for (std::size_t q = 0; q < w; ++q) {
      if (std::abs(perp_of(members[q]) - perp_of(p)) < d)
        cap = std::min(cap, u_of(members[q]) - d);  // hold d behind the lane
    }
    const double nu = std::max(u, cap);        // never move backward
    set_u(p, nu);
    if (ctx.may_cross && nu + half > u_boundary) {
      crossed_out.push_back(place_at_entry(self, toward, p, params));
    } else {
      members[w++] = p;
    }
  }
  members.resize(w);
}

MoveResult compact_move_step(CellId self, CellId toward,
                             std::vector<Entity> members, const Params& params,
                             const CompactionContext& ctx) {
  MoveResult out;
  compact_move_step_inplace(self, toward, members, out.crossed, params, ctx);
  out.staying = std::move(members);
  return out;
}

void move_step_inplace(CellId self, CellId toward,
                       std::vector<Entity>& members,
                       std::vector<Entity>& crossed_out,
                       const Params& params) {
  const int di = toward.i - self.i;
  const int dj = toward.j - self.j;
  CF_EXPECTS_MSG((di == 0 || dj == 0) && di * di + dj * dj == 1,
                 "move_step: cells are not lattice neighbors");
  const Vec2 delta{params.velocity() * static_cast<double>(di),
                   params.velocity() * static_cast<double>(dj)};

  // Stable two-pointer partition (w <= r throughout): stayers compact to
  // the front in their original relative order, crossers append to
  // `crossed_out` in that same order.
  std::size_t w = 0;
  for (std::size_t r = 0; r < members.size(); ++r) {
    Entity p = members[r];
    p.center += delta;  // Figure 6 lines 4–5
    if (crosses_boundary(self, toward, p, params)) {
      crossed_out.push_back(place_at_entry(self, toward, p, params));
    } else {
      members[w++] = p;
    }
  }
  members.resize(w);
}

MoveResult move_step(CellId self, CellId toward, std::vector<Entity> members,
                     const Params& params) {
  MoveResult out;
  move_step_inplace(self, toward, members, out.crossed, params);
  out.staying = std::move(members);
  return out;
}

bool apply_move(CellState& c, CellId self, bool permitted, MovementRule rule,
                const Grid& grid, const Params& params,
                std::vector<Entity>& crossed_out, obs::ProtocolCounts* counts) {
  const CellId dest = *c.next;
  crossed_out.clear();
  if (rule == MovementRule::kCoupled) {
    if (!permitted) return false;  // Figure 6: move only with permission
    move_step_inplace(self, dest, c.members, crossed_out, params);
  } else {
    // §V relaxed coupling: compact every round; cross only when
    // permitted; never compact into our own promised strip.
    if (c.members.empty()) return false;
    CompactionContext ctx;
    ctx.may_cross = permitted;
    if (c.signal.has_value())
      ctx.promised_strip = grid.direction_between(self, *c.signal);
    compact_move_step_inplace(self, dest, c.members, crossed_out, params, ctx);
  }
  if (counts != nullptr) {
    if (permitted) ++counts->moves;
    counts->transfers += crossed_out.size();
  }
  return permitted;
}

}  // namespace cellflow
