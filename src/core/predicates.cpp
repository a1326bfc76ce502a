#include "core/predicates.hpp"

#include <cmath>
#include <sstream>
#include <unordered_set>

#include "chunk/chunked_system.hpp"
#include "geometry/rect.hpp"
#include "msg/msg_system.hpp"

namespace cellflow {

namespace {

std::string describe_pair(const Entity& p, const Entity& q) {
  std::ostringstream os;
  os << to_string(p.id) << " at " << to_string(p.center) << " vs "
     << to_string(q.id) << " at " << to_string(q.center);
  return os.str();
}

// The oracle bodies, one per predicate, each a template over the engine's
// for_each_cell visitor. `check(id, cell, found)` records the cell's
// violation, if any, in `found`; first_violation stops checking at the
// first, in visiting order.
using Found = std::optional<Violation>;

template <class Engine, class Check>
Found first_violation(const Engine& sys, Check check) {
  Found found;
  sys.for_each_cell([&](CellId id, const CellState& c) {
    if (!found) check(id, c, found);
  });
  return found;
}

template <class Engine>
std::optional<Violation> safe_pass(const Engine& sys, double eps) {
  const double d = sys.params().center_spacing();
  return first_violation(sys, [&](CellId id, const CellState& c, Found& found) {
    const auto& members = c.members;
    for (std::size_t a = 0; a < members.size(); ++a) {
      for (std::size_t b = a + 1; b < members.size(); ++b) {
        const Vec2 pa = members[a].center;
        const Vec2 pb = members[b].center;
        if (std::abs(pa.x - pb.x) < d - eps &&
            std::abs(pa.y - pb.y) < d - eps) {
          found = Violation{"Safe", id, describe_pair(members[a], members[b])};
          return;
        }
      }
    }
  });
}

template <class Engine>
std::optional<Violation> in_bounds_pass(const Engine& sys, double eps) {
  const double half = sys.params().entity_length() / 2.0;
  return first_violation(sys, [&](CellId id, const CellState& c, Found& found) {
    const auto i = static_cast<double>(id.i);
    const auto j = static_cast<double>(id.j);
    for (const Entity& p : c.members) {
      const bool ok = p.center.x - half >= i - eps &&
                      p.center.x + half <= i + 1.0 + eps &&
                      p.center.y - half >= j - eps &&
                      p.center.y + half <= j + 1.0 + eps;
      if (!ok) {
        found = Violation{"Invariant1", id,
                          to_string(p.id) + " at " + to_string(p.center)};
        return;
      }
    }
  });
}

template <class Engine>
std::optional<Violation> disjoint_pass(const Engine& sys) {
  std::unordered_set<EntityId> seen;
  return first_violation(sys, [&](CellId id, const CellState& c, Found& found) {
    for (const Entity& p : c.members) {
      if (!seen.insert(p.id).second) {
        found = Violation{"Invariant2", id,
                          to_string(p.id) + " appears in two cells"};
        return;
      }
    }
  });
}

template <class Engine>
std::optional<Violation> h_pass(const Engine& sys, double eps) {
  // H uses the strip conditions verbatim; evaluate with a tolerance by
  // shrinking d by eps — entry_strip_clear itself is exact, so re-derive.
  const Params& prm = sys.params();
  const double half = prm.entity_length() / 2.0;
  const double d = prm.center_spacing() - eps;
  return first_violation(sys, [&](CellId id, const CellState& c, Found& found) {
    if (!c.signal.has_value()) return;
    const CellId t = *c.signal;
    const int di = t.i - id.i;
    const int dj = t.j - id.j;
    if (!((di == 0 || dj == 0) && di * di + dj * dj == 1)) {
      found = Violation{"H", id, "signal points at a non-neighbor"};
      return;
    }
    const auto i = static_cast<double>(id.i);
    const auto j = static_cast<double>(id.j);
    for (const Entity& p : c.members) {
      bool ok = true;
      if (t.i == id.i + 1 && t.j == id.j)
        ok = p.center.x + half <= i + 1.0 - d;
      else if (t.i == id.i - 1 && t.j == id.j)
        ok = p.center.x - half >= i + d;
      else if (t.i == id.i && t.j == id.j + 1)
        ok = p.center.y + half <= j + 1.0 - d;
      else if (t.i == id.i && t.j == id.j - 1)
        ok = p.center.y - half >= j + d;
      if (!ok) {
        found = Violation{"H", id,
                          "strip toward " + to_string(t) +
                              " occupied by " + to_string(p.id)};
        return;
      }
    }
  });
}

template <class Engine>
std::optional<Violation> footprint_pass(const Engine& sys, double eps) {
  const double l = sys.params().entity_length();
  const double rs = sys.params().safety_gap();
  return first_violation(sys, [&](CellId id, const CellState& c, Found& found) {
    const auto& members = c.members;
    for (std::size_t a = 0; a < members.size(); ++a) {
      for (std::size_t b = a + 1; b < members.size(); ++b) {
        const Rect ra = members[a].footprint(l);
        const Rect rb = members[b].footprint(l);
        if (ra.overlaps(rb)) {
          found = Violation{"FootprintOverlap", id,
                            describe_pair(members[a], members[b])};
          return;
        }
        if (ra.linf_gap(rb) < rs - eps) {
          found = Violation{"FootprintGap", id,
                            describe_pair(members[a], members[b])};
          return;
        }
      }
    }
  });
}

template <class Engine>
std::vector<Violation> all_passes(const Engine& sys, double eps) {
  std::vector<Violation> out;
  if (auto v = safe_pass(sys, eps)) out.push_back(*std::move(v));
  if (auto v = in_bounds_pass(sys, eps)) out.push_back(*std::move(v));
  if (auto v = disjoint_pass(sys)) out.push_back(*std::move(v));
  if (auto v = footprint_pass(sys, eps)) out.push_back(*std::move(v));
  return out;
}

}  // namespace

bool safe_cell(const System& sys, CellId id, double eps) {
  const double d = sys.params().center_spacing();
  const auto& members = sys.cell(id).members;
  for (std::size_t a = 0; a < members.size(); ++a) {
    for (std::size_t b = a + 1; b < members.size(); ++b) {
      const Vec2 pa = members[a].center;
      const Vec2 pb = members[b].center;
      const bool ok = std::abs(pa.x - pb.x) >= d - eps ||
                      std::abs(pa.y - pb.y) >= d - eps;
      if (!ok) return false;
    }
  }
  return true;
}

std::optional<Violation> check_safe(const System& sys, double eps) {
  return safe_pass(sys, eps);
}

std::optional<Violation> check_members_in_bounds(const System& sys,
                                                 double eps) {
  return in_bounds_pass(sys, eps);
}

std::optional<Violation> check_members_disjoint(const System& sys) {
  return disjoint_pass(sys);
}

std::optional<Violation> check_h_predicate(const System& sys, double eps) {
  return h_pass(sys, eps);
}

std::optional<Violation> check_footprints_separated(const System& sys,
                                                    double eps) {
  return footprint_pass(sys, eps);
}

std::vector<Violation> check_all(const System& sys, double eps) {
  return all_passes(sys, eps);
}

std::vector<Violation> check_all(const chunk::ChunkedSystem& sys,
                                 double eps) {
  return all_passes(sys, eps);
}

std::vector<Violation> check_all(const MessageSystem& msg, double eps) {
  return all_passes(msg, eps);
}

std::optional<Violation> check_h_predicate(const chunk::ChunkedSystem& sys,
                                           double eps) {
  return h_pass(sys, eps);
}

std::optional<Violation> check_h_predicate(const MessageSystem& msg,
                                           double eps) {
  return h_pass(msg, eps);
}

std::string to_string(const Violation& v) {
  return v.predicate + " violated at " + to_string(v.cell) + ": " + v.detail;
}

}  // namespace cellflow
