#include "core/predicates.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <utility>

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

// The oracle bodies. Safe, Invariant 1, Invariant 2 and footprint
// separation each look at one cell's members; the sweep below runs all
// four in one for_each_cell pass and keeps each one's first violation in
// visiting order.
using Found = std::optional<Violation>;
using Members = std::vector<Entity>;

/// Safe_{i,j}: the first pair of members closer than d on both axes.
std::optional<std::pair<std::size_t, std::size_t>> unsafe_pair(
    const Members& members, double d, double eps) {
  for (std::size_t a = 0; a < members.size(); ++a) {
    for (std::size_t b = a + 1; b < members.size(); ++b) {
      const Vec2 pa = members[a].center;
      const Vec2 pb = members[b].center;
      if (std::abs(pa.x - pb.x) < d - eps && std::abs(pa.y - pb.y) < d - eps)
        return std::pair{a, b};
    }
  }
  return std::nullopt;
}

/// Invariant 1 on one cell.
Found in_bounds_violation(CellId id, const Members& members, double half,
                          double eps) {
  const auto i = static_cast<double>(id.i);
  const auto j = static_cast<double>(id.j);
  for (const Entity& p : members) {
    const bool ok = p.center.x - half >= i - eps &&
                    p.center.x + half <= i + 1.0 + eps &&
                    p.center.y - half >= j - eps &&
                    p.center.y + half <= j + 1.0 + eps;
    if (!ok)
      return Violation{"Invariant1", id,
                       to_string(p.id) + " at " + to_string(p.center)};
  }
  return std::nullopt;
}

/// Invariant 2's seen set, reused by every sweep on its thread: a flat
/// open-addressing table of entity ids, linear probing. Each slot holds
/// the epoch of the sweep that wrote it, so starting a sweep clears the
/// table in one increment. The capacity is a power of two at least twice
/// the most members one sweep has recorded — proportional to the live
/// entities whatever their ids, so an id far above next_entity_id (a
/// patched snapshot can hold any) is compared exactly like any other.
class SeenIds {
 public:
  void begin() noexcept {
    ++epoch_;
    count_ = 0;
  }

  /// Records `id`; false when this sweep has already recorded it.
  bool insert(std::uint64_t id) {
    if (2 * (count_ + 1) > slots_.size()) grow();
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t k = home(id);; k = (k + 1) & mask) {
      Slot& s = slots_[k];
      if (s.epoch != epoch_) {
        s = Slot{id, epoch_};
        ++count_;
        return true;
      }
      if (s.id == id) return false;
    }
  }

 private:
  struct Slot {
    std::uint64_t id = 0;
    std::uint64_t epoch = 0;  // 0 = never written; epochs start at 1
  };

  /// Fibonacci hashing: the top bits of id·2⁶⁴/φ.
  [[nodiscard]] std::size_t home(std::uint64_t id) const noexcept {
    return static_cast<std::size_t>((id * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  void grow() {
    const std::size_t n = slots_.empty() ? 64 : 2 * slots_.size();
    const std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(n));
    shift_ = 64 - std::countr_zero(n);
    count_ = 0;
    for (const Slot& s : old)
      if (s.epoch == epoch_) (void)insert(s.id);
  }

  std::vector<Slot> slots_;
  int shift_ = 0;  // set by grow(), which runs before the first probe
  std::uint64_t epoch_ = 0;
  std::size_t count_ = 0;
};

/// One seen set per thread, shared by every engine type.
SeenIds& seen_ids() {
  thread_local SeenIds seen;
  return seen;
}

/// Footprint separation on one cell: no two l×l footprints overlap, and
/// each pair is rs-separated along some axis.
Found footprint_violation(CellId id, const Members& members, double l,
                          double rs, double eps) {
  for (std::size_t a = 0; a < members.size(); ++a) {
    for (std::size_t b = a + 1; b < members.size(); ++b) {
      const Rect ra = members[a].footprint(l);
      const Rect rb = members[b].footprint(l);
      if (ra.overlaps(rb))
        return Violation{"FootprintOverlap", id,
                         describe_pair(members[a], members[b])};
      if (ra.linf_gap(rb) < rs - eps)
        return Violation{"FootprintGap", id,
                         describe_pair(members[a], members[b])};
    }
  }
  return std::nullopt;
}

/// The first violation of each round-end predicate, in visiting order.
struct Sweep {
  Found safe;
  Found in_bounds;
  Found disjoint;
  Found footprint;
};

/// One for_each_cell pass for the four round-end predicates. They
/// involve only Members_{i,j} (Theorem 5's proof is per cell), so an
/// empty cell cannot violate them and is skipped.
template <class Engine>
Sweep sweep(const Engine& sys, double eps) {
  const Params& prm = sys.params();
  const double d = prm.center_spacing();
  const double l = prm.entity_length();
  const double half = l / 2.0;
  const double rs = prm.safety_gap();
  SeenIds& seen = seen_ids();
  seen.begin();
  Sweep out;
  sys.for_each_cell([&](CellId id, const CellState& c) {
    const Members& members = c.members;
    if (members.empty()) return;
    if (!out.safe) {
      if (const auto ab = unsafe_pair(members, d, eps))
        out.safe = Violation{"Safe", id,
                             describe_pair(members[ab->first],
                                           members[ab->second])};
    }
    if (!out.in_bounds)
      out.in_bounds = in_bounds_violation(id, members, half, eps);
    if (!out.disjoint) {
      for (const Entity& p : members) {
        if (!seen.insert(p.id.value)) {
          out.disjoint = Violation{"Invariant2", id,
                                   to_string(p.id) + " appears in two cells"};
          break;
        }
      }
    }
    if (!out.footprint)
      out.footprint = footprint_violation(id, members, l, rs, eps);
  });
  return out;
}

template <class Engine>
std::vector<Violation> sweep_all(const Engine& sys, double eps) {
  Sweep s = sweep(sys, eps);
  std::vector<Violation> out;
  for (Found* v : {&s.safe, &s.in_bounds, &s.disjoint, &s.footprint})
    if (*v) out.push_back(*std::move(*v));
  return out;
}

template <class Engine>
std::optional<Violation> h_pass(const Engine& sys, double eps) {
  // H uses the strip conditions verbatim; evaluate with a tolerance by
  // shrinking d by eps — entry_strip_clear itself is exact, so re-derive.
  const Params& prm = sys.params();
  const double half = prm.entity_length() / 2.0;
  const double d = prm.center_spacing() - eps;
  Found found;
  sys.for_each_cell([&](CellId id, const CellState& c) {
    if (found || !c.signal.has_value()) return;
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
  return found;
}

}  // namespace

bool safe_cell(const System& sys, CellId id, double eps) {
  return !unsafe_pair(sys.cell(id).members, sys.params().center_spacing(),
                      eps);
}

std::optional<Violation> check_safe(const System& sys, double eps) {
  return sweep(sys, eps).safe;
}

std::optional<Violation> check_members_in_bounds(const System& sys,
                                                 double eps) {
  return sweep(sys, eps).in_bounds;
}

std::optional<Violation> check_members_disjoint(const System& sys) {
  return sweep(sys, kPredicateEps).disjoint;
}

std::optional<Violation> check_h_predicate(const System& sys, double eps) {
  return h_pass(sys, eps);
}

std::optional<Violation> check_footprints_separated(const System& sys,
                                                    double eps) {
  return sweep(sys, eps).footprint;
}

std::vector<Violation> check_all(const System& sys, double eps) {
  return sweep_all(sys, eps);
}

std::vector<Violation> check_all(const chunk::ChunkedSystem& sys,
                                 double eps) {
  return sweep_all(sys, eps);
}

std::vector<Violation> check_all(const MessageSystem& msg, double eps) {
  return sweep_all(msg, eps);
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
