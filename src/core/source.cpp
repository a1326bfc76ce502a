#include "core/source.hpp"

#include <algorithm>
#include <cmath>

#include "core/signal.hpp"
#include "obs/protocol_metrics.hpp"
#include "util/check.hpp"

namespace cellflow {

std::optional<Vec2> EntryEdgeSource::propose(const Grid& grid,
                                             const Params& params, CellId self,
                                             const CellState& state) {
  const double half = params.entity_length() / 2.0;
  const auto i = static_cast<double>(self.i);
  const auto j = static_cast<double>(self.j);
  if (!state.next.has_value()) {
    return Vec2{i + 0.5, j + 0.5};
  }
  // Flush against the edge opposite the travel direction, centered on the
  // perpendicular axis.
  const Direction toward = grid.direction_between(self, *state.next);
  switch (opposite(toward)) {
    case Direction::kEast: return Vec2{i + 1.0 - half, j + 0.5};
    case Direction::kWest: return Vec2{i + half, j + 0.5};
    case Direction::kNorth: return Vec2{i + 0.5, j + 1.0 - half};
    case Direction::kSouth: return Vec2{i + 0.5, j + half};
  }
  return std::nullopt;
}

RateLimitedSource::RateLimitedSource(double rate, std::uint64_t seed)
    : rate_(rate), rng_(seed) {
  CF_EXPECTS(rate >= 0.0 && rate <= 1.0);
}

std::optional<Vec2> RateLimitedSource::propose(const Grid& grid,
                                               const Params& params,
                                               CellId self,
                                               const CellState& state) {
  if (!rng_.bernoulli(rate_)) return std::nullopt;
  return inner_.propose(grid, params, self, state);
}

void RateLimitedSource::encode_state(std::vector<std::uint64_t>& out) const {
  const auto words = rng_.state();
  out.insert(out.end(), words.begin(), words.end());
}

bool RateLimitedSource::decode_state(std::span<const std::uint64_t> words) {
  if (words.size() != 4) return false;
  rng_.set_state({words[0], words[1], words[2], words[3]});
  return true;
}

std::optional<Vec2> BoundedSource::propose(const Grid& grid,
                                           const Params& params, CellId self,
                                           const CellState& state) {
  if (remaining_ == 0) return std::nullopt;
  return inner_.propose(grid, params, self, state);
}

void BoundedSource::note_accepted() noexcept {
  if (remaining_ > 0) --remaining_;
}

void BoundedSource::encode_state(std::vector<std::uint64_t>& out) const {
  out.push_back(remaining_);
}

bool BoundedSource::decode_state(std::span<const std::uint64_t> words) {
  if (words.size() != 1) return false;
  remaining_ = words[0];
  return true;
}

void canonicalize_sources(const Grid& grid, CellId target,
                          std::vector<CellId>& sources) {
  CF_EXPECTS_MSG(grid.contains(target), "target outside grid");
  for (const CellId s : sources) {
    CF_EXPECTS_MSG(grid.contains(s), "source outside grid");
    CF_EXPECTS_MSG(s != target, "a cell cannot be source and target");
  }
  std::sort(sources.begin(), sources.end());
  sources.erase(std::unique(sources.begin(), sources.end()), sources.end());
}

bool injection_is_safe(CellId self, Vec2 center,
                       std::span<const Entity> members, OptCellId token,
                       const Params& params) {
  const double half = params.entity_length() / 2.0;
  const double d = params.center_spacing();
  const auto i = static_cast<double>(self.i);
  const auto j = static_cast<double>(self.j);

  // Invariant 1 bounds: the entity must lie wholly inside the cell.
  if (center.x - half < i || center.x + half > i + 1.0 ||
      center.y - half < j || center.y + half > j + 1.0)
    return false;

  // Gap requirement vs. every existing member.
  for (const Entity& q : members) {
    if (std::abs(center.x - q.center.x) < d &&
        std::abs(center.y - q.center.y) < d)
      return false;
  }

  // Fairness guard: never fill the entry strip toward the neighbor being
  // served, so injection cannot perpetually re-block it. The strip
  // predicate is a conjunction over entities, so clear(members ∪ {new})
  // ≡ clear(members) ∧ clear({new}) — probing the new entity alone avoids
  // materializing the union.
  if (token.has_value() &&
      entry_strip_clear(self, *token, members, params)) {
    const Entity probe{EntityId{~0ULL}, center};
    if (!entry_strip_clear(self, *token, std::span<const Entity>(&probe, 1),
                           params))
      return false;
  }
  return true;
}

std::optional<EntityId> apply_injection(CellState& c, CellId self,
                                        SourcePolicy& policy,
                                        const Grid& grid,
                                        const Params& params,
                                        std::uint64_t& next_id,
                                        obs::ProtocolCounts* counts) {
  if (c.failed) return std::nullopt;
  const auto center = policy.propose(grid, params, self, c);
  if (!center.has_value()) return std::nullopt;
  if (!injection_is_safe(self, *center, c.members, c.token, params)) {
    if (counts != nullptr) ++counts->blocked_injections;
    return std::nullopt;
  }
  const EntityId id{next_id++};
  c.members.push_back(Entity{id, *center});
  policy.note_accepted();
  if (counts != nullptr) ++counts->injections;
  return id;
}

}  // namespace cellflow
