#include "msg/msg_audit.hpp"

#include <string>
#include <unordered_set>

namespace cellflow::msg_audit {

std::optional<Violation> check_in_flight_disjoint(
    const MessageSystem& msg, std::span<const Entity> in_flight) {
  if (in_flight.empty()) return std::nullopt;
  std::unordered_set<EntityId> flying;
  for (const Entity& p : in_flight) {
    if (!flying.insert(p.id).second) {
      return Violation{"Invariant2", CellId{-1, -1},
                       to_string(p.id) + " is in flight twice (duplicated)"};
    }
  }
  std::optional<Violation> found;
  msg.for_each_cell([&](CellId id, const CellState& c) {
    for (const Entity& p : c.members) {
      if (!found && flying.count(p.id) != 0) {
        found = Violation{"Invariant2", id,
                          to_string(p.id) +
                              " is both placed and in flight (duplicated)"};
      }
    }
  });
  return found;
}

std::optional<Violation> check_conservation(const MessageSystem& msg,
                                            std::uint64_t in_flight) {
  const std::uint64_t placed = msg.entity_count();
  const std::uint64_t consumed = msg.total_arrivals();
  const std::uint64_t injected = msg.total_injected();
  if (placed + in_flight + consumed != injected) {
    return Violation{
        "Conservation", CellId{-1, -1},
        "injected " + std::to_string(injected) + " != placed " +
            std::to_string(placed) + " + in-flight " +
            std::to_string(in_flight) + " + consumed " +
            std::to_string(consumed)};
  }
  return std::nullopt;
}

std::vector<Violation> check_all(const MessageSystem& msg, double eps) {
  const std::vector<Entity> in_flight = msg.in_flight_entities();
  std::vector<Violation> out = cellflow::check_all(msg, eps);
  if (auto v = check_in_flight_disjoint(msg, in_flight))
    out.push_back(*std::move(v));
  if (auto v = check_conservation(msg, in_flight.size()))
    out.push_back(*std::move(v));
  return out;
}

}  // namespace cellflow::msg_audit
