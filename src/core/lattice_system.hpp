// The serial round of the lattice extensions (paper §V). HexSystem and
// System3 run the square grid's automaton one cell at a time, so their
// round is written once, here, as a CRTP base over the engine with
// nothing virtual: the Figure-3 cells, the counters and endpoint checks,
// the four phases and their hooks, fail/recover and the BFS reference ρ.
// An engine keeps only its geometry, through four points:
//
//   strip_clear(self, toward)  Figure 5's strip test over self's members
//   move_cell(c, self, dest, permitted, crossed)
//                              Figure 6 for a live cell with members and
//                              a next: moves them and appends to
//                              `crossed` those that left (only a
//                              permitted cell loses any)
//   entry_point(source)        where a source places a new entity
//   admits(source, center)     whether it may place one there
//
// Route and Signal read only the neighbors' previous values, and Move
// delivers after every cell has moved, so the serial loops realize the
// synchronous round exactly.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/cell_state.hpp"
#include "core/choose.hpp"
#include "core/params.hpp"
#include "core/route.hpp"
#include "core/sharded_engine.hpp"  // UpdatePhase
#include "core/signal.hpp"
#include "grid/mask.hpp"
#include "util/check.hpp"
#include "util/dist_value.hpp"
#include "util/ids.hpp"

namespace cellflow {

template <class Engine, class GridT, class EntityT>
class LatticeSystem {
 public:
  using Id = std::remove_cvref_t<
      decltype(std::declval<const GridT&>().id_of(std::size_t{0}))>;
  using Cell = BasicCellState<Id, EntityT>;
  using Point = decltype(EntityT::center);
  /// Observes the engine frozen between phases; must not mutate it.
  using PhaseHook = std::function<void(const Engine&, UpdatePhase)>;

  [[nodiscard]] const GridT& grid() const noexcept { return grid_; }
  [[nodiscard]] const Params& params() const noexcept { return params_; }
  [[nodiscard]] Id target() const noexcept { return target_; }
  [[nodiscard]] const Cell& cell(Id id) const {
    return cells_[grid_.index_of(id)];
  }
  [[nodiscard]] std::span<const Cell> cells() const noexcept {
    return cells_;
  }
  [[nodiscard]] std::uint64_t round() const noexcept { return round_; }
  [[nodiscard]] std::uint64_t total_arrivals() const noexcept {
    return total_arrivals_;
  }
  [[nodiscard]] std::uint64_t total_injected() const noexcept {
    return next_entity_id_;
  }
  [[nodiscard]] std::size_t entity_count() const noexcept {
    std::size_t n = 0;
    for (const Cell& c : cells_) n += c.members.size();
    return n;
  }

  /// BFS reference ρ over the current failure pattern.
  [[nodiscard]] std::vector<Dist> reference_distances() const {
    return path_distances(grid_, target_,
                          [&](Id id) { return !cell(id).failed; });
  }

  void fail(Id id) { apply_fail(cells_[grid_.index_of(id)]); }
  void recover(Id id) {
    apply_recover(cells_[grid_.index_of(id)], id == target_);
  }

  /// Registers an intermediate-state observer (replaces any previous),
  /// called after each phase of update().
  void set_phase_hook(PhaseHook hook) { phase_hook_ = std::move(hook); }

  /// One synchronous round: Route, Signal, Move, inject.
  void update() {
    route_phase();
    hook(UpdatePhase::kAfterRoute);
    signal_phase();
    hook(UpdatePhase::kAfterSignal);
    move_phase();
    hook(UpdatePhase::kAfterMove);
    inject_phase();
    hook(UpdatePhase::kAfterInject);
    ++round_;
  }

 protected:
  /// Preconditions: the target is on the grid; every source is on the
  /// grid and is not the target. Sources inject in the order given.
  LatticeSystem(GridT grid, Params params, Id target, std::vector<Id> sources)
      : grid_(std::move(grid)),
        params_(params),
        target_(target),
        sources_(std::move(sources)),
        cells_(grid_.cell_count()),
        dist_snapshot_(cells_.size()) {
    CF_EXPECTS_MSG(grid_.contains(target_), "target outside grid");
    for (const Id s : sources_) {
      CF_EXPECTS_MSG(grid_.contains(s), "source outside grid");
      CF_EXPECTS_MSG(s != target_, "a cell cannot be source and target");
    }
    cells_[grid_.index_of(target_)].dist = Dist::zero();
  }

  /// Appends a new entity at `center` to cell `id`'s members, with the
  /// next entity id; the caller has validated the placement.
  EntityId place(Id id, Point center) {
    const EntityId eid{next_entity_id_++};
    cells_[grid_.index_of(id)].members.push_back(EntityT{eid, center});
    return eid;
  }

 private:
  Engine& derived() { return static_cast<Engine&>(*this); }

  void hook(UpdatePhase phase) {
    if (phase_hook_) phase_hook_(static_cast<const Engine&>(*this), phase);
  }

  void route_phase() {
    for (std::size_t k = 0; k < cells_.size(); ++k)
      dist_snapshot_[k] = cells_[k].dist;
    for (std::size_t k = 0; k < cells_.size(); ++k) {
      Cell& c = cells_[k];
      if (c.failed) continue;
      const Id id = grid_.id_of(k);
      if (id == target_) {
        c.dist = Dist::zero();
        c.next = std::nullopt;
        continue;
      }
      // route_step is an argmin over (dist, id): the gather order is
      // irrelevant.
      SmallVec<BasicNeighborDist<Id>, 6> nds;
      for (const Id nb : ascending_neighbors(id))
        if (grid_.contains(nb))
          nds.push_back({nb, dist_snapshot_[grid_.index_of(nb)]});
      const auto r = route_step<Id>(nds);
      c.dist = r.dist;
      c.next = r.next;
    }
  }

  void signal_phase() {
    for (std::size_t k = 0; k < cells_.size(); ++k) {
      Cell& c = cells_[k];
      if (c.failed) continue;
      const Id id = grid_.id_of(k);
      const NeighborMask ne_prev = neighbor_mask(id, [&](Id nb) {
        if (!grid_.contains(nb)) return false;
        const Cell& nc = cells_[grid_.index_of(nb)];
        return !nc.failed && nc.next == std::optional<Id>{id} &&
               nc.has_entities();
      });
      const BasicNeighborSet<Id> candidates = neighbors_in(id, ne_prev);
      const auto r = token_discipline<Id>(
          candidates, c.token,
          [&](Id t) { return grid_.are_neighbors(id, t); },
          [&](Id t) { return derived().strip_clear(id, t); },
          round_robin_choice<Id>);
      c.signal = r.signal;
      c.token = r.token;
      c.ne_prev = ne_prev;
    }
  }

  void move_phase() {
    crossed_.clear();
    crossed_to_.clear();
    for (std::size_t k = 0; k < cells_.size(); ++k) {
      Cell& c = cells_[k];
      if (c.failed || !c.next.has_value() || c.members.empty()) continue;
      const Id id = grid_.id_of(k);
      const Id dest = *c.next;
      const bool permitted =
          cells_[grid_.index_of(dest)].signal == std::optional<Id>{id};
      derived().move_cell(c, id, dest, permitted, crossed_);
      crossed_to_.resize(crossed_.size(), dest);
    }
    // A cell grants one neighbor a round, so no two cells deliver into
    // one destination and the delivery order is unobservable.
    for (std::size_t k = 0; k < crossed_.size(); ++k) {
      if (crossed_to_[k] == target_)
        ++total_arrivals_;
      else
        cells_[grid_.index_of(crossed_to_[k])].members.push_back(crossed_[k]);
    }
  }

  void inject_phase() {
    for (const Id s : sources_) {
      if (cells_[grid_.index_of(s)].failed) continue;
      const Point center = derived().entry_point(s);
      if (derived().admits(s, center)) place(s, center);
    }
  }

  GridT grid_;
  Params params_;
  Id target_;
  std::vector<Id> sources_;
  std::vector<Cell> cells_;
  std::uint64_t round_ = 0;
  std::uint64_t total_arrivals_ = 0;
  std::uint64_t next_entity_id_ = 0;
  std::vector<Dist> dist_snapshot_;  ///< Route reads previous-round dists
  std::vector<EntityT> crossed_;     ///< Move's crossers, in move order,
  std::vector<Id> crossed_to_;       ///< and their destinations
  PhaseHook phase_hook_;
};

}  // namespace cellflow
