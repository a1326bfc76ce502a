// The full ICDCS'10 protocol on the 3-D box lattice (paper §V extension).
// Semantics mirror core/system.hpp phase for phase:
//
//   update = Route (phase-parallel Bellman–Ford over the 6-neighborhood)
//          ; Signal (token + axis-generic entry-strip blocking)
//          ; Move   (simultaneous displacement, face transfers, target
//                    consumption)
//          ; inject (≤1 entity per source per round, validated)
//
// Parameters and constraints are unchanged (v ≤ l < 1, rs + l < 1,
// d = rs + l); the safety predicate becomes "centers differ by ≥ d along
// some of the THREE axes", and Theorem 5's argument carries over because
// transfers still only reset the motion-axis coordinate.
//
// Only the geometry lives here: the lattice, the entry strip, movement
// and injection. The Figure-3 state, Route's argmin, Figure 5's token
// discipline with round-robin choose, the fail/recover resets and the
// BFS reference ρ are core/'s and grid/mask.hpp's, instantiated over
// CellId3.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/cell_state.hpp"
#include "core/params.hpp"
#include "flow3d/grid3.hpp"
#include "util/dist_value.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"

namespace cellflow {

struct Entity3 {
  EntityId id;
  Vec3 center;

  friend bool operator==(const Entity3&, const Entity3&) noexcept = default;
};

/// Figure-3 variables, verbatim, over CellId3.
using CellState3 = BasicCellState<CellId3, Entity3>;

struct TransferEvent3 {
  EntityId entity;
  CellId3 from;
  CellId3 to;
  bool consumed = false;
};

struct RoundEvents3 {
  std::uint64_t round = 0;
  std::vector<TransferEvent3> transfers;
  std::vector<CellId3> moved;
  std::vector<std::pair<CellId3, EntityId>> injected;
  std::uint64_t arrivals = 0;
};

struct System3Config {
  int nx = 4;
  int ny = 4;
  int nz = 8;
  Params params{0.25, 0.05, 0.1};
  CellId3 target{1, 1, 7};
  std::vector<CellId3> sources{CellId3{1, 1, 0}};
};

/// True iff the strip of depth d inward from the face of `self` shared
/// with `toward` is free of every member's safety region — the
/// axis-generic Figure 5 lines 4–7.
[[nodiscard]] bool entry_strip_clear3(CellId3 self, CellId3 toward,
                                      std::span<const Entity3> members,
                                      const Params& params);

class System3 {
 public:
  explicit System3(System3Config config);

  [[nodiscard]] const Grid3& grid() const noexcept { return grid_; }
  [[nodiscard]] const Params& params() const noexcept {
    return config_.params;
  }
  [[nodiscard]] CellId3 target() const noexcept { return config_.target; }

  [[nodiscard]] const CellState3& cell(CellId3 id) const {
    return cells_[grid_.index_of(id)];
  }
  [[nodiscard]] std::span<const CellState3> cells() const noexcept {
    return cells_;
  }
  [[nodiscard]] std::uint64_t round() const noexcept { return round_; }
  [[nodiscard]] std::uint64_t total_arrivals() const noexcept {
    return total_arrivals_;
  }
  [[nodiscard]] std::uint64_t total_injected() const noexcept {
    return next_entity_id_;
  }
  [[nodiscard]] std::size_t entity_count() const noexcept;

  /// BFS reference ρ over the current failure pattern.
  [[nodiscard]] std::vector<Dist> reference_distances() const;

  void fail(CellId3 id);
  void recover(CellId3 id);

  const RoundEvents3& update();
  [[nodiscard]] const RoundEvents3& last_events() const noexcept {
    return events_;
  }

  /// Validated direct placement (tests / initial conditions).
  EntityId seed_entity(CellId3 id, Vec3 center);

 private:
  void route_phase();
  void signal_phase();
  void move_phase();
  void inject_phase();
  [[nodiscard]] bool injection_is_safe(CellId3 id, Vec3 center) const;

  System3Config config_;
  Grid3 grid_;
  std::vector<CellState3> cells_;

  std::uint64_t round_ = 0;
  std::uint64_t total_arrivals_ = 0;
  std::uint64_t next_entity_id_ = 0;
  RoundEvents3 events_;
  std::vector<Dist> dist_snapshot_;
};

}  // namespace cellflow
