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
// Only the geometry lives here: the entry strip, movement and injection.
// The Figure-3 state, Route, Figure 5's token discipline with round-robin
// choose, the fail/recover resets, the BFS reference ρ and the round
// around them are core/lattice_system.hpp's, instantiated over CellId3.
#pragma once

#include <span>
#include <vector>

#include "core/cell_state.hpp"
#include "core/lattice_system.hpp"
#include "core/params.hpp"
#include "flow3d/grid3.hpp"
#include "util/ids.hpp"

namespace cellflow {

struct Entity3 {
  EntityId id;
  Vec3 center;

  friend bool operator==(const Entity3&, const Entity3&) noexcept = default;
};

/// Figure-3 variables, verbatim, over CellId3.
using CellState3 = BasicCellState<CellId3, Entity3>;

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

class System3 : public LatticeSystem<System3, Grid3, Entity3> {
 public:
  explicit System3(System3Config config);

  /// Validated direct placement (tests / initial conditions): the rule
  /// injection applies.
  EntityId seed_entity(CellId3 id, Vec3 center);

 private:
  friend LatticeSystem;

  [[nodiscard]] bool strip_clear(CellId3 self, CellId3 toward) const {
    return entry_strip_clear3(self, toward, cell(self).members, params());
  }
  void move_cell(CellState3& c, CellId3 self, CellId3 dest, bool permitted,
                 std::vector<Entity3>& crossed) const;
  [[nodiscard]] Vec3 entry_point(CellId3 source) const;
  /// Inside the cube, separated from every member along some axis, and
  /// not newly blocking the strip toward the token holder.
  [[nodiscard]] bool admits(CellId3 source, Vec3 center) const;
};

extern template class LatticeSystem<System3, Grid3, Entity3>;

}  // namespace cellflow
