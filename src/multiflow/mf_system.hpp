// Multi-flow extension (paper §V, future work): "to develop algorithms
// for flow control of multiple types of entities with arbitrary flow
// patterns (not necessarily source-destination flows) specified for each
// type."
//
// We implement the natural multi-commodity generalization of the ICDCS'10
// protocol for source-destination flows per type:
//
//   * Every entity carries a FlowId; every flow has its own target and
//     sources. Targets consume only their own flow and act as ordinary
//     cells for other flows (traffic of flow g routes *through* tid_f).
//   * Route runs once per flow: dist_f / next_f are per-flow variables,
//     each anchored at that flow's target — the same synchronous
//     Bellman–Ford, so Lemma 6 / Corollary 7 apply per flow verbatim.
//   * The coupling constraint ("all entities on a cell move identically")
//     forces a choice for cells holding mixed flows, which would have to
//     move two directions at once. We keep cells FLOW-PURE: a cell admits
//     a transfer only when it is empty or its members already belong to
//     the incoming flow. Purity is an invariant (checked by the oracles
//     in mf_predicates.hpp): it holds at Signal time and is preserved by
//     Move because grants precede movement within the round.
//   * Signal is unchanged (the entry-strip geometry is flow-agnostic);
//     NEPrev additionally filters out flow-mismatched predecessors, and
//     the token rotates over them exactly as in Figure 5 — so competing
//     flows time-share a cell fairly, the multi-flow analogue of
//     Lemma 9's fairness.
//   * Move is unchanged: a cell moves its members toward
//     next_{flow(members)} iff that neighbor's signal names it.
//
// Safety (Theorem 5) carries over wholesale — the proof never looks at
// entity identity, only geometry. Progress holds for flow patterns whose
// carved/failed topology leaves each flow a non-blocking path (two flows
// facing head-on in a one-lane corridor can deadlock — that is precisely
// why the paper left the generalization open; tests cover both the
// working and the documented-deadlock regimes).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/cell_state.hpp"
#include "core/choose.hpp"
#include "core/entity.hpp"
#include "core/params.hpp"
#include "grid/grid.hpp"
#include "grid/mask.hpp"
#include "util/dist_value.hpp"
#include "util/ids.hpp"

namespace cellflow {

/// Index of a flow (entity type). Dense, starting at 0.
using FlowId = std::uint32_t;

/// One commodity: its consuming target and producing sources.
struct FlowSpec {
  CellId target;
  std::vector<CellId> sources;
};

/// An entity tagged with its flow.
struct MfEntity {
  Entity entity;
  FlowId flow = 0;

  friend bool operator==(const MfEntity&, const MfEntity&) noexcept = default;
};

/// Per-cell state: the Figure-3 variables with dist/next vectorized over
/// flows. Members are flow-pure (all the same flow) in every reachable
/// state.
struct MfCellState {
  std::vector<MfEntity> members;
  std::vector<Dist> dist;    ///< dist[f], anchored at flow f's target
  std::vector<OptCellId> next;  ///< next[f]
  OptCellId token;
  OptCellId signal;
  NeighborMask ne_prev = 0;  ///< as BasicCellState::ne_prev
  bool failed = false;

  [[nodiscard]] bool has_entities() const noexcept { return !members.empty(); }
  /// Flow of the members. Precondition: nonempty.
  [[nodiscard]] FlowId members_flow() const { return members.front().flow; }
};

struct MfTransferEvent {
  EntityId entity;
  FlowId flow;
  CellId from;
  CellId to;
  bool consumed = false;
};

struct MfRoundEvents {
  std::uint64_t round = 0;
  std::vector<MfTransferEvent> transfers;
  std::vector<std::uint64_t> arrivals_per_flow;
  std::vector<std::pair<CellId, EntityId>> injected;
};

struct MfSystemConfig {
  int side = 8;
  Params params{0.25, 0.05, 0.1};
  std::vector<FlowSpec> flows;
  /// Per-round injection probability at each source (1 = every round).
  double source_rate = 1.0;
};

/// The multi-flow System automaton. Mirrors core/system.hpp's System with
/// per-flow routing and flow-pure admission; see the file comment for the
/// design rationale.
class MfSystem {
 public:
  /// Builds the initial state. Every flow's target anchors its own dist
  /// at 0. Throws when flows are empty, overlap targets, or a source
  /// coincides with its own flow's target.
  MfSystem(MfSystemConfig config, std::unique_ptr<ChoosePolicy> choose,
           std::uint64_t source_seed);

  [[nodiscard]] const Grid& grid() const noexcept { return grid_; }
  [[nodiscard]] const Params& params() const noexcept {
    return config_.params;
  }
  [[nodiscard]] std::size_t flow_count() const noexcept {
    return config_.flows.size();
  }
  [[nodiscard]] const FlowSpec& flow(FlowId f) const {
    return config_.flows.at(f);
  }

  [[nodiscard]] const MfCellState& cell(CellId id) const {
    return cells_[grid_.index_of(id)];
  }
  [[nodiscard]] std::span<const MfCellState> cells() const noexcept {
    return cells_;
  }
  [[nodiscard]] std::uint64_t round() const noexcept { return round_; }
  [[nodiscard]] std::uint64_t arrivals(FlowId f) const {
    return total_arrivals_.at(f);
  }
  [[nodiscard]] std::uint64_t total_arrivals() const noexcept;
  [[nodiscard]] std::size_t entity_count() const noexcept;
  [[nodiscard]] std::uint64_t total_injected() const noexcept {
    return next_entity_id_;
  }

  /// ρ for flow f under the current failure pattern (BFS oracle).
  [[nodiscard]] std::vector<Dist> reference_distances(FlowId f) const;

  void fail(CellId id);
  void recover(CellId id);

  /// One synchronous round: per-flow Route, Signal, Move, injection.
  const MfRoundEvents& update();
  [[nodiscard]] const MfRoundEvents& last_events() const noexcept {
    return events_;
  }

  /// Direct placement for tests. Validates bounds, the gap requirement,
  /// and flow purity.
  EntityId seed_entity(CellId id, FlowId flow, Vec2 center);

 private:
  void route_phase();
  void signal_phase();
  void move_phase();
  void inject_phase();
  [[nodiscard]] bool is_target_of(CellId id, FlowId f) const {
    return config_.flows[f].target == id;
  }
  [[nodiscard]] bool admission_ok(const MfCellState& c, FlowId f) const {
    return c.members.empty() || c.members_flow() == f;
  }

  MfSystemConfig config_;
  Grid grid_;
  std::vector<MfCellState> cells_;
  std::unique_ptr<ChoosePolicy> choose_;
  Xoshiro256 source_rng_;

  std::uint64_t round_ = 0;
  std::vector<std::uint64_t> total_arrivals_;
  std::uint64_t next_entity_id_ = 0;
  MfRoundEvents events_;
  std::vector<Dist> dist_snapshot_;  // flows × cells, reused per round

  /// Source cells with the flows that inject there, in cell order; a
  /// rotating per-cell priority makes shared-source injection fair.
  std::vector<std::pair<CellId, std::vector<FlowId>>> source_cells_;
  std::vector<std::size_t> inject_priority_;  // per cell index
};

}  // namespace cellflow
