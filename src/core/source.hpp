// Source (entity-injection) policies.
//
// The paper (§II-B, end of Move) specifies only that each source cell
// "adds at most one entity in each round to Members such that the addition
// does not violate the minimum gap requirement", plus the fairness
// assumption of §III-B(b): the source must not perpetually block a
// nonempty non-faulty neighbor. A policy *proposes* a placement; the
// System accepts it only if it keeps the cell safe (gap requirement +
// Invariant 1 bounds) and does not fill the entry strip toward the
// neighbor currently being served (`token`) — that last guard is how we
// discharge assumption (b) by construction.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "core/cell_state.hpp"
#include "core/params.hpp"
#include "geometry/vec2.hpp"
#include "grid/grid.hpp"
#include "util/rng.hpp"

namespace cellflow::obs {
struct ProtocolCounts;
}  // namespace cellflow::obs

namespace cellflow {

/// Strategy deciding where (and whether) a source cell spawns an entity
/// this round. Returning nullopt skips the round.
class SourcePolicy {
 public:
  virtual ~SourcePolicy() = default;

  /// Proposes a center for a new entity on source cell `self`. The System
  /// validates safety; a proposal that would be unsafe is dropped for the
  /// round (not retried elsewhere), matching "at most one per round".
  [[nodiscard]] virtual std::optional<Vec2> propose(
      const Grid& grid, const Params& params, CellId self,
      const CellState& state) = 0;

  /// Called by the System when a proposal passed validation and the entity
  /// was actually created. Default: nothing.
  virtual void note_accepted() noexcept {}

  /// Appends the policy's mutable state as opaque u64 words (snapshot
  /// support, DESIGN.md §11). Stateless policies append nothing.
  virtual void encode_state(std::vector<std::uint64_t>&) const {}

  /// Restores state captured by encode_state(). Returns false when the
  /// word count does not match this policy.
  [[nodiscard]] virtual bool decode_state(
      std::span<const std::uint64_t> words) {
    return words.empty();
  }
};

/// Injects at the center of the edge *opposite* the cell's current `next`
/// direction (entities then traverse the whole cell, as a car entering a
/// highway segment would). Falls back to the cell center while `next` is ⊥
/// (e.g. before routing stabilizes).
class EntryEdgeSource final : public SourcePolicy {
 public:
  [[nodiscard]] std::optional<Vec2> propose(const Grid& grid,
                                            const Params& params, CellId self,
                                            const CellState& state) override;
};

/// EntryEdgeSource gated by a Bernoulli coin: injects with probability
/// `rate` per round. Models lighter offered load.
class RateLimitedSource final : public SourcePolicy {
 public:
  /// Precondition: 0 <= rate <= 1.
  RateLimitedSource(double rate, std::uint64_t seed);

  [[nodiscard]] std::optional<Vec2> propose(const Grid& grid,
                                            const Params& params, CellId self,
                                            const CellState& state) override;

  void encode_state(std::vector<std::uint64_t>& out) const override;
  [[nodiscard]] bool decode_state(
      std::span<const std::uint64_t> words) override;

 private:
  EntryEdgeSource inner_;
  double rate_;
  Xoshiro256 rng_;
};

/// EntryEdgeSource that stops after `budget` successful injections system-
/// wide; used by progress tests that track a finite population to the
/// target. The System reports acceptance via note_accepted().
class BoundedSource final : public SourcePolicy {
 public:
  explicit BoundedSource(std::uint64_t budget) : remaining_(budget) {}

  [[nodiscard]] std::optional<Vec2> propose(const Grid& grid,
                                            const Params& params, CellId self,
                                            const CellState& state) override;

  void note_accepted() noexcept override;
  [[nodiscard]] std::uint64_t remaining() const noexcept { return remaining_; }

  void encode_state(std::vector<std::uint64_t>& out) const override;
  [[nodiscard]] bool decode_state(
      std::span<const std::uint64_t> words) override;

 private:
  EntryEdgeSource inner_;
  std::uint64_t remaining_;
};

/// Never injects. Useful for closed-system experiments seeded by hand.
class NullSource final : public SourcePolicy {
 public:
  [[nodiscard]] std::optional<Vec2> propose(const Grid&, const Params&,
                                            CellId, const CellState&) override {
    return std::nullopt;
  }
};

/// The endpoint checks and canonical injection order every square-grid
/// engine's constructor applies: the target and every source must lie on
/// the grid, and no cell may be both (contract violations otherwise).
/// Sorts `sources` by cell id and drops duplicates, so injection order —
/// and thus entity-id assignment — cannot depend on how a caller listed
/// them.
void canonicalize_sources(const Grid& grid, CellId target,
                          std::vector<CellId>& sources);

/// True iff adding an entity centered at `center` to cell `self`, which
/// holds `members` and `token`, keeps the cell safe: the entity lies
/// inside the cell's Invariant-1 bounds, keeps the gap requirement
/// (Safe_{i,j}: spacing ≥ d along some axis) against every member, and
/// — the fairness guard discharging §III-B(b) — does not fill the entry
/// strip toward the neighbor being served (`token`) when it was clear.
/// Shared by injection and seed_entity in every square-grid engine.
[[nodiscard]] bool injection_is_safe(CellId self, Vec2 center,
                                     std::span<const Entity> members,
                                     OptCellId token, const Params& params);

/// One source cell's injection for the round, shared by every square-grid
/// engine: unless the cell is failed, asks `policy` for a placement and
/// accepts it only if injection_is_safe, appending an entity with id
/// `next_id` (then incremented) and reporting the acceptance to the
/// policy. Unless `counts` is null, tallies the accepted or the blocked
/// proposal. Returns the new entity's id, or nullopt when nothing was
/// injected.
std::optional<EntityId> apply_injection(CellState& c, CellId self,
                                        SourcePolicy& policy,
                                        const Grid& grid,
                                        const Params& params,
                                        std::uint64_t& next_id,
                                        obs::ProtocolCounts* counts);

}  // namespace cellflow
