// Token-choice policies.
//
// The paper's Signal function (Figure 5) uses nondeterministic `choose`
// twice: acquiring a token when it is ⊥ (line 3) and rotating it after a
// grant (lines 10–12). Any realization is correct for *safety*; for
// *progress* (Lemma 9) the choice must be fair — every nonempty
// predecessor must be chosen infinitely often. We provide:
//
//   * RoundRobinChoose (default) — cycles through candidates in id order
//     relative to the previous token. Deterministic and fair. Its rule,
//     round_robin_choice, is a template over the cell-id type: the hex
//     and 3-D engines rotate their tokens with it too.
//   * RandomChoose — uniform over candidates from a seeded stream.
//     Fair with probability 1; used to reproduce the paper's
//     nondeterminism statistically.
//   * LowestIdChoose — always the smallest id. Deliberately UNFAIR: with
//     more than one competing predecessor it can starve the larger id.
//     Kept as an ablation (bench/ablation_token_policy) and as a negative
//     test for the fairness assumption in Lemma 9.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "util/check.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"

namespace cellflow {

/// Deterministic fair rotation over any ordered id type: the smallest
/// candidate strictly greater than `previous` in id order, wrapping to
/// the smallest overall; the smallest when `previous` is ⊥. Precondition:
/// `candidates` is nonempty and sorted ascending.
template <typename Id>
[[nodiscard]] Id round_robin_choice(std::span<const Id> candidates,
                                    const std::optional<Id>& previous) {
  CF_EXPECTS(!candidates.empty());
  CF_EXPECTS(std::is_sorted(candidates.begin(), candidates.end()));
  if (!previous.has_value()) return candidates.front();
  const auto it =
      std::upper_bound(candidates.begin(), candidates.end(), *previous);
  return it == candidates.end() ? candidates.front() : *it;
}

/// Strategy for the Signal function's `choose`.
class ChoosePolicy {
 public:
  virtual ~ChoosePolicy() = default;

  /// Picks one of `candidates` (precondition: nonempty, sorted unique
  /// ascending). `previous` is the token being rotated away from, or ⊥ on
  /// first acquisition. `self` identifies the choosing cell so stateful
  /// policies can keep independent per-cell streams.
  [[nodiscard]] virtual CellId choose(CellId self,
                                      std::span<const CellId> candidates,
                                      OptCellId previous) = 0;

  /// True iff choose() is a pure function of its arguments — no internal
  /// state — so concurrent calls from System's parallel Signal phase are
  /// both data-race-free and call-order-independent. Stateful policies
  /// keep the conservative default (false); the parallel engine then
  /// runs the Signal phase serially so the policy's stream observes the
  /// exact serial call sequence (determinism over speed).
  [[nodiscard]] virtual bool concurrent_safe() const noexcept {
    return false;
  }

  /// Appends the policy's mutable state as opaque u64 words (snapshot
  /// support, DESIGN.md §11). Stateless policies append nothing.
  virtual void encode_state(std::vector<std::uint64_t>&) const {}

  /// Restores state captured by encode_state(). Returns false when the
  /// word count does not match this policy (the snapshot was taken with a
  /// differently configured engine); the caller reports that as a typed
  /// config mismatch.
  [[nodiscard]] virtual bool decode_state(
      std::span<const std::uint64_t> words) {
    return words.empty();
  }
};

/// round_robin_choice as a ChoosePolicy.
class RoundRobinChoose final : public ChoosePolicy {
 public:
  [[nodiscard]] CellId choose(CellId /*self*/,
                              std::span<const CellId> candidates,
                              OptCellId previous) override {
    return round_robin_choice(candidates, previous);
  }
  [[nodiscard]] bool concurrent_safe() const noexcept override {
    return true;
  }
};

/// Uniformly random choice from a seeded generator (deterministic given
/// the seed and call sequence).
class RandomChoose final : public ChoosePolicy {
 public:
  explicit RandomChoose(std::uint64_t seed) : rng_(seed) {}

  [[nodiscard]] CellId choose(CellId self, std::span<const CellId> candidates,
                              OptCellId previous) override;

  void encode_state(std::vector<std::uint64_t>& out) const override;
  [[nodiscard]] bool decode_state(
      std::span<const std::uint64_t> words) override;

 private:
  Xoshiro256 rng_;
};

/// Always the smallest id — unfair on purpose (see file comment).
class LowestIdChoose final : public ChoosePolicy {
 public:
  [[nodiscard]] CellId choose(CellId self, std::span<const CellId> candidates,
                              OptCellId previous) override;
  [[nodiscard]] bool concurrent_safe() const noexcept override {
    return true;
  }
};

/// Factory from a name ("round-robin" | "random" | "lowest-id"), used by
/// CLI-configurable binaries. Throws on unknown names.
[[nodiscard]] std::unique_ptr<ChoosePolicy> make_choose_policy(
    std::string_view name, std::uint64_t seed);

}  // namespace cellflow
