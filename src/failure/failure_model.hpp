// Failure environments.
//
// The paper's analysis (§III) treats fail(⟨i,j⟩) as an environment action
// with two regimes: an arbitrary-but-finite failure sequence (for the
// stabilization results), and §IV's stochastic regime where every cell
// fails with probability pf and every failed cell recovers with
// probability pr, independently per round (Figure 9). A FailureModel is
// asked once per round, *before* the engine's update(), to drive the
// fail/recover transitions.
//
// The models are class templates over the engine — System,
// chunk::ChunkedSystem or MessageSystem, through the fail/recover/is_failed
// surface all three share — so one fail/recover stream drives every
// engine. The plain names (FailureModel, NoFailures, …) mean the System
// instantiation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/system.hpp"
#include "grid/path.hpp"
#include "util/check.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"

namespace cellflow {

template <class Engine>
class BasicFailureModel {
 public:
  virtual ~BasicFailureModel() = default;

  /// Applies this round's fail/recover transitions to `sys`.
  virtual void apply(Engine& sys) = 0;

  /// True once the model will never issue another fail transition — the
  /// paper's "new failures cease" point, after which the stabilization
  /// guarantees (Lemma 6, Theorem 10) kick in. Stochastic models return
  /// false forever.
  [[nodiscard]] virtual bool quiescent() const noexcept { return true; }

  /// Appends the model's mutable state as opaque u64 words (snapshot
  /// support, DESIGN.md §11). Stateless models append nothing.
  virtual void encode_state(std::vector<std::uint64_t>&) const {}

  /// Restores state captured by encode_state(). Returns false when the
  /// word count does not match this model.
  [[nodiscard]] virtual bool decode_state(
      std::span<const std::uint64_t> words) {
    return words.empty();
  }
};

/// The failure-free environment.
template <class Engine>
class BasicNoFailures final : public BasicFailureModel<Engine> {
 public:
  void apply(Engine&) override {}
};

/// A scripted schedule of fail/recover actions at specific rounds, for
/// deterministic stabilization experiments ("fail these 3 cells at round
/// 50, recover one at round 200").
template <class Engine>
class BasicScriptedFailures final : public BasicFailureModel<Engine> {
 public:
  struct Action {
    std::uint64_t round;
    CellId cell;
    bool recover = false;  // false = fail
  };

  /// Actions may be given in any order; they are applied at the matching
  /// engine round.
  explicit BasicScriptedFailures(std::vector<Action> actions)
      : actions_(std::move(actions)) {
    std::stable_sort(actions_.begin(), actions_.end(),
                     [](const Action& a, const Action& b) {
                       return a.round < b.round;
                     });
    for (const Action& a : actions_)
      if (!a.recover) last_fail_round_ = std::max(last_fail_round_, a.round);
  }

  void apply(Engine& sys) override {
    const std::uint64_t now = sys.round();
    while (cursor_ < actions_.size() && actions_[cursor_].round <= now) {
      const Action& a = actions_[cursor_];
      if (a.recover) {
        sys.recover(a.cell);
      } else {
        sys.fail(a.cell);
      }
      ++cursor_;
    }
  }

  [[nodiscard]] bool quiescent() const noexcept override {
    for (std::size_t k = cursor_; k < actions_.size(); ++k)
      if (!actions_[k].recover) return false;
    return true;
  }

  /// Round after which no more *fail* actions remain (the xf of §III-C);
  /// 0 when the script contains no fails.
  [[nodiscard]] std::uint64_t last_fail_round() const noexcept {
    return last_fail_round_;
  }

  void encode_state(std::vector<std::uint64_t>& out) const override {
    out.push_back(cursor_);
  }
  [[nodiscard]] bool decode_state(
      std::span<const std::uint64_t> words) override {
    if (words.size() != 1 || words[0] > actions_.size()) return false;
    cursor_ = static_cast<std::size_t>(words[0]);
    return true;
  }

 private:
  std::vector<Action> actions_;  // sorted by round
  std::size_t cursor_ = 0;
  std::uint64_t last_fail_round_ = 0;
};

/// §IV's stochastic model: each round every non-faulty cell fails with
/// probability pf and every faulty cell recovers with probability pr,
/// i.i.d. across cells and rounds. `protect_target` exempts the target
/// (assumption (a) of §III-B); Figure 9's experiment does not protect it
/// (recovery explicitly resets dist_tid, so the paper's target does fail).
template <class Engine>
class BasicRandomFailRecover final : public BasicFailureModel<Engine> {
 public:
  BasicRandomFailRecover(double pf, double pr, std::uint64_t seed,
                         bool protect_target = false)
      : fail_cut_(Xoshiro256::bernoulli_cut(pf)),
        recover_cut_(Xoshiro256::bernoulli_cut(pr)),
        either_cut_(std::max(fail_cut_, recover_cut_)),
        rng_(seed),
        protect_target_(protect_target) {}

  void apply(Engine& sys) override {
    // One Bernoulli draw per cell per round, in id order (j, then i, as
    // Grid::id_of), so executions are reproducible from the seed
    // regardless of grid contents. The cell's state only picks which of
    // the two trials its draw serves, so the draw comes first: one that
    // fails both cuts does nothing whatever the cell holds, and only a
    // draw below the larger cut reads `failed`. The protected target's
    // draw is made and ignored, which keeps the stream aligned.
    const int side = sys.grid().side();
    const CellId target = sys.target();
    for (int j = 0; j < side; ++j) {
      for (int i = 0; i < side; ++i) {
        const std::uint64_t m = rng_.draw53();
        if (!Xoshiro256::succeeds(m, either_cut_)) continue;
        const CellId id{i, j};
        if (sys.is_failed(id)) {
          if (Xoshiro256::succeeds(m, recover_cut_)) {
            sys.recover(id);
            ++total_recoveries_;
          }
        } else if (Xoshiro256::succeeds(m, fail_cut_) &&
                   !(protect_target_ && id == target)) {
          sys.fail(id);
          ++total_failures_;
        }
      }
    }
  }
  [[nodiscard]] bool quiescent() const noexcept override { return false; }

  [[nodiscard]] std::uint64_t total_failures() const noexcept {
    return total_failures_;
  }
  [[nodiscard]] std::uint64_t total_recoveries() const noexcept {
    return total_recoveries_;
  }

  /// The stream's generator. The message snapshot carries it in its
  /// env-rng section (snapshot::save/restore of a MessageSystem).
  [[nodiscard]] Xoshiro256& generator() noexcept { return rng_; }
  [[nodiscard]] const Xoshiro256& generator() const noexcept { return rng_; }

  void encode_state(std::vector<std::uint64_t>& out) const override {
    const auto words = rng_.state();
    out.insert(out.end(), words.begin(), words.end());
    out.push_back(total_failures_);
    out.push_back(total_recoveries_);
  }
  [[nodiscard]] bool decode_state(
      std::span<const std::uint64_t> words) override {
    if (words.size() != 6) return false;
    rng_.set_state({words[0], words[1], words[2], words[3]});
    total_failures_ = words[4];
    total_recoveries_ = words[5];
    return true;
  }

 private:
  std::uint64_t fail_cut_;     // Xoshiro256::bernoulli_cut(pf)
  std::uint64_t recover_cut_;  // Xoshiro256::bernoulli_cut(pr)
  std::uint64_t either_cut_;   // the larger of the two
  Xoshiro256 rng_;
  bool protect_target_;
  std::uint64_t total_failures_ = 0;
  std::uint64_t total_recoveries_ = 0;
};

using FailureModel = BasicFailureModel<System>;
using NoFailures = BasicNoFailures<System>;
using ScriptedFailures = BasicScriptedFailures<System>;
using RandomFailRecover = BasicRandomFailRecover<System>;

/// Permanently fails every cell NOT on `path` (at round 0, once). This
/// carves the path into the grid so Route has exactly one choice at every
/// hop — how the Figure-8 experiments force a prescribed number of turns.
void carve_path(System& sys, const Path& path);

/// Permanently fails every cell not in `keep`.
void carve_mask(System& sys, const CellMask& keep);

}  // namespace cellflow
