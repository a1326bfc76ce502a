#include "core/signal.hpp"

#include <algorithm>

#include "obs/protocol_metrics.hpp"
#include "util/check.hpp"

namespace cellflow {

bool entry_strip_clear(CellId self, CellId toward,
                       std::span<const Entity> members, const Params& params) {
  const double half = params.entity_length() / 2.0;
  const double d = params.center_spacing();
  const auto i = static_cast<double>(self.i);
  const auto j = static_cast<double>(self.j);

  if (toward.i == self.i + 1 && toward.j == self.j) {  // east
    return std::all_of(members.begin(), members.end(), [&](const Entity& p) {
      return p.center.x + half <= i + 1.0 - d;
    });
  }
  if (toward.i == self.i - 1 && toward.j == self.j) {  // west
    return std::all_of(members.begin(), members.end(), [&](const Entity& p) {
      return p.center.x - half >= i + d;
    });
  }
  if (toward.i == self.i && toward.j == self.j + 1) {  // north
    return std::all_of(members.begin(), members.end(), [&](const Entity& p) {
      return p.center.y + half <= j + 1.0 - d;
    });
  }
  if (toward.i == self.i && toward.j == self.j - 1) {  // south
    return std::all_of(members.begin(), members.end(), [&](const Entity& p) {
      return p.center.y - half >= j + d;
    });
  }
  CF_CHECK_MSG(false, "entry_strip_clear: cells are not lattice neighbors");
  return false;
}

namespace {

/// Figure 5 on the square grid under either grant rule: kAlwaysGrant, the
/// UNSAFE ablation, skips the entry-strip check and grants the token
/// holder unconditionally.
SignalResult square_signal_step(CellId self, std::span<const Entity> members,
                                std::span<const CellId> ne_prev,
                                OptCellId token, SignalRule rule,
                                const Params& params, ChoosePolicy& choose) {
  return token_discipline(
      ne_prev, token,
      [self](CellId t) { return Grid::are_neighbors(self, t); },
      [&](CellId t) {
        return rule == SignalRule::kAlwaysGrant ||
               entry_strip_clear(self, t, members, params);
      },
      [&](std::span<const CellId> candidates, OptCellId previous) {
        return choose.choose(self, candidates, previous);
      });
}

}  // namespace

bool apply_signal(CellState& c, CellId self, NeighborMask ne_prev,
                  SignalRule rule, const Params& params, ChoosePolicy& choose,
                  obs::ProtocolCounts* counts) {
  if (ne_prev == 0 && !c.token.has_value()) {
    // Figure 5 with NEPrev empty and no token: nothing to choose from,
    // so signal := ⊥ and the token stays ⊥ without a choose call.
    if (counts != nullptr) ++counts->ne_prev_sizes[0];
    c.signal = std::nullopt;
    c.ne_prev = 0;
    return false;
  }
  const NeighborSet candidates = neighbors_in(self, ne_prev);
  const bool had_candidate = c.token.has_value() || ne_prev != 0;
  const SignalResult r = square_signal_step(self, c.members, candidates,
                                            c.token, rule, params, choose);
  const bool blocked = had_candidate && !r.signal.has_value();
  if (counts != nullptr) {
    ++counts->ne_prev_sizes[std::min<std::size_t>(
        candidates.size(), counts->ne_prev_sizes.size() - 1)];
    if (r.signal.has_value()) ++counts->signal_grants;
    if (blocked) ++counts->signal_blocks;
    if (c.token.has_value() && r.token != c.token)
      ++counts->signal_token_rotations;
  }
  c.signal = r.signal;
  c.token = r.token;
  c.ne_prev = ne_prev;
  return blocked;
}

}  // namespace cellflow
