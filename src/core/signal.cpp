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

SignalResult signal_step(SignalInputs in, const Params& params,
                         ChoosePolicy& choose) {
  CF_EXPECTS(std::is_sorted(in.ne_prev.begin(), in.ne_prev.end()));

  SignalResult out;
  out.ne_prev = std::move(in.ne_prev);
  out.token = in.token;

  // Self-stabilization hygiene: a token naming a non-neighbor can only
  // arise from transient state corruption (the protocol itself only ever
  // stores neighbor ids). Drop it so the acquisition rule below re-seats
  // the token from NEPrev instead of tripping over garbage.
  if (out.token.has_value()) {
    const int di = out.token->i - in.self.i;
    const int dj = out.token->j - in.self.j;
    if (!((di == 0 || dj == 0) && di * di + dj * dj == 1))
      out.token = std::nullopt;
  }

  // Figure 5 line 3: acquire a token if none held.
  if (!out.token.has_value() && !out.ne_prev.empty())
    out.token = choose.choose(in.self, out.ne_prev, std::nullopt);

  if (!out.token.has_value()) {
    // No nonempty predecessor wants in; nothing to grant.
    out.signal = std::nullopt;
    return out;
  }

  // Figure 5 lines 4–7: grant only if the entry strip toward the token
  // holder is free of our own entities' safety regions.
  if (entry_strip_clear(in.self, *out.token, in.members, params)) {
    out.signal = out.token;  // line 9
    // Lines 10–12: rotate the token for the next round.
    if (out.ne_prev.size() > 1) {
      NeighborSet others;
      for (const CellId c : out.ne_prev)
        if (c != *out.token) others.push_back(c);
      // `others` may equal ne_prev when the stale token holder left NEPrev.
      out.token = choose.choose(in.self, others, out.token);
    } else if (out.ne_prev.size() == 1) {
      out.token = out.ne_prev.front();
    } else {
      out.token = std::nullopt;
    }
  } else {
    // Line 14: block, and keep serving the same neighbor next round.
    out.signal = std::nullopt;
  }
  return out;
}

SignalResult signal_step_always_grant(SignalInputs in, ChoosePolicy& choose) {
  CF_EXPECTS(std::is_sorted(in.ne_prev.begin(), in.ne_prev.end()));
  SignalResult out;
  out.ne_prev = std::move(in.ne_prev);
  out.token = in.token;
  if (out.token.has_value()) {
    const int di = out.token->i - in.self.i;
    const int dj = out.token->j - in.self.j;
    if (!((di == 0 || dj == 0) && di * di + dj * dj == 1))
      out.token = std::nullopt;
  }
  if (!out.token.has_value() && !out.ne_prev.empty())
    out.token = choose.choose(in.self, out.ne_prev, std::nullopt);
  if (!out.token.has_value()) {
    out.signal = std::nullopt;
    return out;
  }
  // The deliberate bug: no entry-strip check before granting.
  out.signal = out.token;
  if (out.ne_prev.size() > 1) {
    NeighborSet others;
    for (const CellId c : out.ne_prev)
      if (c != *out.token) others.push_back(c);
    out.token = choose.choose(in.self, others, out.token);
  } else if (out.ne_prev.size() == 1) {
    out.token = out.ne_prev.front();
  } else {
    out.token = std::nullopt;
  }
  return out;
}

bool apply_signal(CellState& c, CellId self, NeighborSet ne_prev,
                  SignalRule rule, const Params& params, ChoosePolicy& choose,
                  obs::ProtocolCounts* counts) {
  std::sort(ne_prev.begin(), ne_prev.end());
  SignalInputs in;
  in.self = self;
  in.members = c.members;
  in.ne_prev = std::move(ne_prev);
  in.token = c.token;
  const bool had_candidate = in.token.has_value() || !in.ne_prev.empty();
  const std::size_t ne_prev_size = in.ne_prev.size();
  SignalResult r = rule == SignalRule::kBlocking
                       ? signal_step(std::move(in), params, choose)
                       : signal_step_always_grant(std::move(in), choose);
  const bool blocked = had_candidate && !r.signal.has_value();
  if (counts != nullptr) {
    ++counts->ne_prev_sizes[std::min<std::size_t>(
        ne_prev_size, counts->ne_prev_sizes.size() - 1)];
    if (r.signal.has_value()) ++counts->signal_grants;
    if (blocked) ++counts->signal_blocks;
    if (c.token.has_value() && r.token != c.token)
      ++counts->signal_token_rotations;
  }
  c.signal = r.signal;
  c.token = r.token;
  c.ne_prev = std::move(r.ne_prev);
  return blocked;
}

}  // namespace cellflow
