#include "sim/observers.hpp"

namespace cellflow {

bool RoutingStabilizationMonitor::agreement(const System& sys) {
  const auto rho = sys.reference_distances();
  const Grid& grid = sys.grid();
  for (const CellId id : grid.all_cells()) {
    const Dist expect = rho[grid.index_of(id)];
    if (expect.is_infinite()) continue;  // not target-connected: no claim
    const CellState& c = sys.cell(id);
    if (c.failed) continue;  // ρ finite requires alive; defensive
    if (c.dist != expect) return false;
    if (id == sys.target()) continue;
    // next must point at a neighbor one hop closer (Lemma 6's fixed path).
    if (!c.next.has_value()) return false;
    const Dist nb_rho = rho[grid.index_of(*c.next)];
    if (nb_rho.is_infinite() || nb_rho.plus_one() != expect) return false;
  }
  return true;
}

void RoutingStabilizationMonitor::on_round(const System& sys,
                                           const RoundEvents& ev) {
  const bool now = agreement(sys);
  if (now && !agrees_) agree_since_ = ev.round;
  if (!now) agree_since_.reset();
  agrees_ = now;
}

std::optional<std::uint64_t> RoutingStabilizationMonitor::stabilized_at()
    const noexcept {
  return agrees_ ? agree_since_ : std::nullopt;
}

}  // namespace cellflow
