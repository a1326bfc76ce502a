#include "msg/msg_system.hpp"

#include <algorithm>
#include <cmath>

#include "core/move.hpp"
#include "core/route.hpp"
#include "core/signal.hpp"
#include "obs/engine_telemetry.hpp"
#include "obs/profiler.hpp"
#include "util/check.hpp"

namespace cellflow {

std::size_t MessageProcess::slot_of(CellId nb) const {
  for (std::size_t s = 0; s < nbrs.size(); ++s)
    if (nbrs[s] == nb) return s;
  CF_CHECK_MSG(false, "slot_of: not a neighbor");
  return 0;
}

MessageSystem::MessageSystem(MsgSystemConfig config,
                             std::unique_ptr<NetworkModel> network)
    : config_(std::move(config)),
      grid_(config_.side),
      processes_(grid_.cell_count()),
      network_(network ? std::move(network)
                       : std::make_unique<SyncNetwork>()) {
  canonicalize_sources(grid_, config_.target, config_.sources);
  for (std::size_t k = 0; k < processes_.size(); ++k) {
    MessageProcess& p = processes_[k];
    p.nbrs = grid_.neighbors(grid_.id_of(k));
    p.outbound.resize(p.nbrs.size());
    p.inbound.resize(p.nbrs.size());
  }
  processes_[grid_.index_of(config_.target)].state.dist = Dist::zero();
}

std::size_t MessageSystem::entity_count() const noexcept {
  std::size_t n = 0;
  for (const MessageProcess& p : processes_) n += p.state.members.size();
  return n;
}

std::vector<Entity> MessageSystem::in_flight_entities() const {
  std::vector<Entity> out;
  for (std::size_t k = 0; k < processes_.size(); ++k) {
    const MessageProcess& p = processes_[k];
    const CellId id = grid_.id_of(k);
    for (std::size_t s = 0; s < p.nbrs.size(); ++s) {
      const OutboundLink& ob = p.outbound[s];
      if (!ob.pending()) continue;
      const MessageProcess& r = processes_[grid_.index_of(p.nbrs[s])];
      if (r.inbound[r.slot_of(id)].completed_seq >= ob.batch_seq)
        continue;  // accepted; the retained copy is just an unacked ledger
      out.insert(out.end(), ob.batch.begin(), ob.batch.end());
    }
  }
  return out;
}

void MessageSystem::set_metrics(obs::MetricsRegistry* registry) {
  registry_ = registry;
  if (registry == nullptr) {
    metrics_.reset();
    msgs_by_type_.fill(nullptr);
  } else {
    metrics_ = std::make_unique<obs::ProtocolMetrics>(*registry, "message");
    for (std::size_t t = 0; t < kPayloadTypeCount; ++t) {
      const auto type = static_cast<PayloadType>(t);
      msgs_by_type_[t] = &registry->counter(
          "cellflow_messages_total", "Messages sent, by exchange.",
          {{"realization", "message"}, {"exchange", to_string(type)}});
      // Count from attachment onward, like every other family.
      msgs_flushed_[t] = network_->sent_count(type);
      for (std::size_t f = 0; f < kNetFaultCount; ++f)
        faults_flushed_[f][t] =
            network_->fault_count(static_cast<NetFault>(f), type);
    }
  }
  round_counts_.reset();
}

void MessageSystem::flush_network_metrics() {
  if (registry_ == nullptr) return;
  for (std::size_t t = 0; t < kPayloadTypeCount; ++t) {
    const auto type = static_cast<PayloadType>(t);
    const std::uint64_t sent = network_->sent_count(type);
    if (sent > msgs_flushed_[t] && msgs_by_type_[t] != nullptr)
      msgs_by_type_[t]->inc(sent - msgs_flushed_[t]);
    msgs_flushed_[t] = sent;
    for (std::size_t f = 0; f < kNetFaultCount; ++f) {
      const auto fault = static_cast<NetFault>(f);
      const std::uint64_t n = network_->fault_count(fault, type);
      if (n > faults_flushed_[f][t]) {
        // Created lazily so fault-free runs keep their exact exports.
        registry_
            ->counter("cellflow_net_faults_total",
                      "Network faults applied, by kind and exchange.",
                      {{"fault", to_string(fault)},
                       {"exchange", to_string(type)}})
            .inc(n - faults_flushed_[f][t]);
        faults_flushed_[f][t] = n;
      }
    }
  }
}

void MessageSystem::fail(CellId id) {
  CF_EXPECTS(grid_.contains(id));
  // Transport-session state (outbound/inbound links) deliberately kept:
  // it is stable storage, the exactly-once ledger of the data plane.
  if (apply_fail(processes_[grid_.index_of(id)].state) && metrics_)
    metrics_->add_failure();
}

void MessageSystem::recover(CellId id) {
  CF_EXPECTS(grid_.contains(id));
  if (apply_recover(processes_[grid_.index_of(id)].state,
                    id == config_.target) &&
      metrics_)
    metrics_->add_recovery();
}

const RoundEvents& MessageSystem::update() {
  events_.clear();
  events_.round = round_;
  const std::uint64_t before = network_->total_messages();
  // Profiler/telemetry wrap, reporting only — exactly as in
  // System::update(); the exchanges are the serial realization's
  // "phases", so all of their wall time is telemetry work.
  using ProfClock = obs::PhaseProfiler::Clock;
  const bool track = profiler_ != nullptr || telemetry_ != nullptr;
  const auto t_round = track ? ProfClock::now() : ProfClock::time_point{};
  std::uint64_t work_ns = 0;
  const auto timed = [&](const char* name, auto&& exchange) {
    if (!track) {
      exchange();
      return;
    }
    const auto t0 = ProfClock::now();
    exchange();
    const auto t1 = ProfClock::now();
    if (profiler_ != nullptr) profiler_->record(name, round_, -1, t0, t1);
    const auto d =
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
    work_ns += d > 0 ? static_cast<std::uint64_t>(d) : 0;
  };
  const auto hook = [this](UpdatePhase phase) {
    if (phase_hook_) phase_hook_(*this, phase);
  };
  network_->begin_round(round_);
  timed("dist", [this] { exchange_dists(); });
  hook(UpdatePhase::kAfterRoute);
  timed("intent", [this] { exchange_intents(); });
  timed("grant", [this] { exchange_grants(); });
  hook(UpdatePhase::kAfterSignal);
  timed("transfer", [this] { exchange_transfers(); });
  timed("ack", [this] { exchange_acks(); });
  hook(UpdatePhase::kAfterMove);
  timed("inject", [this] { inject(); });
  hook(UpdatePhase::kAfterInject);
  if (track) {
    const auto t_end = ProfClock::now();
    if (profiler_ != nullptr)
      profiler_->record("round", round_, -1, t_round, t_end);
    if (telemetry_ != nullptr) {
      obs::RoundBreakdown b;
      const auto d = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         t_end - t_round)
                         .count();
      b.round_ns = d > 0 ? static_cast<std::uint64_t>(d) : 0;
      b.work_ns = work_ns;
      b.workers = 1;
      telemetry_->record_round(b);
    }
  }
  last_round_messages_ = network_->total_messages() - before;
  if (metrics_) {
    metrics_->add(round_counts_);
    metrics_->add_round();
    round_counts_.reset();
  }
  flush_network_metrics();
  ++round_;
  return events_;
}

void MessageSystem::exchange_dists() {
  // Every live process broadcasts its previous-round dist to its
  // neighbors; a crashed process is silent.
  for (std::size_t k = 0; k < processes_.size(); ++k) {
    const MessageProcess& p = processes_[k];
    if (p.state.failed) continue;
    const CellId id = grid_.id_of(k);
    for (const CellId nb : p.nbrs)
      network_->send(Message{id, nb, DistAnnounce{p.state.dist}});
  }
  network_->deliver_all(grid_, inboxes_);

  // Local Route step. A neighbor that stayed silent reads as dist = ∞
  // (paper footnote 1) — which is exactly what NOT listing it achieves,
  // except route_step needs every neighbor present; so synthesize ∞
  // entries for silent neighbors. Under a faulty network an inbox may
  // hold several announcements from one sender (a delayed copy released
  // before the fresh one, canonical order); the first per sender wins —
  // a stale estimate for one round, which Route self-stabilizes away.
  obs::ProtocolCounts* const pc = metrics_ ? &round_counts_ : nullptr;
  for (std::size_t k = 0; k < processes_.size(); ++k) {
    MessageProcess& p = processes_[k];
    if (p.state.failed) continue;
    const CellId id = grid_.id_of(k);
    p.heard_dists.clear();
    for (const Message& m : inboxes_[k]) {
      if (const auto* ann = std::get_if<DistAnnounce>(&m.payload))
        p.heard_dists.push_back(NeighborDistView{m.sender, ann->dist});
    }
    NeighborDist nds[4];  // lattice degree ≤ 4; no heap
    std::size_t n = 0;
    for (const CellId nb : p.nbrs) {
      const auto it = std::find_if(
          p.heard_dists.begin(), p.heard_dists.end(),
          [nb](const NeighborDistView& v) { return v.id == nb; });
      nds[n++] = NeighborDist{
          nb, it == p.heard_dists.end() ? Dist::infinity() : it->dist};
    }
    apply_route(p.state, id == config_.target,
                std::span<const NeighborDist>(nds, n), pc);
  }
}

void MessageSystem::exchange_intents() {
  for (std::size_t k = 0; k < processes_.size(); ++k) {
    const MessageProcess& p = processes_[k];
    if (p.state.failed) continue;
    const CellId id = grid_.id_of(k);
    for (const CellId nb : p.nbrs) {
      network_->send(Message{
          id, nb, IntentAnnounce{p.state.next, p.state.has_entities()}});
    }
  }
  network_->deliver_all(grid_, inboxes_);

  // Local Signal step: NEPrev = senders whose intent names me and who
  // carry entities. Every sender is a lattice neighbor, and a copy the
  // network delivers twice sets the same bit again.
  for (std::size_t k = 0; k < processes_.size(); ++k) {
    MessageProcess& p = processes_[k];
    if (p.state.failed) continue;
    const CellId id = grid_.id_of(k);
    NeighborMask heard_wanting = 0;
    for (const Message& m : inboxes_[k]) {
      if (const auto* intent = std::get_if<IntentAnnounce>(&m.payload)) {
        if (intent->next == OptCellId{id} && intent->has_entities)
          heard_wanting |= neighbor_bit(id, m.sender);
      }
    }

    if (apply_signal(p.state, id, heard_wanting, SignalRule::kBlocking,
                     config_.params, choose_,
                     metrics_ ? &round_counts_ : nullptr))
      events_.blocked.push_back(id);
    // A grant opens a transfer session on that link: stamp a fresh seq.
    // (Lemma 3's H holds from here on: apply_signal granted only with the
    // entry strip clear of this process's current members. The harness
    // checks it at the kAfterSignal hook, after the grant exchange.)
    if (p.state.signal.has_value())
      ++p.inbound[p.slot_of(*p.state.signal)].granted_seq;
  }
}

void MessageSystem::exchange_grants() {
  for (std::size_t k = 0; k < processes_.size(); ++k) {
    const MessageProcess& p = processes_[k];
    if (p.state.failed) continue;
    const CellId id = grid_.id_of(k);
    const std::uint64_t seq =
        p.state.signal.has_value()
            ? p.inbound[p.slot_of(*p.state.signal)].granted_seq
            : 0;
    for (const CellId nb : p.nbrs)
      network_->send(Message{id, nb, GrantAnnounce{p.state.signal, seq,
                                                   round_}});
  }
  network_->deliver_all(grid_, inboxes_);

  for (std::size_t k = 0; k < processes_.size(); ++k) {
    MessageProcess& p = processes_[k];
    p.heard_grants.clear();
    if (p.state.failed) continue;
    const CellId id = grid_.id_of(k);
    for (const Message& m : inboxes_[k]) {
      const auto* g = std::get_if<GrantAnnounce>(&m.payload);
      if (g == nullptr) continue;
      if (g->round != round_) {
        // A delayed grant is expired: permission is only meaningful in
        // the round whose Signal step checked the strip (footnote 1's ⊥
        // reading — Move must see FRESH signal values, §II-B).
        ++expired_grants_;
        continue;
      }
      if (g->signal != OptCellId{id}) continue;
      OutboundLink& ob = p.outbound[p.slot_of(m.sender)];
      if (g->seq <= ob.heard_seq) continue;  // duplicated copy
      ob.heard_seq = g->seq;
      p.heard_grants.push_back(p.slot_of(m.sender));
    }
  }
}

void MessageSystem::exchange_transfers() {
  // Move decisions from this round's grants, then (re-)offer every
  // retained batch. Stop-and-wait per link: while a batch is pending the
  // process answers a fresh grant by declining (silently — the grantor's
  // strip stays reserved but nothing moves), so at most one batch per
  // link is ever outstanding.
  for (std::size_t k = 0; k < processes_.size(); ++k) {
    MessageProcess& p = processes_[k];
    if (p.state.failed) continue;
    const CellId id = grid_.id_of(k);
    for (const std::size_t slot : p.heard_grants) {
      OutboundLink& ob = p.outbound[slot];
      if (ob.pending()) continue;
      if (p.state.next != OptCellId{p.nbrs[slot]}) continue;
      // In-place Move: crossers land directly in the link's retained
      // batch (empty while the link is idle — pending() was false and
      // acks clear it), stayers partition in place.
      if (apply_move(p.state, id, /*permitted=*/true, MovementRule::kCoupled,
                     grid_, config_.params, ob.batch,
                     metrics_ ? &round_counts_ : nullptr))
        events_.moved.push_back(id);
      if (!ob.batch.empty()) ob.batch_seq = ob.heard_seq;
    }
    for (std::size_t s = 0; s < p.nbrs.size(); ++s) {
      const OutboundLink& ob = p.outbound[s];
      if (ob.pending())
        network_->send(
            Message{id, p.nbrs[s], TransferBatch{ob.batch_seq, ob.batch}});
    }
  }

  network_->deliver_all(grid_, inboxes_);
  for (std::size_t k = 0; k < processes_.size(); ++k) {
    MessageProcess& p = processes_[k];
    if (p.state.failed) continue;  // messages to a crashed process are lost
    const CellId id = grid_.id_of(k);
    for (const Message& m : inboxes_[k]) {
      const auto* b = std::get_if<TransferBatch>(&m.payload);
      if (b == nullptr) continue;
      InboundLink& ib = p.inbound[p.slot_of(m.sender)];
      if (b->seq <= ib.completed_seq) {
        // Duplicate of an accepted batch (a lost ack, a duplicated
        // message): do not re-materialize; re-confirm idempotently.
        p.pending_acks.emplace_back(m.sender, b->seq);
        continue;
      }
      CF_CHECK_MSG(b->seq <= ib.granted_seq,
                   "transfer batch with a seq this process never granted");
      if (id == config_.target) {
        total_arrivals_ += b->entities.size();
        if (metrics_) round_counts_.consumptions += b->entities.size();
      } else {
        if (!landing_is_safe(p, b->entities)) {
          // Deferred acceptance: the strip promised at grant time is no
          // longer free (the grant may have been issued rounds ago under
          // message loss). Withhold the ack; the sender retains the
          // batch and re-offers next round.
          ++deferred_acceptances_;
          continue;
        }
        for (const Entity& e : b->entities) p.state.members.push_back(e);
      }
      for (const Entity& e : b->entities)
        accepted_.push_back(PendingTransfer{e, m.sender, id});
      ib.completed_seq = b->seq;
      p.pending_acks.emplace_back(m.sender, b->seq);
    }
  }
  // Receivers accept in their own order; the events follow System's.
  canonical_transfer_order(grid_, accepted_);
  for (const PendingTransfer& t : accepted_) {
    const bool consumed = t.to == config_.target;
    events_.transfers.push_back(TransferEvent{t.entity.id, t.from, t.to,
                                              consumed});
    if (consumed) ++events_.arrivals;
  }
  accepted_.clear();
}

void MessageSystem::exchange_acks() {
  for (std::size_t k = 0; k < processes_.size(); ++k) {
    MessageProcess& p = processes_[k];
    if (p.state.failed) {
      p.pending_acks.clear();
      continue;
    }
    const CellId id = grid_.id_of(k);
    for (const auto& [to, seq] : p.pending_acks)
      network_->send(Message{id, to, TransferAck{seq}});
    p.pending_acks.clear();
  }

  network_->deliver_all(grid_, inboxes_);
  for (std::size_t k = 0; k < processes_.size(); ++k) {
    MessageProcess& p = processes_[k];
    if (p.state.failed) continue;
    for (const Message& m : inboxes_[k]) {
      const auto* a = std::get_if<TransferAck>(&m.payload);
      if (a == nullptr) continue;
      OutboundLink& ob = p.outbound[p.slot_of(m.sender)];
      if (ob.pending() && a->seq == ob.batch_seq) {
        ob.batch_seq = 0;
        ob.batch.clear();
      }
    }
  }
}

bool MessageSystem::landing_is_safe(const MessageProcess& p,
                                    std::span<const Entity> batch) const {
  // Deferred-acceptance guard: re-validate, against the receiver's
  // CURRENT members, the spacing the grantor's strip check promised when
  // the session opened. Same predicate (and tolerance convention) as the
  // Safe oracle: a pair is in conflict iff within d on BOTH axes. Batch
  // entities are mutually safe by Theorem 5 (they left a safe
  // configuration through one edge, perpendicular coordinates
  // preserved), so only batch-vs-members pairs need checking.
  constexpr double kEps = 1e-9;  // kPredicateEps convention
  const double d = config_.params.center_spacing() - kEps;
  for (const Entity& e : batch) {
    for (const Entity& q : p.state.members) {
      if (std::abs(e.center.x - q.center.x) < d &&
          std::abs(e.center.y - q.center.y) < d)
        return false;
    }
  }
  return true;
}

void MessageSystem::inject() {
  for (const CellId s : config_.sources) {
    const auto id = apply_injection(processes_[grid_.index_of(s)].state, s,
                                    source_, grid_, config_.params,
                                    next_entity_id_,
                                    metrics_ ? &round_counts_ : nullptr);
    if (id.has_value()) events_.injected.emplace_back(s, *id);
  }
}

}  // namespace cellflow
