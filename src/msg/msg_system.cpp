#include "msg/msg_system.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/move.hpp"
#include "core/route.hpp"
#include "core/signal.hpp"
#include "obs/engine_telemetry.hpp"
#include "obs/profiler.hpp"
#include "util/check.hpp"

namespace cellflow {

MessageSystem::MessageSystem(MsgSystemConfig config,
                             std::unique_ptr<NetworkModel> network)
    : config_(std::move(config)),
      grid_(config_.side),
      cells_(grid_.cell_count()),
      sessions_(grid_.cell_count()),
      network_(network ? std::move(network)
                       : std::make_unique<SyncNetwork>()),
      fresh_(grid_.cell_count()),
      dist_out_(grid_.cell_count()),
      aim_(grid_.cell_count()),
      grant_seq_(grid_.cell_count()) {
  canonicalize_sources(grid_, config_.target, config_.sources);
  cells_[grid_.index_of(config_.target)].dist = Dist::zero();
}

std::size_t MessageSystem::entity_count() const noexcept {
  std::size_t n = 0;
  for (const CellState& c : cells_) n += c.members.size();
  return n;
}

std::vector<Entity> MessageSystem::in_flight_entities() const {
  // Only a process in retaining_ (a superset of those holding a batch,
  // ascending) can have one in flight.
  std::vector<Entity> out;
  for (const std::uint32_t k : retaining_) {
    for (const Direction d : kAllDirections) {
      const OutboundLink& ob =
          sessions_[k].outbound[static_cast<std::size_t>(d)];
      if (!ob.pending()) continue;
      const LinkSessions& r = sessions_[neighbor_index(grid_, k, d)];
      if (r.inbound[static_cast<std::size_t>(opposite(d))].completed_seq >=
          ob.batch_seq)
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
  if (apply_fail(cells_[grid_.index_of(id)]) && metrics_)
    metrics_->add_failure();
}

void MessageSystem::recover(CellId id) {
  CF_EXPECTS(grid_.contains(id));
  if (apply_recover(cells_[grid_.index_of(id)],
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

template <class F>
void MessageSystem::for_each_live(F&& f) {
  std::size_t k = 0;
  for (int j = 0; j < grid_.side(); ++j) {
    for (int i = 0; i < grid_.side(); ++i, ++k) {
      CellState& c = cells_[k];
      if (!c.failed) f(k, CellId{i, j}, c);
    }
  }
}

template <class Write>
std::uint64_t MessageSystem::broadcast(Write&& write) {
  std::fill(fresh_.begin(), fresh_.end(), std::uint8_t{0});
  std::uint64_t sent = 0;
  for_each_live([&](std::size_t k, CellId id, const CellState& c) {
    fresh_[k] = lattice_links(grid_, id);
    sent += static_cast<std::uint64_t>(grid_.degree(id));
    write(k, id, c);
  });
  return sent;
}

void MessageSystem::exchange_dists() {
  // Every live process broadcasts its previous-round dist to its
  // neighbors.
  const std::uint64_t sent =
      broadcast([this](std::size_t k, CellId, const CellState& c) {
        dist_out_[k] = DistAnnounce{c.dist};
      });
  Exchange x(PayloadType::kDist, grid_, fresh_, sent, &late_copy, this);
  network_->exchange(x);

  // Local Route step. A neighbor that stayed silent reads as dist = ∞
  // (paper footnote 1). Under a faulty network an inbox may hold several
  // announcements from one sender (a late copy ahead of the fresh slot,
  // canonical order); the first per sender wins — a stale estimate for
  // one round, which Route self-stabilizes away. route_step's argmin over
  // (dist, id) does not depend on the neighbours' order.
  obs::ProtocolCounts* const pc = metrics_ ? &round_counts_ : nullptr;
  std::span<const Message> late = network_->late();
  for_each_live([&](std::size_t, CellId id, CellState& c) {
    NeighborDist nds[4];  // lattice degree ≤ 4; no heap
    std::size_t n = 0;
    std::uint8_t heard = 0;
    const std::uint8_t links = lattice_links(grid_, id);
    x.read_inbox(late, id, [&](Direction d, std::size_t from,
                               const Message* copy) {
      const DistAnnounce* ann =
          copy == nullptr ? &dist_out_[from]
                          : std::get_if<DistAnnounce>(&copy->payload);
      if (ann == nullptr || (heard & direction_bit(d)) != 0) return;
      heard |= direction_bit(d);
      const auto [di, dj] = step_of(d);
      nds[n++] = NeighborDist{CellId{id.i + di, id.j + dj}, ann->dist};
    });
    for (const Direction d : kAllDirections) {
      if ((links & ~heard & direction_bit(d)) == 0) continue;
      const auto [di, dj] = step_of(d);
      nds[n++] = NeighborDist{CellId{id.i + di, id.j + dj}, Dist::infinity()};
    }
    apply_route(c, id == config_.target, std::span<const NeighborDist>(nds, n),
                pc);
  });
}

void MessageSystem::exchange_intents() {
  // An intent slot is the direction of `next` when the sender carries
  // entities (the only intent a receiver acts on).
  const std::uint64_t sent =
      broadcast([this](std::size_t k, CellId id, const CellState& c) {
        const bool aims = c.has_entities() && c.next.has_value() &&
                          Grid::are_neighbors(id, *c.next);
        aim_[k] =
            aims ? direction_bit(grid_.direction_between(id, *c.next)) : 0;
      });
  Exchange x(PayloadType::kIntent, grid_, fresh_, sent, &late_copy, this);
  network_->exchange(x);

  // Local Signal step: NEPrev = senders whose intent names me and who
  // carry entities. Every sender is a lattice neighbor, and a copy the
  // network delivers twice sets the same bit again.
  std::span<const Message> late = network_->late();
  for_each_live([&](std::size_t k, CellId id, CellState& c) {
    NeighborMask heard_wanting = 0;
    x.read_inbox(late, id, [&](Direction d, std::size_t n,
                               const Message* copy) {
      bool wants = false;
      if (copy == nullptr) {
        wants = (aim_[n] & direction_bit(opposite(d))) != 0;
      } else if (const auto* intent =
                     std::get_if<IntentAnnounce>(&copy->payload)) {
        wants = intent->next == OptCellId{id} && intent->has_entities;
      }
      if (!wants) return;
      const auto [di, dj] = step_of(d);
      heard_wanting |= neighbor_bit(id, CellId{id.i + di, id.j + dj});
    });

    if (apply_signal(c, id, heard_wanting, SignalRule::kBlocking,
                     config_.params, choose_,
                     metrics_ ? &round_counts_ : nullptr))
      events_.blocked.push_back(id);
    // A grant opens a transfer session on that link: stamp a fresh seq.
    // (Lemma 3's H holds from here on: apply_signal granted only with the
    // entry strip clear of this process's current members. The harness
    // checks it at the kAfterSignal hook, after the grant exchange.)
    if (c.signal.has_value())
      ++sessions_[k]
            .inbound[static_cast<std::size_t>(
                grid_.direction_between(id, *c.signal))]
            .granted_seq;
  });
}

void MessageSystem::exchange_grants() {
  // A grant slot is the direction of `signal` and the session seq stamped
  // for it; ⊥ carries no seq.
  const std::uint64_t sent =
      broadcast([this](std::size_t k, CellId id, const CellState& c) {
        aim_[k] = 0;
        if (!c.signal.has_value()) return;
        const Direction d = grid_.direction_between(id, *c.signal);
        aim_[k] = direction_bit(d);
        grant_seq_[k] =
            sessions_[k].inbound[static_cast<std::size_t>(d)].granted_seq;
      });
  Exchange x(PayloadType::kGrant, grid_, fresh_, sent, &late_copy, this);
  network_->exchange(x);

  granted_.clear();
  const auto heard = [this](std::size_t k, Direction d, std::uint64_t seq) {
    OutboundLink& ob = sessions_[k].outbound[static_cast<std::size_t>(d)];
    if (seq <= ob.heard_seq) return;  // duplicated copy
    ob.heard_seq = seq;
    granted_.push_back(Link{static_cast<std::uint32_t>(k), d, 0});
  };
  std::span<const Message> late = network_->late();
  for_each_live([&](std::size_t k, CellId id, CellState&) {
    x.read_inbox(late, id, [&](Direction d, std::size_t n,
                               const Message* copy) {
      if (copy == nullptr) {
        if ((aim_[n] & direction_bit(opposite(d))) != 0)
          heard(k, d, grant_seq_[n]);
        return;
      }
      const auto* g = std::get_if<GrantAnnounce>(&copy->payload);
      if (g == nullptr) return;
      if (g->round != round_) {
        // A delayed grant is expired: permission is only meaningful in
        // the round whose Signal step checked the strip (footnote 1's ⊥
        // reading — Move must see FRESH signal values, §II-B).
        ++expired_grants_;
        return;
      }
      if (g->signal == OptCellId{id}) heard(k, d, g->seq);
    });
  });
}

void MessageSystem::exchange_transfers() {
  // Move decisions from this round's grants, then (re-)offer every
  // retained batch. Stop-and-wait per link: while a batch is pending the
  // process answers a fresh grant by declining (silently — the grantor's
  // strip stays reserved but nothing moves), so at most one batch per
  // link is ever outstanding. Only processes with a grant or a retained
  // batch have work here, so the walk is over those two ascending lists.
  transfers_.clear();
  transfer_fresh_.clear();
  retaining_next_.clear();
  constexpr auto kNone = std::numeric_limits<std::uint32_t>::max();
  std::size_t g = 0;
  std::size_t r = 0;
  while (g < granted_.size() || r < retaining_.size()) {
    const std::uint32_t k =
        std::min(g < granted_.size() ? granted_[g].sender : kNone,
                 r < retaining_.size() ? retaining_[r] : kNone);
    while (r < retaining_.size() && retaining_[r] == k) ++r;
    CellState& c = cells_[k];
    LinkSessions& links = sessions_[k];
    const CellId id = grid_.id_of(k);
    for (; g < granted_.size() && granted_[g].sender == k; ++g) {
      const Direction d = granted_[g].to;
      OutboundLink& ob = links.outbound[static_cast<std::size_t>(d)];
      if (ob.pending()) continue;
      const auto [di, dj] = step_of(d);
      if (c.next != OptCellId{CellId{id.i + di, id.j + dj}}) continue;
      // In-place Move: crossers land directly in the link's retained
      // batch (empty while the link is idle — pending() was false and
      // acks clear it), stayers partition in place.
      if (apply_move(c, id, /*permitted=*/true, MovementRule::kCoupled,
                     grid_, config_.params, ob.batch,
                     metrics_ ? &round_counts_ : nullptr))
        events_.moved.push_back(id);
      if (!ob.batch.empty()) ob.batch_seq = ob.heard_seq;
    }
    bool retains = false;
    for (const Direction d : kAllDirections) {
      if (!links.outbound[static_cast<std::size_t>(d)].pending()) continue;
      retains = true;
      if (c.failed) continue;  // a crashed process is silent
      transfers_.push_back(
          Link{k, d, static_cast<std::uint32_t>(transfers_.size())});
      transfer_fresh_.push_back(direction_bit(d));
    }
    if (retains) retaining_next_.push_back(k);
  }
  retaining_.swap(retaining_next_);

  Exchange x(PayloadType::kTransfer, grid_, transfers_, transfer_fresh_,
             &late_copy, this);
  network_->exchange(x);

  // A fresh slot is read in place from the sender's retained batch.
  acks_.clear();
  ack_seqs_.clear();
  ack_fresh_.clear();
  x.for_each_delivery(
      network_->late(), delivery_order_,
      [this](std::size_t to, std::size_t from, const Link* link,
             const Message* copy) {
        if (cells_[to].failed)
          return;  // messages to a crashed process are lost
        if (copy == nullptr) {
          const OutboundLink& ob =
              sessions_[from].outbound[static_cast<std::size_t>(link->to)];
          accept_batch(to, from, ob.batch_seq, ob.batch);
        } else if (const auto* b = std::get_if<TransferBatch>(&copy->payload)) {
          accept_batch(to, from, b->seq, b->entities);
        }
      });
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

void MessageSystem::accept_batch(std::size_t k, std::size_t from,
                                 std::uint64_t seq,
                                 std::span<const Entity> batch) {
  CellState& c = cells_[k];
  const CellId id = grid_.id_of(k);
  const CellId sender = grid_.id_of(from);
  const Direction d = grid_.direction_between(id, sender);
  const auto ack = [&] {
    acks_.push_back(Link{static_cast<std::uint32_t>(k), d,
                         static_cast<std::uint32_t>(acks_.size())});
    ack_seqs_.push_back(seq);
    ack_fresh_.push_back(direction_bit(d));
  };
  InboundLink& ib = sessions_[k].inbound[static_cast<std::size_t>(d)];
  if (seq <= ib.completed_seq) {
    // Duplicate of an accepted batch (a lost ack, a duplicated message):
    // do not re-materialize; re-confirm idempotently.
    ack();
    return;
  }
  CF_CHECK_MSG(seq <= ib.granted_seq,
               "transfer batch with a seq this process never granted");
  if (id == config_.target) {
    total_arrivals_ += batch.size();
    if (metrics_) round_counts_.consumptions += batch.size();
  } else {
    if (!landing_is_safe(c, batch)) {
      // Deferred acceptance: the strip promised at grant time is no
      // longer free (the grant may have been issued rounds ago under
      // message loss). Withhold the ack; the sender retains the batch and
      // re-offers next round.
      ++deferred_acceptances_;
      return;
    }
    for (const Entity& e : batch) c.members.push_back(e);
  }
  for (const Entity& e : batch)
    accepted_.push_back(PendingTransfer{e, sender, id});
  ib.completed_seq = seq;
  ack();
}

void MessageSystem::exchange_acks() {
  Exchange x(PayloadType::kAck, grid_, acks_, ack_fresh_, &late_copy, this);
  network_->exchange(x);
  x.for_each_delivery(
      network_->late(), delivery_order_,
      [this](std::size_t to, std::size_t from, const Link* link,
             const Message* copy) {
        if (cells_[to].failed) return;
        std::uint64_t seq = 0;
        if (copy == nullptr) {
          seq = ack_seqs_[link->slot];
        } else if (const auto* a = std::get_if<TransferAck>(&copy->payload)) {
          seq = a->seq;
        } else {
          return;
        }
        OutboundLink& ob = sessions_[to].outbound[static_cast<std::size_t>(
            grid_.direction_between(grid_.id_of(to), grid_.id_of(from)))];
        if (ob.pending() && seq == ob.batch_seq) {
          ob.batch_seq = 0;
          ob.batch.clear();
        }
      });
}

Payload MessageSystem::late_copy(const void* self, PayloadType type,
                                 const Link& link) {
  // The barrier runs before any receiver does, so the sender's state and
  // sessions still hold what its slot announced.
  const auto& sys = *static_cast<const MessageSystem*>(self);
  const CellState& c = sys.cells_[link.sender];
  switch (type) {
    case PayloadType::kDist: return sys.dist_out_[link.sender];
    case PayloadType::kIntent: return IntentAnnounce{c.next, c.has_entities()};
    case PayloadType::kGrant:
      return GrantAnnounce{
          c.signal, c.signal.has_value() ? sys.grant_seq_[link.sender] : 0,
          sys.round_};
    case PayloadType::kTransfer: {
      const OutboundLink& ob = sys.sessions_[link.sender]
                                   .outbound[static_cast<std::size_t>(link.to)];
      return TransferBatch{ob.batch_seq, ob.batch};
    }
    case PayloadType::kAck: return TransferAck{sys.ack_seqs_[link.slot]};
  }
  return DistAnnounce{};
}

bool MessageSystem::landing_is_safe(const CellState& c,
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
    for (const Entity& q : c.members) {
      if (std::abs(e.center.x - q.center.x) < d &&
          std::abs(e.center.y - q.center.y) < d)
        return false;
    }
  }
  return true;
}

void MessageSystem::inject() {
  for (const CellId s : config_.sources) {
    const auto id = apply_injection(cells_[grid_.index_of(s)], s,
                                    source_, grid_, config_.params,
                                    next_entity_id_,
                                    metrics_ ? &round_counts_ : nullptr);
    if (id.has_value()) events_.injected.emplace_back(s, *id);
  }
}

}  // namespace cellflow
