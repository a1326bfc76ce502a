// The message-passing realization of System (paper §II-B's "actual
// message-passing implementation"). Each cell is a process owning ONLY
// its local Figure-3 state and its transport sessions; all interaction
// goes through a NetworkModel (src/net) — reliable SyncNetwork by
// default, or a FaultyNetwork applying a seeded loss/delay/duplication/
// partition schedule.
//
// Equivalence: on identical configurations (same grid, parameters,
// sources, round-robin choose) and identical fail/recover schedules, a
// MessageSystem over a reliable network produces the *exact same
// execution* as the shared-variable System — entity for entity, position
// for position, round for round. tests/test_msg_system.cpp locks this
// in; tests/test_net_faults.cpp extends the pin to a zero-fault
// FaultyNetwork.
//
// Fault tolerance (DESIGN.md §8): control-plane messages are droppable
// with footnote-1 semantics (missed dist ≡ ∞, missed intent ≡ not
// wanting, missed grant ≡ ⊥; a *delayed* grant is discarded as expired —
// permission is only ever valid in the round whose Signal step issued
// it). The data plane is loss-proof by construction: entities that cross
// a boundary are retained by the sender in a per-link stop-and-wait
// batch, re-offered every round, deduplicated by the grant's session
// seq, and only materialized at the receiver when the landing is
// provably safe against the receiver's current members (deferred
// acceptance — an unsafe landing is simply not acknowledged, and the
// sender re-offers). Entities are never destroyed or duplicated under
// any fault schedule; src/msg/msg_audit.hpp holds the oracles.
//
// Crash model: a failed process is silent (sends nothing, processes
// nothing; messages addressed to it are lost — the data plane's
// retention covers in-flight batches). Its Figure-3 protocol variables
// reset per the paper's fail action, but the transport-session state
// (seq counters, retained batches) is STABLE storage surviving fail and
// recover: it is the ledger that makes the hand-off exactly-once, and a
// process that forgot it could double-accept a re-offered batch.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/cell_state.hpp"
#include "core/choose.hpp"
#include "core/params.hpp"
#include "core/source.hpp"
#include "core/system.hpp"  // RoundEvents, UpdatePhase
#include "grid/grid.hpp"
#include "net/network_model.hpp"
#include "obs/protocol_metrics.hpp"
#include "util/ids.hpp"

namespace cellflow::obs {
class EngineTelemetry;
class PhaseProfiler;
}  // namespace cellflow::obs

namespace cellflow::snapshot {
struct Access;
}  // namespace cellflow::snapshot

namespace cellflow {

/// Sender half of a per-link transfer session (stop-and-wait): at most
/// one unacknowledged batch per outgoing link, retained until confirmed.
struct OutboundLink {
  /// Highest grant seq heard on this link (dedups duplicated grants).
  std::uint64_t heard_seq = 0;
  /// The retained batch awaiting an ack, stamped with the grant seq it
  /// answered. Empty + seq 0 when idle.
  std::uint64_t batch_seq = 0;
  std::vector<Entity> batch;

  [[nodiscard]] bool pending() const noexcept { return batch_seq != 0; }
};

/// Receiver half of a per-link transfer session: grants stamp strictly
/// increasing seqs; a batch is accepted at most once per seq.
struct InboundLink {
  /// Seq stamped into the most recent grant issued on this link.
  std::uint64_t granted_seq = 0;
  /// Highest batch seq accepted (everything ≤ this is a duplicate).
  std::uint64_t completed_seq = 0;
};

/// One process's transport sessions, a fixed array per lattice direction
/// (indexed by Direction; a direction off the grid stays idle). Stable
/// storage: the sessions survive crash and recovery.
struct LinkSessions {
  std::array<OutboundLink, 4> outbound;
  std::array<InboundLink, 4> inbound;
};

struct MsgSystemConfig {
  int side = 8;
  Params params{0.25, 0.05, 0.1};
  CellId target{1, 7};
  std::vector<CellId> sources{CellId{1, 0}};
};

class MessageSystem {
 public:
  /// `network` defaults to a reliable SyncNetwork when null.
  explicit MessageSystem(MsgSystemConfig config,
                         std::unique_ptr<NetworkModel> network = nullptr);

  [[nodiscard]] const Grid& grid() const noexcept { return grid_; }
  [[nodiscard]] const Params& params() const noexcept {
    return config_.params;
  }
  [[nodiscard]] CellId target() const noexcept { return config_.target; }

  [[nodiscard]] const CellState& cell(CellId id) const {
    return cells_[grid_.index_of(id)];
  }
  /// failed_{i,j}, the one field the fail/recover models read.
  [[nodiscard]] bool is_failed(CellId id) const { return cell(id).failed; }

  /// System::for_each_cell: f(id, state) for every process's Figure-3
  /// state, in ascending dense index order. Entities retained in
  /// unaccepted batches are not in any cell (see in_flight_entities).
  template <class F>
  void for_each_cell(F&& f) const {
    std::size_t k = 0;
    for (int j = 0; j < grid_.side(); ++j)
      for (int i = 0; i < grid_.side(); ++i, ++k)
        f(CellId{i, j}, cells_[k]);
  }
  [[nodiscard]] std::uint64_t round() const noexcept { return round_; }
  [[nodiscard]] std::uint64_t total_arrivals() const noexcept {
    return total_arrivals_;
  }
  [[nodiscard]] std::uint64_t total_injected() const noexcept {
    return next_entity_id_;
  }
  [[nodiscard]] std::size_t entity_count() const noexcept;

  /// Entities currently retained in unacknowledged sender batches whose
  /// receiver has NOT yet accepted them — the data plane's in-flight set.
  /// (A batch the receiver accepted but whose ack was lost is excluded:
  /// those entities are already members; the retained copy is a ledger
  /// entry awaiting the idempotent re-ack.) Audit-only global view.
  [[nodiscard]] std::vector<Entity> in_flight_entities() const;

  [[nodiscard]] const NetworkModel& network() const noexcept {
    return *network_;
  }
  /// Messages sent since construction / during the last round.
  [[nodiscard]] std::uint64_t total_messages() const noexcept {
    return network_->total_messages();
  }
  [[nodiscard]] std::uint64_t last_round_messages() const noexcept {
    return last_round_messages_;
  }
  /// Delayed grants discarded as expired (footnote-1 ⊥ reading).
  [[nodiscard]] std::uint64_t expired_grants() const noexcept {
    return expired_grants_;
  }
  /// Batch deliveries deferred because the landing was not safe at
  /// acceptance time (the sender re-offers next round).
  [[nodiscard]] std::uint64_t deferred_acceptances() const noexcept {
    return deferred_acceptances_;
  }

  /// Crash: the process goes silent. (Its local variables are also set
  /// per the paper's fail action so a later inspection matches System;
  /// transport-session state is stable storage and survives.)
  void fail(CellId id);
  /// §IV recovery: the process restarts from initial protocol state,
  /// keeping its physical entities and transport-session ledger.
  void recover(CellId id);

  /// One protocol round = five message exchanges (see net/message.hpp).
  /// Returns what happened, with System's meaning: Signal's blocked
  /// grants, the processes that moved, the entities injected, and one
  /// transfer per entity whose batch the receiver accepted this round
  /// (consumed at the target), in System's origin order. On a
  /// SyncNetwork the events equal System's field for field.
  const RoundEvents& update();

  /// Events of the most recent update().
  [[nodiscard]] const RoundEvents& last_events() const noexcept {
    return events_;
  }

  /// System::PhaseHook for this realization: fires after the dist
  /// exchange (kAfterRoute), after the grant exchange (kAfterSignal — the
  /// grants are out and no entity has moved, Lemma 3's xS), after the ack
  /// exchange (kAfterMove) and after inject (kAfterInject). Observing
  /// only.
  using PhaseHook = std::function<void(const MessageSystem&, UpdatePhase)>;
  void set_phase_hook(PhaseHook hook) { phase_hook_ = std::move(hook); }

  /// Attach (or detach, with nullptr) a metrics registry. Protocol
  /// families are labeled {realization="message"}; the message volume is
  /// additionally broken out per exchange in cellflow_messages_total,
  /// and network faults (when the NetworkModel reports any) appear as
  /// cellflow_net_faults_total{fault, exchange}.
  /// On equivalent executions every protocol count matches the
  /// shared-variable System's {realization="shared"} series exactly.
  void set_metrics(obs::MetricsRegistry* registry);

  /// Attach a phase profiler (non-owning; nullptr detaches). Spans per
  /// exchange — "dist" | "intent" | "grant" | "transfer" | "ack" |
  /// "inject" — plus one "round" span, all shard = -1 (this realization
  /// is serial). Reporting only.
  void set_profiler(obs::PhaseProfiler* profiler) noexcept {
    profiler_ = profiler;
  }

  /// Attach engine telemetry (non-owning; nullptr detaches). The serial
  /// realization reports work = Σ exchange walls, no barrier/dispatch/
  /// merge components, imbalance pinned 1.0, width 1 — the honest
  /// decomposition of a single-threaded engine. Observation counts obey
  /// the same one-per-round structure as System's.
  void set_telemetry(obs::EngineTelemetry* telemetry) noexcept {
    telemetry_ = telemetry;
  }

 private:
  // Snapshot/restore (src/snapshot) reads and rebuilds the full private
  // state; it is the one sanctioned backdoor (DESIGN.md §11).
  friend struct snapshot::Access;

  void exchange_dists();
  void exchange_intents();
  void exchange_grants();
  void exchange_transfers();
  void exchange_acks();
  void inject();
  /// f(k, id, cell) for every live process, ascending in dense index.
  template <class F>
  void for_each_live(F&& f);
  /// Writes every live process's broadcast mask into fresh_ and returns
  /// the links written; `write(k, id, cell)` fills process k's outbox
  /// slot. A crashed process is silent.
  template <class Write>
  std::uint64_t broadcast(Write&& write);
  void accept_batch(std::size_t k, std::size_t from, std::uint64_t seq,
                    std::span<const Entity> batch);
  /// Exchange::PayloadFn: the Message payload of a sent link's slot, for
  /// a copy the network delivers late.
  static Payload late_copy(const void* self, PayloadType type,
                           const Link& link);
  [[nodiscard]] bool landing_is_safe(const CellState& c,
                                     std::span<const Entity> batch) const;
  void flush_network_metrics();

  MsgSystemConfig config_;
  Grid grid_;
  /// Each process's Figure-3 state and, in a parallel array, its
  /// transport sessions — so the exchanges' N² walks stride over the
  /// cells alone.
  std::vector<CellState> cells_;
  std::vector<LinkSessions> sessions_;
  std::unique_ptr<NetworkModel> network_;
  RoundRobinChoose choose_;  // stateless, per-call; same as System default
  EntryEdgeSource source_;   // stateless; same as System default
  PhaseHook phase_hook_;
  RoundEvents events_;
  /// This round's accepted batches, one entry per entity, before
  /// canonical_transfer_order (capacity reused across rounds).
  std::vector<PendingTransfer> accepted_;

  // The mailboxes (net/network_model.hpp). Every array is sized once or
  // reused at its high-water mark — the steady state on a SyncNetwork
  // performs no allocation.
  /// Broadcast exchanges: each process's fresh direction mask (the links
  /// it wrote, minus the ones the network withheld) and its typed slot —
  /// its dist; the direction it aims at (its intent's `next` when it
  /// carries entities, its grant's `signal`); the grant's session seq.
  std::vector<std::uint8_t> fresh_;
  std::vector<DistAnnounce> dist_out_;
  std::vector<std::uint8_t> aim_;
  std::vector<std::uint64_t> grant_seq_;
  /// Links granted this round, (process, direction of the grantor), in
  /// process order — the links a Move may open a session on.
  std::vector<Link> granted_;
  /// Processes holding a retained batch after the last transfer exchange
  /// (ascending; a superset once acks clear some).
  std::vector<std::uint32_t> retaining_;
  std::vector<std::uint32_t> retaining_next_;
  /// Transfer exchange: one link per retained batch, its slot a view of
  /// the sender's OutboundLink.
  std::vector<Link> transfers_;
  std::vector<std::uint8_t> transfer_fresh_;
  /// Ack exchange: one link per ack, queued in the order the transfer
  /// exchange accepted or re-confirmed batches, with its seq.
  std::vector<Link> acks_;
  std::vector<std::uint64_t> ack_seqs_;
  std::vector<std::uint8_t> ack_fresh_;
  std::vector<Arrival> delivery_order_;  ///< for_each_delivery scratch

  std::uint64_t round_ = 0;
  std::uint64_t total_arrivals_ = 0;
  std::uint64_t next_entity_id_ = 0;
  std::uint64_t last_round_messages_ = 0;
  std::uint64_t expired_grants_ = 0;
  std::uint64_t deferred_acceptances_ = 0;

  // Observability (optional; every path is a no-op when detached).
  std::unique_ptr<obs::ProtocolMetrics> metrics_;
  obs::ProtocolCounts round_counts_;
  obs::MetricsRegistry* registry_ = nullptr;
  obs::PhaseProfiler* profiler_ = nullptr;
  obs::EngineTelemetry* telemetry_ = nullptr;
  std::array<obs::Counter*, kPayloadTypeCount> msgs_by_type_{};
  std::array<std::uint64_t, kPayloadTypeCount> msgs_flushed_{};
  std::array<std::array<std::uint64_t, kPayloadTypeCount>, kNetFaultCount>
      faults_flushed_{};
};

}  // namespace cellflow
