#include "snapshot/snapshot.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <span>
#include <utility>
#include <vector>

#include "chunk/chunked_system.hpp"
#include "core/choose.hpp"
#include "core/source.hpp"
#include "core/system.hpp"
#include "failure/failure_model.hpp"
#include "msg/msg_system.hpp"
#include "net/faulty_network.hpp"
#include "util/check.hpp"

namespace cellflow::snapshot {

namespace {

constexpr std::array<std::uint8_t, 4> kSnapMagic{'C', 'F', 'S', 'N'};
constexpr std::uint32_t kSnapVersion = 1;

// Section tags, in the exact order the writers emit them (the reader
// enforces strictly increasing tags, so this order IS the format).
enum Tag : std::uint32_t {
  kTagHeader = 1,       // kind, round, arrivals, next entity id
  kTagConfig = 2,       // engine configuration echo (validated on restore)
  kTagCells = 3,        // per-cell Figure-3 state + members
  kTagChoose = 4,       // shared: ChoosePolicy state words
  kTagSource = 5,       // shared: SourcePolicy state words
  kTagFailure = 6,      // shared, optional: FailureModel state words
  kTagLinks = 7,        // message: stop-and-wait sessions per link
  kTagMsgCounters = 8,  // message: realization-level counters
  kTagNetwork = 9,      // message: NetworkModel transport state
  kTagEnvRng = 10,      // message, optional: environment fail/recover rng
  kTagChunks = 11,      // chunked: materialized tiles (live + parked)
};
constexpr std::uint32_t kMinTag = kTagHeader;
constexpr std::uint32_t kMaxTag = kTagChunks;

constexpr std::uint8_t kKindShared = 0;
constexpr std::uint8_t kKindMessage = 1;
constexpr std::uint8_t kKindChunked = 2;

// Chunk state bytes on the wire (== ChunkedCellStore::State values;
// virgin chunks are simply absent from the section).
constexpr std::uint8_t kChunkLive = 1;
constexpr std::uint8_t kChunkParked = 2;

constexpr std::uint64_t kInfDist = ~0ULL;

// Minimum encoded sizes, for Reader::count() bounds.
constexpr std::uint64_t kEntityBytes = 8 + 8 + 8;  // id, x, y
constexpr std::uint64_t kCellBytes = 1 + 8 + 3 * 1 + 1 + 8;  // empty cell
constexpr std::uint64_t kDelayedBytes = 8 + 16 + 1 + 2;  // min payload=intent

constexpr const char* kForeign =
    "snapshot was taken from a different realization";

std::uint64_t encode_dist(Dist d) {
  return d.is_infinite() ? kInfDist : d.hops();
}

Dist decode_dist(std::uint64_t raw) {
  return raw == kInfDist ? Dist::infinity() : Dist::finite(raw);
}

// ---- encoders ----------------------------------------------------------
//
// One encoder per piece of engine state, generic over the sink: a Writer
// puts the fields on the wire, a DigestAccumulator hashes them (each
// field widened to one word). The state digests are these encoders
// writing into an accumulator, so a field added here reaches both.

template <typename Sink>
void write_cell_id(Sink& out, CellId id) {
  out.i32(id.i);
  out.i32(id.j);
}

template <typename Sink>
void write_opt_cell(Sink& out, OptCellId c) {
  out.boolean(c.has_value());
  if (c) write_cell_id(out, *c);
}

template <typename Sink>
void write_entity(Sink& out, const Entity& e) {
  out.u64(e.id.value);
  out.f64(e.center.x);
  out.f64(e.center.y);
}

/// Cell `self`'s state. NEPrev goes on the wire as its count and then its
/// ids, ascending — the mask's bit order.
template <typename Sink>
void write_cell(Sink& out, CellId self, const CellState& c) {
  out.boolean(c.failed);
  out.u64(encode_dist(c.dist));
  write_opt_cell(out, c.next);
  write_opt_cell(out, c.token);
  write_opt_cell(out, c.signal);
  out.u8(static_cast<std::uint8_t>(neighbor_count(c.ne_prev)));
  for (const CellId id : neighbors_in(self, c.ne_prev)) write_cell_id(out, id);
  out.u64(static_cast<std::uint64_t>(c.members.size()));
  for (const Entity& e : c.members) write_entity(out, e);
}

template <typename Sink>
void write_payload(Sink& out, const Payload& p) {
  out.u8(static_cast<std::uint8_t>(p.index()));
  switch (payload_type_of(p)) {
    case PayloadType::kDist:
      out.u64(encode_dist(std::get<DistAnnounce>(p).dist));
      return;
    case PayloadType::kIntent: {
      const auto& intent = std::get<IntentAnnounce>(p);
      write_opt_cell(out, intent.next);
      out.boolean(intent.has_entities);
      return;
    }
    case PayloadType::kGrant: {
      const auto& grant = std::get<GrantAnnounce>(p);
      write_opt_cell(out, grant.signal);
      out.u64(grant.seq);
      out.u64(grant.round);
      return;
    }
    case PayloadType::kTransfer: {
      const auto& batch = std::get<TransferBatch>(p);
      out.u64(batch.seq);
      out.u64(static_cast<std::uint64_t>(batch.entities.size()));
      for (const Entity& e : batch.entities) write_entity(out, e);
      return;
    }
    case PayloadType::kAck:
      out.u64(std::get<TransferAck>(p).seq);
      return;
  }
}

/// One link of a message process: both halves of its session.
template <typename Sink>
void write_link(Sink& out, const OutboundLink& ob, const InboundLink& ib) {
  out.u64(ob.heard_seq);
  out.u64(ob.batch_seq);
  out.u64(static_cast<std::uint64_t>(ob.batch.size()));
  for (const Entity& e : ob.batch) write_entity(out, e);
  out.u64(ib.granted_seq);
  out.u64(ib.completed_seq);
}

/// The round/arrival/entity-id counters: the header's, and the start of
/// every digest.
template <typename Sink, typename Engine>
void write_counters(Sink& out, const Engine& e) {
  out.u64(e.round());
  out.u64(e.total_arrivals());
  out.u64(e.total_injected());
}

// ---- decoders ----------------------------------------------------------

CellId read_cell_id(Reader& r, const Grid& grid) {
  const std::int32_t i = r.i32();
  const std::int32_t j = r.i32();
  const CellId id{i, j};
  if (!grid.contains(id)) fail(Errc::kMalformed, "cell id off the grid");
  return id;
}

OptCellId read_opt_cell(Reader& r, const Grid& grid) {
  if (!r.boolean()) return std::nullopt;
  return read_cell_id(r, grid);
}

Entity read_entity(Reader& r) {
  const std::uint64_t id = r.u64();
  const double x = r.f64();
  const double y = r.f64();
  return Entity{EntityId{id}, Vec2{x, y}};
}

/// Cell `self`'s state. NEPrev must list lattice neighbors of `self`,
/// strictly ascending — the only lists write_cell emits.
CellState read_cell(Reader& r, const Grid& grid, CellId self) {
  CellState c;
  c.failed = r.boolean();
  c.dist = decode_dist(r.u64());
  c.next = read_opt_cell(r, grid);
  c.token = read_opt_cell(r, grid);
  c.signal = read_opt_cell(r, grid);
  const std::uint8_t nne = r.u8();
  if (nne > ascending_neighbors(self).size()) {
    fail(Errc::kMalformed, "NEPrev beyond the lattice degree");
  }
  for (std::uint8_t n = 0; n < nne; ++n) {
    const NeighborMask bit = neighbor_bit(self, read_cell_id(r, grid));
    if (bit == 0) fail(Errc::kMalformed, "NEPrev id is not a lattice neighbor");
    // Bits run in ascending id order, so a bit at or below one already
    // set is a repeated id or a descending pair.
    if (bit <= c.ne_prev) {
      fail(Errc::kMalformed, "NEPrev ids not strictly ascending");
    }
    c.ne_prev |= bit;
  }
  const std::uint64_t nm = r.count(kEntityBytes);
  c.members.reserve(static_cast<std::size_t>(nm));
  for (std::uint64_t n = 0; n < nm; ++n) c.members.push_back(read_entity(r));
  return c;
}

/// The cells section: one cell per grid cell, in index order.
std::vector<CellState> read_cells(Reader& r, const Grid& grid) {
  const std::uint64_t n = r.count(kCellBytes);
  if (n != grid.cell_count()) {
    fail(Errc::kMalformed, "cell count does not match the grid");
  }
  std::vector<CellState> cells;
  cells.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t k = 0; k < n; ++k) {
    cells.push_back(read_cell(r, grid, grid.id_of(static_cast<std::size_t>(k))));
  }
  return cells;
}

std::vector<std::uint64_t> read_words(Reader& r) {
  const std::uint64_t n = r.count(8);
  std::vector<std::uint64_t> words(static_cast<std::size_t>(n));
  for (auto& word : words) word = r.u64();
  return words;
}

Payload read_payload(Reader& r, const Grid& grid) {
  const std::uint8_t type = r.u8();
  switch (type) {
    case 0:
      return DistAnnounce{decode_dist(r.u64())};
    case 1: {
      IntentAnnounce intent;
      intent.next = read_opt_cell(r, grid);
      intent.has_entities = r.boolean();
      return intent;
    }
    case 2: {
      GrantAnnounce grant;
      grant.signal = read_opt_cell(r, grid);
      grant.seq = r.u64();
      grant.round = r.u64();
      return grant;
    }
    case 3: {
      TransferBatch batch;
      batch.seq = r.u64();
      const std::uint64_t n = r.count(kEntityBytes);
      batch.entities.reserve(static_cast<std::size_t>(n));
      for (std::uint64_t k = 0; k < n; ++k)
        batch.entities.push_back(read_entity(r));
      return batch;
    }
    case 4:
      return TransferAck{r.u64()};
    default:
      fail(Errc::kMalformed, "payload type byte");
  }
}

// ---- sections every realization shares ----------------------------------

/// The engine configuration a snapshot echoes, and a restore checks.
struct ConfigEcho {
  int side;
  const Params& params;
  CellId target;
  std::span<const CellId> sources;
  std::uint8_t signal_rule;
  std::uint8_t movement_rule;
};

ConfigEcho echo_of(const SystemConfig& cfg) {
  return {cfg.side, cfg.params, cfg.target, cfg.sources,
          static_cast<std::uint8_t>(cfg.signal_rule),
          static_cast<std::uint8_t>(cfg.movement_rule)};
}

ConfigEcho echo_of(const MsgSystemConfig& cfg) {
  return {cfg.side, cfg.params, cfg.target, cfg.sources, 0, 0};
}

/// Opens a snapshot with its header and config-echo sections.
template <typename Engine>
Writer begin_snapshot(std::uint8_t kind, const Engine& e,
                      const ConfigEcho& cfg) {
  Writer w(kSnapMagic, kSnapVersion);
  w.begin_section(kTagHeader);
  w.u8(kind);
  write_counters(w, e);
  w.end_section();

  w.begin_section(kTagConfig);
  w.u32(static_cast<std::uint32_t>(cfg.side));
  w.f64(cfg.params.entity_length());
  w.f64(cfg.params.safety_gap());
  w.f64(cfg.params.velocity());
  write_cell_id(w, cfg.target);
  w.u8(cfg.signal_rule);
  w.u8(cfg.movement_rule);
  w.u32(static_cast<std::uint32_t>(cfg.sources.size()));
  for (const CellId s : cfg.sources) write_cell_id(w, s);
  w.end_section();
  return w;
}

/// Reads the config echo and compares against the restore target; any
/// difference means the caller built a non-equivalent engine.
void check_config(Reader& r, const ConfigEcho& cfg) {
  if (r.u32() != static_cast<std::uint32_t>(cfg.side)) {
    fail(Errc::kConfigMismatch, "grid side");
  }
  if (r.f64() != cfg.params.entity_length()) {
    fail(Errc::kConfigMismatch, "entity length l");
  }
  if (r.f64() != cfg.params.safety_gap()) {
    fail(Errc::kConfigMismatch, "safety gap rs");
  }
  if (r.f64() != cfg.params.velocity()) {
    fail(Errc::kConfigMismatch, "velocity v");
  }
  const std::int32_t ti = r.i32();
  const std::int32_t tj = r.i32();
  if (CellId{ti, tj} != cfg.target) fail(Errc::kConfigMismatch, "target cell");
  const std::uint8_t sig = r.u8();
  const std::uint8_t mov = r.u8();
  if (sig > 1 || mov > 1) fail(Errc::kMalformed, "protocol rule byte");
  if (sig != cfg.signal_rule) fail(Errc::kConfigMismatch, "signal rule");
  if (mov != cfg.movement_rule) fail(Errc::kConfigMismatch, "movement rule");
  const std::uint32_t nsources = r.u32();
  if (nsources != cfg.sources.size()) {
    fail(Errc::kConfigMismatch, "source set");
  }
  for (std::uint32_t k = 0; k < nsources; ++k) {
    const std::int32_t si = r.i32();
    const std::int32_t sj = r.i32();
    if (CellId{si, sj} != cfg.sources[k]) {
      fail(Errc::kConfigMismatch, "source set");
    }
  }
}

/// One policy's mutable state words as section `tag`.
template <typename Policy>
void write_state_section(Writer& w, std::uint32_t tag, const Policy& policy) {
  std::vector<std::uint64_t> words;
  policy.encode_state(words);
  w.begin_section(tag);
  w.u64(static_cast<std::uint64_t>(words.size()));
  for (const std::uint64_t word : words) w.u64(word);
  w.end_section();
}

/// The choose, source and optional failure-model sections of the
/// shared-variable realizations.
template <class Failures>
void write_policies(Writer& w, const ChoosePolicy& choose,
                    const SourcePolicy& source, const Failures* failures) {
  write_state_section(w, kTagChoose, choose);
  write_state_section(w, kTagSource, source);
  if (failures != nullptr) write_state_section(w, kTagFailure, *failures);
}

struct Header {
  std::uint8_t kind = 0;
  std::uint64_t round = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t next_entity_id = 0;
};

Header read_header(Reader& r) {
  Header h;
  h.kind = r.u8();
  if (h.kind > kKindChunked) fail(Errc::kMalformed, "realization kind byte");
  h.round = r.u64();
  h.arrivals = r.u64();
  h.next_entity_id = r.u64();
  return h;
}

/// What a realization's snapshots hold: the header's kind byte, the
/// sections it must carry, and the optional section that carries its
/// environment (the failure model, or the message engine's env rng).
/// It writes no other tag.
struct Realization {
  std::uint8_t kind;
  std::uint32_t required;
  std::uint32_t env_tag;
  const char* missing;  ///< the kMissingSection message
};

constexpr std::uint32_t bit(std::uint32_t tag) { return 1u << tag; }

constexpr std::uint32_t kFrame = bit(kTagHeader) | bit(kTagConfig);
constexpr std::uint32_t kPolicies = bit(kTagChoose) | bit(kTagSource);

constexpr Realization kShared{
    kKindShared, kFrame | bit(kTagCells) | kPolicies, kTagFailure,
    "shared snapshot needs header, config, cells, choose, source"};
constexpr Realization kChunked{
    kKindChunked, kFrame | kPolicies | bit(kTagChunks), kTagFailure,
    "chunked snapshot needs header, config, choose, source, chunks"};
constexpr Realization kMessage{
    kKindMessage,
    kFrame | bit(kTagCells) | bit(kTagLinks) | bit(kTagMsgCounters) |
        bit(kTagNetwork),
    kTagEnvRng,
    "message snapshot needs header, config, cells, links, counters, "
    "network"};

/// The sections the walk decodes for every realization.
struct Common {
  Header header;
  std::vector<std::uint64_t> choose;
  std::vector<std::uint64_t> source;
  std::vector<std::uint64_t> failure;
  std::array<std::uint64_t, 4> env_rng{};
};

/// The one section walk of every restore. It decodes the shared sections
/// itself, hands the realization's own tags to `own(reader, tag)`, and
/// rejects a tag the realization never writes before reading a byte of
/// it. After the stream come the required-section, kind and
/// environment-presence checks, in that order. Mutates no engine: the
/// caller commits once this returns.
template <typename OwnSection>
Common read_snapshot(std::span<const std::uint8_t> bytes,
                     const Realization& re, const ConfigEcho& cfg,
                     bool env_supplied, OwnSection&& own) {
  Reader r(bytes, kSnapMagic, kSnapVersion, kMinTag, kMaxTag);
  Common c;
  std::uint32_t seen = 0;
  while (const auto tag = r.next_section()) {
    if (((re.required | bit(re.env_tag)) & bit(*tag)) == 0) {
      // Well-formed bytes of another realization's section.
      fail(Errc::kConfigMismatch, kForeign);
    }
    switch (*tag) {
      case kTagHeader: c.header = read_header(r); break;
      case kTagConfig: check_config(r, cfg); break;
      case kTagChoose: c.choose = read_words(r); break;
      case kTagSource: c.source = read_words(r); break;
      case kTagFailure: c.failure = read_words(r); break;
      case kTagEnvRng:
        for (auto& word : c.env_rng) word = r.u64();
        break;
      default: own(r, *tag);
    }
    seen |= bit(*tag);
    r.close_section();
  }
  if ((seen & re.required) != re.required) {
    fail(Errc::kMissingSection, re.missing);
  }
  if (c.header.kind != re.kind) fail(Errc::kConfigMismatch, kForeign);
  const bool have_env = (seen & bit(re.env_tag)) != 0;
  if (have_env == env_supplied) return c;
  if (re.env_tag == kTagFailure) {
    fail(Errc::kConfigMismatch,
         have_env ? "snapshot carries failure-model state but none was "
                    "supplied"
                  : "failure model supplied but snapshot carries no "
                    "failure-model state");
  }
  fail(Errc::kConfigMismatch,
       have_env ? "snapshot carries an environment rng but none was "
                  "supplied"
                : "environment rng supplied but snapshot carries none");
}

/// Rolls a policy back to previously captured words on a failed restore
/// (decode_state with the right count always succeeds, so this cannot
/// itself fail).
template <typename Policy>
void roll_back(Policy& policy, std::span<const std::uint64_t> old_words) {
  const bool ok = policy.decode_state(old_words);
  CF_CHECK_MSG(ok, "policy rollback failed");
}

/// Commit point of the shared-variable restores. Policies decode in
/// order, with rollback, so a mismatch in a later policy leaves the
/// earlier ones untouched; the engine state is swapped in after this
/// returns and cannot fail.
template <class Failures>
void commit_policies(ChoosePolicy& choose, SourcePolicy& source,
                     Failures* failures, const Common& c) {
  std::vector<std::uint64_t> old_choose;
  choose.encode_state(old_choose);
  if (!choose.decode_state(c.choose)) {
    fail(Errc::kConfigMismatch, "choose-policy state words");
  }
  std::vector<std::uint64_t> old_source;
  source.encode_state(old_source);
  if (!source.decode_state(c.source)) {
    roll_back(choose, old_choose);
    fail(Errc::kConfigMismatch, "source-policy state words");
  }
  if (failures != nullptr && !failures->decode_state(c.failure)) {
    roll_back(choose, old_choose);
    roll_back(source, old_source);
    fail(Errc::kConfigMismatch, "failure-model state words");
  }
}

}  // namespace

/// The one sanctioned backdoor into the engines' private state
/// (befriended by System, ChunkedSystem, MessageSystem, NetworkModel,
/// FaultyNetwork). Each realization contributes its own sections and its
/// final swap; the walk and the commit above are shared.
struct Access {
  template <typename Engine>
  static void commit_header(Engine& e, const Header& h) {
    e.round_ = h.round;
    e.total_arrivals_ = h.arrivals;
    e.next_entity_id_ = h.next_entity_id;
  }

  // ---- shared-variable System ---------------------------------------

  static std::vector<std::uint8_t> save_system(const System& sys,
                                               const FailureModel* failures) {
    Writer w = begin_snapshot(kKindShared, sys, echo_of(sys.config()));
    w.begin_section(kTagCells);
    w.u64(static_cast<std::uint64_t>(sys.cells().size()));
    sys.for_each_cell(
        [&](CellId id, const CellState& c) { write_cell(w, id, c); });
    w.end_section();
    write_policies(w, *sys.choose_, *sys.source_, failures);
    return w.finish();
  }

  static void restore_system(System& sys, std::span<const std::uint8_t> bytes,
                             FailureModel* failures) {
    std::vector<CellState> cells;
    const Common c = read_snapshot(
        bytes, kShared, echo_of(sys.config()), failures != nullptr,
        [&](Reader& r, std::uint32_t) { cells = read_cells(r, sys.grid()); });
    commit_policies(*sys.choose_, *sys.source_, failures, c);

    sys.cells_ = std::move(cells);
    commit_header(sys, c.header);
    sys.events_.clear();
    // Every derived structure — active sets, occupancy refcounts, dist
    // snapshot — is re-derived from the restored protocol state; valid
    // at any round boundary (same guarantee set_round_scheduler relies
    // on).
    sys.rebuild_active_sets();
  }

  // ---- chunk::ChunkedSystem ------------------------------------------

  static std::vector<std::uint8_t> save_chunked(
      const chunk::ChunkedSystem& sys,
      const BasicFailureModel<chunk::ChunkedSystem>* failures) {
    Writer w = begin_snapshot(kKindChunked, sys, echo_of(sys.config()));
    write_policies(w, *sys.choose_, *sys.source_, failures);

    // Only materialized chunks go on the wire, ascending by chunk index:
    // live chunks as full cells, parked chunks as their summaries. Virgin
    // chunks are absent — their state is the initial state by definition.
    const chunk::ChunkedCellStore& store = sys.store();
    w.begin_section(kTagChunks);
    w.u64(static_cast<std::uint64_t>(store.live_count() +
                                     store.parked_count()));
    for (std::size_t q = 0; q < store.chunk_count(); ++q) {
      switch (store.state(q)) {
        case chunk::ChunkedCellStore::State::kVirgin:
          break;
        case chunk::ChunkedCellStore::State::kLive: {
          w.u32(static_cast<std::uint32_t>(q));
          w.u8(kChunkLive);
          const std::vector<CellState>& cells = store.live(q).cells;
          for (std::size_t slot = 0; slot < cells.size(); ++slot)
            write_cell(w, sys.layout_.cell_at(q, slot), cells[slot]);
          break;
        }
        case chunk::ChunkedCellStore::State::kParked: {
          w.u32(static_cast<std::uint32_t>(q));
          w.u8(kChunkParked);
          const chunk::ParkedChunk& p = store.parked(q);
          for (std::size_t slot = 0; slot < p.meta.size(); ++slot) {
            w.u8(p.meta[slot]);
            w.u32(p.dist[slot]);
          }
          break;
        }
      }
    }
    w.end_section();
    return w.finish();
  }

  struct MatChunk {
    std::uint32_t q = 0;
    std::uint8_t state = 0;
    std::vector<CellState> cells;       // kChunkLive
    std::vector<std::uint8_t> meta;     // kChunkParked
    std::vector<std::uint32_t> dist;    // kChunkParked
  };

  static std::vector<MatChunk> read_chunks(Reader& r, const Grid& grid,
                                           const chunk::ChunkLayout& layout) {
    // 5 bytes of header (index + state) per chunk at minimum.
    const std::uint64_t n = r.count(5);
    if (n > layout.chunk_count()) {
      fail(Errc::kMalformed, "more chunks than the grid holds");
    }
    std::vector<MatChunk> chunks;
    chunks.reserve(static_cast<std::size_t>(n));
    std::int64_t prev = -1;
    for (std::uint64_t k = 0; k < n; ++k) {
      MatChunk mc;
      mc.q = r.u32();
      if (mc.q >= layout.chunk_count()) {
        fail(Errc::kMalformed, "chunk index off the grid");
      }
      if (static_cast<std::int64_t>(mc.q) <= prev) {
        fail(Errc::kMalformed, "chunk indices not strictly ascending");
      }
      prev = static_cast<std::int64_t>(mc.q);
      mc.state = r.u8();
      const std::size_t cells_n = layout.cells_in(mc.q);
      if (mc.state == kChunkLive) {
        mc.cells.reserve(cells_n);
        for (std::size_t slot = 0; slot < cells_n; ++slot) {
          mc.cells.push_back(read_cell(r, grid, layout.cell_at(mc.q, slot)));
        }
      } else if (mc.state == kChunkParked) {
        mc.meta.resize(cells_n);
        mc.dist.resize(cells_n);
        for (std::size_t slot = 0; slot < cells_n; ++slot) {
          const std::uint8_t meta = r.u8();
          // Low 3 bits: next direction (0–3) or 4 = ⊥; bit 7: failed;
          // everything else must be zero.
          const std::uint8_t dir = meta & 0x07;
          if (dir > chunk::ParkedChunk::kNoDir || (meta & 0x78) != 0) {
            fail(Errc::kMalformed, "parked cell meta byte");
          }
          if (dir < chunk::ParkedChunk::kNoDir) {
            // The encoded next pointer must be a cell of the grid.
            const CellId id = layout.cell_at(mc.q, slot);
            const auto [di, dj] = step_of(kAllDirections[dir]);
            if (!grid.contains(CellId{id.i + di, id.j + dj})) {
              fail(Errc::kMalformed, "parked next pointer off the grid");
            }
          }
          mc.meta[slot] = meta;
          mc.dist[slot] = r.u32();
        }
      } else {
        fail(Errc::kMalformed, "chunk state byte");
      }
      chunks.push_back(std::move(mc));
    }
    return chunks;
  }

  static void restore_chunked(
      chunk::ChunkedSystem& sys, std::span<const std::uint8_t> bytes,
      BasicFailureModel<chunk::ChunkedSystem>* failures) {
    const chunk::ChunkLayout& layout = sys.layout_;
    std::vector<MatChunk> chunks;
    const Common c = read_snapshot(
        bytes, kChunked, echo_of(sys.config()), failures != nullptr,
        [&](Reader& r, std::uint32_t) {
          chunks = read_chunks(r, sys.grid(), layout);
        });
    commit_policies(*sys.choose_, *sys.source_, failures, c);

    // The store is rebuilt into a temporary and swapped in whole.
    chunk::ChunkedCellStore store(sys.config().side, sys.config().target);
    for (MatChunk& mc : chunks) {
      chunk::LiveChunk& lc = store.ensure_live(mc.q);
      if (mc.state == kChunkLive) {
        for (std::size_t slot = 0; slot < mc.cells.size(); ++slot) {
          lc.cells[slot] = std::move(mc.cells[slot]);
        }
      } else {
        // Reconstruct the cells from the summary, then park again: the
        // restored store holds the identical ParkedChunk, and the
        // validation above guarantees park()'s encodability
        // preconditions.
        for (std::size_t slot = 0; slot < mc.meta.size(); ++slot) {
          CellState& cell = lc.cells[slot];
          cell.dist = mc.dist[slot] == chunk::ParkedChunk::kInfDist32
                          ? Dist::infinity()
                          : Dist::finite(mc.dist[slot]);
          cell.failed =
              (mc.meta[slot] & chunk::ParkedChunk::kFailedBit) != 0;
          const std::uint8_t dir = mc.meta[slot] & 0x07;
          if (dir < chunk::ParkedChunk::kNoDir) {
            const CellId id = layout.cell_at(mc.q, slot);
            const auto [di, dj] = step_of(kAllDirections[dir]);
            cell.next = CellId{id.i + di, id.j + dj};
          }
        }
        store.park(mc.q);
      }
    }
    // The engine's pinned chunks (target + sources) are live by invariant;
    // enforce it on whatever the snapshot said.
    store.ensure_live(layout.chunk_of(sys.config().target));
    for (const CellId s : sys.config().sources) {
      store.ensure_live(layout.chunk_of(s));
    }

    sys.store_ = std::move(store);
    commit_header(sys, c.header);
    sys.events_.clear();
    sys.rebuild_active_sets();
  }

  static std::uint64_t digest_chunked(const chunk::ChunkedSystem& sys) {
    // The dense digest over the same row-major cell order — non-live
    // cells contribute their (provable) rest state, so a ChunkedSystem
    // and a System in the same protocol state collide.
    DigestAccumulator d;
    write_counters(d, sys);
    const chunk::ChunkedCellStore& store = sys.store();
    const chunk::ChunkLayout& layout = sys.layout_;
    for (const CellId id : sys.grid().all_cells()) {
      const std::size_t q = layout.chunk_of(id);
      const std::size_t slot = layout.slot_of(id);
      if (store.is_live(q)) {
        write_cell(d, id, store.live(q).cells[slot]);
      } else {
        write_cell(d, id, store.rest_cell(q, slot));
      }
    }
    return d.value();
  }

  // ---- MessageSystem -------------------------------------------------

  struct NetState {
    std::uint8_t kind = 0;
    std::uint64_t round = 0;
    std::uint64_t total_messages = 0;
    std::uint64_t last_exchange = 0;
    std::uint64_t barriers = 0;
    std::array<std::uint64_t, kPayloadTypeCount> sent{};
    std::array<std::array<std::uint64_t, kPayloadTypeCount>, kNetFaultCount>
        faults{};
    std::array<std::uint64_t, 4> rng{};
    std::vector<FaultyNetwork::Delayed> delayed;
  };

  /// The realization-level counters.
  template <typename Sink>
  static void write_msg_counters(Sink& out, const MessageSystem& msg) {
    out.u64(msg.last_round_messages_);
    out.u64(msg.expired_grants_);
    out.u64(msg.deferred_acceptances_);
  }

  /// The transport counters any NetworkModel keeps.
  template <typename Sink>
  static void write_transport(Sink& out, const NetworkModel& net) {
    out.u64(net.total_messages_);
    out.u64(net.last_exchange_);
    out.u64(net.barriers_);
    for (const std::uint64_t c : net.sent_counts_) out.u64(c);
    for (const auto& row : net.fault_counts_) {
      for (const std::uint64_t c : row) out.u64(c);
    }
  }

  /// A FaultyNetwork's private schedule: its fault stream and its
  /// delayed-message queue.
  template <typename Sink>
  static void write_fault_schedule(Sink& out, const FaultyNetwork& net) {
    for (const std::uint64_t word : net.rng_.state()) out.u64(word);
    out.u64(static_cast<std::uint64_t>(net.delayed_.size()));
    for (const FaultyNetwork::Delayed& d : net.delayed_) {
      out.u64(d.release_barrier);
      write_cell_id(out, d.message.sender);
      write_cell_id(out, d.message.receiver);
      write_payload(out, d.message.payload);
    }
  }

  static void write_network(Writer& w, const NetworkModel& net) {
    // Snapshots are round-boundary-only: every round runs all of its
    // exchanges within update(), so the barrier count is a whole number
    // of rounds here.
    CF_EXPECTS_MSG(net.barriers_ % kExchangesPerRound == 0,
                   "snapshot taken mid-round (not at a round boundary)");
    const auto* faulty = dynamic_cast<const FaultyNetwork*>(&net);
    w.u8(faulty != nullptr ? std::uint8_t{1} : std::uint8_t{0});
    w.u64(net.round_);
    write_transport(w, net);
    if (faulty == nullptr) return;
    const NetFaultSpec& spec = faulty->spec_;
    w.f64(spec.drop_prob);
    w.f64(spec.dup_prob);
    w.f64(spec.delay_prob);
    w.u64(spec.max_delay_rounds);
    w.u64(spec.last_fault_round);
    w.u32(static_cast<std::uint32_t>(spec.partitions.size()));
    for (const NetPartition& part : spec.partitions) {
      w.u64(part.start_round);
      w.u64(part.end_round);
      const std::vector<CellId> side = part.side.set_cells();
      w.u32(static_cast<std::uint32_t>(part.side.side()));
      w.u64(static_cast<std::uint64_t>(side.size()));
      for (const CellId id : side) write_cell_id(w, id);
    }
    write_fault_schedule(w, *faulty);
  }

  /// Decodes and validates the network section against the restore
  /// target (kind and, for a FaultyNetwork, the full fault spec — the
  /// spec is construction-time config, so it must match rather than be
  /// overwritten). Pure: mutates nothing.
  static NetState read_network(Reader& r, const Grid& grid,
                               const NetworkModel& net) {
    NetState s;
    s.kind = r.u8();
    if (s.kind > 1) fail(Errc::kMalformed, "network kind byte");
    const auto* faulty = dynamic_cast<const FaultyNetwork*>(&net);
    if ((s.kind == 1) != (faulty != nullptr)) {
      fail(Errc::kConfigMismatch, "network kind (sync vs faulty)");
    }
    s.round = r.u64();
    s.total_messages = r.u64();
    s.last_exchange = r.u64();
    s.barriers = r.u64();
    for (auto& c : s.sent) c = r.u64();
    for (auto& row : s.faults) {
      for (auto& c : row) c = r.u64();
    }
    if (faulty == nullptr) return s;
    const NetFaultSpec& spec = faulty->spec_;
    if (r.f64() != spec.drop_prob) {
      fail(Errc::kConfigMismatch, "network drop probability");
    }
    if (r.f64() != spec.dup_prob) {
      fail(Errc::kConfigMismatch, "network duplication probability");
    }
    if (r.f64() != spec.delay_prob) {
      fail(Errc::kConfigMismatch, "network delay probability");
    }
    if (r.u64() != spec.max_delay_rounds) {
      fail(Errc::kConfigMismatch, "network max delay");
    }
    if (r.u64() != spec.last_fault_round) {
      fail(Errc::kConfigMismatch, "network last fault round");
    }
    if (r.u32() != spec.partitions.size()) {
      fail(Errc::kConfigMismatch, "partition schedule");
    }
    for (const NetPartition& part : spec.partitions) {
      if (r.u64() != part.start_round || r.u64() != part.end_round) {
        fail(Errc::kConfigMismatch, "partition schedule");
      }
      if (r.u32() != static_cast<std::uint32_t>(part.side.side())) {
        fail(Errc::kConfigMismatch, "partition mask");
      }
      const std::uint64_t nset = r.count(8);
      CellMask mask(grid);
      for (std::uint64_t k = 0; k < nset; ++k) {
        mask.set(read_cell_id(r, grid));
      }
      if (mask != part.side) fail(Errc::kConfigMismatch, "partition mask");
    }
    for (auto& word : s.rng) word = r.u64();
    const std::uint64_t ndelayed = r.count(kDelayedBytes);
    s.delayed.reserve(static_cast<std::size_t>(ndelayed));
    for (std::uint64_t k = 0; k < ndelayed; ++k) {
      FaultyNetwork::Delayed d;
      d.release_barrier = r.u64();
      d.message.sender = read_cell_id(r, grid);
      d.message.receiver = read_cell_id(r, grid);
      d.message.payload = read_payload(r, grid);
      s.delayed.push_back(std::move(d));
    }
    return s;
  }

  static void apply_network(NetworkModel& net, NetState&& s) {
    net.late_.clear();
    net.round_ = s.round;
    net.total_messages_ = s.total_messages;
    net.last_exchange_ = s.last_exchange;
    net.barriers_ = s.barriers;
    net.sent_counts_ = s.sent;
    net.fault_counts_ = s.faults;
    if (auto* faulty = dynamic_cast<FaultyNetwork*>(&net)) {
      faulty->rng_.set_state(s.rng);
      faulty->delayed_ = std::move(s.delayed);
    }
  }

  static std::vector<std::uint8_t> save_message(const MessageSystem& msg,
                                                const Xoshiro256* env_rng) {
    Writer w = begin_snapshot(kKindMessage, msg, echo_of(msg.config_));
    w.begin_section(kTagCells);
    w.u64(static_cast<std::uint64_t>(msg.cells_.size()));
    for (std::size_t k = 0; k < msg.cells_.size(); ++k)
      write_cell(w, msg.grid_.id_of(k), msg.cells_[k]);
    w.end_section();

    w.begin_section(kTagLinks);
    for (std::size_t k = 0; k < msg.sessions_.size(); ++k) {
      const CellId id = msg.grid_.id_of(k);
      w.u32(static_cast<std::uint32_t>(msg.grid_.degree(id)));
      write_links(w, msg.grid_, id, msg.sessions_[k]);
    }
    w.end_section();

    w.begin_section(kTagMsgCounters);
    write_msg_counters(w, msg);
    w.end_section();

    w.begin_section(kTagNetwork);
    write_network(w, *msg.network_);
    w.end_section();

    if (env_rng != nullptr) {
      w.begin_section(kTagEnvRng);
      for (const std::uint64_t word : env_rng->state()) w.u64(word);
      w.end_section();
    }
    return w.finish();
  }

  /// A process's links on the wire: its lattice directions in
  /// Grid::neighbors order, both halves of each session.
  template <typename Sink>
  static void write_links(Sink& out, const Grid& grid, CellId id,
                          const LinkSessions& p) {
    const std::uint8_t links = lattice_links(grid, id);
    for (const Direction d : kAllDirections) {
      if ((links & direction_bit(d)) == 0) continue;
      const auto at = static_cast<std::size_t>(d);
      write_link(out, p.outbound[at], p.inbound[at]);
    }
  }

  static std::vector<LinkSessions> read_links(Reader& r,
                                              const MessageSystem& msg) {
    std::vector<LinkSessions> links(msg.sessions_.size());
    for (std::size_t k = 0; k < links.size(); ++k) {
      const CellId id = msg.grid_.id_of(k);
      if (r.u32() != static_cast<std::uint32_t>(msg.grid_.degree(id))) {
        fail(Errc::kMalformed, "link slot count mismatch");
      }
      const std::uint8_t lattice = lattice_links(msg.grid_, id);
      for (const Direction d : kAllDirections) {
        if ((lattice & direction_bit(d)) == 0) continue;
        const auto at = static_cast<std::size_t>(d);
        OutboundLink& ob = links[k].outbound[at];
        ob.heard_seq = r.u64();
        ob.batch_seq = r.u64();
        const std::uint64_t nb = r.count(kEntityBytes);
        ob.batch.reserve(static_cast<std::size_t>(nb));
        for (std::uint64_t e = 0; e < nb; ++e) {
          ob.batch.push_back(read_entity(r));
        }
        InboundLink& ib = links[k].inbound[at];
        ib.granted_seq = r.u64();
        ib.completed_seq = r.u64();
      }
    }
    return links;
  }

  static void restore_message(MessageSystem& msg,
                              std::span<const std::uint8_t> bytes,
                              Xoshiro256* env_rng) {
    std::vector<CellState> cells;
    std::vector<LinkSessions> links;
    std::array<std::uint64_t, 3> counters{};
    NetState net;
    const Common c = read_snapshot(
        bytes, kMessage, echo_of(msg.config_), env_rng != nullptr,
        [&](Reader& r, std::uint32_t tag) {
          switch (tag) {
            case kTagCells: cells = read_cells(r, msg.grid_); break;
            case kTagLinks: links = read_links(r, msg); break;
            case kTagMsgCounters:
              for (auto& n : counters) n = r.u64();
              break;
            case kTagNetwork:
              net = read_network(r, msg.grid_, *msg.network_);
              break;
          }
        });

    // Commit point: all validation done, nothing below can throw.
    msg.cells_ = std::move(cells);
    msg.sessions_ = std::move(links);
    msg.retaining_.clear();
    for (std::size_t k = 0; k < msg.sessions_.size(); ++k) {
      const auto& out = msg.sessions_[k].outbound;
      if (std::any_of(out.begin(), out.end(),
                      [](const OutboundLink& ob) { return ob.pending(); }))
        msg.retaining_.push_back(static_cast<std::uint32_t>(k));
    }
    // Per-round views; rebuilt before every use.
    msg.granted_.clear();
    msg.acks_.clear();
    msg.ack_seqs_.clear();
    msg.ack_fresh_.clear();
    commit_header(msg, c.header);
    msg.last_round_messages_ = counters[0];
    msg.expired_grants_ = counters[1];
    msg.deferred_acceptances_ = counters[2];
    apply_network(*msg.network_, std::move(net));
    if (env_rng != nullptr) env_rng->set_state(c.env_rng);
  }

  static std::uint64_t digest_message(const MessageSystem& msg,
                                      bool with_fault_schedule) {
    DigestAccumulator d;
    write_counters(d, msg);
    for (std::size_t k = 0; k < msg.cells_.size(); ++k) {
      const CellId id = msg.grid_.id_of(k);
      write_cell(d, id, msg.cells_[k]);
      write_links(d, msg.grid_, id, msg.sessions_[k]);
    }
    write_msg_counters(d, msg);
    write_transport(d, *msg.network_);
    const auto* faulty = dynamic_cast<const FaultyNetwork*>(msg.network_.get());
    if (with_fault_schedule && faulty != nullptr) {
      write_fault_schedule(d, *faulty);
    }
    return d.value();
  }
};

// ---- public API ------------------------------------------------------

std::vector<std::uint8_t> save(const System& sys,
                               const FailureModel* failures) {
  return Access::save_system(sys, failures);
}

void restore(System& sys, std::span<const std::uint8_t> bytes,
             FailureModel* failures) {
  Access::restore_system(sys, bytes, failures);
}

std::vector<std::uint8_t> save(const MessageSystem& msg,
                               const Xoshiro256* env_rng) {
  return Access::save_message(msg, env_rng);
}

void restore(MessageSystem& msg, std::span<const std::uint8_t> bytes,
             Xoshiro256* env_rng) {
  Access::restore_message(msg, bytes, env_rng);
}

std::uint64_t state_digest(const System& sys) {
  DigestAccumulator d;
  write_counters(d, sys);
  sys.for_each_cell(
      [&](CellId id, const CellState& c) { write_cell(d, id, c); });
  return d.value();
}

std::uint64_t state_digest(const MessageSystem& msg) {
  return Access::digest_message(msg, true);
}

std::uint64_t execution_digest(const MessageSystem& msg) {
  return Access::digest_message(msg, false);
}

std::vector<std::uint8_t> save(
    const chunk::ChunkedSystem& sys,
    const BasicFailureModel<chunk::ChunkedSystem>* failures) {
  return Access::save_chunked(sys, failures);
}

void restore(chunk::ChunkedSystem& sys, std::span<const std::uint8_t> bytes,
             BasicFailureModel<chunk::ChunkedSystem>* failures) {
  Access::restore_chunked(sys, bytes, failures);
}

std::uint64_t state_digest(const chunk::ChunkedSystem& sys) {
  return Access::digest_chunked(sys);
}

void write_file(const std::string& path,
                std::span<const std::uint8_t> bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("snapshot: cannot open " + path);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("snapshot: short write to " + path);
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail(Errc::kTruncated, "cannot open " + path);
  std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                  std::istreambuf_iterator<char>()};
  return bytes;
}

}  // namespace cellflow::snapshot
