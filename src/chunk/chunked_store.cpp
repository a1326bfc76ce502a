#include "chunk/chunked_store.hpp"

#include <algorithm>
#include <utility>

#include "obs/alloc_stats.hpp"
#include "util/check.hpp"

namespace cellflow::chunk {

namespace {

/// Bounded freelist: enough to absorb park/unpark churn at a moving
/// activity frontier without retaining a dead world's worth of buffers.
constexpr std::size_t kFreelistMax = 8;

/// Direction code of `next` relative to `id` in kAllDirections order
/// (E=0, W=1, N=2, S=3), or kNoDir when absent. Returns one past kNoDir
/// when `next` is not a lattice neighbor (not encodable).
std::uint8_t dir_code_of(CellId id, const OptCellId& next) noexcept {
  if (!next.has_value()) return ParkedChunk::kNoDir;
  const int di = next->i - id.i;
  const int dj = next->j - id.j;
  if (di == 1 && dj == 0) return 0;
  if (di == -1 && dj == 0) return 1;
  if (di == 0 && dj == 1) return 2;
  if (di == 0 && dj == -1) return 3;
  return ParkedChunk::kNoDir + 1;
}

OptCellId next_of_dir_code(CellId id, std::uint8_t code) noexcept {
  switch (code) {
    case 0: return CellId{id.i + 1, id.j};
    case 1: return CellId{id.i - 1, id.j};
    case 2: return CellId{id.i, id.j + 1};
    case 3: return CellId{id.i, id.j - 1};
    default: return std::nullopt;
  }
}

std::uint64_t vec_bytes(std::size_t capacity, std::size_t elem) noexcept {
  return static_cast<std::uint64_t>(capacity) *
         static_cast<std::uint64_t>(elem);
}

}  // namespace

std::uint64_t LiveChunk::resident_bytes() const noexcept {
  std::uint64_t b = vec_bytes(cells.capacity(), sizeof(CellState)) +
                    vec_bytes(dist_snapshot.capacity(), sizeof(Dist)) +
                    vec_bytes(route_stamp.capacity(), sizeof(std::uint64_t)) +
                    vec_bytes(occ_b.capacity(), 1) +
                    vec_bytes(occ_refs.capacity(), 1);
  for (const CellState& c : cells) b += cell_heap_bytes(c);
  return b;
}

std::uint64_t ParkedChunk::resident_bytes() const noexcept {
  return vec_bytes(dist.capacity(), sizeof(std::uint32_t)) +
         vec_bytes(meta.capacity(), 1);
}

ChunkedCellStore::ChunkedCellStore(int side, CellId target)
    : layout_(side), target_(target), slots_(layout_.chunk_count()) {}

LiveChunk& ChunkedCellStore::ensure_live(std::size_t q) {
  Slot& s = slots_[q];
  if (s.state == State::kLive) return *s.live;
  std::unique_ptr<LiveChunk> lc = take_buffer();
  if (s.state == State::kVirgin) {
    init_virgin(q, *lc);
    ++stats_.materialized_total;
  } else {
    init_from_parked(q, *lc);
    s.parked.reset();
    --parked_n_;
    ++stats_.unparked_total;
  }
  s.live = std::move(lc);
  s.state = State::kLive;
  ++live_n_;
  live_order_dirty_ = true;
  return *s.live;
}

bool ChunkedCellStore::parkable(std::size_t q) const {
  const Slot& s = slots_[q];
  if (s.state != State::kLive) return false;
  for (std::size_t slot = 0; slot < s.live->cells.size(); ++slot) {
    const CellState& c = s.live->cells[slot];
    if (c.dist.is_finite() &&
        c.dist.hops() >= ParkedChunk::kInfDist32)
      return false;
    const CellId id = layout_.cell_at(q, slot);
    if (dir_code_of(id, c.next) > ParkedChunk::kNoDir) return false;
  }
  return true;
}

void ChunkedCellStore::park(std::size_t q) {
  Slot& s = slots_[q];
  CF_EXPECTS_MSG(s.state == State::kLive, "park() on a non-live chunk");
  LiveChunk& lc = *s.live;
  auto parked = std::make_unique<ParkedChunk>();
  const std::size_t n = lc.cells.size();
  parked->dist.resize(n);
  parked->meta.resize(n);
  for (std::size_t slot = 0; slot < n; ++slot) {
    const CellState& c = lc.cells[slot];
    const CellId id = layout_.cell_at(q, slot);
    // The caller proved quiescence: an unoccupied cell carries no
    // members, token, signal, or NEPrev — nothing else to summarize.
    CF_EXPECTS_MSG(c.members.empty() && !c.token.has_value() &&
                       !c.signal.has_value() && c.ne_prev == 0,
                   "park() on an occupied cell");
    parked->dist[slot] =
        c.dist.is_infinite()
            ? ParkedChunk::kInfDist32
            : static_cast<std::uint32_t>(c.dist.hops());
    const std::uint8_t code = dir_code_of(id, c.next);
    CF_EXPECTS_MSG(code <= ParkedChunk::kNoDir,
                   "park() on a non-encodable next pointer");
    parked->meta[slot] =
        static_cast<std::uint8_t>(code | (c.failed ? ParkedChunk::kFailedBit
                                                   : std::uint8_t{0}));
  }
  recycle_buffer(std::move(s.live));
  s.parked = std::move(parked);
  s.state = State::kParked;
  --live_n_;
  ++parked_n_;
  ++stats_.parked_total;
  live_order_dirty_ = true;
}

Dist ChunkedCellStore::boundary_dist(CellId id) const {
  const std::size_t q = layout_.chunk_of(id);
  const Slot& s = slots_[q];
  switch (s.state) {
    case State::kLive:
      return s.live->dist_snapshot[layout_.slot_of(id)];
    case State::kParked: {
      const std::uint32_t raw = s.parked->dist[layout_.slot_of(id)];
      return raw == ParkedChunk::kInfDist32 ? Dist::infinity()
                                            : Dist::finite(raw);
    }
    case State::kVirgin:
      // The target's chunk is materialized at construction and pinned, so
      // a virgin cell is always at the initial non-target value.
      return id == target_ ? Dist::zero() : Dist::infinity();
  }
  return Dist::infinity();
}

bool ChunkedCellStore::is_failed(CellId id) const {
  const Slot& s = slots_[layout_.chunk_of(id)];
  switch (s.state) {
    case State::kLive:
      return s.live->cells[layout_.slot_of(id)].failed;
    case State::kParked:
      return (s.parked->meta[layout_.slot_of(id)] &
              ParkedChunk::kFailedBit) != 0;
    case State::kVirgin:
      return false;
  }
  return false;
}

CellState ChunkedCellStore::rest_cell(std::size_t q, std::size_t slot) const {
  const Slot& s = slots_[q];
  CF_EXPECTS_MSG(s.state != State::kLive, "rest_cell() on a live chunk");
  CellState c;
  if (s.state == State::kParked) {
    const std::uint32_t raw = s.parked->dist[slot];
    c.dist = raw == ParkedChunk::kInfDist32 ? Dist::infinity()
                                            : Dist::finite(raw);
    const std::uint8_t meta = s.parked->meta[slot];
    c.failed = (meta & ParkedChunk::kFailedBit) != 0;
    c.next = next_of_dir_code(layout_.cell_at(q, slot),
                              static_cast<std::uint8_t>(meta & 0x7));
  } else if (layout_.cell_at(q, slot) == target_) {
    c.dist = Dist::zero();
  }
  return c;
}

const std::vector<std::uint32_t>& ChunkedCellStore::live_order() {
  if (live_order_dirty_) {
    live_order_.clear();
    live_order_.reserve(live_n_);
    for (std::size_t q = 0; q < slots_.size(); ++q)
      if (slots_[q].state == State::kLive)
        live_order_.push_back(static_cast<std::uint32_t>(q));
    live_order_dirty_ = false;
  }
  return live_order_;
}

std::uint64_t ChunkedCellStore::resident_bytes() const noexcept {
  std::uint64_t b = vec_bytes(slots_.capacity(), sizeof(Slot)) +
                    vec_bytes(live_order_.capacity(), sizeof(std::uint32_t)) +
                    vec_bytes(freelist_.capacity(), sizeof(void*));
  for (const Slot& s : slots_) {
    if (s.live) b += sizeof(LiveChunk) + s.live->resident_bytes();
    if (s.parked) b += sizeof(ParkedChunk) + s.parked->resident_bytes();
  }
  for (const auto& lc : freelist_)
    b += sizeof(LiveChunk) + lc->resident_bytes();
  return b;
}

obs::StoreStatsSample ChunkedCellStore::stats_sample() const noexcept {
  obs::StoreStatsSample s;
  s.resident_bytes = resident_bytes();
  s.live_chunks = live_n_;
  s.parked_chunks = parked_n_;
  s.virgin_chunks = slots_.size() - live_n_ - parked_n_;
  s.materialized_total = stats_.materialized_total;
  s.parked_total = stats_.parked_total;
  s.unparked_total = stats_.unparked_total;
  return s;
}

void ChunkedCellStore::init_virgin(std::size_t q, LiveChunk& lc) const {
  const std::size_t n = layout_.cells_in(q);
  lc.cells.clear();
  lc.cells.resize(n);
  lc.dist_snapshot.assign(n, Dist::infinity());
  lc.route_stamp.assign(n, 0);
  lc.occ_b.assign(n, 0);
  lc.occ_refs.assign(n, 0);
  lc.ref_cells = 0;
  lc.max_stamp = 0;
  lc.quiet_rounds = 0;
  if (layout_.chunk_of(target_) == q) {
    // Defensive: the engine materializes and pins the target chunk at
    // construction, so this path is only reachable through direct store
    // use (unit tests) — keep the initial state right regardless.
    const std::size_t slot = layout_.slot_of(target_);
    lc.cells[slot].dist = Dist::zero();
    lc.dist_snapshot[slot] = Dist::zero();
  }
}

void ChunkedCellStore::init_from_parked(std::size_t q, LiveChunk& lc) const {
  const ParkedChunk& p = *slots_[q].parked;
  const std::size_t n = p.dist.size();
  lc.cells.clear();
  lc.cells.resize(n);
  lc.dist_snapshot.resize(n);
  lc.route_stamp.assign(n, 0);
  lc.occ_b.assign(n, 0);
  lc.occ_refs.assign(n, 0);
  lc.ref_cells = 0;
  lc.max_stamp = 0;
  lc.quiet_rounds = 0;
  for (std::size_t slot = 0; slot < n; ++slot) {
    CellState& c = lc.cells[slot];
    const std::uint32_t raw = p.dist[slot];
    c.dist = raw == ParkedChunk::kInfDist32 ? Dist::infinity()
                                            : Dist::finite(raw);
    const std::uint8_t meta = p.meta[slot];
    c.failed = (meta & ParkedChunk::kFailedBit) != 0;
    c.next = next_of_dir_code(layout_.cell_at(q, slot),
                              static_cast<std::uint8_t>(meta & 0x7));
    lc.dist_snapshot[slot] = c.dist;
  }
}

std::unique_ptr<LiveChunk> ChunkedCellStore::take_buffer() {
  if (freelist_.empty()) return std::make_unique<LiveChunk>();
  std::unique_ptr<LiveChunk> lc = std::move(freelist_.back());
  freelist_.pop_back();
  return lc;
}

void ChunkedCellStore::recycle_buffer(std::unique_ptr<LiveChunk> lc) {
  if (freelist_.size() >= kFreelistMax) return;  // drop: actually free
  // Release the per-cell heap now (members buffers of 1024 cells dwarf
  // the chunk's own arrays); keep the arrays' capacity for reuse.
  lc->cells.clear();
  freelist_.push_back(std::move(lc));
}

}  // namespace cellflow::chunk
