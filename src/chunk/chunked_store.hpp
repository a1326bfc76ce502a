// ChunkedCellStore (DESIGN.md §12): the sparse realization of the cell
// store — 32×32 tiles materialized lazily on first touch and *parked*
// (state summarized, cell memory recycled through a freelist) once the
// active-set scheduler's stamps and refcounts prove the whole tile
// quiescent.
//
// A chunk is in exactly one of three states:
//
//   kVirgin — never touched: every cell is in the paper's initial state
//             (dist ∞, pointers ⊥, no members, non-faulty). Zero bytes.
//   kLive   — fully materialized: CellStates plus the per-cell scheduler
//             aux (dist snapshot, route stamps, occupancy bits/refcounts)
//             that System keeps in global arrays.
//   kParked — summarized: per cell only {failed, dist, next-direction}.
//             Everything else is provably at its rest value — an
//             unoccupied cell (refcount 0 at park time) has no members,
//             no token, no signal, no NEPrev. The dist summary is the
//             immutable boundary data neighbor Route reads consult, so
//             routing across a live/parked border is bit-identical to
//             the dense engine.
//
// Parking is a pure storage transition: ChunkedSystem decides *when* (the
// quiescence proof lives there); the store implements the two directions
// losslessly. parkable() is the encodability guard: a cell whose state
// cannot round-trip through the summary (adversarially corrupted finite
// dist beyond 32 bits, or a corrupted failed cell whose `next` is not a
// lattice neighbor) simply keeps its chunk live — deferring parking is
// always correct.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "chunk/chunk_layout.hpp"
#include "core/cell_state.hpp"
#include "util/ids.hpp"

namespace cellflow::obs {
struct StoreStatsSample;  // obs/alloc_stats.hpp
}

namespace cellflow::chunk {

/// Heap bytes owned by one CellState beyond sizeof(CellState): the
/// members vector's buffer (NeighborSet is inline by construction).
[[nodiscard]] inline std::uint64_t cell_heap_bytes(
    const CellState& c) noexcept {
  return static_cast<std::uint64_t>(c.members.capacity()) * sizeof(Entity);
}

/// A materialized tile: the cells plus the per-cell active-set scheduler
/// aux, sliced per chunk (System keeps the same four arrays dense).
struct LiveChunk {
  std::vector<CellState> cells;            ///< slot-indexed (row-major rect)
  std::vector<Dist> dist_snapshot;         ///< previous-round dist per slot
  std::vector<std::uint64_t> route_stamp;  ///< run Route iff >= round
  std::vector<std::uint8_t> occ_b;         ///< B(cell), cached
  std::vector<std::uint8_t> occ_refs;      ///< # occupied in closed nbhd

  // Quiescence bookkeeping, maintained by ChunkedSystem:
  std::uint32_t ref_cells = 0;    ///< # slots with occ_refs > 0
  std::uint64_t max_stamp = 0;    ///< monotone sup of route_stamp writes
  std::uint32_t quiet_rounds = 0; ///< consecutive fully-quiescent rounds

  [[nodiscard]] std::uint64_t resident_bytes() const noexcept;
};

/// A parked tile: the per-cell summary. `dist` uses a u32 encoding
/// (0xFFFFFFFF = ∞; parkable() refuses larger finite values — stabilized
/// distances are bounded by N² ≪ 2³², only adversarial corruption can
/// exceed it). `meta` packs the next-pointer direction in the low 3 bits
/// (kAllDirections order, 4 = ⊥) and `failed` in bit 7.
struct ParkedChunk {
  static constexpr std::uint32_t kInfDist32 = 0xFFFFFFFFu;
  static constexpr std::uint8_t kNoDir = 4;
  static constexpr std::uint8_t kFailedBit = 0x80;

  std::vector<std::uint32_t> dist;
  std::vector<std::uint8_t> meta;

  // Cached compensation terms for the scheduler's skipped-chunk tallies
  // (see ChunkedSystem's phase loops):
  std::uint64_t route_comp = 0;  ///< Σ degree over non-failed non-target cells
  std::uint32_t live_cells = 0;  ///< # non-failed cells

  [[nodiscard]] std::uint64_t resident_bytes() const noexcept;
};

class ChunkedCellStore {
 public:
  enum class State : std::uint8_t { kVirgin = 0, kLive = 1, kParked = 2 };

  /// Lifecycle counters, monotone over the store's lifetime (exported as
  /// Prometheus counters by attachers — see obs/alloc_stats.hpp).
  struct Stats {
    std::uint64_t materialized_total = 0;  ///< virgin → live transitions
    std::uint64_t parked_total = 0;        ///< live → parked transitions
    std::uint64_t unparked_total = 0;      ///< parked → live transitions
  };

  ChunkedCellStore(int side, CellId target);

  [[nodiscard]] const ChunkLayout& layout() const noexcept { return layout_; }
  [[nodiscard]] CellId target() const noexcept { return target_; }

  [[nodiscard]] State state(std::size_t q) const { return slots_[q].state; }
  [[nodiscard]] bool is_live(std::size_t q) const {
    return slots_[q].state == State::kLive;
  }

  [[nodiscard]] LiveChunk& live(std::size_t q) { return *slots_[q].live; }
  [[nodiscard]] const LiveChunk& live(std::size_t q) const {
    return *slots_[q].live;
  }
  [[nodiscard]] const ParkedChunk& parked(std::size_t q) const {
    return *slots_[q].parked;
  }

  /// Materializes a chunk (virgin → live via initial state, parked → live
  /// via the summary). No-op on a live chunk. Returns the live chunk.
  LiveChunk& ensure_live(std::size_t q);

  /// True iff every cell of live chunk `q` round-trips through the parked
  /// summary (see the class comment). Quiescence is the *caller's*
  /// precondition, not checked here.
  [[nodiscard]] bool parkable(std::size_t q) const;

  /// live → parked. Preconditions: is_live(q), parkable(q), and every
  /// cell unoccupied (asserted) — the caller proves quiescence from its
  /// refcounts/stamps before calling.
  void park(std::size_t q);

  /// The dist a neighbor Route read observes for cell `id`, regardless of
  /// its chunk's state (live: the snapshot; parked: the summary; virgin:
  /// the initial value — ∞ except a hypothetical virgin target).
  [[nodiscard]] Dist boundary_dist(CellId id) const;

  /// The full CellState of a *non-live* cell, reconstructed: from the
  /// summary when parked, the initial state when virgin. Everything the
  /// summary does not carry is at its rest value by the parking proof
  /// obligation (token/signal ⊥, ne_prev/members empty). Used by reads
  /// that must not fault the chunk in (ChunkedSystem::cell, the snapshot
  /// digest). Precondition: !is_live(q).
  [[nodiscard]] CellState rest_cell(std::size_t q, std::size_t slot) const;

  /// Live chunk indices, ascending — the shard domain of ChunkedSystem's
  /// phase loops. Rebuilt lazily after any state transition.
  [[nodiscard]] const std::vector<std::uint32_t>& live_order();

  [[nodiscard]] std::size_t live_count() const noexcept { return live_n_; }
  [[nodiscard]] std::size_t parked_count() const noexcept { return parked_n_; }
  [[nodiscard]] std::size_t chunk_count() const noexcept {
    return slots_.size();
  }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Heap footprint actually materialized: live cells + aux, parked
  /// summaries, the freelist's recycled buffers, and the index itself.
  /// This is the store-attributed figure bench/macro_huge_grid gates on.
  [[nodiscard]] std::uint64_t resident_bytes() const noexcept;

  /// Everything obs::StoreStatsPublisher publishes, in one read.
  [[nodiscard]] obs::StoreStatsSample stats_sample() const noexcept;

 private:
  struct Slot {
    State state = State::kVirgin;
    std::unique_ptr<LiveChunk> live;
    std::unique_ptr<ParkedChunk> parked;
  };

  /// Initializes `lc` to cover chunk `q` in the initial (virgin) state.
  void init_virgin(std::size_t q, LiveChunk& lc) const;
  /// Initializes `lc` from the parked summary of chunk `q`.
  void init_from_parked(std::size_t q, LiveChunk& lc) const;

  [[nodiscard]] std::unique_ptr<LiveChunk> take_buffer();
  void recycle_buffer(std::unique_ptr<LiveChunk> lc);

  ChunkLayout layout_;
  CellId target_;
  std::vector<Slot> slots_;
  std::vector<std::unique_ptr<LiveChunk>> freelist_;
  std::vector<std::uint32_t> live_order_;
  bool live_order_dirty_ = true;
  std::size_t live_n_ = 0;
  std::size_t parked_n_ = 0;
  Stats stats_;
};

}  // namespace cellflow::chunk
