// Chunk geometry for the sparse cell store (DESIGN.md §12): the N×N grid
// is covered by fixed-size kChunkSide×kChunkSide tiles, row-major in
// chunk coordinates exactly as cells are row-major in cell coordinates.
// Edge chunks are clipped to the grid (a 100-cell side yields 4×4 chunks,
// the last row/column 4 cells wide), so every cell belongs to exactly one
// chunk and slots within a chunk are dense.
//
// All index arithmetic is done in std::size_t after a single widening of
// the int cell coordinates — at side 4096 a dense cell index reaches
// 16'777'215, far inside size_t but already past what an int product of
// the form j*side may assume on 16-bit int platforms; we never form such
// products in int.
#pragma once

#include <cstddef>
#include <cstdint>

#include "grid/grid.hpp"
#include "util/check.hpp"
#include "util/ids.hpp"

namespace cellflow::chunk {

/// Tile side in cells. 32×32 = 1024 cells per chunk: big enough that the
/// per-chunk bookkeeping amortizes, small enough that the working set of
/// a flow corridor is a thin band of tiles.
inline constexpr int kChunkSide = 32;

/// Geometry of the chunk cover of an N×N grid. Immutable; everything is
/// O(1) arithmetic.
class ChunkLayout {
 public:
  explicit ChunkLayout(int side)
      : side_(side),
        chunks_x_((side + kChunkSide - 1) / kChunkSide) {
    CF_EXPECTS_MSG(side >= 1, "chunk layout needs a positive side");
  }

  [[nodiscard]] int side() const noexcept { return side_; }

  /// Chunks along one axis (= ceil(side / kChunkSide)).
  [[nodiscard]] int chunks_x() const noexcept { return chunks_x_; }

  [[nodiscard]] std::size_t chunk_count() const noexcept {
    return static_cast<std::size_t>(chunks_x_) *
           static_cast<std::size_t>(chunks_x_);
  }

  /// Chunk index of the chunk containing cell `id` (row-major over chunk
  /// coordinates, mirroring Grid::index_of). Precondition: on the grid.
  [[nodiscard]] std::size_t chunk_of(CellId id) const {
    CF_EXPECTS(id.i >= 0 && id.i < side_ && id.j >= 0 && id.j < side_);
    const auto ci = static_cast<std::size_t>(id.i / kChunkSide);
    const auto cj = static_cast<std::size_t>(id.j / kChunkSide);
    return cj * static_cast<std::size_t>(chunks_x_) + ci;
  }

  /// The rectangle of cells a chunk covers (clipped at the grid edge).
  struct Rect {
    int i0 = 0;  ///< west-most cell column
    int j0 = 0;  ///< south-most cell row
    int w = 0;   ///< columns covered (1..kChunkSide)
    int h = 0;   ///< rows covered (1..kChunkSide)
  };

  [[nodiscard]] Rect rect_of(std::size_t q) const {
    CF_EXPECTS(q < chunk_count());
    const auto cx = static_cast<std::size_t>(chunks_x_);
    const int ci = static_cast<int>(q % cx);
    const int cj = static_cast<int>(q / cx);
    Rect r;
    r.i0 = ci * kChunkSide;
    r.j0 = cj * kChunkSide;
    r.w = side_ - r.i0 < kChunkSide ? side_ - r.i0 : kChunkSide;
    r.h = side_ - r.j0 < kChunkSide ? side_ - r.j0 : kChunkSide;
    return r;
  }

  /// Cells covered by chunk `q` (= rect w×h).
  [[nodiscard]] std::size_t cells_in(std::size_t q) const {
    const Rect r = rect_of(q);
    return static_cast<std::size_t>(r.w) * static_cast<std::size_t>(r.h);
  }

  /// Dense slot of a cell within its chunk: row-major over the chunk's
  /// rect, same orientation as the grid (j outer, i inner).
  [[nodiscard]] std::size_t slot_of(CellId id) const {
    const Rect r = rect_of(chunk_of(id));
    return static_cast<std::size_t>(id.j - r.j0) *
               static_cast<std::size_t>(r.w) +
           static_cast<std::size_t>(id.i - r.i0);
  }

  /// Inverse of (chunk_of, slot_of).
  [[nodiscard]] CellId cell_at(std::size_t q, std::size_t slot) const {
    const Rect r = rect_of(q);
    CF_EXPECTS(slot <
               static_cast<std::size_t>(r.w) * static_cast<std::size_t>(r.h));
    return CellId{
        r.i0 + static_cast<std::int32_t>(slot % static_cast<std::size_t>(r.w)),
        r.j0 + static_cast<std::int32_t>(slot / static_cast<std::size_t>(r.w))};
  }

 private:
  int side_;
  int chunks_x_;
};

}  // namespace cellflow::chunk
