// Bulk Route gather: the packed-key argmin behind System::route_span's
// fast path (DESIGN.md §6). route_step (core/route.hpp) stays the
// reference semantics — Figure 4's `min over neighbors of (dist, id),
// plus one` — and every other realization still calls it; this kernel
// reproduces it exactly for the dense 4-neighbor grid so the hot loop
// can process whole interior rows branch-free (and, on x86-64 with
// AVX2, four cells per instruction).
//
// Encoding: a neighbor at *id rank* r (0 = W, 1 = S, 2 = N, 3 = E — the
// CellId ordering of the four lattice positions, which is what makes
// key-min reproduce route_step's (dist, id) tie-break) with raw
// distance d packs to (d << 2) | r. ∞ (raw UINT64_MAX), a missing
// neighbor, and any suspiciously huge finite raw (>= kRouteHugeDist,
// reachable only through corrupt_control_state-style adversarial
// writes — System falls back to route_step when it ever observes one)
// all pack to kRouteKeyNone, so the minimum key over the four
// neighbors is either kRouteKeyNone ("dist stays ∞, next := ⊥") or
// decodes as dist := (key >> 2) + 1, next := neighbor at rank
// (key & 3). All valid keys are < 2^62 and kRouteKeyNone is INT64_MAX,
// so the min is computable with *signed* 64-bit compares — the only
// kind AVX2 has.
#pragma once

#include <cstddef>
#include <cstdint>

namespace cellflow {

/// Key of "no usable neighbor": greater than every finite key, and the
/// largest value the signed-compare min can represent.
inline constexpr std::uint64_t kRouteKeyNone = 0x7fffffffffffffffull;

/// Finite raws at or above this pack to kRouteKeyNone; System pins the
/// legacy route_step path once it has seen one (see huge_dist_seen_).
inline constexpr std::uint64_t kRouteHugeDist = 1ull << 60;

/// Packs one neighbor observation. rank must be < 4.
[[nodiscard]] inline constexpr std::uint64_t route_pack_key(
    std::uint64_t raw, std::uint64_t rank) noexcept {
  return raw >= kRouteHugeDist ? kRouteKeyNone : ((raw << 2) | rank);
}

/// For each of the `n` consecutive *interior* cells k0 .. k0+n-1 (all
/// four lattice neighbors exist, at dense offsets W = -1, S = -side,
/// N = +side, E = +1 per grid/grid.hpp's index_of = j*side + i),
/// writes keys_out[i] = min over the four neighbors of
/// route_pack_key(dist_raw[neighbor], rank). Runtime-dispatches to the
/// AVX2 body when the CPU has it; bit-identical to the scalar body
/// either way.
void route_min_keys_interior(const std::uint64_t* dist_raw, std::size_t k0,
                             std::size_t n, std::size_t side,
                             std::uint64_t* keys_out);

/// True when route_min_keys_interior resolved to the AVX2 body on this
/// machine (observational — benches report it).
[[nodiscard]] bool route_kernel_uses_avx2() noexcept;

namespace detail {
/// Portable reference body; the AVX2 translation unit falls back to it
/// for tails and on non-AVX2 builds.
void route_min_keys_interior_scalar(const std::uint64_t* dist_raw,
                                    std::size_t k0, std::size_t n,
                                    std::size_t side,
                                    std::uint64_t* keys_out);
/// AVX2 body; defined in route_kernel_avx2.cpp (compiled with -mavx2
/// on x86-64), forwards to the scalar body elsewhere. Only called when
/// the running CPU reports AVX2.
void route_min_keys_interior_avx2(const std::uint64_t* dist_raw,
                                  std::size_t k0, std::size_t n,
                                  std::size_t side, std::uint64_t* keys_out);
}  // namespace detail

}  // namespace cellflow
