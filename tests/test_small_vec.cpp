// SmallVec (util/small_vec.hpp): the inline-capacity vector the round hot
// path stores NEPrev and its derivatives in. Two layers of pinning:
//
//   * directed tests for the inline→heap boundary (spill exactly at
//     N+1, storage never released on shrink, move semantics on both
//     sides of the boundary);
//   * a randomized differential test driving a SmallVec and a
//     std::vector oracle through the identical operation sequence —
//     push/pop/insert/erase/resize/sort/copy/move — and demanding
//     element-for-element equality after every step;
//   * the protocol-facing pin: NeighborSet holds sorted CellIds and
//     composes with the <algorithm> idioms signal code uses.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "core/cell_state.hpp"
#include "util/rng.hpp"
#include "util/small_vec.hpp"

namespace {

using namespace cellflow;

using SV = SmallVec<int, 4>;

TEST(SmallVec, StartsInlineAndEmpty) {
  const SV v;
  EXPECT_TRUE(v.empty());
  EXPECT_TRUE(v.is_inline());
  EXPECT_EQ(v.capacity(), 4u);
  EXPECT_EQ(SV::inline_capacity(), 4u);
}

TEST(SmallVec, SpillsToHeapExactlyPastInlineCapacity) {
  SV v;
  for (int k = 0; k < 4; ++k) {
    v.push_back(k);
    EXPECT_TRUE(v.is_inline()) << "k=" << k;
  }
  v.push_back(4);  // N+1: must spill
  EXPECT_FALSE(v.is_inline());
  EXPECT_EQ(v.size(), 5u);
  EXPECT_GE(v.capacity(), 5u);
  for (int k = 0; k < 5; ++k) EXPECT_EQ(v[static_cast<std::size_t>(k)], k);
}

TEST(SmallVec, ShrinkNeverReleasesStorage) {
  SV v;
  for (int k = 0; k < 10; ++k) v.push_back(k);
  const std::size_t cap = v.capacity();
  const int* data = v.data();
  v.clear();
  EXPECT_EQ(v.capacity(), cap);
  EXPECT_EQ(v.data(), data);  // still the heap block, ready for reuse
  for (int k = 0; k < 10; ++k) v.push_back(k);
  EXPECT_EQ(v.capacity(), cap);  // refill allocated nothing
}

TEST(SmallVec, MoveStealsHeapButCopiesInline) {
  SV heap;
  for (int k = 0; k < 8; ++k) heap.push_back(k);
  const int* block = heap.data();
  SV stolen = std::move(heap);
  EXPECT_EQ(stolen.data(), block);  // heap block handed over, not copied
  EXPECT_EQ(stolen.size(), 8u);

  SV inl;
  inl.push_back(7);
  SV moved = std::move(inl);
  ASSERT_EQ(moved.size(), 1u);
  EXPECT_EQ(moved[0], 7);
  EXPECT_TRUE(moved.is_inline());
}

TEST(SmallVec, InsertHandlesAliasedElement) {
  SV v = {1, 2, 3};
  v.insert(v.begin(), v[2]);  // inserting an element of v into v
  const SV expect = {3, 1, 2, 3};
  EXPECT_EQ(v, expect);
}

TEST(SmallVec, WorksWithNonTrivialElements) {
  SmallVec<std::string, 2> v;
  v.push_back("alpha");
  v.push_back("beta");
  v.push_back("gamma");  // spill with live std::strings
  v.erase(v.begin() + 1);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], "alpha");
  EXPECT_EQ(v[1], "gamma");
}

// --- randomized differential against std::vector ----------------------

template <typename A, typename B>
void expect_same(const A& got, const B& oracle, std::uint64_t step) {
  ASSERT_EQ(got.size(), oracle.size()) << "step " << step;
  for (std::size_t k = 0; k < oracle.size(); ++k)
    ASSERT_EQ(got[k], oracle[k]) << "step " << step << " index " << k;
}

TEST(SmallVec, DifferentialAgainstVectorOracle) {
  for (const std::uint64_t seed : {11ull, 23ull, 47ull}) {
    Xoshiro256 rng(seed);
    SmallVec<int, 4> sv;
    std::vector<int> oracle;
    for (std::uint64_t step = 0; step < 4000; ++step) {
      const auto op = rng.below(10);
      const int val = static_cast<int>(rng.below(1000));
      switch (op) {
        case 0:
        case 1:
        case 2:  // weighted toward growth so both regimes are exercised
          sv.push_back(val);
          oracle.push_back(val);
          break;
        case 3:
          if (!oracle.empty()) {
            sv.pop_back();
            oracle.pop_back();
          }
          break;
        case 4: {
          const auto at = rng.below(oracle.size() + 1);
          sv.insert(sv.begin() + static_cast<std::ptrdiff_t>(at), val);
          oracle.insert(oracle.begin() + static_cast<std::ptrdiff_t>(at), val);
          break;
        }
        case 5:
          if (!oracle.empty()) {
            const auto at = rng.below(oracle.size());
            sv.erase(sv.begin() + static_cast<std::ptrdiff_t>(at));
            oracle.erase(oracle.begin() + static_cast<std::ptrdiff_t>(at));
          }
          break;
        case 6: {
          const auto n = rng.below(12);
          sv.resize(n);
          oracle.resize(n);
          break;
        }
        case 7:
          std::sort(sv.begin(), sv.end());
          std::sort(oracle.begin(), oracle.end());
          break;
        case 8: {  // copy round-trip
          SmallVec<int, 4> copy(sv);
          sv = copy;
          break;
        }
        case 9: {  // move round-trip (both directions of the boundary)
          SmallVec<int, 4> tmp(std::move(sv));
          sv = std::move(tmp);
          break;
        }
        default: break;
      }
      expect_same(sv, oracle, step);
    }
  }
}

// --- protocol-facing pins ---------------------------------------------

TEST(NeighborSet, LatticeDegreeNeverSpills) {
  // NEPrev holds at most the lattice degree many ids (4 square, 6 hex);
  // inline capacity 8 means the hot path never touches the allocator.
  NeighborSet ne;
  for (int k = 0; k < 6; ++k) ne.push_back(CellId{k, 0});
  EXPECT_TRUE(ne.is_inline());
  static_assert(NeighborSet::inline_capacity() == 8);
}

TEST(NeighborSet, SortedCellIdOrderingMatchesProtocolContract) {
  // Signal's candidate lists are sorted ascending (token_discipline's
  // precondition); the std::sort/std::find idioms must keep working.
  NeighborSet ne = {CellId{2, 1}, CellId{0, 3}, CellId{1, 1}};
  std::sort(ne.begin(), ne.end());
  EXPECT_TRUE(std::is_sorted(ne.begin(), ne.end()));
  EXPECT_EQ(ne.front(), (CellId{0, 3}));
  EXPECT_EQ(ne.back(), (CellId{2, 1}));
  EXPECT_NE(std::find(ne.begin(), ne.end(), CellId{1, 1}), ne.end());
}

TEST(NeighborSet, ConvertsToSpanForChoosePolicies) {
  // ChoosePolicy::choose takes std::span<const CellId>; NeighborSet must
  // convert implicitly (contiguous + sized range).
  const NeighborSet ne = {CellId{0, 0}, CellId{1, 0}};
  const std::span<const CellId> view = ne;
  EXPECT_EQ(view.size(), 2u);
  EXPECT_EQ(view.data(), ne.data());
}

}  // namespace
