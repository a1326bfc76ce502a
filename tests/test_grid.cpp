// Tests for the grid topology substrate.
#include "grid/grid.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/check.hpp"

namespace cellflow {
namespace {

TEST(Direction, StepsAndOpposites) {
  EXPECT_EQ(step_of(Direction::kEast), (std::array<int, 2>{1, 0}));
  EXPECT_EQ(step_of(Direction::kWest), (std::array<int, 2>{-1, 0}));
  EXPECT_EQ(step_of(Direction::kNorth), (std::array<int, 2>{0, 1}));
  EXPECT_EQ(step_of(Direction::kSouth), (std::array<int, 2>{0, -1}));
  for (const Direction d : kAllDirections)
    EXPECT_EQ(opposite(opposite(d)), d);
}

TEST(Direction, Names) {
  EXPECT_STREQ(to_cstring(Direction::kNorth), "north");
  EXPECT_STREQ(to_cstring(Direction::kSouth), "south");
}

TEST(Grid, BasicProperties) {
  const Grid g(8);
  EXPECT_EQ(g.side(), 8);
  EXPECT_EQ(g.cell_count(), 64u);
  EXPECT_TRUE(g.contains(CellId{0, 0}));
  EXPECT_TRUE(g.contains(CellId{7, 7}));
  EXPECT_FALSE(g.contains(CellId{8, 0}));
  EXPECT_FALSE(g.contains(CellId{0, -1}));
}

TEST(Grid, InvalidSideRejected) {
  EXPECT_THROW(Grid(0), ContractViolation);
  EXPECT_THROW(Grid(-3), ContractViolation);
}

TEST(Grid, IndexRoundTrip) {
  const Grid g(5);
  for (std::size_t k = 0; k < g.cell_count(); ++k)
    EXPECT_EQ(g.index_of(g.id_of(k)), k);
  EXPECT_THROW((void)g.index_of(CellId{5, 0}), ContractViolation);
  EXPECT_THROW((void)g.id_of(25), ContractViolation);
}

TEST(Grid, InteriorCellHasFourNeighbors) {
  const Grid g(4);
  const auto nbrs = g.neighbors(CellId{1, 2});
  ASSERT_EQ(nbrs.size(), 4u);
  // kAllDirections order: E, W, N, S.
  EXPECT_EQ(nbrs[0], (CellId{2, 2}));
  EXPECT_EQ(nbrs[1], (CellId{0, 2}));
  EXPECT_EQ(nbrs[2], (CellId{1, 3}));
  EXPECT_EQ(nbrs[3], (CellId{1, 1}));
}

TEST(Grid, CornerCellHasTwoNeighbors) {
  const Grid g(4);
  const auto nbrs = g.neighbors(CellId{0, 0});
  ASSERT_EQ(nbrs.size(), 2u);
  EXPECT_NE(std::find(nbrs.begin(), nbrs.end(), CellId{1, 0}), nbrs.end());
  EXPECT_NE(std::find(nbrs.begin(), nbrs.end(), CellId{0, 1}), nbrs.end());
}

TEST(Grid, EdgeCellHasThreeNeighbors) {
  const Grid g(4);
  EXPECT_EQ(g.neighbors(CellId{2, 0}).size(), 3u);
  EXPECT_EQ(g.neighbors(CellId{0, 2}).size(), 3u);
  EXPECT_EQ(g.neighbors(CellId{3, 1}).size(), 3u);
}

TEST(Grid, NeighborAtBoundaryIsNull) {
  const Grid g(3);
  EXPECT_FALSE(g.neighbor(CellId{0, 0}, Direction::kWest).has_value());
  EXPECT_FALSE(g.neighbor(CellId{0, 0}, Direction::kSouth).has_value());
  EXPECT_FALSE(g.neighbor(CellId{2, 2}, Direction::kEast).has_value());
  EXPECT_FALSE(g.neighbor(CellId{2, 2}, Direction::kNorth).has_value());
  EXPECT_EQ(g.neighbor(CellId{1, 1}, Direction::kEast), OptCellId(CellId{2, 1}));
}

TEST(Grid, AreNeighborsIsManhattanOne) {
  const Grid g(4);
  EXPECT_TRUE(g.are_neighbors(CellId{1, 1}, CellId{1, 2}));
  EXPECT_TRUE(g.are_neighbors(CellId{1, 1}, CellId{0, 1}));
  EXPECT_FALSE(g.are_neighbors(CellId{1, 1}, CellId{2, 2}));  // diagonal
  EXPECT_FALSE(g.are_neighbors(CellId{1, 1}, CellId{1, 1}));  // self
  EXPECT_FALSE(g.are_neighbors(CellId{1, 1}, CellId{1, 3}));  // distance 2
}

TEST(Grid, DirectionBetweenNeighbors) {
  const Grid g(4);
  EXPECT_EQ(g.direction_between(CellId{1, 1}, CellId{2, 1}), Direction::kEast);
  EXPECT_EQ(g.direction_between(CellId{1, 1}, CellId{0, 1}), Direction::kWest);
  EXPECT_EQ(g.direction_between(CellId{1, 1}, CellId{1, 2}), Direction::kNorth);
  EXPECT_EQ(g.direction_between(CellId{1, 1}, CellId{1, 0}), Direction::kSouth);
  EXPECT_THROW((void)g.direction_between(CellId{1, 1}, CellId{3, 3}),
               ContractViolation);
}

TEST(Grid, ManhattanDistance) {
  const Grid g(8);
  EXPECT_EQ(g.manhattan(CellId{1, 0}, CellId{1, 7}), 7);
  EXPECT_EQ(g.manhattan(CellId{0, 0}, CellId{7, 7}), 14);
  EXPECT_EQ(g.manhattan(CellId{3, 3}, CellId{3, 3}), 0);
  EXPECT_EQ(g.manhattan(CellId{7, 2}, CellId{2, 4}), 7);
}

TEST(Grid, DegreeMatchesLattice) {
  const Grid g(64);
  EXPECT_EQ(g.degree(CellId{0, 0}), 2);
  EXPECT_EQ(g.degree(CellId{63, 63}), 2);
  EXPECT_EQ(g.degree(CellId{0, 10}), 3);
  EXPECT_EQ(g.degree(CellId{10, 63}), 3);
  EXPECT_EQ(g.degree(CellId{31, 32}), 4);
  EXPECT_EQ(Grid(1).degree(CellId{0, 0}), 0);
  for (const CellId id : Grid(5).all_cells())
    EXPECT_EQ(static_cast<std::size_t>(Grid(5).degree(id)),
              Grid(5).neighbors(id).size());
}

TEST(Grid, CellRectMatchesUnitSquare) {
  const Grid g(4);
  const Rect r = g.cell_rect(CellId{2, 1});
  EXPECT_DOUBLE_EQ(r.x().lo(), 2.0);
  EXPECT_DOUBLE_EQ(r.y().lo(), 1.0);
  EXPECT_DOUBLE_EQ(r.area(), 1.0);
}

TEST(Grid, AllCellsEnumeratesRowMajor) {
  const Grid g(3);
  const auto all = g.all_cells();
  ASSERT_EQ(all.size(), 9u);
  EXPECT_EQ(all.front(), (CellId{0, 0}));
  EXPECT_EQ(all[1], (CellId{1, 0}));
  EXPECT_EQ(all.back(), (CellId{2, 2}));
}

// Property sweep over grid sizes: neighbor relation is symmetric and the
// neighbor counts total 2·2·N·(N−1) directed pairs.
class GridProperties : public ::testing::TestWithParam<int> {};

TEST_P(GridProperties, NeighborRelationSymmetric) {
  const Grid g(GetParam());
  for (const CellId a : g.all_cells())
    for (const CellId b : g.neighbors(a))
      EXPECT_TRUE(g.are_neighbors(b, a));
}

TEST_P(GridProperties, DirectedNeighborCountFormula) {
  const Grid g(GetParam());
  std::size_t total = 0;
  for (const CellId a : g.all_cells()) total += g.neighbors(a).size();
  const auto n = static_cast<std::size_t>(GetParam());
  EXPECT_EQ(total, 4u * n * (n - 1));
}

TEST_P(GridProperties, NeighborOfInverseOfDirectionBetween) {
  const Grid g(GetParam());
  for (const CellId a : g.all_cells()) {
    for (const CellId b : g.neighbors(a)) {
      const Direction d = g.direction_between(a, b);
      EXPECT_EQ(g.neighbor(a, d), OptCellId(b));
      EXPECT_EQ(g.direction_between(b, a), opposite(d));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sides, GridProperties,
                         ::testing::Values(1, 2, 3, 4, 8, 16));

}  // namespace
}  // namespace cellflow
