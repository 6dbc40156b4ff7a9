#include "src/graph/generators.h"

#include <cmath>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/convergence.h"
#include "src/core/sbp.h"

namespace linbp {
namespace {

std::int64_t Pow(std::int64_t base, int exp) {
  std::int64_t out = 1;
  for (int i = 0; i < exp; ++i) out *= base;
  return out;
}

TEST(KroneckerPowerGraphTest, MatchesFigure6aCounts) {
  // Fig. 6a: graph #g has 3^(g+4) nodes and 4^(g+4) adjacency entries.
  const struct {
    int index;
    std::int64_t nodes;
    std::int64_t entries;
  } expected[] = {
      {1, 243, 1024}, {2, 729, 4096}, {3, 2187, 16384}, {4, 6561, 65536}};
  for (const auto& row : expected) {
    const Graph g =
        KroneckerPowerGraph(KroneckerPowerForPaperIndex(row.index));
    EXPECT_EQ(g.num_nodes(), row.nodes) << "graph #" << row.index;
    EXPECT_EQ(g.num_directed_edges(), row.entries) << "graph #" << row.index;
  }
}

TEST(KroneckerPowerGraphTest, PowerOneIsPathP3) {
  const Graph g = KroneckerPowerGraph(1);
  EXPECT_EQ(g.num_nodes(), 3);
  EXPECT_EQ(g.num_directed_edges(), 4);
  EXPECT_EQ(g.adjacency().At(0, 1), 1.0);
  EXPECT_EQ(g.adjacency().At(1, 2), 1.0);
  EXPECT_EQ(g.adjacency().At(0, 2), 0.0);
}

TEST(KroneckerPowerGraphTest, GeneralSizesFollowPowers) {
  for (int power = 1; power <= 6; ++power) {
    const Graph g = KroneckerPowerGraph(power);
    EXPECT_EQ(g.num_nodes(), Pow(3, power));
    EXPECT_EQ(g.num_directed_edges(), Pow(4, power));
  }
}

TEST(KroneckerPowerGraphTest, AdjacencyIsKroneckerProductOfSeed) {
  // A^(x)2 (u,v) entry = seed(u1,v1) * seed(u0,v0) in base-3 digits.
  const Graph g = KroneckerPowerGraph(2);
  const auto seed = [](std::int64_t a, std::int64_t b) {
    return (a == 1 && b != 1) || (b == 1 && a != 1) ? 1.0 : 0.0;
  };
  for (std::int64_t u = 0; u < 9; ++u) {
    for (std::int64_t v = 0; v < 9; ++v) {
      const double expected =
          seed(u / 3, v / 3) * seed(u % 3, v % 3);
      EXPECT_EQ(g.adjacency().At(u, v), expected) << u << "," << v;
    }
  }
}

TEST(KroneckerPowerGraphTest, SpectralRadiusIsPowerOfSqrt2) {
  // rho(P3) = sqrt(2); Kronecker powers multiply spectral radii.
  const Graph g = KroneckerPowerGraph(5);
  EXPECT_NEAR(AdjacencySpectralRadius(g), std::pow(std::sqrt(2.0), 5), 1e-5);
}

TEST(TorusExampleGraphTest, StructureMatchesExample20) {
  const Graph g = TorusExampleGraph();
  EXPECT_EQ(g.num_nodes(), 8);
  EXPECT_EQ(g.num_undirected_edges(), 8);
  // Outer nodes v1..v4 have degree 1, inner nodes v5..v8 degree 3.
  for (int v = 0; v < 4; ++v) EXPECT_EQ(g.Degree(v), 1) << v;
  for (int v = 4; v < 8; ++v) EXPECT_EQ(g.Degree(v), 3) << v;
  // rho(A) = 1 + sqrt(2) ~ 2.414 (Example 20).
  EXPECT_NEAR(AdjacencySpectralRadius(g), 1.0 + std::sqrt(2.0), 1e-6);
}

TEST(TorusExampleGraphTest, GeodesicStructureOfExample20) {
  const Graph g = TorusExampleGraph();
  // Explicit beliefs at v1, v2, v3 (nodes 0, 1, 2).
  const auto geodesic = GeodesicNumbers(g, {0, 1, 2});
  const std::vector<std::int64_t> expected = {0, 0, 0, 3, 1, 1, 1, 2};
  EXPECT_EQ(geodesic, expected);
}

TEST(Figure5ExampleGraphTest, GeodesicNumbersMatchExample16) {
  const Graph g = Figure5ExampleGraph();
  EXPECT_EQ(g.num_nodes(), 7);
  // Explicit beliefs at v2 and v7 (nodes 1 and 6).
  const auto geodesic = GeodesicNumbers(g, {1, 6});
  const std::vector<std::int64_t> expected = {2, 0, 1, 1, 2, 1, 0};
  EXPECT_EQ(geodesic, expected);
}

TEST(PathGraphTest, Structure) {
  const Graph g = PathGraph(4);
  EXPECT_EQ(g.num_undirected_edges(), 3);
  EXPECT_EQ(g.Degree(0), 1);
  EXPECT_EQ(g.Degree(1), 2);
}

TEST(CycleGraphTest, Structure) {
  const Graph g = CycleGraph(5);
  EXPECT_EQ(g.num_undirected_edges(), 5);
  for (std::int64_t v = 0; v < 5; ++v) EXPECT_EQ(g.Degree(v), 2);
  EXPECT_NEAR(AdjacencySpectralRadius(g), 2.0, 1e-8);
}

TEST(BinaryTreeGraphTest, Structure) {
  const Graph g = BinaryTreeGraph(7);
  EXPECT_EQ(g.num_undirected_edges(), 6);
  EXPECT_EQ(g.Degree(0), 2);   // root
  EXPECT_EQ(g.Degree(1), 3);   // internal
  EXPECT_EQ(g.Degree(6), 1);   // leaf
}

TEST(GridGraphTest, Structure) {
  const Graph g = GridGraph(3, 4);
  EXPECT_EQ(g.num_nodes(), 12);
  // 3*(4-1) horizontal + (3-1)*4 vertical = 9 + 8.
  EXPECT_EQ(g.num_undirected_edges(), 17);
  EXPECT_EQ(g.Degree(0), 2);  // corner
  EXPECT_EQ(g.Degree(5), 4);  // interior
}

TEST(ErdosRenyiGraphTest, EdgeCountAndDeterminism) {
  const Graph g1 = ErdosRenyiGraph(30, 50, /*seed=*/11);
  const Graph g2 = ErdosRenyiGraph(30, 50, /*seed=*/11);
  EXPECT_EQ(g1.num_undirected_edges(), 50);
  const std::vector<Edge> e1 = g1.edges();
  const std::vector<Edge> e2 = g2.edges();
  ASSERT_EQ(e1.size(), e2.size());
  for (std::size_t i = 0; i < e1.size(); ++i) {
    EXPECT_EQ(e1[i].u, e2[i].u);
    EXPECT_EQ(e1[i].v, e2[i].v);
  }
}

TEST(RandomConnectedGraphTest, IsConnected) {
  const Graph g = RandomConnectedGraph(40, 10, /*seed=*/13);
  EXPECT_EQ(g.num_undirected_edges(), 49);
  const auto geodesic = GeodesicNumbers(g, {0});
  for (std::int64_t v = 0; v < g.num_nodes(); ++v) {
    EXPECT_NE(geodesic[v], kUnreachable) << v;
  }
}

TEST(RandomWeightedConnectedGraphTest, WeightsInRange) {
  const Graph g =
      RandomWeightedConnectedGraph(20, 10, 0.5, 2.0, /*seed=*/17);
  for (const Edge& e : g.edges()) {
    EXPECT_GE(e.weight, 0.5);
    EXPECT_LE(e.weight, 2.0);
  }
}

}  // namespace
}  // namespace linbp
