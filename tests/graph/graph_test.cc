#include "src/graph/graph.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/graph/generators.h"
#include "tests/testing/test_util.h"

namespace linbp {
namespace {

using testing::ExpectSameGraph;
using testing::ExpectVectorNear;

TEST(GraphTest, EmptyGraph) {
  const Graph g;
  EXPECT_EQ(g.num_nodes(), 0);
  EXPECT_EQ(g.num_directed_edges(), 0);
}

TEST(GraphTest, TriangleBasics) {
  const Graph g(3, {{0, 1, 1.0}, {1, 2, 1.0}, {0, 2, 1.0}});
  EXPECT_EQ(g.num_nodes(), 3);
  EXPECT_EQ(g.num_undirected_edges(), 3);
  EXPECT_EQ(g.num_directed_edges(), 6);
  EXPECT_EQ(g.Degree(0), 2);
  EXPECT_TRUE(g.adjacency().IsSymmetric());
}

TEST(GraphTest, IsolatedNodesAllowed) {
  const Graph g(5, {{0, 1, 1.0}});
  EXPECT_EQ(g.Degree(4), 0);
  EXPECT_EQ(g.weighted_degrees()[4], 0.0);
}

TEST(GraphTest, EdgesAreNormalizedLowerFirst) {
  const Graph g(3, {{2, 0, 1.5}});
  ASSERT_EQ(g.edges().size(), 1u);
  EXPECT_EQ(g.edges()[0].u, 0);
  EXPECT_EQ(g.edges()[0].v, 2);
  EXPECT_EQ(g.adjacency().At(0, 2), 1.5);
  EXPECT_EQ(g.adjacency().At(2, 0), 1.5);
}

TEST(GraphTest, WeightedDegreesAreSumsOfSquaredWeights) {
  // Sect. 5.2: d_s = sum of squared weights (echo crosses edges twice).
  const Graph g(3, {{0, 1, 2.0}, {0, 2, 3.0}});
  ExpectVectorNear(g.weighted_degrees(), {13.0, 4.0, 9.0}, 1e-14);
}

TEST(GraphTest, UnweightedDegreesMatchPlainDegrees) {
  const Graph g = RandomConnectedGraph(20, 15, /*seed=*/7);
  for (std::int64_t s = 0; s < g.num_nodes(); ++s) {
    EXPECT_DOUBLE_EQ(g.weighted_degrees()[s],
                     static_cast<double>(g.Degree(s)));
  }
}

TEST(GraphDeathTest, RejectsSelfLoops) {
  EXPECT_DEATH(Graph(2, {{0, 0, 1.0}}), "self-loops");
}

TEST(GraphDeathTest, RejectsDuplicateEdges) {
  EXPECT_DEATH(Graph(3, {{0, 1, 1.0}, {1, 0, 2.0}}), "duplicate");
}

TEST(GraphDeathTest, RejectsOutOfRangeNodes) {
  EXPECT_DEATH(Graph(2, {{0, 5, 1.0}}), "");
}

TEST(ReverseEdgeIndexTest, SingleEdge) {
  const Graph g(2, {{0, 1, 1.0}});
  const auto reverse = ReverseEdgeIndex(g.adjacency());
  ASSERT_EQ(reverse.size(), 2u);
  EXPECT_EQ(reverse[0], 1);
  EXPECT_EQ(reverse[1], 0);
}

class ReverseEdgeIndexRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(ReverseEdgeIndexRandomTest, MirrorsEveryEntry) {
  const Graph g = RandomConnectedGraph(15, 20, GetParam());
  const SparseMatrix& a = g.adjacency();
  const auto reverse = ReverseEdgeIndex(a);
  const auto& row_ptr = a.row_ptr();
  const auto& col_idx = a.col_idx();
  for (std::int64_t s = 0; s < a.rows(); ++s) {
    for (std::int64_t e = row_ptr[s]; e < row_ptr[s + 1]; ++e) {
      const std::int64_t t = col_idx[e];
      const std::int64_t mirror = reverse[e];
      // The mirror entry lives in row t and points back at s.
      EXPECT_GE(mirror, row_ptr[t]);
      EXPECT_LT(mirror, row_ptr[t + 1]);
      EXPECT_EQ(col_idx[mirror], s);
      // reverse is an involution.
      EXPECT_EQ(reverse[mirror], e);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReverseEdgeIndexRandomTest,
                         ::testing::Range(0, 8));

TEST(GraphFromAdjacencyTest, ReconstructsEdgesAndDegrees) {
  const Graph original = RandomWeightedConnectedGraph(60, 80, 0.5, 2.0,
                                                      /*seed=*/21);
  // The same edges in a shuffled order, half of them reversed: the graph
  // is its CSR, so neither the order nor the orientation shows.
  std::vector<Edge> shuffled = original.edges();
  Rng rng(5);
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.NextBounded(i)]);
  }
  for (std::size_t i = 0; i < shuffled.size(); i += 2) {
    std::swap(shuffled[i].u, shuffled[i].v);
  }
  const Graph built(original.num_nodes(), shuffled);
  const Graph rebuilt = Graph::FromAdjacency(built.adjacency());
  EXPECT_EQ(rebuilt.num_nodes(), original.num_nodes());
  EXPECT_EQ(rebuilt.num_undirected_edges(), original.num_undirected_edges());
  ExpectSameGraph(built, original);
  ExpectSameGraph(rebuilt, original);

  // The edge list is the upper triangle, sorted by (u, v) with u < v and
  // carrying the stored weights, whichever way the graph was built.
  const std::vector<Edge> edges = original.edges();
  ASSERT_EQ(static_cast<std::int64_t>(edges.size()),
            original.num_undirected_edges());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    EXPECT_LT(edges[i].u, edges[i].v);
    if (i > 0) {
      EXPECT_LT(std::make_pair(edges[i - 1].u, edges[i - 1].v),
                std::make_pair(edges[i].u, edges[i].v));
    }
    EXPECT_EQ(edges[i].weight,
              original.adjacency().At(edges[i].u, edges[i].v));
  }
  for (const Graph* other : {&built, &rebuilt}) {
    const std::vector<Edge> other_edges = other->edges();
    ASSERT_EQ(other_edges.size(), edges.size());
    for (std::size_t i = 0; i < edges.size(); ++i) {
      EXPECT_EQ(other_edges[i].u, edges[i].u);
      EXPECT_EQ(other_edges[i].v, edges[i].v);
      EXPECT_EQ(other_edges[i].weight, edges[i].weight);
    }
  }
}

TEST(GraphFromAdjacencyTest, ParallelReconstructionIsIdentical) {
  const Graph original = RandomWeightedConnectedGraph(80, 200, 0.5, 2.0,
                                                      /*seed=*/22);
  const Graph serial = Graph::FromAdjacency(original.adjacency(),
                                            exec::ExecContext::Serial());
  const Graph threaded = Graph::FromAdjacency(
      original.adjacency(), exec::ExecContext::WithThreads(4));
  ExpectSameGraph(threaded, serial);
}

TEST(GraphFromAdjacencyDeathTest, RejectsAsymmetryAndSelfLoops) {
  // Asymmetric values.
  EXPECT_DEATH(Graph::FromAdjacency(SparseMatrix::FromTriplets(
                   2, 2, {{0, 1, 1.0}, {1, 0, 2.0}})),
               "not symmetric");
  // Diagonal entry.
  EXPECT_DEATH(Graph::FromAdjacency(SparseMatrix::FromTriplets(
                   2, 2, {{0, 0, 1.0}, {0, 1, 1.0}, {1, 0, 1.0}})),
               "self-loops");
  // Non-square.
  EXPECT_DEATH(Graph::FromAdjacency(SparseMatrix(2, 3)), "square");
}

// A reference for the three edits: the edge list as a (u, v) -> weight
// map with u < v.
using EdgeMap = std::map<std::pair<std::int64_t, std::int64_t>, double>;

std::pair<std::int64_t, std::int64_t> Key(const Edge& e) {
  return {std::min(e.u, e.v), std::max(e.u, e.v)};
}

class EditedGraphTest : public ::testing::TestWithParam<int> {};

// After every batch of a random add / reweight / remove sequence, the
// merged graph's CSR arrays and degrees are memcmp-equal to Graph(n, the
// edited edge list). Weights include 0.0 and -0.0, edits hit rows 0 and
// n - 1 several at a time, and node n - 1 starts isolated and is
// isolated again after round 2.
TEST_P(EditedGraphTest, MergeEqualsGraphOfTheEditedEdgeList) {
  const std::int64_t n = 30;
  const std::int64_t last = n - 1;
  Graph graph(n, RandomWeightedConnectedGraph(n - 1, 25, 0.5, 2.0,
                                              GetParam())
                     .edges());
  EdgeMap reference;
  for (const Edge& e : graph.edges()) reference[Key(e)] = e.weight;
  Rng rng(100 + GetParam());
  const auto weight = [&] {
    switch (rng.NextBounded(4)) {
      case 0:
        return 0.0;
      case 1:
        return -0.0;
      default:
        return 4.0 * rng.NextDouble() - 2.0;
    }
  };
  const auto hot_node = [&] {
    return rng.NextBernoulli(0.5) ? (rng.NextBernoulli(0.5) ? 0 : last)
                                  : rng.NextInt(0, last);
  };

  enum Kind { kAdd, kReweight, kRemove };
  for (int round = 0; round < 24; ++round) {
    SCOPED_TRACE(round);
    const Kind kind = round < 3 ? static_cast<Kind>(round)
                                : static_cast<Kind>(rng.NextBounded(3));
    std::vector<Edge> batch;
    std::set<std::pair<std::int64_t, std::int64_t>> named;  // no repeats
    const auto take = [&](const Edge& e) {
      if (named.insert(Key(e)).second) batch.push_back(e);
    };
    if (round == 0) {
      take({last, 0, -0.0});
      take({1, last, 0.0});
      take({last, 2, 1.25});
    } else if (round == 1) {
      take({0, last, 0.0});
      take({last, 1, -0.0});
      take({2, last, -1.5});
    } else if (round == 2) {
      for (const auto& [key, w] : reference) {
        if (key.second == last) take({key.second, key.first, w});
      }
    }
    const std::int64_t extra = rng.NextInt(1, 6);
    if (kind == kAdd) {
      const std::size_t target = batch.size() + extra;
      for (int attempt = 0; attempt < 1000 && batch.size() < target;
           ++attempt) {
        const Edge e{hot_node(), rng.NextInt(0, last), weight()};
        if (e.u != e.v && reference.count(Key(e)) == 0) take(e);
      }
    } else {
      std::vector<Edge> stored;
      for (const auto& [key, w] : reference) {
        stored.push_back({key.first, key.second, w});
      }
      for (std::int64_t i = 0; i < extra && !stored.empty(); ++i) {
        Edge e = stored[rng.NextBounded(stored.size())];
        if (rng.NextBernoulli(0.5)) std::swap(e.u, e.v);
        e.weight = weight();
        take(e);
      }
    }
    const std::string problem =
        kind == kAdd      ? ValidateNewEdgeBatch(graph, batch)
        : kind == kRemove ? ValidateEdgeRemovalBatch(graph, batch)
                          : ValidateEdgeReweightBatch(graph, batch);
    ASSERT_EQ(problem, "");

    for (const Edge& e : batch) {
      if (kind == kRemove) {
        reference.erase(Key(e));
      } else {
        reference[Key(e)] = e.weight;
      }
    }
    std::vector<Edge> edited_list;
    for (const auto& [key, w] : reference) {
      edited_list.push_back({key.first, key.second, w});
    }
    const Graph edited = EditedGraph(graph, batch, kind == kRemove);
    ExpectSameGraph(edited, Graph(n, edited_list));
    if (round == 2) {
      EXPECT_EQ(edited.Degree(last), 0);
    }
    graph = edited;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EditedGraphTest, ::testing::Range(0, 6));

// A unit-weight graph keeps no value array. Edits switch its form with
// its weights: adds and reweights to 1 and removals keep it unit, a
// weight other than 1 makes it weighted, and removing or reweighting to 1
// the last such weight makes it unit again. Every edited graph is
// memcmp-equal, form included, to Graph(n, edited edge list); a rejected
// batch and the input graph keep the form they had.
TEST(EditedGraphFormTest, UnitGraphSwitchesFormWithItsWeights) {
  const std::int64_t n = 30;
  Graph graph = RandomConnectedGraph(n, 25, /*seed=*/9);
  ASSERT_TRUE(graph.adjacency().unit_weights());
  EdgeMap reference;
  for (const Edge& e : graph.edges()) reference[Key(e)] = e.weight;
  std::vector<Edge> missing;
  for (std::int64_t u = 0; u < n && missing.size() < 2; ++u) {
    for (std::int64_t v = u + 1; v < n && missing.size() < 2; ++v) {
      if (reference.count({u, v}) == 0) missing.push_back({u, v, 1.0});
    }
  }
  ASSERT_EQ(missing.size(), 2u);
  const Edge stored_a{graph.edges()[0].u, graph.edges()[0].v, 1.0};
  const Edge stored_b{graph.edges()[5].v, graph.edges()[5].u, 1.0};

  enum Kind { kAdd, kReweight, kRemove };
  const auto apply = [&](Kind kind, std::vector<Edge> batch, bool unit) {
    const std::string problem =
        kind == kAdd      ? ValidateNewEdgeBatch(graph, batch)
        : kind == kRemove ? ValidateEdgeRemovalBatch(graph, batch)
                          : ValidateEdgeReweightBatch(graph, batch);
    ASSERT_EQ(problem, "");
    for (const Edge& e : batch) {
      if (kind == kRemove) {
        reference.erase(Key(e));
      } else {
        reference[Key(e)] = e.weight;
      }
    }
    std::vector<Edge> edited_list;
    for (const auto& [key, w] : reference) {
      edited_list.push_back({key.first, key.second, w});
    }
    const bool was_unit = graph.adjacency().unit_weights();
    const Graph edited = EditedGraph(graph, batch, kind == kRemove);
    EXPECT_EQ(graph.adjacency().unit_weights(), was_unit);
    EXPECT_EQ(edited.adjacency().unit_weights(), unit);
    EXPECT_EQ(edited.adjacency().values().empty(), unit);
    ExpectSameGraph(edited, Graph(n, edited_list));
    graph = edited;
  };

  apply(kAdd, {missing[0]}, /*unit=*/true);
  apply(kReweight, {stored_a}, /*unit=*/true);
  apply(kRemove, {missing[0]}, /*unit=*/true);
  apply(kAdd, {{missing[1].u, missing[1].v, 2.5}}, /*unit=*/false);
  apply(kReweight, {{stored_a.u, stored_a.v, -0.0}}, /*unit=*/false);
  // A rejected batch (the edge exists already) leaves the graph as is.
  EXPECT_NE(ValidateNewEdgeBatch(graph, {{stored_b.u, stored_b.v, 3.0}}),
            "");
  EXPECT_FALSE(graph.adjacency().unit_weights());
  apply(kRemove, {missing[1]}, /*unit=*/false);  // -0.0 is still there
  apply(kReweight, {{stored_a.u, stored_a.v, 1.0}, stored_b},
        /*unit=*/true);
  apply(kReweight, {{stored_b.u, stored_b.v, 0.25}}, /*unit=*/false);
  apply(kRemove, {stored_b}, /*unit=*/true);
  EXPECT_EQ(graph.weighted_degrees(), graph.adjacency().AbsRowSums());
}

}  // namespace
}  // namespace linbp
