#include "graph/power.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "graph/generators.hpp"
#include "graph/traversal.hpp"

namespace dsnd {
namespace {

TEST(GraphPower, PowerOneIsIdentity) {
  const Graph g = make_gnp(50, 0.1, 3);
  EXPECT_EQ(graph_power(g, 1), g);
}

TEST(GraphPower, PathSquared) {
  const Graph g = make_path(5);
  const Graph g2 = graph_power(g, 2);
  EXPECT_TRUE(g2.has_edge(0, 1));
  EXPECT_TRUE(g2.has_edge(0, 2));
  EXPECT_FALSE(g2.has_edge(0, 3));
  EXPECT_EQ(g2.num_edges(), 4 + 3);  // distance-1 plus distance-2 pairs
}

TEST(GraphPower, MatchesDistanceDefinition) {
  const Graph g = make_gnp(40, 0.08, 9);
  for (const std::int32_t t : {2, 3}) {
    const Graph gt = graph_power(g, t);
    const auto all = all_pairs_distances(g);
    for (VertexId u = 0; u < g.num_vertices(); ++u) {
      for (VertexId v = u + 1; v < g.num_vertices(); ++v) {
        const std::int32_t d = all[static_cast<std::size_t>(u)]
                                  [static_cast<std::size_t>(v)];
        const bool expected = d != kUnreachable && d <= t;
        EXPECT_EQ(gt.has_edge(u, v), expected)
            << "t=" << t << " u=" << u << " v=" << v;
      }
    }
  }
}

TEST(GraphPower, LargePowerBecomesComponentCliques) {
  const Graph g = Graph::from_edges(6, {{0, 1}, {1, 2}, {3, 4}});
  const Graph gt = graph_power(g, 10);
  EXPECT_TRUE(gt.has_edge(0, 2));
  EXPECT_TRUE(gt.has_edge(3, 4));
  EXPECT_FALSE(gt.has_edge(2, 3));  // different components stay apart
  EXPECT_FALSE(gt.has_edge(0, 5));
}

TEST(GraphPower, PreservesDisconnection) {
  const Graph g = Graph::from_edges(4, {{0, 1}, {2, 3}});
  const Graph g3 = graph_power(g, 3);
  EXPECT_EQ(connected_components(g3).count, 2);
}

TEST(GraphPower, RejectsZeroPower) {
  EXPECT_THROW(graph_power(make_path(3), 0), std::invalid_argument);
}

TEST(GraphPower, EdgeBudgetRefusesALargerPower) {
  // C_100^10 has 100 * 10 = 1000 edges: a budget of exactly that builds
  // it, one less refuses it.
  const Graph g = make_cycle(100);
  EXPECT_EQ(graph_power(g, 10, 1000).num_edges(), 1000);
  EXPECT_THROW(graph_power(g, 10, 999), std::invalid_argument);
}

}  // namespace
}  // namespace dsnd
