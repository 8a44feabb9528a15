#include "graph/power.hpp"

#include <queue>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/assert.hpp"

namespace dsnd {

Graph graph_power(const Graph& g, std::int32_t t, std::size_t max_edges) {
  DSND_REQUIRE(t >= 1, "power must be at least 1");
  const auto n = static_cast<std::size_t>(g.num_vertices());
  std::vector<Edge> edges;
  std::vector<std::int32_t> dist(n, -1);
  std::vector<VertexId> touched;
  std::queue<VertexId> frontier;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    // Depth-limited BFS from v; only emit edges to higher ids so each
    // pair appears once.
    dist[static_cast<std::size_t>(v)] = 0;
    touched.push_back(v);
    frontier.push(v);
    while (!frontier.empty()) {
      const VertexId u = frontier.front();
      frontier.pop();
      const std::int32_t du = dist[static_cast<std::size_t>(u)];
      if (u > v) {
        if (edges.size() == max_edges) {
          throw std::invalid_argument(
              "G^" + std::to_string(t) + " has more than " +
              std::to_string(max_edges) + " edges");
        }
        edges.push_back({v, u});
      }
      if (du == t) continue;
      for (VertexId w : g.neighbors(u)) {
        if (dist[static_cast<std::size_t>(w)] != -1) continue;
        dist[static_cast<std::size_t>(w)] = du + 1;
        touched.push_back(w);
        frontier.push(w);
      }
    }
    for (const VertexId u : touched) dist[static_cast<std::size_t>(u)] = -1;
    touched.clear();
  }
  return Graph::from_edges(g.num_vertices(), std::move(edges));
}

}  // namespace dsnd
