// Graph powers: G^t connects u != v iff d_G(u, v) <= t. Needed by the
// neighborhood-cover construction (decomposition/covers.hpp), which runs
// the decomposition on G^{2W+1}: same-colored clusters of G^{2W+1} are
// more than 2W+1 apart in G, so expanding each by W hops keeps them
// disjoint while swallowing every ball B(v, W) — the cover property.
// The power graph is materialized explicitly (not queried lazily)
// because the carving algorithms want adjacency lists.
#pragma once

#include <cstddef>
#include <limits>

#include "graph/graph.hpp"

namespace dsnd {

/// Builds G^t by a depth-limited BFS from every vertex; O(n * m) for
/// small t, O(n^2) memory in the worst case — intended for the
/// simulation scales of this library. Throws std::invalid_argument as
/// soon as G^t would hold more than `max_edges` edges, so a refused
/// power never holds more than that many; the message names t and the
/// cap, never a source location.
Graph graph_power(
    const Graph& g, std::int32_t t,
    std::size_t max_edges = std::numeric_limits<std::size_t>::max());

}  // namespace dsnd
