// Which neighbors of each live vertex have already left the graph being
// carved — the surviving-graph knowledge the announcement round buys.
//
// Both distributed carvers (carving_protocol.cpp and
// linial_saks_distributed.cpp) end a phase with every joiner sending
// kTagLeave to its neighbors. A receiver records the sender here, against
// its own CSR row, and its later broadcasts pass the row as the skip mask
// of Outbox::send_to_all_neighbors. Every flagged neighbor has truly left
// and a carved vertex discards all traffic, so the outputs are unchanged;
// only the messages (and the receivers' activations) go away.
//
// One flag per CSR position, so a row's flags line up with
// Graph::neighbors(v). A vertex reads and writes only its own row, so the
// engine's workers never share a flag. reset() keeps the capacity: warm
// runs on one graph allocate nothing.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "support/assert.hpp"

namespace dsnd {

class DepartedNeighbors {
 public:
  /// Clears every flag for a fresh run on g.
  void reset(const Graph& g) {
    graph_ = &g;
    flags_.assign(g.csr_adjacency().size(), 0);
  }

  /// Reinstates the knowledge of a restored state (a checkpoint
  /// rollback) after reset(): every neighbor with alive[u] == 0 is
  /// flagged. Exact for a reliable run at a phase boundary, where every
  /// leave has arrived.
  void rebuild(std::span<const char> alive) {
    const std::span<const VertexId> adjacency = graph_->csr_adjacency();
    for (std::size_t p = 0; p < adjacency.size(); ++p) {
      flags_[p] = alive[static_cast<std::size_t>(adjacency[p])] == 0 ? 1 : 0;
    }
  }

  /// Records that neighbor `from` of `v` has left: binary search on v's
  /// sorted row.
  void record(VertexId v, VertexId from) {
    const std::span<const VertexId> row = graph_->neighbors(v);
    const auto it = std::lower_bound(row.begin(), row.end(), from);
    DSND_CHECK(it != row.end() && *it == from, "leave from a non-neighbor");
    flags_[row_begin(v) + static_cast<std::size_t>(it - row.begin())] = 1;
  }

  /// v's flags, aligned with Graph::neighbors(v).
  std::span<const char> row(VertexId v) const {
    return std::span<const char>(flags_).subspan(
        row_begin(v), static_cast<std::size_t>(graph_->degree(v)));
  }

 private:
  std::size_t row_begin(VertexId v) const {
    return static_cast<std::size_t>(
        graph_->csr_offsets()[static_cast<std::size_t>(v)]);
  }

  const Graph* graph_ = nullptr;
  std::vector<char> flags_;
};

}  // namespace dsnd
