// The benchmark's own property checker. It re-derives every property the
// method must have from the graph and the answer alone, apart from the
// library's validators, so a fault in validate_decomposition_fast cannot
// hide a wrong answer. Every check is O(n + m) except the spanner check,
// which runs one depth-bounded BFS per non-spanner edge.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "apps/coloring.hpp"
#include "decomposition/carve_schedule.hpp"
#include "decomposition/covers.hpp"
#include "graph/graph.hpp"

namespace perfbench {

struct Verdict {
  bool ok = true;
  std::string why;

  void fail(const std::string& reason) {
    if (ok) why = reason;
    ok = false;
  }
};

/// What the decomposition check measured on the way.
struct DecompositionFacts {
  std::int32_t colors = 0;
  /// Claim 3's certificate: 2 x the largest center-to-member distance
  /// inside a cluster, from the checker's own BFS.
  std::int32_t diam_bound = 0;
};

/// The clustering is a complete partition, every cluster is connected in
/// G(C) around its center, adjacent clusters get different colors, the
/// colors fit the phases run (and the theorem's chi on its success
/// event), the certificate is within the theorem's D, and the rounds are
/// within TheoremBounds::rounds_with_retries. Each phase runs ceil(k)
/// broadcast rounds plus one announcement round while the bound counts
/// k per phase, so the round check allows that difference per phase run.
Verdict check_decomposition(const dsnd::Graph& g,
                            const dsnd::Clustering& clustering,
                            const dsnd::CarveSchedule& schedule,
                            const dsnd::CarveResult& carve,
                            DecompositionFacts& facts);

/// Independent and maximal.
Verdict check_mis(const dsnd::Graph& g, const std::vector<char>& in_mis);

/// Proper, with colors in [0, Delta].
Verdict check_coloring(const dsnd::Graph& g,
                       const dsnd::ColoringResult& coloring);

/// A subgraph of g on the same vertices in which every edge of g has
/// stretch at most `stretch_bound`.
Verdict check_spanner(const dsnd::Graph& g, const dsnd::Graph& spanner,
                      std::int32_t stretch_bound);

/// Every vertex's W-ball lies inside one cover cluster.
Verdict check_cover(const dsnd::Graph& g,
                    const dsnd::NeighborhoodCover& cover);

}  // namespace perfbench
