#include "check.hpp"

#include <algorithm>
#include <cmath>
#include <span>

namespace perfbench {

using dsnd::ClusterId;
using dsnd::Graph;
using dsnd::VertexId;

namespace {

std::size_t idx(std::int64_t v) { return static_cast<std::size_t>(v); }

/// Breadth-first search over reused arrays: a vertex counts as seen only
/// when its stamp equals the current search's, so nothing is cleared
/// between searches.
class Bfs {
 public:
  explicit Bfs(VertexId n) : stamp_(idx(n), 0), dist_(idx(n), 0) {}

  void start(VertexId source) {
    ++epoch_;
    queue_.clear();
    head_ = 0;
    visit(source, 0);
  }
  bool seen(VertexId v) const { return stamp_[idx(v)] == epoch_; }
  std::int32_t dist(VertexId v) const { return dist_[idx(v)]; }
  void visit(VertexId v, std::int32_t d) {
    stamp_[idx(v)] = epoch_;
    dist_[idx(v)] = d;
    queue_.push_back(v);
  }
  bool next(VertexId& v) {
    if (head_ == queue_.size()) return false;
    v = queue_[head_++];
    return true;
  }
  const std::vector<VertexId>& visited() const { return queue_; }

 private:
  std::vector<std::uint32_t> stamp_;
  std::vector<std::int32_t> dist_;
  std::vector<VertexId> queue_;
  std::size_t head_ = 0;
  std::uint32_t epoch_ = 0;
};

}  // namespace

Verdict check_decomposition(const Graph& g, const dsnd::Clustering& clustering,
                            const dsnd::CarveSchedule& schedule,
                            const dsnd::CarveResult& carve,
                            DecompositionFacts& facts) {
  Verdict verdict;
  const VertexId n = g.num_vertices();
  const ClusterId clusters = clustering.num_clusters();
  if (clustering.num_vertices() != n) {
    verdict.fail("clustering covers a different vertex count");
    return verdict;
  }
  std::vector<VertexId> size(idx(clusters), 0);
  for (VertexId v = 0; v < n; ++v) {
    const ClusterId c = clustering.cluster_of(v);
    if (c < 0 || c >= clusters) {
      verdict.fail("vertex " + std::to_string(v) + " is in no cluster");
      return verdict;
    }
    ++size[idx(c)];
  }

  std::int32_t max_color = -1;
  std::vector<char> color_used;
  for (ClusterId c = 0; c < clusters; ++c) {
    const VertexId center = clustering.center_of(c);
    if (size[idx(c)] == 0) {
      verdict.fail("cluster " + std::to_string(c) + " is empty");
      return verdict;
    }
    if (center < 0 || center >= n || clustering.cluster_of(center) != c) {
      verdict.fail("cluster " + std::to_string(c) +
                   " does not contain its center");
      return verdict;
    }
    const std::int32_t color = clustering.color_of(c);
    if (color < 0) {
      verdict.fail("cluster " + std::to_string(c) + " has no color");
      return verdict;
    }
    if (color > max_color) {
      max_color = color;
      color_used.resize(idx(color) + 1, 0);
    }
    color_used[idx(color)] = 1;
  }

  // Connectivity inside G(C) and the center radius: one BFS per cluster
  // from its center, never leaving the cluster.
  Bfs bfs(n);
  std::int32_t max_radius = 0;
  for (ClusterId c = 0; c < clusters; ++c) {
    bfs.start(clustering.center_of(c));
    VertexId u = 0;
    std::int32_t radius = 0;
    while (bfs.next(u)) {
      radius = std::max(radius, bfs.dist(u));
      for (const VertexId w : g.neighbors(u)) {
        if (!bfs.seen(w) && clustering.cluster_of(w) == c) {
          bfs.visit(w, bfs.dist(u) + 1);
        }
      }
    }
    if (static_cast<VertexId>(bfs.visited().size()) != size[idx(c)]) {
      verdict.fail("cluster " + std::to_string(c) +
                   " is not connected in G(C)");
      return verdict;
    }
    max_radius = std::max(max_radius, radius);
  }

  for (VertexId u = 0; u < n; ++u) {
    const ClusterId cu = clustering.cluster_of(u);
    for (const VertexId v : g.neighbors(u)) {
      const ClusterId cv = clustering.cluster_of(v);
      if (cu != cv && clustering.color_of(cu) == clustering.color_of(cv)) {
        verdict.fail("adjacent clusters " + std::to_string(cu) + " and " +
                     std::to_string(cv) + " share a color");
        return verdict;
      }
    }
  }

  facts.colors = static_cast<std::int32_t>(
      std::count(color_used.begin(), color_used.end(), 1));
  facts.diam_bound = 2 * max_radius;

  if (facts.colors > carve.phases_used) {
    verdict.fail("more colors than phases run");
  }
  if (carve.exhausted_within_target &&
      facts.colors > schedule.target_phases()) {
    verdict.fail("more colors than the schedule's phases");
  }
  if (carve.radius_overflow) {
    verdict.fail("a truncated radius was accepted");
  } else if (facts.diam_bound > schedule.bounds.strong_diameter) {
    verdict.fail("center radius certificate " +
                 std::to_string(facts.diam_bound) + " exceeds D = " +
                 std::to_string(schedule.bounds.strong_diameter));
  }
  if (carve.exhausted_within_target) {
    const double per_phase_slack =
        static_cast<double>(schedule.phase_rounds) + 1.0 - schedule.k;
    const double bound =
        schedule.bounds.rounds_with_retries(carve.extra_rounds) +
        per_phase_slack * static_cast<double>(carve.phases_used);
    if (static_cast<double>(carve.rounds) > bound + 1e-9) {
      verdict.fail("rounds " + std::to_string(carve.rounds) +
                   " exceed the theorem's bound " + std::to_string(bound));
    }
  }
  return verdict;
}

Verdict check_mis(const Graph& g, const std::vector<char>& in_mis) {
  Verdict verdict;
  const VertexId n = g.num_vertices();
  if (static_cast<VertexId>(in_mis.size()) != n) {
    verdict.fail("MIS has the wrong length");
    return verdict;
  }
  for (VertexId u = 0; u < n; ++u) {
    bool dominated = in_mis[idx(u)] != 0;
    for (const VertexId v : g.neighbors(u)) {
      if (in_mis[idx(v)] != 0) {
        if (in_mis[idx(u)] != 0) {
          verdict.fail("MIS holds adjacent vertices " + std::to_string(u) +
                       " and " + std::to_string(v));
          return verdict;
        }
        dominated = true;
      }
    }
    if (!dominated) {
      verdict.fail("MIS is not maximal at vertex " + std::to_string(u));
      return verdict;
    }
  }
  return verdict;
}

Verdict check_coloring(const Graph& g, const dsnd::ColoringResult& coloring) {
  Verdict verdict;
  const VertexId n = g.num_vertices();
  if (static_cast<VertexId>(coloring.colors.size()) != n) {
    verdict.fail("coloring has the wrong length");
    return verdict;
  }
  VertexId max_degree = 0;
  for (VertexId u = 0; u < n; ++u) max_degree = std::max(max_degree, g.degree(u));
  for (VertexId u = 0; u < n; ++u) {
    const std::int32_t cu = coloring.colors[idx(u)];
    if (cu < 0 || cu > max_degree) {
      verdict.fail("color " + std::to_string(cu) + " is outside [0, Delta]");
      return verdict;
    }
    for (const VertexId v : g.neighbors(u)) {
      if (coloring.colors[idx(v)] == cu) {
        verdict.fail("adjacent vertices share color " + std::to_string(cu));
        return verdict;
      }
    }
  }
  if (coloring.colors_used > max_degree + 1) {
    verdict.fail("more than Delta + 1 colors reported");
  }
  return verdict;
}

Verdict check_spanner(const Graph& g, const Graph& spanner,
                      std::int32_t stretch_bound) {
  Verdict verdict;
  const VertexId n = g.num_vertices();
  if (spanner.num_vertices() != n) {
    verdict.fail("spanner has a different vertex count");
    return verdict;
  }
  for (VertexId u = 0; u < n; ++u) {
    for (const VertexId v : spanner.neighbors(u)) {
      if (!g.has_edge(u, v)) {
        verdict.fail("spanner edge is not an edge of G");
        return verdict;
      }
    }
  }
  Bfs bfs(n);
  for (VertexId u = 0; u < n; ++u) {
    for (const VertexId v : g.neighbors(u)) {
      if (v < u || spanner.has_edge(u, v)) continue;
      bool found = false;
      bfs.start(u);
      VertexId x = 0;
      while (!found && bfs.next(x)) {
        if (bfs.dist(x) == stretch_bound) continue;
        for (const VertexId y : spanner.neighbors(x)) {
          if (bfs.seen(y)) continue;
          if (y == v) {
            found = true;
            break;
          }
          bfs.visit(y, bfs.dist(x) + 1);
        }
      }
      if (!found) {
        verdict.fail("edge (" + std::to_string(u) + ", " + std::to_string(v) +
                     ") has stretch above " + std::to_string(stretch_bound));
        return verdict;
      }
    }
  }
  return verdict;
}

Verdict check_cover(const Graph& g, const dsnd::NeighborhoodCover& cover) {
  Verdict verdict;
  const VertexId n = g.num_vertices();
  // Cover clusters holding each vertex, ascending.
  std::vector<std::vector<std::int32_t>> holders(idx(n));
  for (std::size_t c = 0; c < cover.clusters.size(); ++c) {
    for (const VertexId v : cover.clusters[c].members) {
      if (v < 0 || v >= n) {
        verdict.fail("cover cluster holds an unknown vertex");
        return verdict;
      }
      holders[idx(v)].push_back(static_cast<std::int32_t>(c));
    }
  }
  const auto holds = [&](std::int32_t c, VertexId v) {
    const std::vector<std::int32_t>& h = holders[idx(v)];
    return std::binary_search(h.begin(), h.end(), c);
  };
  Bfs bfs(n);
  for (VertexId v = 0; v < n; ++v) {
    bfs.start(v);
    VertexId x = 0;
    while (bfs.next(x)) {
      if (bfs.dist(x) == cover.radius) continue;
      for (const VertexId y : g.neighbors(x)) {
        if (!bfs.seen(y)) bfs.visit(y, bfs.dist(x) + 1);
      }
    }
    bool inside = false;
    for (const std::int32_t c : holders[idx(v)]) {
      inside = std::all_of(bfs.visited().begin(), bfs.visited().end(),
                           [&](VertexId y) { return holds(c, y); });
      if (inside) break;
    }
    if (!inside) {
      verdict.fail("the " + std::to_string(cover.radius) + "-ball of vertex " +
                   std::to_string(v) + " lies in no cover cluster");
      return verdict;
    }
  }
  return verdict;
}

}  // namespace perfbench
