// Decomposition-as-a-service: the long-lived front end the ROADMAP's
// "millions of users" north star asks for, built as a scheduler + cache
// on top of PR 8's warm CarveContexts (exactly the refactor PR 8 teed
// up — no engine changes here).
//
// Request lifecycle:
//
//   submit(request)
//     -> registry lookup (graph_id -> Graph + fingerprint)
//     -> cache probe        key = (fingerprint, schedule signature,
//                                  seed, deliverable, backend, knobs)
//        hit  -> shared_ptr to the cached result, zero recarve
//        miss -> execute:
//                  distributed -> ContextPool::acquire(fingerprint):
//                                 the graph's warm context (same-graph
//                                 requests serialize on it; distinct
//                                 graphs run in parallel)
//                  centralized -> run_schedule (the reference backend;
//                                 carries the margin/run_to_completion
//                                 ablation knobs)
//                  cover       -> carve G^{2W+1} centralized (same
//                                 clustering as distributed, by the
//                                 backend parity contract), expand W
//                                 hops via expand_clusters_to_cover
//             -> deliverable post-pass (mis/coloring/spanner over the
//                clustering)
//             -> validate_decomposition_fast gate (never-silently-
//                invalid: a reliable-transport run that fails external
//                validation is reported "INVALID", never cached)
//             -> cache insert (validated kOk results only)
//
// Results are bit-identical to the standalone carve entry points for
// every (graph, schedule, seed), every thread count, every submission
// order, and every warm/cold state — that is the existing engine
// contract, which makes caching and warm scheduling sound in the first
// place. The service sits above decomposition/: it calls run_schedule
// and run_schedule_distributed, never the reverse.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "apps/coloring.hpp"
#include "apps/mis.hpp"
#include "apps/spanner.hpp"
#include "decomposition/carve_schedule.hpp"
#include "decomposition/carving_protocol.hpp"
#include "decomposition/covers.hpp"
#include "service/context_pool.hpp"
#include "service/result_cache.hpp"
#include "simulator/engine.hpp"

namespace dsnd {

/// What the caller wants computed from the carve.
enum class Deliverable : std::int32_t {
  kDecomposition = 0,
  kMis = 1,
  kColoring = 2,
  kSpanner = 3,
  kCover = 4,
};

const char* deliverable_name(Deliverable deliverable);
/// Inverse of deliverable_name; nullopt for unknown names.
std::optional<Deliverable> find_deliverable(const std::string& name);
/// Inverse of deliverable_name; throws on unknown names.
Deliverable deliverable_by_name(const std::string& name);

/// Which execution backend carves. Bit-identical per seed (the PR 3
/// parity contract), so this only selects cost/feature tradeoffs: the
/// distributed backend runs warm on the pooled context and reports sim
/// metrics; the centralized backend supports the margin /
/// run_to_completion ablation knobs.
enum class ServiceBackend : std::int32_t {
  kDistributed = 0,
  kCentralized = 1,
};

struct ServiceRequest {
  std::string graph_id;
  CarveSchedule schedule;
  std::uint64_t seed = 1;
  Deliverable deliverable = Deliverable::kDecomposition;
  ServiceBackend backend = ServiceBackend::kDistributed;
  /// kCover only: the cover radius W. The schedule is carved on
  /// G^{2W+1} (same vertex count, so schedules derived from n apply).
  std::int32_t cover_radius = 2;
  /// Centralized backend only (the E9 ablation knobs); the distributed
  /// protocol requires the defaults.
  bool run_to_completion = true;
  double margin = 1.0;
};

/// The immutable result a response points at (shared: cache hits alias
/// the original). run.sim is all-zero for centralized-backend requests.
struct ServiceResult {
  DistributedRun run;
  std::optional<MisResult> mis;
  std::optional<ColoringResult> coloring;
  std::optional<SpannerResult> spanner;
  std::optional<NeighborhoodCover> cover;
};

struct ServiceResponse {
  std::shared_ptr<const ServiceResult> result;
  bool cache_hit = false;
  /// False only when the validation gate failed (status "INVALID") —
  /// with validation disabled the response is trusted and valid=true.
  bool valid = true;
  /// "ok", a named CarveStatus, or "INVALID".
  std::string status = "ok";
  double wall_ms = 0.0;
};

struct ServiceOptions {
  /// Forwarded to every pooled context and centralized run; a borrowed
  /// transport must outlive the service.
  EngineOptions engine;
  /// Result-cache entries to retain (LRU); 0 disables caching.
  std::size_t cache_capacity = 64;
  /// Edge budget of a cover request's power graph G^{2W+1}: a request
  /// whose power graph would exceed it is refused (std::invalid_argument)
  /// with at most this many edges built. G^{2W+1} grows toward n^2 / 2
  /// edges as W grows; the default is 512 MiB of edge list.
  std::size_t max_cover_edges = std::size_t{1} << 26;
};

struct ServiceStats {
  std::uint64_t requests = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_entries = 0;
  std::uint64_t contexts_created = 0;
  std::uint64_t warm_acquires = 0;
  std::uint64_t invalid_responses = 0;
};

class DecompositionService {
 public:
  explicit DecompositionService(const ServiceOptions& options = {});
  ~DecompositionService();

  DecompositionService(const DecompositionService&) = delete;
  DecompositionService& operator=(const DecompositionService&) = delete;

  /// Registers an owned graph under graph_id (replacing any previous
  /// registration of that id; the retired registration stays alive —
  /// shared ownership — until every in-flight submit and warm context
  /// built on it lets go, so replacement is race-free). Returns its
  /// fingerprint.
  std::uint64_t register_graph(const std::string& graph_id, Graph graph);
  /// Borrowing twin for callers that already own the graph: no copy;
  /// the graph must outlive the service — not just
  /// the registration, since warm contexts may keep referencing it
  /// after the id is re-registered.
  std::uint64_t register_graph_view(const std::string& graph_id,
                                    const Graph& graph);

  bool has_graph(const std::string& graph_id) const;
  /// Fingerprint of a registered graph; throws if unknown.
  std::uint64_t graph_fingerprint(const std::string& graph_id) const;

  /// Executes (or serves from cache) one request. Blocking and
  /// thread-safe: any number of threads may submit concurrently;
  /// requests sharing a graph serialize on its warm context, distinct
  /// graphs run in parallel. Throws std::invalid_argument for an
  /// unknown graph_id or an inapplicable knob combination.
  ServiceResponse submit(const ServiceRequest& request);

  /// Submits a batch, scheduling same-graph runs onto one context in
  /// submission order and distinct graphs onto parallel workers.
  /// Responses are returned in request order. A request that fails
  /// (unknown graph_id, inapplicable knobs) makes the whole call throw
  /// that request's exception — the first such in request order, after
  /// the remaining work finishes — matching serial submission instead
  /// of letting it escape a worker thread.
  std::vector<ServiceResponse> submit_batch(
      const std::vector<ServiceRequest>& requests);

  ServiceStats stats() const;

 private:
  struct RegisteredGraph {
    std::optional<Graph> storage;  // empty for register_graph_view
    const Graph* graph = nullptr;
    std::uint64_t fingerprint = 0;
  };

  std::shared_ptr<const RegisteredGraph> lookup(
      const std::string& graph_id) const;
  std::shared_ptr<const ServiceResult> execute(
      const ServiceRequest& request,
      const std::shared_ptr<const RegisteredGraph>& registered,
      bool& valid, std::string& status);

  ServiceOptions options_;
  ContextPool pool_;
  ResultCache cache_;

  mutable std::mutex registry_mutex_;
  std::unordered_map<std::string, std::shared_ptr<const RegisteredGraph>>
      graphs_;

  mutable std::mutex stats_mutex_;
  std::uint64_t requests_ = 0;
  std::uint64_t invalid_responses_ = 0;
};

}  // namespace dsnd
