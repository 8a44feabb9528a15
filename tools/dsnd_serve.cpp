// dsnd_serve — the DecompositionService as a line-oriented daemon.
//
// Reads one command per line from stdin, answers one JSON object per
// line on stdout, and keeps graphs registered and carve contexts warm
// between requests — the process-boundary face of the service layer
// (src/service/). A malformed or failing command answers {"ok":0,...}
// and the daemon keeps serving; it never exits on bad input.
//
//   graph <id> family <name> n <N> [seed <S>]
//       generate a standard-family instance and register it
//   graph <id> file <path>
//       load an edgelist/metis/dimacs file and register it
//   carve <id> theorem <1|2|3> [k <K>] [lambda <L>] [c <C>] [seed <S>]
//         [deliverable decomposition|mis|coloring|spanner|cover]
//         [radius <W>] [backend distributed|centralized]
//       submit one request; repeated identical requests hit the cache
//   stats
//       the service's cache/context-pool/validation accounting
//   quit
//       exit 0 (EOF does the same)
//
// Numbers are parsed strictly (support/parse.hpp): a token with
// trailing garbage, a sign where none belongs, NaN/inf, or a value out
// of range answers {"ok":0,...} with an error naming the key and value.
// What the schedule derives from them is bounded too: the theorem
// factories refuse a c * n that is not finite and a phase count or
// per-phase round count past kMaxSchedulePhases / kMaxPhaseRounds
// (decomposition/carve_schedule.hpp), and the service refuses a cover
// whose power graph passes ServiceOptions::max_cover_edges.
//
// Flags: --threads N (engine workers, default 1), --cache N (result
// cache capacity, default 64), --help.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "decomposition/high_radius.hpp"
#include "decomposition/multistage.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "service/decomposition_service.hpp"
#include "support/parse.hpp"

namespace {

using namespace dsnd;

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        // Every remaining control character must be \u-escaped too, or
        // an exception message / file path echoed into an error
        // response breaks the one-JSON-object-per-line protocol.
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string hex16(std::uint64_t value) {
  std::ostringstream hex;
  hex << std::hex << value;
  std::string digits = hex.str();
  digits.insert(0, 16 - digits.size(), '0');
  return digits;
}

std::vector<std::string> tokenize(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> tokens;
  std::string token;
  while (in >> token) tokens.push_back(token);
  return tokens;
}

/// The optional `key value` pairs after a command's fixed prefix.
class KeyValues {
 public:
  KeyValues(const std::vector<std::string>& tokens, std::size_t begin) {
    if ((tokens.size() - begin) % 2 != 0) {
      throw std::invalid_argument("expected key/value pairs after command");
    }
    for (std::size_t i = begin; i < tokens.size(); i += 2) {
      pairs_[tokens[i]] = tokens[i + 1];
    }
  }

  std::string get(const std::string& key, const std::string& fallback) {
    const std::string* text = take(key);
    return text != nullptr ? *text : fallback;
  }

  /// An integer in [lo, hi]; the fallback is returned unchecked.
  std::int64_t get_int(const std::string& key, std::int64_t fallback,
                       std::int64_t lo, std::int64_t hi) {
    const std::string* text = take(key);
    return text != nullptr ? parse_int(key, *text, lo, hi) : fallback;
  }

  std::uint64_t get_uint(const std::string& key, std::uint64_t fallback) {
    const std::string* text = take(key);
    return text != nullptr ? parse_uint(key, *text) : fallback;
  }

  /// A finite real number above `floor`.
  double get_real(const std::string& key, double fallback, double floor) {
    const std::string* text = take(key);
    if (text == nullptr) return fallback;
    const double value = parse_double(key, *text);
    if (!(value > floor)) {
      std::ostringstream expected;
      expected << "a number above " << floor;
      throw_bad_value(key, *text, expected.str());
    }
    return value;
  }

  /// Unknown keys are command errors, not silently ignored knobs.
  void require_all_consumed() const {
    for (const auto& [key, value] : pairs_) {
      bool used = false;
      for (const std::string& c : consumed_) used |= c == key;
      if (!used) throw std::invalid_argument("unknown option: " + key);
    }
  }

 private:
  /// The value given for `key` (marked consumed), or nullptr.
  const std::string* take(const std::string& key) {
    const auto it = pairs_.find(key);
    if (it == pairs_.end()) return nullptr;
    consumed_.push_back(key);
    return &it->second;
  }

  std::unordered_map<std::string, std::string> pairs_;
  std::vector<std::string> consumed_;
};

constexpr std::int64_t kMaxInt32 = std::numeric_limits<std::int32_t>::max();
// Engine workers are OS threads; far more than any host's cores is a typo.
constexpr std::int64_t kMaxThreads = 256;

class Server {
 public:
  Server(unsigned threads, std::size_t cache_capacity) {
    ServiceOptions options;
    options.engine.threads = threads;
    options.cache_capacity = cache_capacity;
    service_.emplace(options);
  }

  /// Handles one command line; returns the one-line JSON response.
  std::string handle(const std::string& line) {
    const std::vector<std::string> tokens = tokenize(line);
    if (tokens.empty()) return "";
    try {
      if (tokens[0] == "graph") return handle_graph(tokens);
      if (tokens[0] == "carve") return handle_carve(tokens);
      if (tokens[0] == "stats") return handle_stats();
      throw std::invalid_argument("unknown command: " + tokens[0] +
                                  " (expected graph/carve/stats/quit)");
    } catch (const std::exception& e) {
      return std::string("{\"ok\":0,\"error\":\"") + json_escape(e.what()) +
             "\"}";
    }
  }

 private:
  std::string handle_graph(const std::vector<std::string>& tokens) {
    if (tokens.size() < 4) {
      throw std::invalid_argument(
          "usage: graph <id> family <name> n <N> [seed <S>] | "
          "graph <id> file <path>");
    }
    const std::string& id = tokens[1];
    Graph graph;
    if (tokens[2] == "file") {
      graph = load_graph(tokens[3]);
    } else if (tokens[2] == "family") {
      const std::string family = tokens[3];
      KeyValues kv(tokens, 4);
      const auto n =
          static_cast<VertexId>(kv.get_int("n", 1000, 1, kMaxInt32));
      const std::uint64_t seed = kv.get_uint("seed", 1);
      kv.require_all_consumed();
      // Names are resolved here, not by family_by_name: a library
      // refusal would carry its source location into the response.
      const GraphFamily* generator = find_family(family);
      if (generator == nullptr) {
        throw std::invalid_argument("unknown graph family: " + family);
      }
      graph = generator->make(n, seed);
    } else {
      throw std::invalid_argument("expected 'family' or 'file', got " +
                                  tokens[2]);
    }
    const auto n = graph.num_vertices();
    const auto m = graph.num_edges();
    // The service owns the storage: on re-registration of an id it
    // retires the old graph only once no in-flight request or warm
    // context references it, so `graph <id> ...` is always safe to
    // re-issue. The daemon only remembers the size (schedules are
    // derived from n).
    const std::uint64_t fingerprint =
        service_->register_graph(id, std::move(graph));
    graph_sizes_[id] = n;
    std::ostringstream out;
    out << "{\"ok\":1,\"graph\":\"" << json_escape(id) << "\",\"n\":" << n
        << ",\"m\":" << m << ",\"fingerprint\":\"" << hex16(fingerprint)
        << "\"}";
    return out.str();
  }

  std::string handle_carve(const std::vector<std::string>& tokens) {
    if (tokens.size() < 4 || tokens[2] != "theorem") {
      throw std::invalid_argument(
          "usage: carve <id> theorem <1|2|3> [k K] [lambda L] [c C] "
          "[seed S] [deliverable D] [radius W] [backend B]");
    }
    const std::string& id = tokens[1];
    const auto it = graph_sizes_.find(id);
    if (it == graph_sizes_.end()) {
      throw std::invalid_argument("unknown graph: " + id);
    }
    const VertexId n = it->second;
    const auto theorem = parse_int("theorem", tokens[3], 1, 3);
    KeyValues kv(tokens, 4);

    ServiceRequest request;
    request.graph_id = id;
    // Every phase's beta = ln(c n) / k must stay positive: c n > 1, and
    // theorem 2's stages need c > 1.
    const double c_floor = 1.0 / static_cast<double>(n);
    if (theorem == 1) {
      request.schedule = theorem1_schedule(
          n, static_cast<std::int32_t>(kv.get_int("k", 0, 0, kMaxInt32)),
          kv.get_real("c", 4.0, c_floor));
    } else if (theorem == 2) {
      request.schedule = theorem2_schedule(
          n, static_cast<std::int32_t>(kv.get_int("k", 0, 0, kMaxInt32)),
          kv.get_real("c", 6.0, std::max(1.0, c_floor)));
    } else {
      request.schedule = theorem3_schedule(
          n,
          static_cast<std::int32_t>(kv.get_int("lambda", 3, 1, kMaxInt32)),
          kv.get_real("c", 4.0, c_floor));
    }
    request.seed = kv.get_uint("seed", 1);
    const std::string deliverable = kv.get("deliverable", "decomposition");
    const std::optional<Deliverable> resolved = find_deliverable(deliverable);
    if (!resolved) {
      throw std::invalid_argument("unknown deliverable: " + deliverable);
    }
    request.deliverable = *resolved;
    request.cover_radius =
        static_cast<std::int32_t>(kv.get_int("radius", 2, 1, n));
    const std::string backend = kv.get("backend", "distributed");
    if (backend == "centralized") {
      request.backend = ServiceBackend::kCentralized;
    } else if (backend != "distributed") {
      throw std::invalid_argument("unknown backend: " + backend);
    }
    kv.require_all_consumed();

    const ServiceResponse response = service_->submit(request);
    const ServiceResult& result = *response.result;
    const Clustering& clustering = result.run.run.clustering();
    std::ostringstream out;
    out << "{\"ok\":" << (response.valid ? 1 : 0) << ",\"graph\":\""
        << json_escape(id) << "\",\"schedule\":\""
        << json_escape(request.schedule.name)
        << "\",\"seed\":" << request.seed << ",\"deliverable\":\""
        << deliverable_name(request.deliverable) << "\",\"status\":\""
        << json_escape(response.status)
        << "\",\"cache_hit\":" << (response.cache_hit ? 1 : 0)
        << ",\"wall_ms\":" << response.wall_ms
        << ",\"clusters\":" << clustering.num_clusters()
        << ",\"colors\":" << clustering.num_colors()
        << ",\"rounds\":" << result.run.sim.rounds
        << ",\"messages\":" << result.run.sim.messages;
    if (result.mis) {
      std::int64_t size = 0;
      for (const char bit : result.mis->in_mis) size += bit != 0;
      out << ",\"mis_size\":" << size;
    }
    if (result.coloring) {
      out << ",\"colors_used\":" << result.coloring->colors_used;
    }
    if (result.spanner) {
      out << ",\"spanner_edges\":" << result.spanner->edges
          << ",\"stretch\":" << result.spanner->stretch;
    }
    if (result.cover) {
      out << ",\"cover_clusters\":" << result.cover->clusters.size()
          << ",\"cover_colors\":" << result.cover->num_colors
          << ",\"cover_radius\":" << result.cover->radius;
    }
    out << "}";
    return out.str();
  }

  std::string handle_stats() const {
    const ServiceStats stats = service_->stats();
    std::ostringstream out;
    out << "{\"ok\":1,\"requests\":" << stats.requests
        << ",\"cache_hits\":" << stats.cache_hits
        << ",\"cache_misses\":" << stats.cache_misses
        << ",\"cache_evictions\":" << stats.cache_evictions
        << ",\"cache_entries\":" << stats.cache_entries
        << ",\"contexts_created\":" << stats.contexts_created
        << ",\"warm_acquires\":" << stats.warm_acquires
        << ",\"invalid_responses\":" << stats.invalid_responses
        << ",\"graphs\":" << graph_sizes_.size() << "}";
    return out.str();
  }

  std::unordered_map<std::string, VertexId> graph_sizes_;
  std::optional<DecompositionService> service_;
};

void print_usage(std::ostream& out) {
  out << "usage: dsnd_serve [--threads N] [--cache N]\n"
         "line-oriented decomposition service on stdin/stdout; "
         "commands:\n"
         "  graph <id> family <name> n <N> [seed <S>]\n"
         "  graph <id> file <path>\n"
         "  carve <id> theorem <1|2|3> [k K] [lambda L] [c C] [seed S]\n"
         "        [deliverable decomposition|mis|coloring|spanner|cover]\n"
         "        [radius W] [backend distributed|centralized]\n"
         "  stats\n"
         "  quit\n";
}

}  // namespace

int main(int argc, char** argv) {
  unsigned threads = 1;
  std::size_t cache = 64;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      return 0;
    }
    try {
      if (arg == "--threads" && i + 1 < argc) {
        threads = static_cast<unsigned>(
            parse_int("--threads", argv[++i], 0, kMaxThreads));
      } else if (arg == "--cache" && i + 1 < argc) {
        cache = static_cast<std::size_t>(parse_uint("--cache", argv[++i]));
      } else {
        std::cerr << "dsnd_serve: unknown argument '" << arg << "'\n";
        print_usage(std::cerr);
        return 2;
      }
    } catch (const std::invalid_argument& e) {
      std::cerr << "dsnd_serve: " << e.what() << "\n";
      return 2;
    }
  }

  Server server(threads, cache);
  std::string line;
  while (std::getline(std::cin, line)) {
    if (tokenize(line) == std::vector<std::string>{"quit"}) break;
    const std::string response = server.handle(line);
    if (!response.empty()) std::cout << response << std::endl;
  }
  return 0;
}
