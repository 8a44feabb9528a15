// dsnd_perfbench: runs one workload for one seed and prints, as its last
// line, {"correct", "attempted", "failed", "metrics"}. Without --trace
// the metrics are the eight end-to-end figures; with --trace 1 they are
// the per-layer figures of a separate serial traced pass, whose spans go
// to --trace-out as Chrome trace-event JSON. A stamp line before the
// result records the machine and the build.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using perfbench::RunOptions;
using perfbench::RunReport;
using perfbench::Watchdog;

// No request of any workload comes near a minute on a current x86 core;
// the run deadline keeps the process inside its 180 s limit.
constexpr double kRequestDeadlineS = 60.0;
constexpr double kRunDeadlineS = 170.0;

struct Workload {
  const char* name;
  void (*run)(const RunOptions&, RunReport&, Watchdog&);
};

constexpr Workload kWorkloads[] = {
    {"batch-rgg-1m", perfbench::run_batch_rgg},
    {"oneshot-ring-1m", perfbench::run_oneshot_ring},
    {"serve-mix", perfbench::run_serve_mix},
    {"chaos-gnp-5k", perfbench::run_chaos_gnp},
};

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004u) {
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                  &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    }
    std::string brand(reinterpret_cast<const char*>(regs), sizeof regs);
    brand = brand.substr(0, brand.find('\0'));
    const auto first = brand.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : brand.substr(first);
  }
#endif
  return "unknown";
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "dsnd_perfbench: " << problem
            << "\nusage: dsnd_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out PATH] [--commit ID]\nworkloads:";
  for (const Workload& w : kWorkloads) std::cerr << " " << w.name;
  std::cerr << "\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  std::string workload_name;
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        workload_name = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--trace-out") {
        options.trace_path = value;
      } else if (flag == "--commit") {
        commit = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload_name == w.name) workload = &w;
  }
  if (workload == nullptr) usage("unknown workload '" + workload_name + "'");
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");
  if (options.trace && options.trace_path.empty()) {
    usage("--trace 1 needs --trace-out");
  }

  std::cout << "# stamp {\"workload\": " << quoted(workload->name)
            << ", \"seed\": " << options.seed
            << ", \"trace\": " << (options.trace ? 1 : 0)
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"cpu\": " << quoted(cpu_model())
            << ", \"compiler\": " << quoted(PERFBENCH_COMPILER)
            << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
            << ", \"commit\": " << quoted(commit) << "}" << std::endl;

#if defined(__GLIBC__)
  // glibc raises its mmap threshold each time a large block is freed, so
  // which later buffers land on the heap, and how far the heap grows,
  // depends on the order of earlier frees: peak RSS then moved by a third
  // between seeds on the 1M-vertex workloads. A fixed threshold keeps
  // every buffer of 1 MiB or more in its own mapping, so peak_rss_mb
  // follows the live data.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
#endif

  RunReport report;
  try {
    Watchdog watchdog(kRequestDeadlineS, kRunDeadlineS, workload->name);
    workload->run(options, report, watchdog);
  } catch (const std::exception& error) {
    std::cerr << "dsnd_perfbench: " << workload->name
              << " aborted: " << error.what() << "\n";
    return 1;
  }
  std::cout << report.json() << std::endl;
  return 0;
}
