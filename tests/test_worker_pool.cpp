// The persistent WorkerPool must run every worker once per dispatch and
// must never strand a parked driver or worker. The stress case drives
// several pools at once, each from its own thread, with more threads
// than cores: spin windows keep running out, so both sides of the park
// handshake are exercised thousands of times. A lost wakeup would hang
// the process, so a watchdog ends it with a failure instead.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "support/worker_pool.hpp"

namespace dsnd {
namespace {

void busy_wait(std::chrono::microseconds duration) {
  const auto until = std::chrono::steady_clock::now() + duration;
  while (std::chrono::steady_clock::now() < until) {
  }
}

TEST(WorkerPool, OversubscribedDispatchNeverHangs) {
  constexpr unsigned kPools = 4;
  constexpr unsigned kWorkers = 4;
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  constexpr int kDispatches = 2000;  // sanitized threads run far slower
#else
  // Without the seq_cst handshake, 4 of 6 runs of this case hung on a
  // 4-core VM; with it, each run takes about 2.5 s there.
  constexpr int kDispatches = 20000;
#endif
  constexpr auto kDeadline = std::chrono::seconds(120);

  std::mutex mutex;
  std::condition_variable cv;
  unsigned finished = 0;
  std::vector<std::uint64_t> totals(kPools, 0);
  std::vector<std::thread> drivers;
  for (unsigned p = 0; p < kPools; ++p) {
    drivers.emplace_back([&, p] {
      WorkerPool pool(kWorkers);
      std::vector<std::uint64_t> hits(kWorkers, 0);  // one slot per worker
      for (int d = 0; d < kDispatches; ++d) {
        pool.run([&](unsigned w) {
          ++hits[w];
          // A straggler now and then outlasts the driver's spin window,
          // so the driver parks and the last worker must wake it.
          if ((static_cast<unsigned>(d) + w + p) % 7 == 0) {
            busy_wait(std::chrono::microseconds(100));
          }
        });
        // An idle driver now and then lets the workers park too.
        if (d % 50 == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      }
      totals[p] = std::accumulate(hits.begin(), hits.end(), std::uint64_t{0});
      const std::scoped_lock lock(mutex);
      ++finished;
      cv.notify_all();
    });
  }
  {
    std::unique_lock lock(mutex);
    if (!cv.wait_for(lock, kDeadline, [&] { return finished == kPools; })) {
      // Joining a hung driver would hang the test binary; end it here.
      std::fprintf(stderr,
                   "WorkerPool dispatch hung: %u of %u drivers finished "
                   "within %lld s\n",
                   finished, kPools,
                   static_cast<long long>(kDeadline.count()));
      std::fflush(stderr);
      std::_Exit(EXIT_FAILURE);
    }
  }
  for (std::thread& driver : drivers) driver.join();
  for (unsigned p = 0; p < kPools; ++p) {
    EXPECT_EQ(totals[p], std::uint64_t{kDispatches} * kWorkers) << "pool " << p;
  }
}

}  // namespace
}  // namespace dsnd
