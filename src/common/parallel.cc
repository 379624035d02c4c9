#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/log.h"

namespace sb::common {

int resolve_jobs(int requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("SB_JOBS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && v > 0) return static_cast<int>(v);
    log_warn() << "SB_JOBS='" << env << "' is not a positive integer; "
               << "falling back to hardware concurrency";
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

void parallel_for(std::size_t n, int threads,
                  const std::function<void(std::size_t, int)>& fn) {
  if (n == 0) return;
  const int workers = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(std::max(threads, 1)), n));
  // The lowest-indexed task's exception; an escaping one would reach a
  // worker std::thread's entry function and call std::terminate.
  std::mutex error_mu;
  std::size_t error_task = n;
  std::exception_ptr error;
  auto run = [&](std::size_t i, int w) {
    try {
      fn(i, w);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mu);
      if (i < error_task) {
        error_task = i;
        error = std::current_exception();
      }
    }
  };
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) run(i, 0);
  } else {
    // Work-stealing by atomic index: completion order is arbitrary but each
    // task owns its output slot, so callers that self-seed every task get
    // schedule-independent results.
    std::atomic<std::size_t> next{0};
    auto worker = [&](int w) {
      for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
           i = next.fetch_add(1, std::memory_order_relaxed)) {
        run(i, w);
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) pool.emplace_back(worker, w);
    for (auto& t : pool) t.join();
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace sb::common
