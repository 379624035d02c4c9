#include "common/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace sb::common {
namespace {

// Tasks 3 and 7 throw. Every task still runs, and task 3's exception is
// the one rethrown, at any worker count. With four workers, task 3 waits
// until task 7 has thrown, so the higher-indexed error is caught first.
TEST(ParallelFor, EveryTaskRunsAndTheLowestIndexedErrorIsRethrown) {
  for (const int workers : {1, 4}) {
    std::vector<int> ran(10, 0);
    std::atomic<bool> seven_threw{false};
    try {
      parallel_for(ran.size(), workers, [&](std::size_t i, int) {
        ++ran[i];
        if (i == 3) {
          while (workers > 1 && !seven_threw.load()) std::this_thread::yield();
          throw std::runtime_error("task 3");
        }
        if (i == 7) {
          seven_threw.store(true);
          throw std::runtime_error("task 7");
        }
      });
      ADD_FAILURE() << "nothing rethrown with " << workers << " worker(s)";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 3") << workers << " worker(s)";
    }
    for (std::size_t i = 0; i < ran.size(); ++i) {
      EXPECT_EQ(ran[i], 1) << "task " << i << ", " << workers << " worker(s)";
    }
  }
}

}  // namespace
}  // namespace sb::common
