#include "os/cfs_runqueue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/rng.h"

namespace sb::os {
namespace {

TEST(CfsRunqueue, EmptyBehaviour) {
  CfsRunqueue rq;
  EXPECT_TRUE(rq.empty());
  EXPECT_EQ(rq.size(), 0u);
  EXPECT_EQ(rq.pop_leftmost(), kInvalidThread);
  EXPECT_EQ(rq.leftmost(), kInvalidThread);
  EXPECT_THROW(rq.leftmost_vruntime(), std::logic_error);
  EXPECT_EQ(rq.total_weight(), 0u);
}

TEST(CfsRunqueue, PopsInVruntimeOrder) {
  CfsRunqueue rq;
  rq.enqueue(1, 30.0, 1024);
  rq.enqueue(2, 10.0, 1024);
  rq.enqueue(3, 20.0, 1024);
  EXPECT_EQ(rq.pop_leftmost(), 2);
  EXPECT_EQ(rq.pop_leftmost(), 3);
  EXPECT_EQ(rq.pop_leftmost(), 1);
}

TEST(CfsRunqueue, TieBrokenByTid) {
  CfsRunqueue rq;
  rq.enqueue(7, 5.0, 1024);
  rq.enqueue(3, 5.0, 1024);
  EXPECT_EQ(rq.pop_leftmost(), 3);
  EXPECT_EQ(rq.pop_leftmost(), 7);
}

TEST(CfsRunqueue, WeightsTracked) {
  CfsRunqueue rq;
  rq.enqueue(1, 0.0, 1024);
  rq.enqueue(2, 1.0, 335);
  EXPECT_EQ(rq.total_weight(), 1359u);
  rq.pop_leftmost();
  EXPECT_EQ(rq.total_weight(), 335u);
  rq.remove(2, 1.0);
  EXPECT_EQ(rq.total_weight(), 0u);
}

TEST(CfsRunqueue, RemoveSpecific) {
  CfsRunqueue rq;
  rq.enqueue(1, 5.0, 1024);
  rq.enqueue(2, 6.0, 1024);
  EXPECT_TRUE(rq.remove(1, 5.0));
  EXPECT_FALSE(rq.remove(1, 5.0));          // already gone
  EXPECT_FALSE(rq.remove(2, 999.0));        // wrong key
  EXPECT_EQ(rq.size(), 1u);
}

TEST(CfsRunqueue, DuplicateEnqueueThrows) {
  CfsRunqueue rq;
  rq.enqueue(1, 5.0, 1024);
  EXPECT_THROW(rq.enqueue(1, 5.0, 1024), std::logic_error);
}

TEST(CfsRunqueue, MinVruntimeMonotone) {
  CfsRunqueue rq;
  rq.enqueue(1, 10.0, 1024);
  rq.pop_leftmost();
  EXPECT_DOUBLE_EQ(rq.min_vruntime(), 10.0);
  rq.enqueue(2, 5.0, 1024);  // earlier arrival cannot lower the floor
  rq.pop_leftmost();
  EXPECT_DOUBLE_EQ(rq.min_vruntime(), 10.0);
  rq.enqueue(3, 50.0, 1024);
  rq.pop_leftmost();
  EXPECT_DOUBLE_EQ(rq.min_vruntime(), 50.0);
}

TEST(CfsRunqueue, QueuedSnapshotOrdered) {
  CfsRunqueue rq;
  rq.enqueue(4, 3.0, 1024);
  rq.enqueue(9, 1.0, 1024);
  EXPECT_EQ(rq.queued(), (std::vector<ThreadId>{9, 4}));
}

TEST(CfsRunqueue, ManyEntriesStressOrdering) {
  CfsRunqueue rq;
  for (int i = 0; i < 500; ++i) {
    rq.enqueue(i, static_cast<double>((i * 7919) % 1000), 1024);
  }
  double prev = -1;
  while (!rq.empty()) {
    const double v = rq.leftmost_vruntime();
    EXPECT_GE(v, prev);
    prev = v;
    rq.pop_leftmost();
  }
}

// A reference model of the runqueue on std::set, ordered by the same
// (vruntime, tid) key.
struct ModelEntry {
  double vruntime;
  ThreadId tid;
  std::uint32_t weight;
  bool operator<(const ModelEntry& o) const {
    if (vruntime != o.vruntime) return vruntime < o.vruntime;
    return tid < o.tid;
  }
};

struct ModelRunqueue {
  std::set<ModelEntry> queue;
  double min_vruntime = 0.0;
  std::uint64_t total_weight = 0;

  bool contains(double vruntime, ThreadId tid) const {
    return queue.count(ModelEntry{vruntime, tid, 0}) != 0;
  }
  void enqueue(ThreadId tid, double vruntime, std::uint32_t weight) {
    queue.insert(ModelEntry{vruntime, tid, weight});
    total_weight += weight;
    min_vruntime = std::max(min_vruntime, queue.begin()->vruntime);
  }
  bool remove(ThreadId tid, double vruntime) {
    const auto it = queue.find(ModelEntry{vruntime, tid, 0});
    if (it == queue.end()) return false;
    total_weight -= it->weight;
    queue.erase(it);
    return true;
  }
  ThreadId pop_leftmost() {
    if (queue.empty()) return kInvalidThread;
    const ModelEntry e = *queue.begin();
    queue.erase(queue.begin());
    min_vruntime = std::max(min_vruntime, e.vruntime);
    total_weight -= e.weight;
    return e.tid;
  }
  std::vector<ThreadId> queued() const {
    std::vector<ThreadId> out;
    for (const auto& e : queue) out.push_back(e.tid);
    return out;
  }
};

void expect_same(const CfsRunqueue& rq, const ModelRunqueue& model, int step) {
  ASSERT_EQ(rq.size(), model.queue.size()) << "step " << step;
  ASSERT_EQ(rq.queued(), model.queued()) << "step " << step;
  ASSERT_EQ(rq.total_weight(), model.total_weight) << "step " << step;
  ASSERT_EQ(rq.min_vruntime(), model.min_vruntime) << "step " << step;
  if (model.queue.empty()) {
    ASSERT_EQ(rq.leftmost(), kInvalidThread) << "step " << step;
    ASSERT_THROW(rq.leftmost_vruntime(), std::logic_error) << "step " << step;
  } else {
    ASSERT_EQ(rq.leftmost(), model.queue.begin()->tid) << "step " << step;
    ASSERT_EQ(rq.leftmost_vruntime(), model.queue.begin()->vruntime)
        << "step " << step;
  }
}

TEST(CfsRunqueue, MatchesASetModelOverRandomOperations) {
  // Small integer vruntimes and few tids make ties and duplicate keys
  // common; the queue holds up to a few dozen entries.
  CfsRunqueue rq;
  ModelRunqueue model;
  Rng rng(20150607);
  int duplicates = 0;
  int absent_removes = 0;
  for (int step = 0; step < 100'000; ++step) {
    const auto tid = static_cast<ThreadId>(rng.randi(0, 12));
    const auto vruntime = static_cast<double>(rng.randi(0, 16));
    const auto weight = static_cast<std::uint32_t>(rng.randi(1, 90000));
    const std::size_t n = model.queue.size();
    const double grow = n < 4 ? 0.7 : n > 30 ? 0.3 : 0.5;
    const double pick = rng.uniform();
    if (pick < grow) {
      if (model.contains(vruntime, tid)) {
        ++duplicates;
        ASSERT_THROW(rq.enqueue(tid, vruntime, weight), std::logic_error);
      } else {
        rq.enqueue(tid, vruntime, weight);
        model.enqueue(tid, vruntime, weight);
      }
    } else if (pick < grow + 0.1 && n > 0) {
      // Re-enqueue a queued entry exactly.
      auto it = model.queue.begin();
      std::advance(it, rng.randi(0, static_cast<std::int64_t>(n)));
      ++duplicates;
      ASSERT_THROW(rq.enqueue(it->tid, it->vruntime, it->weight),
                   std::logic_error);
    } else if (pick < grow + 0.25 && n > 0) {
      auto it = model.queue.begin();
      std::advance(it, rng.randi(0, static_cast<std::int64_t>(n)));
      const ModelEntry e = *it;
      ASSERT_TRUE(model.remove(e.tid, e.vruntime));
      ASSERT_TRUE(rq.remove(e.tid, e.vruntime)) << "step " << step;
    } else if (pick < grow + 0.35) {
      const bool present = model.contains(vruntime, tid);
      if (!present) ++absent_removes;
      ASSERT_EQ(rq.remove(tid, vruntime), model.remove(tid, vruntime))
          << "step " << step;
    } else {
      ASSERT_EQ(rq.pop_leftmost(), model.pop_leftmost()) << "step " << step;
    }
    ASSERT_NO_FATAL_FAILURE(expect_same(rq, model, step));
  }
  EXPECT_GT(duplicates, 1000);
  EXPECT_GT(absent_removes, 1000);
}

}  // namespace
}  // namespace sb::os
