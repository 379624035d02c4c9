// Minimal deterministic fork-join helper shared by the experiment runner
// (batch-level parallelism across simulations) and the sharded balancer
// (intra-epoch parallelism across cluster-local SA passes).
//
// parallel_for distributes tasks [0, n) over a transient pool of worker
// threads using an atomic work-stealing index. Callers that need
// determinism must make each task self-contained (own RNG stream, own
// scratch, writes only to its own output slot) — then the result is
// independent of worker count and completion order, which is exactly the
// contract the runner has guaranteed since PR 1 and the sharded balancer
// inherits.
#pragma once

#include <cstddef>
#include <functional>

namespace sb::common {

/// Resolves a worker count: `requested` if > 0, else the SB_JOBS
/// environment variable if set to a positive integer (a malformed value
/// logs a warning), else std::thread::hardware_concurrency() (at least 1).
int resolve_jobs(int requested);

/// Runs fn(task) for every task in [0, n), spread over at most `threads`
/// workers (clamped to n). With one worker (or n <= 1) the tasks run
/// inline on the calling thread — no spawn, no allocation. fn receives
/// (task_index, worker_index); worker_index is stable within a worker and
/// < the actual worker count, letting callers keep per-worker accounting
/// without locks. Workers are joined before parallel_for returns. A task
/// that throws does not stop the others: every task runs, and the
/// lowest-indexed task's exception is rethrown after the join, so which
/// error surfaces does not depend on the worker count.
void parallel_for(std::size_t n, int threads,
                  const std::function<void(std::size_t task, int worker)>& fn);

}  // namespace sb::common
