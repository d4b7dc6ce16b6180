// The library's one work pool (DESIGN.md §7): RunFleet runs its systems on
// it and TraceReplayer its (run, system) units. Workers claim item indexes
// in order from one atomic counter, so a caller that wants its longest
// units started first lists them first. One worker is a one-thread pool:
// every worker count runs the same code.

#ifndef SRC_BASE_PARALLEL_H_
#define SRC_BASE_PARALLEL_H_

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

namespace ntrace {

// `requested` workers (<= 0: hardware concurrency), clamped to
// [1, max(items, 1)].
inline int WorkerCount(int requested, int items) {
  if (requested <= 0) {
    requested = static_cast<int>(std::thread::hardware_concurrency());  // 0 if unknown.
  }
  return std::clamp(requested, 1, std::max(items, 1));
}

// Calls fn(item, worker) once for every item in [0, items), concurrently
// from `workers` threads, with worker in [0, workers), and returns once all
// have joined. `fn` must not throw: an exception leaving a worker ends the
// program (std::terminate).
template <typename Fn>
void ParallelFor(int items, int workers, const Fn& fn) {
  std::atomic<int> next{0};
  std::vector<std::jthread> pool;  // Joined on return.
  for (int w = 0; w < workers; ++w) {
    pool.emplace_back([&next, &fn, items, w] {
      for (int i = next.fetch_add(1); i < items; i = next.fetch_add(1)) {
        fn(i, w);
      }
    });
  }
}

}  // namespace ntrace

#endif  // SRC_BASE_PARALLEL_H_
