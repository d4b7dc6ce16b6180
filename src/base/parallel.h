// The library's one work pool (DESIGN.md §7): RunFleet runs its systems on
// it, TraceReplayer its (run, system) units and Study its per-system folds.
// Workers claim item indexes in order from one atomic counter, so a caller
// that wants its longest units started first lists them first. One worker
// is a one-thread pool: every worker count runs the same code.

#ifndef SRC_BASE_PARALLEL_H_
#define SRC_BASE_PARALLEL_H_

#include <algorithm>
#include <atomic>
#include <numeric>
#include <thread>
#include <type_traits>
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

// ParallelFor over `items` at WorkerCount(workers, items), calling fn(item)
// with the heaviest items (by weight(item), ties to the lower index)
// claimed first.
template <typename Weight, typename Fn>
void ParallelForHeaviestFirst(int items, int workers, const Weight& weight, const Fn& fn) {
  std::vector<int> order(static_cast<size_t>(std::max(items, 0)));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&weight](int a, int b) { return weight(a) > weight(b); });
  ParallelFor(items, WorkerCount(workers, items),
              [&](int i, int) { fn(order[static_cast<size_t>(i)]); });
}

// A fold: fold(item) for every item, run as ParallelForHeaviestFirst, with
// the partials returned in item order. A caller that combines them in that
// order gets the same bytes at every worker count.
template <typename Weight, typename Fold>
auto ParallelFold(int items, int workers, const Weight& weight, const Fold& fold) {
  std::vector<std::invoke_result_t<const Fold&, int>> partials(
      static_cast<size_t>(std::max(items, 0)));
  ParallelForHeaviestFirst(items, workers, weight,
                           [&](int item) { partials[static_cast<size_t>(item)] = fold(item); });
  return partials;
}

}  // namespace ntrace

#endif  // SRC_BASE_PARALLEL_H_
