// Deterministic fan-out of independent estimator tasks over a fixed-size
// thread pool.
//
// The paper's experiments are thousands of independent Random Tours, CTRW
// samples and Sample & Collide trials; each draws from its own RNG stream
// and touches nothing shared, so they are embarrassingly parallel (the same
// observation Das Sarma et al. exploit for distributed walks). The runner
// preserves the library's reproducibility contract under that parallelism:
//
//  * Each task `i` draws from a stream derived by the i-th `Rng::split()`
//    of a master generator seeded from the batch seed — a pure function of
//    (seed, i), never of scheduling.
//  * Results land in slot `i` of the result vector, so the returned batch
//    is BIT-IDENTICAL for any thread count, including 1.
//  * Floating-point accumulation over a batch goes through a fixed pairwise
//    tree reduction (tree_sum below), never a scheduling-ordered sum.
//
// The pool is deliberately work-stealing-free: workers pull task indices
// from a single atomic counter. Tours on the same graph have similar cost,
// so a shared counter load-balances fine and keeps the dispatch auditable.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "runtime/batch_stats.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace overcount {

/// The per-task RNG streams for a batch of `n` tasks: the i-th split() of a
/// master Rng seeded with `seed`. Pure in (seed, n) — this is the whole
/// determinism story, so batch APIs must derive streams ONLY through here.
std::vector<Rng> derive_streams(std::uint64_t seed, std::size_t n);

/// Deterministic pairwise tree reduction of `xs` with a binary `op`:
/// combines adjacent pairs, then pairs of pairs, and so on. For
/// floating-point `op` the association order is fixed by the input order
/// alone, so the result is reproducible across thread counts and (unlike a
/// left fold) accumulates error in O(log n) depth.
template <typename T, typename Op>
T tree_reduce(std::span<const T> xs, T identity, Op op) {
  if (xs.empty()) return identity;
  std::vector<T> level(xs.begin(), xs.end());
  while (level.size() > 1) {
    std::size_t out = 0;
    for (std::size_t i = 0; i + 1 < level.size(); i += 2)
      level[out++] = op(level[i], level[i + 1]);
    if (level.size() % 2 == 1) level[out++] = level.back();
    level.resize(out);
  }
  return level.front();
}

/// Pairwise-tree sum of doubles (the reduction every batch mean uses).
double tree_sum(std::span<const double> xs);

/// Fixed-size thread pool for batches of independent indexed tasks.
///
/// One runner owns `thread_count()` worker threads for its whole lifetime;
/// run() dispatches a batch and blocks until every task finished. run() may
/// only be called from one thread at a time (the pool is not reentrant).
class ParallelRunner {
 public:
  /// `n_threads == 0` means std::thread::hardware_concurrency().
  /// `kernel_width` configures the interleaved walk kernel the batch APIs
  /// (core/parallel.hpp) run per worker: 0 defers to the
  /// OVERCOUNT_KERNEL_WIDTH environment variable and then the library
  /// default (walk/kernel.hpp), 1 forces the scalar path, W >= 2 interleaves
  /// W walks per task. The runner only stores the setting — resolution and
  /// use live in the walk/core layers, so the runtime layer stays free of
  /// walk dependencies.
  explicit ParallelRunner(unsigned n_threads = 0,
                          std::size_t kernel_width = 0);
  ~ParallelRunner();

  ParallelRunner(const ParallelRunner&) = delete;
  ParallelRunner& operator=(const ParallelRunner&) = delete;

  unsigned thread_count() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Configured interleave width (0 = resolve from environment/default).
  std::size_t kernel_width() const noexcept { return kernel_width_; }
  void set_kernel_width(std::size_t width) noexcept {
    kernel_width_ = width;
  }

  /// Runs tasks 0..n_tasks-1, `task(i)` exactly once each, and returns the
  /// results in task-index order. T must be default-constructible. If tasks
  /// throw, the exception of the LOWEST task index is rethrown to the
  /// caller after the batch drains (deterministic regardless of which
  /// worker hit it first). `stats`, when non-null, receives the batch
  /// counters (tasks, wall time, threads, and the CPU time of this pool's
  /// workers over the batch, so a concurrent batch on another runner is
  /// never charged to this one; `steps` is left to the caller because only
  /// it knows the domain work units).
  template <typename T, typename Task>
  std::vector<T> run(std::size_t n_tasks, Task&& task,
                     BatchStats* stats = nullptr) {
    std::vector<T> results(n_tasks);
    std::vector<std::exception_ptr> errors(n_tasks);
    dispatch(n_tasks, [&](std::size_t i) {
      try {
        results[i] = task(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }, stats);
    for (auto& e : errors)
      if (e) std::rethrow_exception(e);
    return results;
  }

 private:
  /// Runs fn(0..n-1) on the pool, times the batch, blocks until done.
  void dispatch(std::size_t n, const std::function<void(std::size_t)>& fn,
                BatchStats* stats);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::size_t kernel_width_ = 0;
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::size_t)>* job_ = nullptr;  // guarded by mutex_
  std::size_t job_size_ = 0;                               // guarded by mutex_
  std::atomic<std::size_t> next_index_{0};
  std::size_t active_workers_ = 0;  // guarded by mutex_
  double job_cpu_seconds_ = 0.0;    // guarded by mutex_; workers' CPU delta
  std::uint64_t generation_ = 0;    // guarded by mutex_
  bool stopping_ = false;           // guarded by mutex_
};

}  // namespace overcount
