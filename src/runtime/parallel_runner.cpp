#include "runtime/parallel_runner.hpp"

#include <chrono>

#include <time.h>

// Header-only span tracing (obs/trace.hpp): the runtime layer stays below
// obs in the link graph — TraceSpan and the active-recorder check are all
// inline, so no overcount_obs symbols are referenced from here.
#include "obs/trace.hpp"

namespace overcount {

std::vector<Rng> derive_streams(std::uint64_t seed, std::size_t n) {
  Rng master(seed);
  std::vector<Rng> streams;
  streams.reserve(n);
  for (std::size_t i = 0; i < n; ++i) streams.push_back(master.split());
  return streams;
}

double tree_sum(std::span<const double> xs) {
  return tree_reduce(xs, 0.0, [](double a, double b) { return a + b; });
}

namespace {

/// CPU time consumed so far by the calling thread.
double thread_cpu_seconds() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

ParallelRunner::ParallelRunner(unsigned n_threads, std::size_t kernel_width)
    : kernel_width_(kernel_width) {
  if (n_threads == 0) n_threads = std::thread::hardware_concurrency();
  if (n_threads == 0) n_threads = 1;  // hardware_concurrency may report 0
  workers_.reserve(n_threads);
  for (unsigned t = 0; t < n_threads; ++t)
    workers_.emplace_back([this] { worker_loop(); });
}

ParallelRunner::~ParallelRunner() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ParallelRunner::dispatch(std::size_t n,
                              const std::function<void(std::size_t)>& fn,
                              BatchStats* stats) {
  const auto wall_start = std::chrono::steady_clock::now();
  double cpu_seconds = 0.0;  // summed over the workers that ran the batch
  TraceSpan batch_span("runner", "runner.dispatch", "tasks",
                       static_cast<std::uint64_t>(n));
  if (n > 0) {
    {
      std::lock_guard lock(mutex_);
      job_ = &fn;
      job_size_ = n;
      next_index_.store(0, std::memory_order_relaxed);
      active_workers_ = workers_.size();
      job_cpu_seconds_ = 0.0;
      ++generation_;
    }
    work_cv_.notify_all();
    std::unique_lock lock(mutex_);
    done_cv_.wait(lock, [&] { return active_workers_ == 0; });
    job_ = nullptr;
    cpu_seconds = job_cpu_seconds_;
  }
  if (stats != nullptr) {
    stats->tasks = n;
    stats->threads = thread_count();
    stats->wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    stats->cpu_seconds = cpu_seconds;
  }
}

void ParallelRunner::worker_loop() {
  std::uint64_t seen_generation = 0;
  for (;;) {
    const std::function<void(std::size_t)>* job = nullptr;
    std::size_t size = 0;
    {
      std::unique_lock lock(mutex_);
      work_cv_.wait(lock, [&] {
        return stopping_ || generation_ != seen_generation;
      });
      if (stopping_) return;
      seen_generation = generation_;
      job = job_;
      size = job_size_;
    }
    // Per-task spans only when a recorder is live: the check is hoisted out
    // of the pull loop, so the untraced path stays one atomic load per
    // BATCH, not per task.
    const bool tracing = trace_active();
    const double cpu_start = thread_cpu_seconds();
    for (std::size_t i = next_index_.fetch_add(1, std::memory_order_relaxed);
         i < size;
         i = next_index_.fetch_add(1, std::memory_order_relaxed)) {
      if (tracing) {
        TraceSpan task_span("runner", "runner.task", "index",
                            static_cast<std::uint64_t>(i));
        (*job)(i);
      } else {
        (*job)(i);
      }
    }
    const double cpu_used = thread_cpu_seconds() - cpu_start;
    {
      std::lock_guard lock(mutex_);
      job_cpu_seconds_ += cpu_used;
      if (--active_workers_ == 0) done_cv_.notify_all();
    }
  }
}

}  // namespace overcount
