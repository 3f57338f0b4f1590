// Per-batch runtime counters reported by every ParallelRunner batch and the
// core batch estimator APIs built on it: how many tasks ran, how much
// domain-level work they did (walk steps / hops), and how long the batch
// took in wall-clock and CPU time. The counters are what the bench
// harness surfaces next to each figure so speedups are visible in the
// output, not just in a stopwatch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace overcount {

/// Counters for one batch of estimator tasks.
struct BatchStats {
  std::size_t tasks = 0;         ///< tasks executed in the batch
  std::uint64_t steps = 0;       ///< domain work units (walk steps / hops)
  double wall_seconds = 0.0;     ///< elapsed wall-clock time
  double cpu_seconds = 0.0;      ///< CPU time of the batch's threads (summed)
  unsigned threads = 1;          ///< pool size the batch ran on

  /// Aggregate throughput; 0 when no time elapsed.
  double steps_per_second() const noexcept;

  /// CPU utilisation relative to a perfect `threads`-way parallel run
  /// (cpu / (wall * threads)); 0 when no time elapsed.
  double parallel_efficiency() const noexcept;

  /// "metric -> rendered value" rows for util/table.hpp's print_counters.
  std::vector<std::pair<std::string, std::string>> counter_rows() const;
};

/// Prints the counters as a one-row table (delegates to print_counters).
void print_batch_stats(std::ostream& os, const BatchStats& stats);

}  // namespace overcount
