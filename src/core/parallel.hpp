// Batch front-ends for the paper's estimators, fanned across a
// ParallelRunner (src/runtime/): a batch of m independent Random Tours,
// CTRW samples or Sample & Collide trials, walk i on the `Rng::split()`
// stream indexed by i.
//
// Reproducibility contract: for a fixed (graph, origin, parameters, seed)
// the returned batch — every per-trial result AND every reduced aggregate —
// is bit-identical for any `n_threads`, including 1. Per-trial results are
// stored by walk index and floating-point aggregates go through the fixed
// pairwise tree reduction of runtime/parallel_runner.hpp, so scheduling
// never leaks into the numbers.
//
// Truncated tours (a `max_steps` abort) are excluded from the reduced
// aggregates and reported via TourBatch::truncated instead of silently
// biasing the mean — see TourEstimate::completed.
//
// Hot path: when the batch is at least one kernel width wide (W =
// resolved_kernel_width(runner.kernel_width()), default 16, runner option /
// OVERCOUNT_KERNEL_WIDTH), the tour, CTRW-sample and S&C batches run the
// interleaved prefetching kernel of walk/kernel.hpp (detail::run_walks):
// each pool worker runs ONE kernel call of up to W lanes for the whole
// batch, and all of them refill their lanes from one batch-wide WalkCursor,
// so no lane idles while unstarted walks remain. The lane count is capped
// at ceil(m / threads) so one worker cannot claim a small batch alone. The
// kernel replays the scalar per-walk draw order exactly, results land in
// the same walk-index slots, and probed variants fold the same per-walk
// WalkStats in the same order, so everything above stays bit-identical
// whether the kernel, the scalar path, or any thread count ran the batch
// (tests/walk/kernel_equivalence_test.cpp, tests/walk/lane_refill_test.cpp).
// Width 1 forces the scalar path. Origins are validated unconditionally
// here at batch entry; the per-step degree checks inside the walks compile
// out of plain Release builds (OVERCOUNT_HOT_CHECKS, util/contracts.hpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/random_tour.hpp"
#include "core/sample_collide.hpp"
#include "core/sampling.hpp"
#include "obs/cost/cost.hpp"
#include "obs/probe.hpp"
#include "runtime/parallel_runner.hpp"
#include "walk/kernel.hpp"
#include "walk/walkers.hpp"

namespace overcount {

/// A batch of Random Tours from one origin.
struct TourBatch {
  std::vector<TourEstimate> tours;  ///< all m tours, task-index order
  std::size_t completed = 0;        ///< tours that returned to the origin
  std::size_t truncated = 0;        ///< tours aborted by max_steps (dropped)
  double sum = 0.0;            ///< tree-reduced sum of COMPLETED estimates
  std::uint64_t total_steps = 0;  ///< walk steps across all tours
  BatchStats stats;

  /// True when at least one tour completed, i.e. mean() is a usable size
  /// estimate. A batch where EVERY tour hit max_steps has no unbiased
  /// information at all.
  bool ok() const noexcept { return completed > 0; }

  /// Mean of the completed (unbiased) estimates. NaN when every tour was
  /// truncated — deliberately not 0.0, so a failed batch can never be
  /// mistaken for a tiny size estimate downstream; check ok() first.
  double mean() const noexcept {
    return ok() ? sum / static_cast<double>(completed)
                : std::numeric_limits<double>::quiet_NaN();
  }
};

/// A batch of CTRW sampling walks from one origin.
struct SampleBatch {
  std::vector<SampleResult> samples;  ///< task-index order
  std::uint64_t total_hops = 0;
  BatchStats stats;
};

/// A batch of independent Sample & Collide measurements from one origin.
struct ScBatch {
  std::vector<ScEstimate> trials;  ///< task-index order
  double sum_simple = 0.0;         ///< tree-reduced sum of C^2/(2l) values
  double sum_ml = 0.0;             ///< tree-reduced sum of ML estimates
  std::uint64_t total_hops = 0;
  BatchStats stats;

  double mean_simple() const noexcept {
    return trials.empty() ? 0.0
                          : sum_simple / static_cast<double>(trials.size());
  }
  double mean_ml() const noexcept {
    return trials.empty() ? 0.0
                          : sum_ml / static_cast<double>(trials.size());
  }
};

namespace detail {

/// Deterministic fold of per-task WalkStats, in task-index order. Integer
/// counters and histogram buckets are order-independent sums; the one
/// floating-point field (sojourn_time) goes through the same pairwise tree
/// reduction as every batch aggregate, so the merged stats are bit-identical
/// at any thread count.
inline WalkStats fold_walk_stats(std::span<const WalkStats> parts) {
  WalkStats out;
  std::vector<double> sojourns;
  sojourns.reserve(parts.size());
  for (const auto& p : parts) {
    out.merge_counts(p);
    sojourns.push_back(p.sojourn_time);
  }
  out.sojourn_time = tree_sum(sojourns);
  return out;
}

/// Applies the Section 4 estimator math to one raw kernel trial. The trial
/// stopped at exactly `ell` collisions, so this reproduces bit-identically
/// what SampleCollideEstimator::estimate computes from its tracker.
inline ScEstimate finalize_sc_trial(const ScTrialRaw& raw, std::size_t ell) {
  ScEstimate out;
  out.samples = raw.samples;
  out.hops = raw.hops;
  out.replies = raw.samples;
  const auto collisions = static_cast<std::uint64_t>(ell);
  out.ml = sc_ml_estimate(raw.samples, collisions);
  out.simple = sc_simple_estimate(raw.samples, collisions);
  const auto bracket = sc_bracket(raw.samples, collisions);
  out.n_minus = bracket.n_minus;
  out.n_plus = bracket.n_plus;
  return out;
}

/// Fills the shared tail of TourBatch from the per-tour results.
inline void finish_tour_batch(TourBatch& batch) {
  std::vector<double> completed_values;
  completed_values.reserve(batch.tours.size());
  for (const auto& t : batch.tours) {
    batch.total_steps += t.steps;
    if (t.completed) {
      ++batch.completed;
      completed_values.push_back(t.value);
    } else {
      ++batch.truncated;
    }
  }
  batch.sum = tree_sum(completed_values);
  batch.stats.steps = batch.total_steps;
}


/// Fills the shared tail of ScBatch from the per-trial results.
inline void finish_sc_batch(ScBatch& batch) {
  std::vector<double> simple, ml;
  simple.reserve(batch.trials.size());
  ml.reserve(batch.trials.size());
  for (const auto& t : batch.trials) {
    batch.total_hops += t.hops;
    simple.push_back(t.simple);
    ml.push_back(t.ml);
  }
  batch.sum_simple = tree_sum(simple);
  batch.sum_ml = tree_sum(ml);
  batch.stats.steps = batch.total_hops;
}

/// One WalkStatsProbe per walk; probe w records into per_walk[w].
inline std::vector<WalkStatsProbe> walk_probes(
    std::vector<WalkStats>& per_walk) {
  std::vector<WalkStatsProbe> probes;
  probes.reserve(per_walk.size());
  for (auto& stats : per_walk) probes.emplace_back(stats);
  return probes;
}

/// The probe a scalar walk w takes: probes[w], or a NullProbe when the
/// batch is unprobed (`probes` is then empty).
template <typename P>
decltype(auto) walk_probe(std::span<P> probes, std::size_t w) {
  if constexpr (probe_enabled_v<P>)
    return (probes[w]);
  else
    return NullProbe{};
}

/// Runs walks [begin, end) of a batch on `runner`, each exactly once. At
/// kernel width W > 1 and at least W walks, the pool runs min(threads, m)
/// tasks, each ONE `kernel(cursor, lanes)` call with min(W, ceil(m /
/// threads)) lanes, all refilling from one shared cursor. Otherwise every
/// walk i is its own `scalar(i)` task. Either way walk i writes only its
/// own result slot, so the batch cannot depend on the path or the schedule.
/// Returns whether the kernel ran.
template <typename Kernel, typename Scalar>
bool run_walks(ParallelRunner& runner, std::size_t begin, std::size_t end,
               Kernel&& kernel, Scalar&& scalar, BatchStats& stats) {
  const std::size_t m = end - begin;
  const std::size_t width = resolved_kernel_width(runner.kernel_width());
  const bool use_kernel = width > 1 && m >= width;
  if (use_kernel) {
    const std::size_t tasks =
        std::min<std::size_t>(runner.thread_count(), m);
    const std::size_t lanes = std::min(width, (m + tasks - 1) / tasks);
    WalkCursor cursor(begin, end);
    runner.run<char>(
        tasks,
        [&](std::size_t) {
          kernel(cursor, lanes);
          return char{0};
        },
        &stats);
  } else {
    runner.run<char>(
        m,
        [&](std::size_t i) {
          scalar(begin + i);
          return char{0};
        },
        &stats);
  }
  stats.tasks = m;  // how the walks were packed into tasks is internal
  return use_kernel;
}

/// Random Tours [begin, end) of a batch whose walk w runs on streams[w]
/// and stores into tours[w].
template <typename P, OverlayTopology G, typename F>
void run_tour_walks(const G& g, NodeId origin, F& f,
                    std::span<const Rng> streams,
                    std::span<TourEstimate> tours, std::size_t begin,
                    std::size_t end, std::uint64_t max_steps,
                    std::span<P> probes, ParallelRunner& runner,
                    BatchStats& stats) {
  run_walks(
      runner, begin, end,
      [&](WalkCursor& cursor, std::size_t lanes) {
        tour_kernel(g, origin, f, streams, tours, lanes, cursor, max_steps,
                    probes);
      },
      [&](std::size_t w) {
        Rng rng = streams[w];
        tours[w] = random_tour(g, origin, f, rng, max_steps,
                               walk_probe(probes, w));
      },
      stats);
}

/// Sample & Collide trials [begin, end) of a batch whose trial t runs on
/// streams[t] and stores into trials[t].
template <typename P, OverlayTopology G>
void run_sc_walks(const G& g, NodeId origin, double timer, std::size_t ell,
                  std::span<const Rng> streams, std::span<ScEstimate> trials,
                  std::size_t begin, std::size_t end, std::span<P> probes,
                  ParallelRunner& runner, BatchStats& stats) {
  std::vector<ScTrialRaw> raw(trials.size());
  const bool kernel_ran = run_walks(
      runner, begin, end,
      [&](WalkCursor& cursor, std::size_t lanes) {
        sc_kernel(g, origin, timer, ell, streams, std::span<ScTrialRaw>(raw),
                  lanes, cursor, probes);
      },
      [&](std::size_t t) {
        SampleCollideEstimator estimator(g, origin, timer, ell, streams[t]);
        trials[t] = estimator.estimate(walk_probe(probes, t));
      },
      stats);
  if (kernel_ran)
    for (std::size_t t = begin; t < end; ++t)
      trials[t] = finalize_sc_trial(raw[t], ell);
}

/// The body of run_tours and run_tours_probed; with P = NullProbe the
/// `probes` span is empty and the walks run unprobed.
template <typename P, OverlayTopology G, typename F>
TourBatch tour_batch(const G& g, NodeId origin, std::size_t m, F& f,
                     std::uint64_t seed, ParallelRunner& runner,
                     std::uint64_t max_steps, std::span<P> probes) {
  OVERCOUNT_EXPECTS(g.degree(origin) > 0);  // unconditional boundary check
  TourBatch batch;
  batch.tours.resize(m);
  const auto streams = derive_streams(seed, m);
  run_tour_walks(g, origin, f, std::span<const Rng>(streams),
                 std::span<TourEstimate>(batch.tours), 0, m, max_steps,
                 probes, runner, batch.stats);
  finish_tour_batch(batch);
  // Cost attribution rides the caller's CostScope (serve batches set one);
  // one charge per batch, never per step. No-op without an active ledger.
  cost_charge_batch(batch.stats.steps, batch.stats.tasks,
                    batch.stats.cpu_seconds);
  return batch;
}

/// The body of run_samples and run_samples_probed (see tour_batch).
template <typename P, OverlayTopology G>
SampleBatch sample_batch(const G& g, NodeId origin, std::size_t m,
                         double timer, std::uint64_t seed,
                         ParallelRunner& runner, std::span<P> probes) {
  OVERCOUNT_EXPECTS(g.degree(origin) > 0);  // unconditional boundary check
  SampleBatch batch;
  batch.samples.resize(m);
  const auto streams = derive_streams(seed, m);
  run_walks(
      runner, 0, m,
      [&](WalkCursor& cursor, std::size_t lanes) {
        ctrw_kernel(g, origin, timer, std::span<const Rng>(streams),
                    std::span<SampleResult>(batch.samples), lanes, cursor,
                    probes);
      },
      [&](std::size_t w) {
        Rng rng = streams[w];
        batch.samples[w] =
            ctrw_sample(g, origin, timer, rng, walk_probe(probes, w));
      },
      batch.stats);
  for (const auto& s : batch.samples) batch.total_hops += s.hops;
  batch.stats.steps = batch.total_hops;
  cost_charge_batch(batch.stats.steps, batch.stats.tasks,
                    batch.stats.cpu_seconds);
  return batch;
}

/// The body of run_sc_trials and run_sc_trials_probed (see tour_batch).
template <typename P, OverlayTopology G>
ScBatch sc_batch(const G& g, NodeId origin, std::size_t trials, double timer,
                 std::size_t ell, std::uint64_t seed, ParallelRunner& runner,
                 std::span<P> probes) {
  OVERCOUNT_EXPECTS(g.degree(origin) > 0);  // unconditional boundary check
  ScBatch batch;
  batch.trials.resize(trials);
  const auto streams = derive_streams(seed, trials);
  run_sc_walks(g, origin, timer, ell, std::span<const Rng>(streams),
               std::span<ScEstimate>(batch.trials), 0, trials, probes,
               runner, batch.stats);
  finish_sc_batch(batch);
  cost_charge_batch(batch.stats.steps, batch.stats.tasks,
                    batch.stats.cpu_seconds);
  return batch;
}

}  // namespace detail

/// m independent Random Tours estimating sum_j f(j), on an existing pool.
template <OverlayTopology G, typename F>
TourBatch run_tours(const G& g, NodeId origin, std::size_t m, F f,
                    std::uint64_t seed, ParallelRunner& runner,
                    std::uint64_t max_steps = ~0ULL) {
  return detail::tour_batch(g, origin, m, f, seed, runner, max_steps,
                            std::span<NullProbe>());
}

/// m independent Random Tours on a throwaway pool of `n_threads` threads.
template <OverlayTopology G, typename F>
TourBatch run_tours(const G& g, NodeId origin, std::size_t m, F f,
                    std::uint64_t seed, unsigned n_threads,
                    std::uint64_t max_steps = ~0ULL) {
  ParallelRunner runner(n_threads);
  return run_tours(g, origin, m, f, seed, runner, max_steps);
}

/// m independent Random Tour size estimates (f = 1).
template <OverlayTopology G>
TourBatch run_tours_size(const G& g, NodeId origin, std::size_t m,
                         std::uint64_t seed, ParallelRunner& runner,
                         std::uint64_t max_steps = ~0ULL) {
  return run_tours(
      g, origin, m, [](NodeId) { return 1.0; }, seed, runner, max_steps);
}

template <OverlayTopology G>
TourBatch run_tours_size(const G& g, NodeId origin, std::size_t m,
                         std::uint64_t seed, unsigned n_threads,
                         std::uint64_t max_steps = ~0ULL) {
  ParallelRunner runner(n_threads);
  return run_tours_size(g, origin, m, seed, runner, max_steps);
}

/// m independent Random Tours with per-walk probe statistics: each walk
/// records into its own WalkStats (one WalkStatsProbe per tour, so revisit
/// tracking stays walk-local) and `walk_out` receives the deterministic
/// fold. The batch itself — every tour, the reduced sum, BatchStats — is
/// bit-identical to the unprobed run_tours of the same (seed, m): probes
/// observe the walk, they never draw from its stream.
template <OverlayTopology G, typename F>
TourBatch run_tours_probed(const G& g, NodeId origin, std::size_t m, F f,
                           std::uint64_t seed, ParallelRunner& runner,
                           WalkStats& walk_out,
                           std::uint64_t max_steps = ~0ULL) {
  std::vector<WalkStats> per_walk(m);
  auto probes = detail::walk_probes(per_walk);
  TourBatch batch = detail::tour_batch(g, origin, m, f, seed, runner,
                                       max_steps,
                                       std::span<WalkStatsProbe>(probes));
  walk_out = detail::fold_walk_stats(per_walk);
  return batch;
}

/// Probed Random Tour size batch (f = 1).
template <OverlayTopology G>
TourBatch run_tours_size_probed(const G& g, NodeId origin, std::size_t m,
                                std::uint64_t seed, ParallelRunner& runner,
                                WalkStats& walk_out,
                                std::uint64_t max_steps = ~0ULL) {
  return run_tours_probed(
      g, origin, m, [](NodeId) { return 1.0; }, seed, runner, walk_out,
      max_steps);
}

template <OverlayTopology G>
TourBatch run_tours_size_probed(const G& g, NodeId origin, std::size_t m,
                                std::uint64_t seed, unsigned n_threads,
                                WalkStats& walk_out,
                                std::uint64_t max_steps = ~0ULL) {
  ParallelRunner runner(n_threads);
  return run_tours_size_probed(g, origin, m, seed, runner, walk_out,
                               max_steps);
}

/// m independent CTRW samples (paper Section 4.1) from `origin`.
template <OverlayTopology G>
SampleBatch run_samples(const G& g, NodeId origin, std::size_t m,
                        double timer, std::uint64_t seed,
                        ParallelRunner& runner) {
  return detail::sample_batch(g, origin, m, timer, seed, runner,
                              std::span<NullProbe>());
}

template <OverlayTopology G>
SampleBatch run_samples(const G& g, NodeId origin, std::size_t m,
                        double timer, std::uint64_t seed,
                        unsigned n_threads) {
  ParallelRunner runner(n_threads);
  return run_samples(g, origin, m, timer, seed, runner);
}

/// m independent CTRW samples with per-walk probe statistics (see
/// run_tours_probed for the determinism contract).
template <OverlayTopology G>
SampleBatch run_samples_probed(const G& g, NodeId origin, std::size_t m,
                               double timer, std::uint64_t seed,
                               ParallelRunner& runner, WalkStats& walk_out) {
  std::vector<WalkStats> per_walk(m);
  auto probes = detail::walk_probes(per_walk);
  SampleBatch batch = detail::sample_batch(
      g, origin, m, timer, seed, runner, std::span<WalkStatsProbe>(probes));
  walk_out = detail::fold_walk_stats(per_walk);
  return batch;
}

/// `trials` independent Sample & Collide measurements, each sampling until
/// `ell` collisions on its own stream.
template <OverlayTopology G>
ScBatch run_sc_trials(const G& g, NodeId origin, std::size_t trials,
                      double timer, std::size_t ell, std::uint64_t seed,
                      ParallelRunner& runner) {
  return detail::sc_batch(g, origin, trials, timer, ell, seed, runner,
                          std::span<NullProbe>());
}

template <OverlayTopology G>
ScBatch run_sc_trials(const G& g, NodeId origin, std::size_t trials,
                      double timer, std::size_t ell, std::uint64_t seed,
                      unsigned n_threads) {
  ParallelRunner runner(n_threads);
  return run_sc_trials(g, origin, trials, timer, ell, seed, runner);
}

/// `trials` probed Sample & Collide measurements: the fold additionally
/// carries the collision-interarrival histogram (see run_tours_probed for
/// the determinism contract).
template <OverlayTopology G>
ScBatch run_sc_trials_probed(const G& g, NodeId origin, std::size_t trials,
                             double timer, std::size_t ell,
                             std::uint64_t seed, ParallelRunner& runner,
                             WalkStats& walk_out) {
  std::vector<WalkStats> per_walk(trials);
  auto probes = detail::walk_probes(per_walk);
  ScBatch batch =
      detail::sc_batch(g, origin, trials, timer, ell, seed, runner,
                       std::span<WalkStatsProbe>(probes));
  walk_out = detail::fold_walk_stats(per_walk);
  return batch;
}

}  // namespace overcount
