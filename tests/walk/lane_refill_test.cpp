// Lane refill: every pool worker runs ONE interleaved kernel call for the
// whole batch and refills its lanes from a batch-wide WalkCursor, each lane
// drawing from its own copy of the walk's stream. None of that scheduling
// may reach the numbers. These tests pin every batch the refilled kernel
// builds — tours (with and without max_steps truncation), CTRW samples,
// S&C trials, and the interval groups of the converging runs — bit for bit
// against the width-1 scalar batch, across threads x widths x batch sizes,
// run each kernel on degenerate shapes (P2, a star seen from a leaf, tiny
// batches, widths above the batch size), and check that the shared cursor
// starts every walk exactly once, also when the batch has fewer walks than
// the pool has threads.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/convergence.hpp"
#include "core/parallel.hpp"
#include "graph/generators.hpp"
#include "walk/kernel.hpp"

namespace overcount {
namespace {

constexpr std::uint64_t kSeed = 0x5EED1E5;
const unsigned kThreads[] = {1, 3, 4};
const std::size_t kWidths[] = {2, 5, 16};
const std::size_t kSizes[] = {16, 37, 301};
constexpr double kTimer = 3.0;
constexpr std::size_t kEll = 3;

Graph test_graph() {
  Rng rng(77);
  return balanced_random_graph(300, rng);
}

/// Bitwise equality of doubles, NaN included (a NaN estimate must stay NaN).
void expect_bits_equal(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) {
    EXPECT_TRUE(std::isnan(a) && std::isnan(b));
  } else {
    EXPECT_EQ(a, b);
  }
}

void expect_same_tours(const TourBatch& a, const TourBatch& b) {
  ASSERT_EQ(a.tours.size(), b.tours.size());
  for (std::size_t i = 0; i < a.tours.size(); ++i) {
    EXPECT_EQ(a.tours[i].value, b.tours[i].value) << "tour " << i;
    EXPECT_EQ(a.tours[i].steps, b.tours[i].steps) << "tour " << i;
    EXPECT_EQ(a.tours[i].completed, b.tours[i].completed) << "tour " << i;
  }
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.truncated, b.truncated);
  EXPECT_EQ(a.total_steps, b.total_steps);
  EXPECT_EQ(a.stats.tasks, b.stats.tasks);
  EXPECT_EQ(a.stats.steps, b.stats.steps);
}

void expect_same_trials(const ScBatch& a, const ScBatch& b) {
  ASSERT_EQ(a.trials.size(), b.trials.size());
  for (std::size_t i = 0; i < a.trials.size(); ++i) {
    EXPECT_EQ(a.trials[i].ml, b.trials[i].ml) << "trial " << i;
    EXPECT_EQ(a.trials[i].simple, b.trials[i].simple) << "trial " << i;
    EXPECT_EQ(a.trials[i].n_minus, b.trials[i].n_minus) << "trial " << i;
    EXPECT_EQ(a.trials[i].n_plus, b.trials[i].n_plus) << "trial " << i;
    EXPECT_EQ(a.trials[i].samples, b.trials[i].samples) << "trial " << i;
    EXPECT_EQ(a.trials[i].hops, b.trials[i].hops) << "trial " << i;
    EXPECT_EQ(a.trials[i].replies, b.trials[i].replies) << "trial " << i;
  }
  EXPECT_EQ(a.sum_simple, b.sum_simple);
  EXPECT_EQ(a.sum_ml, b.sum_ml);
  EXPECT_EQ(a.total_hops, b.total_hops);
  EXPECT_EQ(a.stats.tasks, b.stats.tasks);
}

void expect_same_trajectory(const TimeSeriesRecorder& a,
                            const TimeSeriesRecorder& b) {
  ASSERT_EQ(a.points().size(), b.points().size());
  for (std::size_t i = 0; i < a.points().size(); ++i) {
    EXPECT_EQ(a.points()[i].walks, b.points()[i].walks);
    EXPECT_EQ(a.points()[i].steps, b.points()[i].steps);
    expect_bits_equal(a.points()[i].estimate, b.points()[i].estimate);
  }
}

/// Runs `check(runner)` for every threads x width pair, labelled.
template <typename Check>
void for_each_pool(Check&& check) {
  for (const unsigned threads : kThreads) {
    for (const std::size_t width : kWidths) {
      SCOPED_TRACE(::testing::Message()
                   << "threads=" << threads << " width=" << width);
      ParallelRunner runner(threads, width);
      check(runner);
    }
  }
}

TEST(LaneRefill, ToursMatchScalarBatch) {
  const Graph g = test_graph();
  for (const std::size_t m : kSizes) {
    SCOPED_TRACE(::testing::Message() << "m=" << m);
    ParallelRunner scalar(1, 1);
    const auto reference = run_tours_size(g, 0, m, kSeed, scalar);
    EXPECT_EQ(reference.truncated, 0u);
    for_each_pool([&](ParallelRunner& runner) {
      expect_same_tours(run_tours_size(g, 0, m, kSeed, runner), reference);
    });
  }
}

TEST(LaneRefill, TruncatedToursMatchScalarBatch) {
  const Graph g = test_graph();
  constexpr std::uint64_t kMaxSteps = 40;
  const auto f = [&g](NodeId v) { return static_cast<double>(g.degree(v)); };
  for (const std::size_t m : kSizes) {
    SCOPED_TRACE(::testing::Message() << "m=" << m);
    ParallelRunner scalar(1, 1);
    const auto reference = run_tours(g, 0, m, f, kSeed, scalar, kMaxSteps);
    EXPECT_GT(reference.truncated, 0u);  // the cap really bites
    EXPECT_GT(reference.completed, 0u);
    for_each_pool([&](ParallelRunner& runner) {
      expect_same_tours(run_tours(g, 0, m, f, kSeed, runner, kMaxSteps),
                        reference);
    });
  }
}

TEST(LaneRefill, SamplesMatchScalarBatch) {
  const Graph g = test_graph();
  for (const std::size_t m : kSizes) {
    SCOPED_TRACE(::testing::Message() << "m=" << m);
    ParallelRunner scalar(1, 1);
    const auto reference = run_samples(g, 0, m, kTimer, kSeed, scalar);
    for_each_pool([&](ParallelRunner& runner) {
      const auto batch = run_samples(g, 0, m, kTimer, kSeed, runner);
      ASSERT_EQ(batch.samples.size(), m);
      for (std::size_t i = 0; i < m; ++i) {
        EXPECT_EQ(batch.samples[i].node, reference.samples[i].node);
        EXPECT_EQ(batch.samples[i].hops, reference.samples[i].hops);
      }
      EXPECT_EQ(batch.total_hops, reference.total_hops);
      EXPECT_EQ(batch.stats.tasks, m);
    });
  }
}

TEST(LaneRefill, ScTrialsMatchScalarBatch) {
  const Graph g = test_graph();
  for (const std::size_t m : kSizes) {
    SCOPED_TRACE(::testing::Message() << "m=" << m);
    ParallelRunner scalar(1, 1);
    const auto reference =
        run_sc_trials(g, 0, m, kTimer, kEll, kSeed, scalar);
    for_each_pool([&](ParallelRunner& runner) {
      expect_same_trials(run_sc_trials(g, 0, m, kTimer, kEll, kSeed, runner),
                         reference);
    });
  }
}

// The converging runs dispatch one interval group at a time; each group is
// its own cursor over [done, done + group). Interval 7 makes groups that
// straddle the kernel/scalar switch at width 16 and leaves a short tail.
TEST(LaneRefill, ConvergingGroupsMatchScalarBatch) {
  const Graph g = test_graph();
  for (const std::size_t m : kSizes) {
    for (const std::size_t interval : {std::size_t{0}, std::size_t{7}}) {
      SCOPED_TRACE(::testing::Message()
                   << "m=" << m << " interval=" << interval);
      ConvergenceOptions opts;
      opts.interval = interval;
      ParallelRunner scalar(1, 1);
      TimeSeriesRecorder tour_ref_rec, sc_ref_rec;
      const auto tour_ref = run_tours_size_converging(g, 0, m, kSeed, scalar,
                                                      tour_ref_rec, opts);
      const auto sc_ref = run_sc_converging(g, 0, m, kTimer, kEll, kSeed,
                                            scalar, sc_ref_rec, opts);
      for_each_pool([&](ParallelRunner& runner) {
        TimeSeriesRecorder tour_rec, sc_rec;
        expect_same_tours(run_tours_size_converging(g, 0, m, kSeed, runner,
                                                    tour_rec, opts),
                          tour_ref);
        expect_same_trials(run_sc_converging(g, 0, m, kTimer, kEll, kSeed,
                                             runner, sc_rec, opts),
                           sc_ref);
        // Intervals resolved at width 1 and width W differ when opts says
        // 0, so only an explicit interval has a comparable trajectory.
        if (interval != 0) {
          expect_same_trajectory(tour_rec, tour_ref_rec);
          expect_same_trajectory(sc_rec, sc_ref_rec);
        }
      });
    }
  }
}

// Degenerate shapes for the lane driver. On the path P2 every tour lasts
// two steps (and ends on its first read under max_steps 1); from a leaf of
// a star every second step is at the hub. Short CTRW timers end walks in
// their first process sweep, so the read sweep ends and restarts lanes at
// once, and m at or below the width starts every walk at once and retires
// lanes by swap-remove. The kernels run directly at widths below, at and
// above m (the batch layer only takes the kernel when m >= width), and every
// per-walk result must equal the width-1 scalar batch's.
struct Shape {
  const char* name;
  Graph g;
  NodeId origin;
};

std::vector<Shape> degenerate_shapes() {
  return {{"P2", path_graph(2), 0}, {"star-leaf", star(7), 3}};
}

const std::size_t kTinySizes[] = {1, 2, 3, 17};
const double kTinyTimers[] = {0.25, 2.0};

std::vector<std::size_t> widths_around(std::size_t m) {
  return {2, 3, 16, m, m + 1, m + 9};
}

TEST(LaneRefill, DegenerateToursMatchScalarBatch) {
  for (const Shape& shape : degenerate_shapes()) {
    const Graph& g = shape.g;
    const auto f = [](NodeId v) { return 1.0 + static_cast<double>(v); };
    for (const std::size_t m : kTinySizes) {
      for (const std::uint64_t cap : {std::uint64_t{1}, std::uint64_t{2},
                                      ~std::uint64_t{0}}) {
        SCOPED_TRACE(::testing::Message() << shape.name << " m=" << m
                                          << " max_steps=" << cap);
        ParallelRunner scalar(1, 1);
        const auto reference =
            run_tours(g, shape.origin, m, f, kSeed, scalar, cap);
        if (cap == 1) {
          EXPECT_EQ(reference.truncated, m);  // no tour returns in one step
        }
        const auto streams = derive_streams(kSeed, m);
        for (const std::size_t width : widths_around(m)) {
          SCOPED_TRACE(::testing::Message() << "width=" << width);
          std::vector<TourEstimate> out(m);
          tour_kernel(g, shape.origin, f, std::span<const Rng>(streams),
                      std::span<TourEstimate>(out), width, cap);
          for (std::size_t w = 0; w < m; ++w) {
            EXPECT_EQ(out[w].value, reference.tours[w].value) << "tour " << w;
            EXPECT_EQ(out[w].steps, reference.tours[w].steps) << "tour " << w;
            EXPECT_EQ(out[w].completed, reference.tours[w].completed)
                << "tour " << w;
          }
        }
        for_each_pool([&](ParallelRunner& runner) {
          expect_same_tours(run_tours(g, shape.origin, m, f, kSeed, runner,
                                      cap),
                            reference);
        });
      }
    }
  }
}

TEST(LaneRefill, DegenerateSamplesMatchScalarBatch) {
  for (const Shape& shape : degenerate_shapes()) {
    const Graph& g = shape.g;
    for (const std::size_t m : kTinySizes) {
      for (const double timer : kTinyTimers) {
        SCOPED_TRACE(::testing::Message()
                     << shape.name << " m=" << m << " timer=" << timer);
        ParallelRunner scalar(1, 1);
        const auto reference =
            run_samples(g, shape.origin, m, timer, kSeed, scalar);
        const auto streams = derive_streams(kSeed, m);
        for (const std::size_t width : widths_around(m)) {
          SCOPED_TRACE(::testing::Message() << "width=" << width);
          std::vector<SampleResult> out(m);
          ctrw_kernel(g, shape.origin, timer, std::span<const Rng>(streams),
                      std::span<SampleResult>(out), width);
          for (std::size_t w = 0; w < m; ++w) {
            EXPECT_EQ(out[w].node, reference.samples[w].node) << "walk " << w;
            EXPECT_EQ(out[w].hops, reference.samples[w].hops) << "walk " << w;
          }
        }
        for_each_pool([&](ParallelRunner& runner) {
          const auto batch =
              run_samples(g, shape.origin, m, timer, kSeed, runner);
          ASSERT_EQ(batch.samples.size(), m);
          for (std::size_t w = 0; w < m; ++w) {
            EXPECT_EQ(batch.samples[w].node, reference.samples[w].node);
            EXPECT_EQ(batch.samples[w].hops, reference.samples[w].hops);
          }
          EXPECT_EQ(batch.total_hops, reference.total_hops);
        });
      }
    }
  }
}

TEST(LaneRefill, DegenerateScTrialsMatchScalarBatch) {
  for (const Shape& shape : degenerate_shapes()) {
    const Graph& g = shape.g;
    for (const std::size_t m : kTinySizes) {
      for (const double timer : kTinyTimers) {
        for (const std::size_t ell : {std::size_t{1}, std::size_t{3}}) {
          SCOPED_TRACE(::testing::Message() << shape.name << " m=" << m
                                            << " timer=" << timer
                                            << " ell=" << ell);
          ParallelRunner scalar(1, 1);
          const auto reference =
              run_sc_trials(g, shape.origin, m, timer, ell, kSeed, scalar);
          const auto streams = derive_streams(kSeed, m);
          for (const std::size_t width : widths_around(m)) {
            SCOPED_TRACE(::testing::Message() << "width=" << width);
            std::vector<ScTrialRaw> out(m);
            sc_kernel(g, shape.origin, timer, ell,
                      std::span<const Rng>(streams),
                      std::span<ScTrialRaw>(out), width);
            for (std::size_t t = 0; t < m; ++t) {
              EXPECT_EQ(out[t].samples, reference.trials[t].samples)
                  << "trial " << t;
              EXPECT_EQ(out[t].hops, reference.trials[t].hops)
                  << "trial " << t;
            }
          }
          for_each_pool([&](ParallelRunner& runner) {
            expect_same_trials(run_sc_trials(g, shape.origin, m, timer, ell,
                                             kSeed, runner),
                               reference);
          });
        }
      }
    }
  }
}

/// Counts the probe events of one walk (or S&C trial).
struct CountingProbe {
  static constexpr bool enabled = true;
  std::uint64_t begins = 0;
  std::uint64_t ends = 0;
  void walk_begin(std::uint64_t) { ++begins; }
  void on_visit(std::uint64_t) {}
  void on_sojourn(double) {}
  void on_reject() {}
  void on_collision(std::uint64_t) {}
  void tour_end(std::uint64_t, bool) { ++ends; }
  void sample_end(std::uint64_t) { ++ends; }
};

// Drives the batch layer's own walk runners (detail::run_tour_walks and
// friends, the code run_tours / run_samples / run_sc_trials dispatch
// through) with one counting probe per walk. Sizes 2 and 3 run fewer walks
// than the 4-thread pool has workers: at width 2 they still take the
// kernel path, on min(threads, m) tasks of one lane each.
TEST(LaneRefill, CursorStartsEveryWalkExactlyOnce) {
  const Graph g = test_graph();
  const auto f = [](NodeId) { return 1.0; };
  for (const std::size_t m : {std::size_t{2}, std::size_t{3}, std::size_t{16},
                              std::size_t{37}, std::size_t{301}}) {
    SCOPED_TRACE(::testing::Message() << "m=" << m);
    const auto streams = derive_streams(kSeed, m);
    for_each_pool([&](ParallelRunner& runner) {
      {
        std::vector<CountingProbe> probes(m);
        std::vector<TourEstimate> tours(m);
        BatchStats stats;
        detail::run_tour_walks(g, 0, f, std::span<const Rng>(streams),
                               std::span<TourEstimate>(tours), 0, m, ~0ULL,
                               std::span<CountingProbe>(probes), runner,
                               stats);
        for (std::size_t w = 0; w < m; ++w) {
          EXPECT_EQ(probes[w].begins, 1u) << "tour " << w;
          EXPECT_EQ(probes[w].ends, 1u) << "tour " << w;
          EXPECT_TRUE(tours[w].completed) << "tour " << w;
        }
      }
      {
        std::vector<CountingProbe> probes(m);
        std::vector<SampleResult> samples(m);
        BatchStats stats;
        detail::run_walks(
            runner, 0, m,
            [&](WalkCursor& cursor, std::size_t lanes) {
              ctrw_kernel(g, 0, kTimer, std::span<const Rng>(streams),
                          std::span<SampleResult>(samples), lanes, cursor,
                          std::span<CountingProbe>(probes));
            },
            [&](std::size_t w) {
              Rng rng = streams[w];
              samples[w] = ctrw_sample(g, 0, kTimer, rng, probes[w]);
            },
            stats);
        for (std::size_t w = 0; w < m; ++w) {
          EXPECT_EQ(probes[w].begins, 1u) << "sample " << w;
          EXPECT_EQ(probes[w].ends, 1u) << "sample " << w;
        }
      }
      {
        // An S&C trial starts one sampling walk per sample it draws, so a
        // trial started twice would show twice its own sample count.
        std::vector<CountingProbe> probes(m);
        std::vector<ScEstimate> trials(m);
        BatchStats stats;
        detail::run_sc_walks(g, 0, kTimer, kEll,
                             std::span<const Rng>(streams),
                             std::span<ScEstimate>(trials), 0, m,
                             std::span<CountingProbe>(probes), runner, stats);
        for (std::size_t t = 0; t < m; ++t) {
          EXPECT_GT(trials[t].samples, 0u) << "trial " << t;
          EXPECT_EQ(probes[t].begins, trials[t].samples) << "trial " << t;
          EXPECT_EQ(probes[t].ends, trials[t].samples) << "trial " << t;
        }
      }
    });
  }
}

// A kernel call may be handed a cursor that other calls share: between
// them they must start each walk of [begin, end) once and no walk outside.
TEST(LaneRefill, SharedCursorSplitsOneRangeAcrossKernelCalls) {
  const Graph g = test_graph();
  constexpr std::size_t kWalks = 40;
  const auto streams = derive_streams(kSeed, kWalks);
  std::vector<TourEstimate> reference(kWalks);
  tour_kernel(
      g, 0, [](NodeId) { return 1.0; }, std::span<const Rng>(streams),
      std::span<TourEstimate>(reference), 1);

  std::vector<CountingProbe> probes(kWalks);
  std::vector<TourEstimate> out(kWalks);
  WalkCursor cursor(5, 33);
  ParallelRunner runner(3);
  runner.run<char>(3, [&](std::size_t call) {
    tour_kernel(
        g, 0, [](NodeId) { return 1.0; }, std::span<const Rng>(streams),
        std::span<TourEstimate>(out), call + 2, cursor, ~0ULL,
        std::span<CountingProbe>(probes));
    return char{0};
  });
  for (std::size_t w = 0; w < kWalks; ++w) {
    const bool in_range = w >= 5 && w < 33;
    EXPECT_EQ(probes[w].begins, in_range ? 1u : 0u) << "walk " << w;
    if (in_range) {
      EXPECT_EQ(out[w].value, reference[w].value) << "walk " << w;
      EXPECT_EQ(out[w].steps, reference[w].steps) << "walk " << w;
    } else {
      EXPECT_EQ(out[w].steps, 0u) << "walk " << w;
    }
  }
}

}  // namespace
}  // namespace overcount
