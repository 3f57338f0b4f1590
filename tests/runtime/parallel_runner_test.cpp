#include "runtime/parallel_runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/parallel.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"

namespace overcount {
namespace {

Graph test_graph() {
  Rng rng(41);
  return largest_component(balanced_random_graph(300, rng));
}

TEST(ParallelRunner, RunsEveryTaskExactlyOnce) {
  ParallelRunner runner(4);
  std::vector<int> hits(100, 0);
  runner.run<int>(hits.size(), [&](std::size_t i) { return ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelRunner, ResultsAreInTaskIndexOrder) {
  ParallelRunner runner(8);
  const auto out = runner.run<std::size_t>(
      1000, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 1000u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ParallelRunner, EmptyBatch) {
  ParallelRunner runner(4);
  BatchStats stats;
  const auto out = runner.run<int>(
      0, [](std::size_t) { return 1; }, &stats);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(stats.tasks, 0u);
  EXPECT_EQ(stats.threads, 4u);
}

TEST(ParallelRunner, SingleTask) {
  ParallelRunner runner(8);
  const auto out = runner.run<int>(1, [](std::size_t) { return 7; });
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 7);
}

TEST(ParallelRunner, ZeroThreadsMeansHardwareConcurrency) {
  ParallelRunner runner(0);
  EXPECT_GE(runner.thread_count(), 1u);
}

TEST(ParallelRunner, PoolIsReusableAcrossBatches) {
  ParallelRunner runner(3);
  for (int round = 0; round < 20; ++round) {
    const auto out = runner.run<int>(
        17, [&](std::size_t i) { return round + static_cast<int>(i); });
    EXPECT_EQ(out[16], round + 16);
  }
}

TEST(ParallelRunner, PropagatesTaskException) {
  ParallelRunner runner(4);
  EXPECT_THROW(runner.run<int>(50,
                               [](std::size_t i) {
                                 if (i == 13)
                                   throw std::runtime_error("task 13 failed");
                                 return 0;
                               }),
               std::runtime_error);
}

TEST(ParallelRunner, RethrowsLowestIndexExceptionDeterministically) {
  // Two tasks throw; whichever worker hits one first, the caller must see
  // the LOWEST task index so failures are reproducible across schedules.
  ParallelRunner runner(8);
  for (int attempt = 0; attempt < 10; ++attempt) {
    try {
      runner.run<int>(64, [](std::size_t i) -> int {
        if (i == 5) throw std::runtime_error("five");
        if (i == 40) throw std::runtime_error("forty");
        return 0;
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "five");
    }
  }
}

TEST(ParallelRunner, FillsBatchStats) {
  ParallelRunner runner(2);
  BatchStats stats;
  runner.run<int>(
      200,
      [](std::size_t i) {
        volatile double x = 0.0;
        for (int k = 0; k < 1000; ++k) x += static_cast<double>(k + i);
        return static_cast<int>(x);
      },
      &stats);
  EXPECT_EQ(stats.tasks, 200u);
  EXPECT_EQ(stats.threads, 2u);
  EXPECT_GE(stats.wall_seconds, 0.0);
  EXPECT_GE(stats.cpu_seconds, 0.0);
}

// A batch's CPU time is its own workers' CPU. Two runners batching at the
// same time must not charge each other: with process-wide CPU accounting
// each batch below reports about twice the CPU it used (efficiency ~2 on a
// machine with four free cores).
TEST(ParallelRunner, ConcurrentRunnersAreChargedOnlyTheirOwnCpu) {
  using Clock = std::chrono::steady_clock;
  constexpr unsigned kThreads = 2;
  constexpr unsigned kRunners = 2;
  std::atomic<unsigned> started{0};
  // Every task first waits until all tasks of both batches run (the waiting
  // task holds its worker, so each task is on its own thread), then spins
  // for a fixed wall time: the two batches overlap for their whole length.
  const auto burn = [&](std::size_t) {
    started.fetch_add(1);
    const auto give_up = Clock::now() + std::chrono::seconds(10);
    while (started.load() < kThreads * kRunners && Clock::now() < give_up) {
    }
    const auto until = Clock::now() + std::chrono::milliseconds(150);
    while (Clock::now() < until) {
    }
    return 0;
  };
  BatchStats stats[kRunners];
  std::vector<std::thread> callers;
  for (unsigned r = 0; r < kRunners; ++r)
    callers.emplace_back([&, r] {
      ParallelRunner runner(kThreads);
      runner.run<int>(kThreads, burn, &stats[r]);
    });
  for (auto& caller : callers) caller.join();
  for (const auto& s : stats) {
    EXPECT_GT(s.cpu_seconds, 0.0);
    EXPECT_LE(s.parallel_efficiency(), 1.05);
  }
}

TEST(DeriveStreams, PureInSeedAndIndex) {
  auto a = derive_streams(99, 8);
  auto b = derive_streams(99, 8);
  auto c = derive_streams(100, 8);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(a[i].next(), b[i].next()) << i;
    EXPECT_NE(a[i].next(), c[i].next()) << i;
  }
  // A longer batch re-derives the same prefix: stream i depends only on
  // (seed, i), never on the batch size.
  auto longer = derive_streams(99, 16);
  auto fresh = derive_streams(99, 8);
  for (std::size_t i = 0; i < 8; ++i)
    EXPECT_EQ(longer[i].next(), fresh[i].next()) << i;
}

TEST(TreeReduce, MatchesSerialSumExactlyOnIntegers) {
  std::vector<double> xs(1000);
  std::iota(xs.begin(), xs.end(), 1.0);
  EXPECT_EQ(tree_sum(xs), 500500.0);
}

TEST(TreeReduce, EmptyAndSingleton) {
  EXPECT_EQ(tree_sum({}), 0.0);
  const std::vector<double> one{3.25};
  EXPECT_EQ(tree_sum(one), 3.25);
}

TEST(TreeReduce, FixedAssociationOrder) {
  // 7 elements: ((a+b)+(c+d)) + ((e+f)+g). Verified against the hand-rolled
  // tree so the reduction shape can never silently change.
  const std::vector<double> xs{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7};
  const double expected =
      (((0.1 + 0.2) + (0.3 + 0.4)) + ((0.5 + 0.6) + 0.7));
  EXPECT_EQ(tree_sum(xs), expected);
}

TEST(TreeReduce, GenericOperator) {
  const std::vector<std::uint64_t> xs{3, 5, 7, 11};
  const auto product = tree_reduce(
      std::span<const std::uint64_t>(xs), std::uint64_t{1},
      [](std::uint64_t a, std::uint64_t b) { return a * b; });
  EXPECT_EQ(product, 1155u);
}

// --- Bit-identical batches across thread counts (the acceptance check) ---

template <typename Batch>
void expect_same_tour_batch(const Batch& a, const Batch& b) {
  ASSERT_EQ(a.tours.size(), b.tours.size());
  for (std::size_t i = 0; i < a.tours.size(); ++i) {
    EXPECT_EQ(a.tours[i].value, b.tours[i].value) << "tour " << i;
    EXPECT_EQ(a.tours[i].steps, b.tours[i].steps) << "tour " << i;
    EXPECT_EQ(a.tours[i].completed, b.tours[i].completed) << "tour " << i;
  }
  EXPECT_EQ(a.sum, b.sum);  // bit-identical, not just approximately equal
  EXPECT_EQ(a.total_steps, b.total_steps);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.truncated, b.truncated);
}

TEST(ParallelBatches, ToursBitIdenticalAcrossThreadCounts) {
  const Graph g = test_graph();
  const auto one = run_tours_size(g, 0, 200, /*seed=*/7, /*n_threads=*/1u);
  const auto two = run_tours_size(g, 0, 200, 7, 2u);
  const auto eight = run_tours_size(g, 0, 200, 7, 8u);
  expect_same_tour_batch(one, two);
  expect_same_tour_batch(one, eight);
  EXPECT_GT(one.mean(), 0.0);
}

TEST(ParallelBatches, SamplesBitIdenticalAcrossThreadCounts) {
  const Graph g = test_graph();
  const auto one = run_samples(g, 0, 500, /*timer=*/6.0, /*seed=*/11, 1u);
  const auto two = run_samples(g, 0, 500, 6.0, 11, 2u);
  const auto eight = run_samples(g, 0, 500, 6.0, 11, 8u);
  ASSERT_EQ(one.samples.size(), 500u);
  for (std::size_t i = 0; i < 500; ++i) {
    EXPECT_EQ(one.samples[i].node, two.samples[i].node) << i;
    EXPECT_EQ(one.samples[i].node, eight.samples[i].node) << i;
    EXPECT_EQ(one.samples[i].hops, eight.samples[i].hops) << i;
  }
  EXPECT_EQ(one.total_hops, two.total_hops);
  EXPECT_EQ(one.total_hops, eight.total_hops);
}

TEST(ParallelBatches, ScTrialsBitIdenticalAcrossThreadCounts) {
  const Graph g = test_graph();
  const auto one = run_sc_trials(g, 0, 12, /*timer=*/6.0, /*ell=*/5,
                                 /*seed=*/13, 1u);
  const auto two = run_sc_trials(g, 0, 12, 6.0, 5, 13, 2u);
  const auto eight = run_sc_trials(g, 0, 12, 6.0, 5, 13, 8u);
  ASSERT_EQ(one.trials.size(), 12u);
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_EQ(one.trials[i].simple, eight.trials[i].simple) << i;
    EXPECT_EQ(one.trials[i].ml, eight.trials[i].ml) << i;
    EXPECT_EQ(one.trials[i].samples, eight.trials[i].samples) << i;
    EXPECT_EQ(one.trials[i].hops, two.trials[i].hops) << i;
  }
  EXPECT_EQ(one.sum_simple, two.sum_simple);
  EXPECT_EQ(one.sum_simple, eight.sum_simple);
  EXPECT_EQ(one.sum_ml, eight.sum_ml);
}

TEST(ParallelBatches, ReusedRunnerMatchesThrowawayPool) {
  const Graph g = test_graph();
  ParallelRunner runner(3);
  const auto reused = run_tours_size(g, 0, 100, 23, runner);
  const auto fresh = run_tours_size(g, 0, 100, 23, 5u);
  expect_same_tour_batch(reused, fresh);
}

TEST(ParallelBatches, TruncatedToursAreDroppedAndReported) {
  // On a ring a 1-step tour can never return to the origin, so every tour
  // in the batch is truncated; the batch must drop them all from the
  // aggregate instead of averaging biased partial values.
  const Graph g = ring(64);
  const auto batch = run_tours_size(g, 0, 32, /*seed=*/3, 2u,
                                    /*max_steps=*/1);
  EXPECT_EQ(batch.truncated, 32u);
  EXPECT_EQ(batch.completed, 0u);
  // All-truncated batches carry no unbiased information: mean() must be NaN
  // (never 0.0, which reads as "the overlay is empty") and ok() false.
  EXPECT_FALSE(batch.ok());
  EXPECT_TRUE(std::isnan(batch.mean()));
  EXPECT_EQ(batch.total_steps, 32u);
  for (const auto& t : batch.tours) EXPECT_FALSE(t.completed);

  // With no cap every ring tour completes.
  const auto full = run_tours_size(g, 0, 32, 3, 2u);
  EXPECT_EQ(full.truncated, 0u);
  EXPECT_EQ(full.completed, 32u);
  EXPECT_TRUE(full.ok());
  EXPECT_GT(full.mean(), 0.0);
}

TEST(ParallelBatches, BatchStatsCountDomainSteps) {
  const Graph g = test_graph();
  const auto batch = run_tours_size(g, 0, 50, 29, 2u);
  EXPECT_EQ(batch.stats.tasks, 50u);
  EXPECT_EQ(batch.stats.steps, batch.total_steps);
  EXPECT_GT(batch.stats.steps, 0u);
  EXPECT_EQ(batch.stats.threads, 2u);
}

}  // namespace
}  // namespace overcount
