// Statistical regression tests for the parallel batch APIs: parallelism
// must not change the DISTRIBUTIONS the paper's guarantees are about. All
// seeds are fixed, so each assertion is a deterministic regression check —
// the thresholds are derived from the relevant confidence intervals but
// nothing here is flaky.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "core/parallel.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "spectral/laplacian.hpp"
#include "util/stats.hpp"
#include "util/tests.hpp"

namespace overcount {
namespace {

Graph balanced_graph(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  return largest_component(balanced_random_graph(n, rng));
}

TEST(ParallelStats, CtrwSamplesRemainUniform) {
  // Section 4.1's headline property, re-asserted through the parallel path:
  // a batch of CTRW samples fanned over 4 threads is uniform over the
  // peers. Timer budgeted from the measured gap as in the serial test.
  const Graph g = balanced_graph(200, 301);
  const std::size_t n = g.num_nodes();
  const double gap = spectral_gap_lanczos(g, n - 1);
  const double timer =
      recommended_ctrw_timer(static_cast<double>(n), gap, 2.0);
  const auto batch =
      run_samples(g, 0, 40 * n, timer, /*seed=*/302, /*n_threads=*/4u);
  std::vector<std::size_t> counts(n, 0);
  for (const auto& s : batch.samples) ++counts[s.node];
  const auto result = chi_square_uniform(counts);
  EXPECT_GT(result.p_value, 1e-4)
      << "stat=" << result.statistic << " dof=" << result.dof;
}

TEST(ParallelStats, CtrwUniformityHoldsOnStarGraph) {
  // Degree heterogeneity is where a biased sampler fails first (the hub of
  // a star absorbs a DTRW); the parallel CTRW batch must stay uniform.
  const Graph g = star(21);
  const auto batch = run_samples(g, 1, 8000, /*timer=*/25.0, /*seed=*/303,
                                 /*n_threads=*/4u);
  std::size_t hub = 0;
  for (const auto& s : batch.samples)
    if (s.node == 0) ++hub;
  const double hub_rate =
      static_cast<double>(hub) / static_cast<double>(batch.samples.size());
  EXPECT_LT(hub_rate, 0.10);  // uniform is 1/21 ~ 4.8%; DTRW puts ~1/2 here
}

TEST(ParallelStats, TourMeanIsUnbiasedWithinConfidenceInterval) {
  // Proposition 1: E[Phi_hat] = N exactly. The batch mean of m parallel
  // tours must land inside a 4-sigma interval around N, with sigma taken
  // from the batch's own sample standard deviation — a CI-derived bound,
  // not a hand-tuned tolerance. Fixed seed => deterministic outcome.
  const Graph g = balanced_graph(300, 304);
  const double n = static_cast<double>(g.num_nodes());
  const std::size_t m = 4000;
  const auto batch = run_tours_size(g, 0, m, /*seed=*/305, /*n_threads=*/4u);
  ASSERT_EQ(batch.completed, m);
  RunningStats values;
  for (const auto& t : batch.tours) values.add(t.value);
  const double se = values.stddev() / std::sqrt(static_cast<double>(m));
  EXPECT_NEAR(batch.mean(), n, 4.0 * se)
      << "mean=" << batch.mean() << " se=" << se;
  // The tree-reduced batch mean and the Welford mean agree to rounding.
  EXPECT_NEAR(batch.mean(), values.mean(), 1e-9 * n);
}

TEST(ParallelStats, TourMeanUnbiasedForWeightedAggregates) {
  // Same unbiasedness for a non-constant f (Section 3's general Phi).
  const Graph g = balanced_graph(200, 306);
  double phi = 0.0;
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    phi += static_cast<double>(v % 7);
  const std::size_t m = 4000;
  const auto batch = run_tours(
      g, 0, m, [](NodeId v) { return static_cast<double>(v % 7); },
      /*seed=*/307, /*n_threads=*/4u);
  RunningStats values;
  for (const auto& t : batch.tours) values.add(t.value);
  const double se = values.stddev() / std::sqrt(static_cast<double>(m));
  EXPECT_NEAR(batch.mean(), phi, 4.0 * se);
}

TEST(ParallelStats, ScEstimatesConcentrateAroundN) {
  // Cor. 1: relative MSE of the simple estimator tends to 1/ell. With
  // ell = 20 a batch of trials must average within a few relative standard
  // errors of N.
  const Graph g = balanced_graph(400, 308);
  const double n = static_cast<double>(g.num_nodes());
  const double gap = spectral_gap_lanczos(g, g.num_nodes() - 1);
  const double timer = recommended_ctrw_timer(n, gap, 1.5);
  const std::size_t trials = 32, ell = 20;
  const auto batch =
      run_sc_trials(g, 0, trials, timer, ell, /*seed=*/309, 4u);
  // Relative sd of one trial ~ 1/sqrt(ell); of the mean of `trials` trials
  // ~ 1/sqrt(ell * trials).
  const double rel_se = 1.0 / std::sqrt(static_cast<double>(ell * trials));
  EXPECT_NEAR(batch.mean_simple() / n, 1.0, 5.0 * rel_se)
      << "mean=" << batch.mean_simple();
  EXPECT_NEAR(batch.mean_ml() / n, 1.0, 5.0 * rel_se)
      << "mean=" << batch.mean_ml();
}

TEST(ParallelStats, ErlangLawOfScTrialsSurvivesParallelism) {
  // Prop. 3 via KS: C_ell^2/(2 ell N) over independent parallel trials
  // follows Erlang(ell, ell)/ell in the large-N limit; at N ~ 400 the KS
  // distance should at least clear a loose significance floor.
  const Graph g = balanced_graph(400, 310);
  const double n = static_cast<double>(g.num_nodes());
  const double gap = spectral_gap_lanczos(g, g.num_nodes() - 1);
  const double timer = recommended_ctrw_timer(n, gap, 1.5);
  const int ell = 10;
  const auto batch = run_sc_trials(g, 0, 60, timer, ell, /*seed=*/311, 4u);
  std::vector<double> normalised;
  for (const auto& t : batch.trials) normalised.push_back(t.simple / n);
  const auto ks = ks_test(std::move(normalised), [&](double x) {
    return erlang_cdf(ell, static_cast<double>(ell), x);
  });
  EXPECT_GT(ks.p_value, 1e-3) << "ks=" << ks.statistic;
}

}  // namespace
}  // namespace overcount
