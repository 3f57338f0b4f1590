// CostLedger acceptance contract:
//  (a) context 0 (the unattributed sink) exists from construction and
//      absorbs charges to unknown ids — charge() never drops on the floor;
//  (b) open() hands out dense ids, normalises the anonymous tenant, and a
//      full table degrades to the sink (counted, not crashed);
//  (c) charges fold exactly across thread shards — concurrent chargers
//      lose nothing;
//  (d) the registry mirror (cost.*) tracks the ledger totals;
//  (e) the thread-local hooks (CostScope / cost_charge / cost_charge_batch)
//      route to the installed ledger and restore on scope exit;
//  (f) write_costs_json emits the schema /costs and the flight bundle
//      serve: totals, context_table join table, rankings with monotone
//      cumulative shares.
#include "obs/cost/cost.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace overcount {
namespace {

QueryContext make_context(std::string tenant, std::uint64_t query_id) {
  QueryContext qc;
  qc.tenant = std::move(tenant);
  qc.query_id = query_id;
  qc.kind = "size";
  qc.method = "random_tour";
  qc.slo_class = "size.random_tour.besteffort";
  return qc;
}

TEST(CostLedger, SinkContextExistsFromConstruction) {
  CostLedger ledger;
  EXPECT_EQ(ledger.contexts(), 1u);
  EXPECT_EQ(ledger.dropped_contexts(), 0u);
  const auto sink = ledger.context(0);
  ASSERT_TRUE(sink.has_value());
  EXPECT_EQ(sink->tenant, "(unattributed)");
  for (std::size_t f = 0; f < kCostFieldCount; ++f)
    EXPECT_EQ(ledger.unattributed().v[f], 0u) << cost_field_name(
        static_cast<CostField>(f));
}

TEST(CostLedger, OpenAssignsDenseIdsAndNormalisesAnonymous) {
  CostLedger ledger;
  const std::uint32_t a = ledger.open(make_context("acme", 1));
  const std::uint32_t b = ledger.open(make_context("", 2));
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(ledger.contexts(), 3u);
  EXPECT_EQ(ledger.context(a)->tenant, "acme");
  EXPECT_EQ(ledger.context(a)->query_id, 1u);
  EXPECT_EQ(ledger.context(a)->method, "random_tour");
  // The empty tenant is a legal request; it accounts as "anonymous".
  EXPECT_EQ(ledger.context(b)->tenant, "anonymous");
  // Ids never handed out resolve to nothing.
  EXPECT_FALSE(ledger.context(99).has_value());
}

TEST(CostLedger, ChargesToUnknownContextsLandOnTheSink) {
  CostLedger ledger;
  const std::uint32_t ctx = ledger.open(make_context("acme", 1));
  ledger.charge(ctx, CostField::kSteps, 10);
  ledger.charge(99, CostField::kSteps, 7);     // never opened
  ledger.charge(12345, CostField::kWalks, 3);  // never opened
  EXPECT_EQ(ledger.fold(ctx).steps(), 10u);
  EXPECT_EQ(ledger.unattributed().steps(), 7u);
  EXPECT_EQ(ledger.unattributed().get(CostField::kWalks), 3u);
  // Totals see everything exactly once.
  EXPECT_EQ(ledger.totals().steps(), 17u);
}

TEST(CostLedger, FullTableDegradesToTheSinkAndCounts) {
  CostLedger ledger;
  std::uint32_t last = 0;
  // Open until the fixed-capacity table refuses; the bound only guards
  // against the ledger never refusing.
  for (std::size_t i = 0; i < (1u << 20); ++i) {
    const std::uint32_t id = ledger.open(make_context("flood", i));
    if (id == 0) break;
    last = id;
  }
  EXPECT_GT(last, 0u);
  EXPECT_EQ(ledger.dropped_contexts(), 1u);
  EXPECT_EQ(ledger.contexts(), static_cast<std::size_t>(last) + 1);
  // The overflow query still accounts — on the sink.
  ledger.charge(0, CostField::kSteps, 5);
  EXPECT_EQ(ledger.unattributed().steps(), 5u);
}

TEST(CostLedger, ConcurrentChargesFoldExactly) {
  CostLedger ledger;
  const std::uint32_t ctx = ledger.open(make_context("acme", 1));
  constexpr int kThreads = 8;
  constexpr std::uint64_t kChargesPerThread = 20'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (std::uint64_t i = 0; i < kChargesPerThread; ++i) {
        ledger.charge(ctx, CostField::kSteps, 3);
        ledger.charge(ctx, CostField::kWalks, 1);
      }
    });
  for (auto& t : threads) t.join();
  // Exact, not approximate: the per-thread shards are summed in a
  // deterministic fold, so nothing is lost to contention.
  EXPECT_EQ(ledger.fold(ctx).steps(), 3 * kThreads * kChargesPerThread);
  EXPECT_EQ(ledger.fold(ctx).get(CostField::kWalks),
            kThreads * kChargesPerThread);
}

TEST(CostLedger, RegistryMirrorTracksLedgerTotals) {
  MetricsRegistry registry;
  CostLedger ledger(&registry);
  const std::uint32_t a = ledger.open(make_context("acme", 1));
  const std::uint32_t b = ledger.open(make_context("bee", 2));
  ledger.charge(a, CostField::kSteps, 100);
  ledger.charge(b, CostField::kSteps, 50);
  ledger.charge(b, CostField::kCacheHits, 1);
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter_or_zero("cost.steps"), 150u);
  EXPECT_EQ(snap.counter_or_zero("cost.cache_hits"), 1u);
  double contexts_gauge = -1.0;
  for (const auto& [name, value] : snap.gauges)
    if (name == "cost.contexts") contexts_gauge = value;
  EXPECT_EQ(contexts_gauge, 3.0);
  EXPECT_EQ(snap.counter_or_zero("cost.dropped_contexts"), 0u);
  // Mirror equals fold: the two views never drift.
  EXPECT_EQ(ledger.totals().steps(), 150u);
}

// Only the hook layer compiles away under OVERCOUNT_COST=OFF; everything
// above tests the ledger class directly and runs in either build.
#if OVERCOUNT_COST_ENABLED
TEST(CostHooks, InstalledLedgerReceivesScopedCharges) {
  CostLedger ledger;
  const std::uint32_t ctx = ledger.open(make_context("acme", 1));
  EXPECT_FALSE(cost_active());
  cost_charge(CostField::kSteps, 99);  // no ledger: a no-op, not a crash
  ledger.install();
  EXPECT_TRUE(cost_active());
  {
    CostScope scope(ctx);
    EXPECT_EQ(cost_current(), ctx);
    cost_charge(CostField::kSteps, 7);
    cost_charge_batch(/*steps=*/100, /*walks=*/4, /*cpu_seconds=*/0.5);
    {
      CostScope inner(0);  // nested scopes save and restore
      EXPECT_EQ(cost_current(), 0u);
      cost_charge(CostField::kSteps, 1);
    }
    EXPECT_EQ(cost_current(), ctx);
  }
  EXPECT_EQ(cost_current(), 0u);
  cost_charge(CostField::kWalks, 5);  // outside any scope: the sink
  ledger.uninstall();
  EXPECT_FALSE(cost_active());
  cost_charge(CostField::kSteps, 1000);  // uninstalled: dropped

  const CostRecord row = ledger.fold(ctx);
  EXPECT_EQ(row.steps(), 107u);
  EXPECT_EQ(row.get(CostField::kWalks), 4u);
  EXPECT_EQ(row.cpu_us(), 500'000u);
  EXPECT_EQ(ledger.unattributed().steps(), 1u);
  EXPECT_EQ(ledger.unattributed().get(CostField::kWalks), 5u);
}
#endif  // OVERCOUNT_COST_ENABLED

TEST(CostLedger, WriteCostsJsonEmitsRankingsWithMonotoneShares) {
  CostLedger ledger;
  const std::uint32_t a = ledger.open(make_context("acme", 1));
  const std::uint32_t b = ledger.open(make_context("bee", 2));
  const std::uint32_t c = ledger.open(make_context("acme", 3));
  ledger.charge(a, CostField::kSteps, 600);
  ledger.charge(b, CostField::kSteps, 300);
  ledger.charge(c, CostField::kSteps, 100);
  ledger.charge(b, CostField::kCpuUs, 9);

  std::ostringstream os;
  JsonWriter w(os);
  write_costs_json(w, ledger, /*k=*/10);
  const JsonValue doc = parse_json(os.str());
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("schema")->as_number(), 1.0);
  EXPECT_EQ(doc.find("contexts")->as_number(), 4.0);
  EXPECT_EQ(doc.find("totals")->find("steps")->as_number(), 1000.0);
  EXPECT_EQ(doc.find("unattributed")->find("steps")->as_number(), 0.0);

  // The join table lists every context including the sink, in id order —
  // this is what scripts/flamegraph.py keys trace spans against.
  const auto& table = doc.find("context_table")->as_array();
  ASSERT_EQ(table.size(), 4u);
  EXPECT_EQ(table[0].find("tenant")->as_string(), "(unattributed)");
  EXPECT_EQ(table[1].find("ctx")->as_number(), 1.0);
  EXPECT_EQ(table[1].find("tenant")->as_string(), "acme");
  EXPECT_EQ(table[2].find("query_id")->as_number(), 2.0);
  EXPECT_EQ(table[3].find("slo_class")->as_string(),
            "size.random_tour.besteffort");

  // Tenant ranking folds acme's two queries together: 700 vs 300.
  const auto& tenants = doc.find("top_tenants")->find("by_steps")->as_array();
  ASSERT_EQ(tenants.size(), 2u);
  EXPECT_EQ(tenants[0].find("tenant")->as_string(), "acme");
  EXPECT_EQ(tenants[0].find("steps")->as_number(), 700.0);
  EXPECT_DOUBLE_EQ(tenants[0].find("share")->as_number(), 0.7);
  EXPECT_DOUBLE_EQ(tenants[1].find("cum_share")->as_number(), 1.0);

  // Query ranking keeps queries separate, descending, zero spenders cut.
  const auto& queries = doc.find("top_queries")->find("by_steps")->as_array();
  ASSERT_EQ(queries.size(), 3u);
  EXPECT_EQ(queries[0].find("query_id")->as_number(), 1.0);
  EXPECT_EQ(queries[1].find("query_id")->as_number(), 2.0);
  EXPECT_EQ(queries[2].find("query_id")->as_number(), 3.0);
  double prev = 0.0;
  for (const JsonValue& q : queries) {
    EXPECT_GE(q.find("cum_share")->as_number(), prev);  // monotone
    prev = q.find("cum_share")->as_number();
  }
  // Only bee spent CPU; the zero rows do not pad the ranking.
  const auto& by_cpu = doc.find("top_queries")->find("by_cpu_us")->as_array();
  ASSERT_EQ(by_cpu.size(), 1u);
  EXPECT_EQ(by_cpu[0].find("tenant")->as_string(), "bee");

  // k truncates.
  std::ostringstream os1;
  JsonWriter w1(os1);
  write_costs_json(w1, ledger, /*k=*/1);
  const JsonValue doc1 = parse_json(os1.str());
  EXPECT_EQ(doc1.find("top_queries")->find("by_steps")->as_array().size(), 1u);
}

}  // namespace
}  // namespace overcount
