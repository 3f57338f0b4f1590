// Estimate serving end to end: an EstimateService brokering concurrent
// size/aggregate queries over a CHURNING overlay, observable over HTTP
// while it runs.
//
// Four client threads fire mixed queries — size and degree-sum, Random
// Tour and Sample & Collide, various (epsilon, delta) targets, deadlines
// attached — while a churn thread joins and removes peers under the graph
// mutex. The service translates each accuracy target into a walk budget
// (paper Section 3.4 / Section 4), serves repeats from its freshness-aware
// cache, coalesces identical concurrent misses into single batches, and
// load-sheds when the bounded queue fills. A MetricsHttpServer exports the
// serve.* family live; /readyz reports 503 until the service has warmed
// (first batch landed), then 200 — distinct from /healthz liveness.
//
//   $ ./estimate_server                          # full load, ephemeral port
//   $ OVERCOUNT_SERVE_FAST=1 ./estimate_server   # CI smoke shape
//   $ OVERCOUNT_METRICS_PORT=9464 ./estimate_server &
//   $ curl -s localhost:9464/metrics | grep serve_
//   $ curl -s -o /dev/null -w '%{http_code}\n' localhost:9464/readyz
//
// Exit code: non-zero when responses with deadlines miss more often than
// OVERCOUNT_SERVE_DEADLINE_BUDGET allows (default: unlimited; the CI
// serve-smoke job sets 0 in fast mode — generous deadlines, so a miss
// means the broker stalled, not that the machine was slow).
//
// The server also carries the full health stack from src/obs/health/: an
// EstimateAuditor cross-checks every landed batch against its promised
// (epsilon, delta) envelope, an SloLedger tracks per-class deadline-hit
// rate and error-budget burn (serve.slo.* family), a watchdog watches
// DeadlineQueue saturation, and a FlightRecorder (enabled by setting
// OVERCOUNT_FLIGHT_DIR) dumps a post-mortem bundle on any critical event
// or fatal signal. Two fault injections exist so CI can drill the chain:
//
//   OVERCOUNT_SERVE_DEADLINE_US      client deadline (default 10s)
//   OVERCOUNT_INJECT_QUEUE_STALL_MS  repeatedly pause the broker this long
//
// With a short deadline and an injected stall, queued requests expire,
// the per-class burn crosses 1.0, the ledger raises a kCritical
// serve.slo_breach, and the flight recorder drops a bundle — the second
// half of the CI health-smoke job. When the stall injection is on, the
// run fails unless at least one breach was raised (and, when a flight dir
// is configured, at least one bundle landed).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "graph/dynamic_graph.hpp"
#include "graph/generators.hpp"
#include "net/client.hpp"
#include "obs/cost/cost.hpp"
#include "obs/expose.hpp"
#include "obs/health/audit.hpp"
#include "obs/health/flight.hpp"
#include "obs/health/health.hpp"
#include "obs/health/watchdog.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/service.hpp"
#include "serve/source.hpp"
#include "sim/scenario.hpp"

namespace {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  return static_cast<std::uint64_t>(std::strtoull(raw, nullptr, 10));
}

}  // namespace

int main() {
  using namespace overcount;

  const bool fast = env_u64("OVERCOUNT_SERVE_FAST", 0) != 0;
  const std::size_t nodes = fast ? 500 : 2000;
  const int clients = 4;
  const int queries_per_client = fast ? 24 : 120;
  // ~0 = no budget enforced; the CI smoke job sets 0.
  const std::uint64_t miss_budget =
      env_u64("OVERCOUNT_SERVE_DEADLINE_BUDGET", ~0ULL);
  // Fault injections for the health-smoke drill (see header comment).
  const std::uint64_t deadline_us =
      env_u64("OVERCOUNT_SERVE_DEADLINE_US", 10'000'000);
  const std::uint64_t stall_ms = env_u64("OVERCOUNT_INJECT_QUEUE_STALL_MS", 0);

  Rng rng(77);
  Rng build_rng = rng.split();
  Rng churn_rng = rng.split();
  DynamicGraph graph(balanced_random_graph(nodes, build_rng));
  std::mutex graph_mutex;

  MetricsRegistry registry;
  HealthCenter center(&registry);
  center.install();
  EstimateAuditor auditor(&registry, &center);

  // Cost attribution: each client class below carries a tenant, the broker
  // opens one ledger context per admitted query, and every walk step /
  // cache hit / queue wait bills to it. The ledger mirrors
  // cost.* families into the same registry /metrics exports, and the
  // tracer's cost.ctx spans let a flight bundle's profile.folded attribute
  // CPU time by tenant. Declared before the service so it outlives the
  // broker's shutdown path.
  CostLedger cost_ledger(&registry);
  cost_ledger.install();
  TraceRecorder trace;
  trace.install();

  ServiceConfig config;
  config.queue_capacity = 32;
  config.freshness.base_ttl_us = 2'000'000;
  config.refresh_period_us = fast ? 0 : 250'000;  // background refresher
  config.seed = 78;
  config.metrics = &registry;
  config.auditor = &auditor;
  // Demo objective, deliberately tighter than the default policy: the
  // 50-request window allows a single miss, so even a fast-mode run with
  // one injected stall pulse burns the whole budget and breaches.
  config.slo.target = 0.98;
  config.slo.window = 50;
  config.slo.min_requests = 10;
  EstimateService service(dynamic_graph_source(graph, graph_mutex), config);

  // Flight recorder: off unless OVERCOUNT_FLIGHT_DIR names a directory.
  FlightRecorder flight(FlightRecorder::env_dir());
  flight.attach_metrics(&registry);
  flight.attach_health(&center);
  flight.attach_trace(&trace);
  flight.attach_cost(&cost_ledger);
  if (flight.enabled()) {
    flight.auto_dump_on(center, HealthSeverity::kCritical);
    flight.install_signal_dump();
  }

  // Watchdog: a sustained near-full DeadlineQueue means the broker cannot
  // keep up (or is wedged) — shedding alone would hide that as rejections.
  Watchdog dog(&center);
  dog.watch_level(
      "serve.queue_saturated", "serve",
      [&service] { return static_cast<double>(service.queue_depth()); },
      0.9 * static_cast<double>(service.queue_capacity()),
      /*sustain_us=*/500'000);
  dog.start();

  // Export the same registry the service writes into; readiness = warmed.
  MetricsHttpServer http(registry,
                         static_cast<std::uint16_t>(
                             env_u64("OVERCOUNT_METRICS_PORT", 0)));
  http.set_ready_check([&service] { return service.warmed(); });
  http.set_cost_ledger(&cost_ledger);
  std::cerr << "# metrics: http://127.0.0.1:" << http.port()
            << "/metrics — /readyz 503 until the first batch lands; "
               "/costs ranks tenants by walk-step spend\n";

  // Broker-stall injector: repeatedly pause dispatch for stall_ms, letting
  // queued requests sit past their (short, injected) deadlines, then
  // unpause so the scrub resolves them as misses and clients make progress
  // between pulses. Off unless OVERCOUNT_INJECT_QUEUE_STALL_MS is set.
  std::atomic<bool> stalling{stall_ms > 0};
  std::thread staller([&] {
    while (stalling.load(std::memory_order_relaxed)) {
      service.set_paused(true);
      std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
      service.set_paused(false);
      std::this_thread::sleep_for(
          std::chrono::milliseconds(std::max<std::uint64_t>(stall_ms / 2, 1)));
    }
  });

  std::atomic<bool> churning{true};
  std::thread churn([&] {
    Rng local = churn_rng;
    while (churning.load(std::memory_order_relaxed)) {
      {
        std::lock_guard lock(graph_mutex);
        churn_join(graph, TopologyKind::kBalanced, local, 3, 10);
        if (graph.num_alive() > nodes) churn_leave(graph, local);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(fast ? 60 : 25));
    }
  });

  struct Tally {
    std::atomic<std::uint64_t> ok{0}, hits{0}, coalesced{0}, rejected{0},
        deadline_missed{0}, failed{0}, latency_sum_us{0};
  };
  Tally tally;

  auto client = [&](int id) {
    // Per-client jitter stream for reject backoff: honouring the broker's
    // retry_after_us verbatim would march every shed client back in
    // lockstep and re-collide them; the shared helper spreads the herd
    // across [0.75, 1.25) of the hint (net/client.hpp, same policy the
    // socket clients use).
    Rng backoff_rng(0x9E3779B9u + static_cast<std::uint64_t>(id));
    for (int q = 0; q < queries_per_client; ++q) {
      EstimateRequest req;
      // One tenant per query class, so /costs has a real mix to rank: the
      // tight-target "search" class buys the biggest walk budgets and
      // should top every by_steps ranking.
      switch ((id + q) % 4) {
        case 0:  // the common cheap ask: cached size, loose target
          req.epsilon = 0.3;
          req.delta = 0.2;
          req.tenant = "ads";
          break;
        case 1:  // aggregate query over the same machinery
          req.kind = QueryKind::kDegreeSum;
          req.epsilon = 0.4;
          req.delta = 0.2;
          req.tenant = "analytics";
          break;
        case 2:  // tighter target: bigger budget, cache rarely suffices
          req.epsilon = 0.2;
          req.delta = 0.1;
          req.tenant = "search";
          break;
        default:  // the paper's other estimator
          req.method = EstimateMethod::kSampleCollide;
          req.epsilon = 0.5;
          req.delta = 0.3;
          req.tenant = "research";
          break;
      }
      // Generous by default: a miss means the broker stalled, not load.
      // The health-smoke drill shortens this so injected stalls miss.
      req.deadline_us = service.now_us() + deadline_us;
      const EstimateResponse resp = service.query(req);
      switch (resp.status) {
        case ServeStatus::kOk:
          tally.ok.fetch_add(1);
          tally.latency_sum_us.fetch_add(resp.latency_us);
          if (resp.cache_hit) tally.hits.fetch_add(1);
          if (resp.coalesced) tally.coalesced.fetch_add(1);
          break;
        case ServeStatus::kRejected:
          tally.rejected.fetch_add(1);
          std::this_thread::sleep_for(std::chrono::microseconds(
              net::jittered_backoff_us(resp.retry_after_us, backoff_rng)));
          break;
        case ServeStatus::kDeadlineMiss:
          tally.deadline_missed.fetch_add(1);
          break;
        case ServeStatus::kFailed:
          tally.failed.fetch_add(1);
          break;
      }
    }
  };

  std::vector<std::thread> workers;
  for (int id = 0; id < clients; ++id) workers.emplace_back(client, id);
  for (auto& w : workers) w.join();
  stalling.store(false, std::memory_order_relaxed);
  staller.join();
  service.set_paused(false);  // in case the last pulse left it paused
  churning.store(false, std::memory_order_relaxed);
  churn.join();
  dog.stop();
  service.stop();
  trace.uninstall();
  cost_ledger.uninstall();
  center.uninstall();

  const auto snap = registry.snapshot();
  const std::uint64_t total =
      static_cast<std::uint64_t>(clients) * queries_per_client;
  std::cout << "queries          " << total << "\n"
            << "ok               " << tally.ok.load() << "\n"
            << "cache hits       " << tally.hits.load() << "\n"
            << "coalesced        " << tally.coalesced.load() << "\n"
            << "rejected (shed)  " << tally.rejected.load() << "\n"
            << "deadline missed  " << tally.deadline_missed.load() << "\n"
            << "failed           " << tally.failed.load() << "\n"
            << "batches run      " << snap.counter_or_zero("serve.batches")
            << "\n"
            << "walks spent      " << snap.counter_or_zero("serve.walks")
            << "\n"
            << "refreshes        " << snap.counter_or_zero("serve.refreshes")
            << "\n"
            << "invalidations    "
            << snap.counter_or_zero("serve.cache_invalidations") << "\n";
  if (tally.ok.load() > 0)
    std::cout << "mean ok latency  "
              << tally.latency_sum_us.load() / tally.ok.load() << " us\n";

  // Per-class SLO ledger (the serve.slo.* family in /metrics).
  std::cout << "\nSLO ledger (target " << config.slo.target << "):\n";
  for (const char* cls : {"size.random_tour.deadline",
                          "degree_sum.random_tour.deadline",
                          "size.sample_collide.deadline"})
    std::cout << "  " << cls << "  hit_rate " << service.slo().hit_rate(cls)
              << "  burn " << service.slo().budget_burn(cls) << "\n";
  std::cout << "  breaches " << service.slo().breaches() << "  audited "
            << auditor.observations() << "  health events "
            << center.total_raised() << "  bundles " << flight.dumps()
            << "\n";

  // Who ate the cluster: the ledger folded by tenant, plus the ranked
  // JSON answer the /costs endpoint serves to dashboards.
  std::cout << "\ncost ledger (" << cost_ledger.contexts()
            << " contexts, unattributed steps "
            << cost_ledger.unattributed().steps() << "):\n";
  {
    std::map<std::string, std::uint64_t> steps_by_tenant;
    for (const CostRecord& row : cost_ledger.snapshot())
      if (row.ctx != 0) steps_by_tenant[row.context.tenant] += row.steps();
    const std::uint64_t total_steps = cost_ledger.totals().steps();
    for (const auto& [tenant, tenant_steps] : steps_by_tenant)
      std::cout << "  " << tenant << "  steps " << tenant_steps << "  ("
                << (total_steps > 0
                        ? 100.0 * static_cast<double>(tenant_steps) /
                              static_cast<double>(total_steps)
                        : 0.0)
                << "%)\n";
  }
  std::cout << "\ntop tenants by steps (GET /costs?k=3):\n"
            << http_get_body(http.port(), "/costs?k=3") << "\n";

  std::cout << "\nserve.* exposition (GET /metrics):\n";
  const std::string metrics = http_get_body(http.port(), "/metrics");
  std::istringstream lines(metrics);
  for (std::string line; std::getline(lines, line);)
    if (line.rfind("serve_", 0) == 0 ||
        line.rfind("# TYPE serve_", 0) == 0)
      std::cout << line << '\n';

  int readyz_status = 0;
  http_get_body(http.port(), "/readyz", &readyz_status);
  std::cout << "\n/readyz after warm-up: " << readyz_status << "\n";

  if (tally.ok.load() == 0) {
    std::cerr << "error: no query succeeded\n";
    return 1;
  }
  if (readyz_status != 200) {
    std::cerr << "error: /readyz not 200 after warm-up\n";
    return 1;
  }
  if (miss_budget != ~0ULL && tally.deadline_missed.load() > miss_budget) {
    std::cerr << "error: " << tally.deadline_missed.load()
              << " deadline misses exceed budget " << miss_budget << "\n";
    return 1;
  }
  if (cost_ledger.unattributed().steps() != 0) {
    // Zero-residue contract: every admitted query carried a context, so
    // nothing the broker spent may land on the sink.
    std::cerr << "error: " << cost_ledger.unattributed().steps()
              << " walk steps escaped cost attribution\n";
    return 1;
  }
  if (stall_ms > 0) {
    // The drill exists to prove the alarm chain: stall -> misses -> burn
    // crosses 1.0 -> kCritical serve.slo_breach -> flight bundle.
    if (service.slo().breaches() == 0) {
      std::cerr << "error: injected broker stall never breached the SLO\n";
      return 1;
    }
    if (flight.enabled() && flight.dumps() == 0) {
      std::cerr << "error: SLO breached but no flight bundle landed\n";
      return 1;
    }
  }
  return 0;
}
