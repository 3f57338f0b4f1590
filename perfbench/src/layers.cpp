#include "layers.hpp"

#include <algorithm>
#include <map>

#include "core/parallel.hpp"
#include "core/sampling.hpp"
#include "net/protocol.hpp"
#include "report.hpp"
#include "serve/budget.hpp"
#include "serve/source.hpp"
#include "sim/scenario.hpp"

namespace perfbench {
namespace {

// Every serve-level call opens a cost-ledger context; with churn_refresh's
// per-request contexts (15000 in a 30 s run) they must fit the ledger's
// 16384-entry table.
constexpr int kServeHitCalls = 500;
constexpr int kNetHitCalls = 200;
constexpr int kMissCalls = 3;
constexpr int kSnapshotCalls = 5;
constexpr int kLanczosCalls = 3;
constexpr int kBatchCalls = 3;
constexpr int kCodecRounds = 5;
constexpr int kCodecFrames = 100'000;
constexpr int kChurnOps = 256;
/// Trials per S&C batch: what the planner buys for the bronze class (its
/// budget clamps to BudgetPlanner's minimum of 8).
constexpr std::size_t kScTrials = 8;
constexpr std::size_t kScEll = 16;  // ServiceConfig::sc_ell default

EstimateRequest gold_request(const Stack& stack, bool allow_cached) {
  const QueryClass& qc = stack.classes[0];
  EstimateRequest req;
  req.kind = static_cast<QueryKind>(qc.kind);
  req.method = static_cast<EstimateMethod>(qc.method);
  req.epsilon = qc.epsilon;
  req.delta = qc.delta;
  req.allow_cached = allow_cached;
  req.tenant = "(bench)";
  return req;
}

}  // namespace

ServeDirect measure_serve(Stack& stack) {
  ServeDirect out;
  EstimateService& shard = stack.server->shard(0);

  std::vector<double> hit_us;
  shard.query(gold_request(stack, true));  // make sure the entry is cached
  for (int i = 0; i < kServeHitCalls; ++i) {
    TraceSpan span("bench", "bench.serve_hit", "call", std::uint64_t(i));
    const double t0 = now_us();
    const EstimateResponse resp = shard.query(gold_request(stack, true));
    const double t1 = now_us();
    if (resp.cache_hit) hit_us.push_back(t1 - t0);
  }
  out.hit_us = quantile(hit_us, 0.5);

  std::vector<double> net_us;
  net::NetClient& client = stack.clients[0];
  const QueryClass& qc = stack.classes[0];
  for (int i = 0; i < kNetHitCalls; ++i) {
    net::RequestMsg req;
    req.request_id = (std::uint64_t{0xB} << 56) + std::uint64_t(i);
    req.tenant_id = stack.tenant_ids[0][0];
    req.kind = qc.kind;
    req.method = qc.method;
    req.flags = net::kReqAllowCached | net::kReqExplicitTarget;
    req.epsilon = qc.epsilon;
    req.delta = qc.delta;
    TraceSpan span("bench", "bench.net_hit", "request_id", req.request_id);
    const double t0 = now_us();
    const auto res = client.request(req);
    const double t1 = now_us();
    if (res && !res->rejected && (res->response.flags & net::kRespCacheHit))
      net_us.push_back(t1 - t0);
  }
  out.net_hit_us = quantile(net_us, 0.5);

  std::vector<double> miss_us;
  for (int i = 0; i < kMissCalls; ++i) {
    TraceSpan span("bench", "bench.serve_miss", "call", std::uint64_t(i));
    const double t0 = now_us();
    const EstimateResponse resp = shard.query(gold_request(stack, false));
    const double t1 = now_us();
    if (resp.ok()) {
      miss_us.push_back(t1 - t0);
      out.miss_walks = resp.walks;
    }
  }
  out.miss_us = quantile(miss_us, 0.5);
  return out;
}

CoreDirect measure_core(Stack& stack, std::size_t rt_walks,
                        std::uint64_t seed, bool churn_ops) {
  CoreDirect out;
  const GraphSource source =
      dynamic_graph_source(stack.graph, stack.graph_mutex, stack.origin);

  GraphSnapshot snap;
  std::vector<double> snapshot_ms;
  for (int i = 0; i < kSnapshotCalls; ++i) {
    TraceSpan span("bench", "bench.snapshot", "call", std::uint64_t(i));
    const double t0 = now_us();
    snap = source.snapshot();
    snapshot_ms.push_back((now_us() - t0) / 1e3);
  }
  out.snapshot_ms = quantile(snapshot_ms, 0.5);

  std::vector<double> lanczos_ms;
  GraphProfile profile;
  for (int i = 0; i < kLanczosCalls; ++i) {
    TraceSpan span("bench", "bench.lanczos", "call", std::uint64_t(i));
    const double t0 = now_us();
    profile = profile_graph(snap.graph, snap.origin, snap.version, 0.0, 96,
                            seed + 1);
    lanczos_ms.push_back((now_us() - t0) / 1e3);
  }
  out.lanczos_ms = quantile(lanczos_ms, 0.5);

  // The service's runner shape: 2 threads, default kernel width.
  ParallelRunner runner(2);
  std::vector<double> rt_us, rt_rate, efficiency, sc_rate;
  for (int i = 0; i < kBatchCalls; ++i) {
    TraceSpan span("bench", "bench.rt_batch", "call", std::uint64_t(i));
    const TourBatch batch = run_tours_size(snap.graph, snap.origin,
                                           std::max<std::size_t>(rt_walks, 1),
                                           seed + 100 + i, runner);
    rt_us.push_back(batch.stats.wall_seconds * 1e6);
    rt_rate.push_back(batch.stats.steps_per_second());
    efficiency.push_back(batch.stats.parallel_efficiency());
  }
  const double timer = recommended_ctrw_timer(
      static_cast<double>(snap.graph.num_nodes()),
      std::max(profile.lambda2, 1e-3));
  for (int i = 0; i < kBatchCalls; ++i) {
    TraceSpan span("bench", "bench.sc_batch", "call", std::uint64_t(i));
    const ScBatch batch = run_sc_trials(snap.graph, snap.origin, kScTrials,
                                        timer, kScEll, seed + 200 + i, runner);
    sc_rate.push_back(batch.stats.steps_per_second());
  }
  out.rt_miss_us = quantile(rt_us, 0.5);
  out.rt_steps_per_s = quantile(rt_rate, 0.5);
  out.parallel_efficiency = quantile(efficiency, 0.5);
  out.sc_hops_per_s = quantile(sc_rate, 0.5);

  {
    TraceSpan span("bench", "bench.codec");
    net::RequestMsg req;
    req.tenant_id = 7;
    req.flags = net::kReqAllowCached | net::kReqExplicitTarget;
    req.epsilon = 0.5;
    req.delta = 0.2;
    net::ResponseMsg resp;
    resp.value = 20000.0;
    resp.epsilon = 0.1;
    resp.walks = 4000;
    net::FrameReader reader;
    const std::string wire = net::encode_response(resp);
    reader.append(wire.data(), wire.size());
    net::Frame frame;
    reader.next(frame);
    std::vector<double> ns;
    std::uint64_t sink = 0;
    for (int r = 0; r < kCodecRounds; ++r) {
      const double t0 = now_us();
      for (int i = 0; i < kCodecFrames; ++i) {
        req.request_id = std::uint64_t(i);
        const std::string bytes = net::encode_request(req);
        const auto decoded = net::decode_response(frame);
        sink += bytes.size() + (decoded ? decoded->walks : 0);
      }
      ns.push_back((now_us() - t0) * 1e3 / kCodecFrames);
    }
    out.codec_ns_per_frame = quantile(ns, 0.5);
    if (sink == 0) out.codec_ns_per_frame = 0.0;  // keeps the loop alive
  }

  if (churn_ops) {
    // Same op as the churn writer, on a scratch copy of the overlay.
    TraceSpan span("bench", "bench.churn_ops");
    DynamicGraph scratch = stack.graph;
    std::mutex mutex;
    Rng rng(seed ^ 0xC4u);
    const std::size_t base_alive = scratch.num_alive();
    std::vector<double> held;
    for (int i = 0; i < kChurnOps; ++i) {
      std::lock_guard lock(mutex);
      const double t0 = now_us();
      churn_join(scratch, TopologyKind::kBalanced, rng, 2, 10);
      if (scratch.num_alive() > base_alive) churn_leave(scratch, rng);
      held.push_back(now_us() - t0);
    }
    out.churn_op_us = quantile(held, 0.5);
  }
  return out;
}

namespace {

std::string span_key(const TraceEvent& e) {
  const std::string name = e.name != nullptr ? e.name : "?";
  const std::string cat = e.cat != nullptr ? e.cat : "";
  if (cat.empty() || name.rfind(cat + ".", 0) == 0) return name;
  return cat + "." + name;
}

}  // namespace

std::vector<SpanFold> fold_self_time(const std::vector<TraceEvent>& events,
                                     std::uint64_t from_us,
                                     std::uint64_t to_us) {
  std::map<std::uint32_t, std::vector<const TraceEvent*>> by_thread;
  for (const TraceEvent& e : events) {
    if (e.phase != 'X' || e.ts_us < from_us || e.ts_us >= to_us) continue;
    by_thread[e.tid].push_back(&e);
  }
  std::map<std::string, SpanFold> folds;
  for (auto& [tid, spans] : by_thread) {
    // Parents first: earlier start, then longer duration.
    std::sort(spans.begin(), spans.end(),
              [](const TraceEvent* a, const TraceEvent* b) {
                if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
                return a->dur_us > b->dur_us;
              });
    std::vector<double> self(spans.size());
    std::vector<std::size_t> open;  // indices of enclosing spans
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const TraceEvent& e = *spans[i];
      self[i] = static_cast<double>(e.dur_us);
      const std::uint64_t end = e.ts_us + e.dur_us;
      while (!open.empty() &&
             spans[open.back()]->ts_us + spans[open.back()]->dur_us <=
                 e.ts_us)
        open.pop_back();
      if (!open.empty()) {
        const TraceEvent& parent = *spans[open.back()];
        if (end <= parent.ts_us + parent.dur_us)
          self[open.back()] -= static_cast<double>(e.dur_us);
        else
          open.clear();  // overlapping siblings (pipelined requests)
      }
      open.push_back(i);
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      SpanFold& f = folds[span_key(*spans[i])];
      ++f.count;
      f.total_us += static_cast<double>(spans[i]->dur_us);
      f.self_us += self[i];
    }
  }
  std::vector<SpanFold> out;
  for (auto& [name, f] : folds) {
    f.name = name;
    out.push_back(f);
  }
  return out;
}

std::vector<double> span_durations(const std::vector<TraceEvent>& events,
                                   const char* name, std::uint64_t from_us,
                                   std::uint64_t to_us) {
  std::vector<double> out;
  for (const TraceEvent& e : events) {
    if (e.phase != 'X' || e.ts_us < from_us || e.ts_us >= to_us) continue;
    if (e.name != nullptr && std::string_view(e.name) == name)
      out.push_back(static_cast<double>(e.dur_us));
  }
  return out;
}

}  // namespace perfbench
