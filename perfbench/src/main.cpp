// perfbench: one workload of the serving benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--trace-out <file.json>] [--saturate]
//
// Builds the overlay from the seed, starts the serving stack five times
// (set-up time is their median), drives the workload's load over two
// loopback connections and checks every reply. --trace 0 prints the
// end-to-end metrics. --trace 1 runs half the time untraced and half with
// a TraceRecorder installed, then times direct calls into each layer, and
// prints the per-layer metrics; --trace-out writes the recorded spans as
// Chrome trace JSON. --saturate only measures the closed-loop saturation
// rate that hit_loopback's fixed offered rate is derived from. The last
// line of standard output is the result object; the exit code is non-zero
// when a correctness check failed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <numeric>
#include <set>
#include <tuple>
#include <string>
#include <vector>

#include "bench.hpp"
#include "layers.hpp"
#include "obs/trace.hpp"
#include "report.hpp"

namespace perfbench {
namespace {

constexpr int kSetups = 5;
constexpr double kStopTimeoutS = 10.0;
/// An open-loop run is invalid when its generator did not keep its
/// schedule: sends lagged their due time by more than 1 ms at the median
/// (sustained lag) or 25 ms at p99 (stalls). The generator shares the
/// cores with the server, so a few ms of p99 lateness under walk load is
/// expected; latency is timed from the due time, so it includes that.
constexpr double kMaxLatenessP50Us = 1'000.0;
constexpr double kMaxLatenessP99Us = 25'000.0;
/// Time slices for the latency percentiles (see sliced_quantile).
constexpr std::size_t kSlices = 10;
/// Significance of the per-class coverage check.
constexpr double kCoverageAlpha = 1e-3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool saturate = false;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--saturate") {
      a.saturate = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") return false;
      a.trace = v == "1";
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      return false;
    }
  }
  return have_workload;
}

/// Coverage of a load phase against the truth at each reply's graph
/// version (alive count for size, total degree for degree sum). `share` is
/// over ok replies, the end-to-end metric. The per-class counts are over
/// distinct estimates, one per batch result however many cache hits repeat
/// it: the (epsilon, delta) promise is about estimates, not replies.
struct Coverage {
  double share = 0.0;
  std::array<std::uint64_t, kClasses> estimates{};
  std::array<std::uint64_t, kClasses> misses{};
  std::uint64_t unknown_versions = 0;
  std::uint64_t non_finite = 0;
};

Coverage coverage_of(const LoadResult& load, Stack& stack) {
  Coverage c;
  std::uint64_t replies = 0, covered = 0;
  std::set<std::tuple<unsigned, std::uint64_t, double>> seen;
  for (const Reply& r : load.replies) {
    if (!r.ok) continue;
    if (!std::isfinite(r.value) || !std::isfinite(r.epsilon)) {
      ++c.non_finite;
      continue;
    }
    Truth t;
    if (!stack.truth_at(r.version, t)) {
      ++c.unknown_versions;
      continue;
    }
    const double truth =
        stack.classes[r.cls].kind == 0 ? t.alive : t.total_degree;
    const bool within = std::fabs(r.value / truth - 1.0) <= r.epsilon;
    ++replies;
    covered += within ? 1 : 0;
    if (seen.insert({r.cls, r.version, r.value}).second) {
      ++c.estimates[r.cls];
      c.misses[r.cls] += within ? 0 : 1;
    }
  }
  c.share = replies > 0 ? static_cast<double>(covered) / replies : 0.0;
  return c;
}

/// P(X >= k) for X ~ Binomial(n, p).
double binomial_tail(std::uint64_t n, std::uint64_t k, double p) {
  double tail = 0.0;
  for (std::uint64_t i = k; i <= n; ++i) {
    const double log_term =
        std::lgamma(static_cast<double>(n) + 1) -
        std::lgamma(static_cast<double>(i) + 1) -
        std::lgamma(static_cast<double>(n - i) + 1) +
        static_cast<double>(i) * std::log(p) +
        static_cast<double>(n - i) * std::log1p(-p);
    tail += std::exp(log_term);
  }
  return tail;
}

std::uint64_t ok_count(const LoadResult& load) {
  std::uint64_t n = 0;
  for (const Reply& r : load.replies) n += r.ok ? 1 : 0;
  return n;
}

/// Correctness checks on one load phase; each failure is appended to
/// `failures`.
void check_load(const char* phase, const LoadResult& load, Stack& stack,
                const WorkloadSpec& spec,
                std::vector<std::string>& failures) {
  auto fail = [&](const std::string& why) {
    failures.push_back(std::string(phase) + ": " + why);
  };
  if (load.sent == 0) fail("no request was sent");
  if (load.replies.size() != load.sent || load.unanswered != 0 ||
      load.duplicate_or_unknown != 0 || load.transport_errors != 0) {
    fail("sent " + std::to_string(load.sent) + " requests but got " +
         std::to_string(load.replies.size()) + " replies (" +
         std::to_string(load.unanswered) + " unanswered, " +
         std::to_string(load.duplicate_or_unknown) +
         " duplicate or unknown, " + std::to_string(load.transport_errors) +
         " transport errors)");
  }
  const Coverage cov = coverage_of(load, stack);
  if (cov.unknown_versions != 0)
    fail(std::to_string(cov.unknown_versions) +
         " replies name a graph version that never existed");
  if (cov.non_finite != 0)
    fail(std::to_string(cov.non_finite) + " ok replies are not finite");
  for (unsigned k = 0; k < kClasses; ++k) {
    const QueryClass& qc = stack.classes[k];
    const auto n = cov.estimates[k];
    const auto misses = cov.misses[k];
    if (n == 0 || misses <= qc.delta * static_cast<double>(n)) continue;
    // More misses than delta allows: fail unless that is a plausible draw
    // when each estimate misses with probability delta.
    if (binomial_tail(n, misses, qc.delta) < kCoverageAlpha)
      fail(std::string("class ") + qc.name + ": " + std::to_string(misses) +
           " of " + std::to_string(n) +
           " distinct estimates miss their epsilon (delta " +
           std::to_string(qc.delta) + ")");
  }
  if (spec.min_hit_ratio > 0.0) {
    std::uint64_t ok = 0, hits = 0;
    for (const Reply& r : load.replies) {
      ok += r.ok ? 1 : 0;
      hits += r.ok && r.cache_hit ? 1 : 0;
    }
    const double ratio = ok > 0 ? static_cast<double>(hits) / ok : 0.0;
    if (ratio < spec.min_hit_ratio)
      fail("cache hit ratio " + std::to_string(ratio) + " below " +
           std::to_string(spec.min_hit_ratio));
  }
  if (spec.loop == LoopKind::kOpen) {
    const double p50 = quantile(load.lateness_us, 0.50);
    const double p99 = quantile(load.lateness_us, 0.99);
    if (p50 > kMaxLatenessP50Us || p99 > kMaxLatenessP99Us)
      fail("invalid run: the generator fell behind its schedule (lateness "
           "p50 " + std::to_string(p50) + " us, p99 " + std::to_string(p99) +
           " us)");
  }
}

/// Latency percentile of a run, made robust to a few noisy seconds: the
/// run is cut into kSlices equal time slices by due time, and the result is
/// the median over the slices of each slice's q-quantile of ok latencies.
double sliced_quantile(const LoadResult& load, double q) {
  std::vector<std::vector<double>> slices(kSlices);
  const double width = load.seconds * 1e6 / kSlices;
  for (const Reply& r : load.replies) {
    if (!r.ok) continue;
    const auto idx = static_cast<std::size_t>(
        std::clamp((r.due_us - load.start_us) / width, 0.0, kSlices - 1.0));
    slices[idx].push_back(r.latency_us);
  }
  std::vector<double> per_slice;
  for (const auto& slice : slices)
    if (!slice.empty()) per_slice.push_back(quantile(slice, q));
  return quantile(per_slice, 0.5);
}

double counter_delta(const MetricsSnapshot& a, const MetricsSnapshot& b,
                     const std::string& name) {
  return static_cast<double>(b.counter_or_zero(name)) -
         static_cast<double>(a.counter_or_zero(name));
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double sum_of(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

int run(const Args& args) {
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr) {
    std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  std::cout << "# perfbench workload=" << spec->name << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace
            << "\n# stamp " << stamp_json() << "\n";

  std::uint64_t stop_attempts = 0, stop_failures = 0;
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  for (int k = 0; k < kSetups; ++k) {
    const double t0 = now_us();
    std::unique_ptr<Stack> s = build_stack(*spec, args.seed);
    if (s == nullptr) return 1;
    setup_s.push_back((now_us() - t0) / 1e6);
    if (k + 1 == kSetups) {
      stack = std::move(s);
      break;
    }
    ++stop_attempts;
    if (!stop_bounded(*s, kStopTimeoutS)) {
      ++stop_failures;
      (void)s.release();  // stuck in stop(): cannot be destroyed
    }
  }

  if (args.saturate) {
    std::cout << "# saturation_rps " << measure_saturation(*stack, args.seconds)
              << "\n";
    const bool stopped = stop_bounded(*stack, kStopTimeoutS);
    std::fflush(stdout);
    if (!stopped) std::_Exit(1);
    return 0;
  }

  std::unique_ptr<ChurnWriter> writer;
  if (spec->churn_period_ms > 0.0)
    writer = std::make_unique<ChurnWriter>(*stack, args.seed,
                                           spec->churn_period_ms);

  // --trace 1: first half untraced (the overhead reference), second half
  // with the recorder installed. Per-layer figures come from the second.
  std::unique_ptr<TraceRecorder> recorder;
  LoadResult untraced, traced;
  MetricsSnapshot m0, m1;
  std::uint64_t trace_from = 0, trace_to = 0;
  std::uint32_t ctx_from = 0, ctx_to = 0;
  if (!args.trace) {
    m0 = stack->registry.snapshot();
    untraced = run_load(*stack, *spec, args.seed, 0, args.seconds);
    m1 = stack->registry.snapshot();
  } else {
    untraced = run_load(*stack, *spec, args.seed, 0, args.seconds / 2);
    // 256k events per thread holds a 15 s traced half of hit_loopback (one
    // client span and one net.request span per request) without wrapping.
    recorder = std::make_unique<TraceRecorder>(std::size_t{1} << 18);
    recorder->install();
    ctx_from = static_cast<std::uint32_t>(stack->ledger.contexts());
    m0 = stack->registry.snapshot();
    trace_from = recorder->now_us();
    traced = run_load(*stack, *spec, args.seed, 1, args.seconds / 2);
    trace_to = recorder->now_us();
    m1 = stack->registry.snapshot();
    ctx_to = static_cast<std::uint32_t>(stack->ledger.contexts());
  }
  const LoadResult& load = args.trace ? traced : untraced;
  std::vector<double> writer_hold_us;
  if (writer) writer_hold_us = writer->stop();

  // Direct serve calls would queue behind whatever left requests
  // unanswered; such a run has already failed.
  ServeDirect serve_direct;
  if (args.trace && untraced.unanswered == 0 && traced.unanswered == 0)
    serve_direct = measure_serve(*stack);

  ++stop_attempts;
  if (!stop_bounded(*stack, kStopTimeoutS)) ++stop_failures;

  std::vector<std::string> failures;
  check_load(args.trace ? "untraced half" : "load", untraced, *stack, *spec,
             failures);
  if (args.trace) check_load("traced half", traced, *stack, *spec, failures);
  if (stop_failures != 0)
    failures.push_back("EstimateNetServer::stop() exceeded " +
                       std::to_string(kStopTimeoutS) + " s");

  // The cost ledger must account for every walk step the shards spent.
  const MetricsSnapshot final_metrics = stack->registry.snapshot();
  const std::uint64_t serve_steps =
      final_metrics.counter_or_zero("serve.steps");
  const CostRecord cost = stack->ledger.totals();
  if (cost.steps() != serve_steps ||
      stack->ledger.unattributed().steps() != 0 ||
      stack->ledger.dropped_contexts() != 0) {
    failures.push_back("cost ledger does not reconcile: cost.steps " +
                       std::to_string(cost.steps()) + ", serve.steps " +
                       std::to_string(serve_steps) + ", unattributed " +
                       std::to_string(stack->ledger.unattributed().steps()) +
                       ", dropped contexts " +
                       std::to_string(stack->ledger.dropped_contexts()));
  }

  // Queue wait of every request the traced half put on a broker queue
  // (one ledger context per request outside hit_loopback).
  std::vector<double> queue_wait_us;
  for (std::uint32_t ctx = ctx_from; ctx < ctx_to; ++ctx) {
    const auto info = stack->ledger.context(ctx);
    if (!info || info->tenant.empty() || info->tenant.front() == '(') continue;
    const CostRecord rec = stack->ledger.fold(ctx);
    if (rec.get(CostField::kRejected) != 0) continue;
    if (rec.get(CostField::kCacheMisses) > 0 ||
        rec.get(CostField::kCacheHits) == 0)
      queue_wait_us.push_back(
          static_cast<double>(rec.get(CostField::kQueueWaitUs)));
  }
  stack->ledger.uninstall();

  const std::uint64_t ok = ok_count(load);
  std::vector<double> latency, transport, age_ms;
  std::uint64_t good = 0, hits = 0, coalesced = 0;
  for (const Reply& r : load.replies) {
    if (!r.ok) continue;
    latency.push_back(r.latency_us);
    transport.push_back(r.rtt_us - r.server_us);
    age_ms.push_back((r.age_us + r.rtt_us - r.server_us) / 1e3);
    good += r.latency_us <= spec->latency_limit_us ? 1 : 0;
    hits += r.cache_hit ? 1 : 0;
    coalesced += r.coalesced ? 1 : 0;
  }
  const double okd = static_cast<double>(ok);
  std::vector<double> lateness = untraced.lateness_us;
  lateness.insert(lateness.end(), traced.lateness_us.begin(),
                  traced.lateness_us.end());

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", quantile(setup_s, 0.5), "s"},
        {"latency_p50_us", sliced_quantile(load, 0.50), "us"},
        {"goodput_rps", ratio(static_cast<double>(good), load.wall_s), "1/s"},
        {"success_rate", ratio(okd, static_cast<double>(load.sent)), "ratio"},
        {"cpu_us_per_ok", ratio(load.cpu_s * 1e6, okd), "us"},
        {"walk_steps_per_ok",
         ratio(counter_delta(m0, m1, "serve.steps"), okd), "count"},
        {"coverage", coverage_of(load, *stack).share, "ratio"},
        {"served_age_p50_ms", quantile(age_ms, 0.5), "ms"},
        {"rss_peak_mb", rss_peak_mb(), "MiB"},
    };
  } else {
    const CoreDirect core = measure_core(*stack, serve_direct.miss_walks,
                                         args.seed, writer == nullptr);
    recorder->uninstall();
    const std::vector<TraceEvent> events = recorder->events();
    const auto folds = fold_self_time(events, trace_from, trace_to);
    std::printf("# self time over the traced half (span, count, total ms, "
                "self ms)\n");
    for (const SpanFold& f : folds)
      std::printf("#   %-28s %10llu %12.3f %12.3f\n", f.name.c_str(),
                  static_cast<unsigned long long>(f.count),
                  f.total_us / 1e3, f.self_us / 1e3);
    if (!args.trace_out.empty())
      write_chrome_trace_file(args.trace_out, *recorder, "perfbench");

    auto self_per_ok = [&](const char* name) {
      for (const SpanFold& f : folds)
        if (f.name == name) return ratio(f.self_us, okd);
      return 0.0;
    };
    const double bytes = counter_delta(m0, m1, "net.bytes_rx") +
                         counter_delta(m0, m1, "net.bytes_tx");
    const double churn_op_us =
        writer ? quantile(writer_hold_us, 0.5) : core.churn_op_us;
    std::vector<double> untraced_latency;
    for (const Reply& r : untraced.replies)
      if (r.ok) untraced_latency.push_back(r.latency_us);

    metrics = {
        {"net.transport_p50_us", quantile(transport, 0.50), "us"},
        {"net.transport_p99_us", quantile(transport, 0.99), "us"},
        {"net.codec_ns_per_frame", core.codec_ns_per_frame, "ns"},
        {"net.bytes_per_ok", ratio(bytes, okd), "B"},
        {"net.reject_rate",
         ratio(static_cast<double>(load.rejected), load.sent), "ratio"},
        {"serve.hit_us", serve_direct.hit_us, "us"},
        {"serve.hit_ratio", ratio(static_cast<double>(hits), okd), "ratio"},
        {"serve.invalidations",
         counter_delta(m0, m1, "serve.cache_invalidations"), "count"},
        {"serve.refreshes", counter_delta(m0, m1, "serve.refreshes"),
         "count"},
        {"serve.coalesced_share", ratio(static_cast<double>(coalesced), okd),
         "ratio"},
        {"serve.queue_wait_p50_us", quantile(queue_wait_us, 0.50), "us"},
        {"serve.queue_wait_p99_us", quantile(queue_wait_us, 0.99), "us"},
        {"serve.batch_wall_p50_us",
         quantile(span_durations(events, "serve.walks", trace_from, trace_to),
                  0.5),
         "us"},
        {"serve.broker_busy",
         ratio(sum_of(span_durations(events, "serve.batch", trace_from,
                                     trace_to)),
               static_cast<double>(trace_to - trace_from) *
                   static_cast<double>(kShards)),
         "ratio"},
        {"serve.deadline_miss_rate",
         ratio(static_cast<double>(load.deadline_missed), load.sent),
         "ratio"},
        {"graph.snapshot_ms", core.snapshot_ms, "ms"},
        {"graph.churn_op_us", churn_op_us, "us"},
        {"spectral.lanczos_ms", core.lanczos_ms, "ms"},
        {"walk.rt_steps_per_s", core.rt_steps_per_s, "1/s"},
        {"walk.sc_hops_per_s", core.sc_hops_per_s, "1/s"},
        {"runtime.parallel_efficiency", core.parallel_efficiency, "ratio"},
        {"ladder.net_over_serve_hit",
         ratio(serve_direct.net_hit_us, serve_direct.hit_us), "ratio"},
        {"ladder.serve_over_core_miss",
         ratio(serve_direct.miss_us, core.rt_miss_us), "ratio"},
        {"obs.trace_overhead_us",
         quantile(latency, 0.5) - quantile(untraced_latency, 0.5), "us"},
        {"obs.trace_dropped_events",
         static_cast<double>(recorder->dropped_events()), "count"},
        {"load.lateness_p99_us", quantile(lateness, 0.99), "us"},
        // Not end-to-end metrics: on a shared VM host CPU steal moves the
        // tail from tens of microseconds to milliseconds between runs.
        {"load.latency_p90_us", sliced_quantile(load, 0.90), "us"},
        {"load.latency_p99_us", sliced_quantile(load, 0.99), "us"},
        {"trace.self_us_per_ok.net.request", self_per_ok("net.request"),
         "us"},
        {"trace.self_us_per_ok.serve.batch", self_per_ok("serve.batch"),
         "us"},
        {"trace.self_us_per_ok.serve.snapshot", self_per_ok("serve.snapshot"),
         "us"},
        {"trace.self_us_per_ok.serve.profile", self_per_ok("serve.profile"),
         "us"},
        {"trace.self_us_per_ok.runner.dispatch",
         self_per_ok("runner.dispatch"), "us"},
        {"trace.self_us_per_ok.runner.task", self_per_ok("runner.task"),
         "us"},
        {"trace.self_us_per_ok.walk.tour", self_per_ok("walk.tour"), "us"},
        {"trace.self_us_per_ok.sc.estimate", self_per_ok("sc.estimate"),
         "us"},
    };
  }

  std::array<std::uint64_t, kClasses> walks{};
  for (const Reply& r : load.replies)
    if (r.ok) walks[r.cls] = r.walks;
  std::printf("# load: walks per batch %llu/%llu/%llu, steps %.0f, batches "
              "%.0f, refreshes %.0f\n",
              static_cast<unsigned long long>(walks[0]),
              static_cast<unsigned long long>(walks[1]),
              static_cast<unsigned long long>(walks[2]),
              counter_delta(m0, m1, "serve.steps"),
              counter_delta(m0, m1, "serve.batches"),
              counter_delta(m0, m1, "serve.refreshes"));
  std::printf("# load: sent %llu, ok %llu (rejected %llu, deadline missed "
              "%llu, failed %llu, unanswered %llu), cache hits %llu, "
              "coalesced %llu, lateness p50/p99/max %.1f/%.1f/%.1f us\n",
              static_cast<unsigned long long>(load.sent),
              static_cast<unsigned long long>(ok),
              static_cast<unsigned long long>(load.rejected),
              static_cast<unsigned long long>(load.deadline_missed),
              static_cast<unsigned long long>(load.failed),
              static_cast<unsigned long long>(load.unanswered),
              static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(coalesced),
              quantile(lateness, 0.5), quantile(lateness, 0.99),
              quantile(lateness, 1.0));
  std::printf("# latency deciles (us):");
  for (int d = 1; d <= 9; ++d)
    std::printf(" %.0f", quantile(latency, d / 10.0));
  std::printf("\n");
  for (const std::string& f : failures)
    std::cerr << "perfbench: check failed: " << f << "\n";
  const std::uint64_t sent = untraced.sent + traced.sent;
  const std::uint64_t answered_ok = ok_count(untraced) + ok_count(traced);
  print_result(failures.empty(), sent + stop_attempts,
               (sent - answered_ok) + stop_failures, metrics);
  std::fflush(stdout);
  // A server stuck in stop() still owns running threads; leave without
  // running destructors.
  if (stop_failures != 0) std::_Exit(1);
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::cerr << "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <file>] "
                 "[--saturate]\n";
    return 2;
  }
  return perfbench::run(args);
}
