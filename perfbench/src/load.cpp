// Serving stack set-up, the load generators and the churn writer.
#include <poll.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>

#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <future>
#include <iostream>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "net/protocol.hpp"
#include "obs/trace.hpp"
#include "serve/source.hpp"
#include "sim/scenario.hpp"

namespace perfbench {
namespace {

/// Pinned spectral gap: below lambda_2 of every seed tried, so the
/// (epsilon, delta) budget it buys stays a valid promise.
constexpr double kPinnedLambda2 = 0.3;
/// Tours the gold class needs at the pinned gap,
/// ceil(2 d_bar / (lambda_2 eps^2 delta)) with d_bar ~ 7.5: every seed
/// with lambda_2 >= 0.3 runs exactly this many.
constexpr std::size_t kTourFloor = 512;

// The fixed offered rate of hit_loopback is about a third of the
// closed-loop saturation of the stack (`perfbench --saturate`).
const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = {
      {"hit_loopback", LoopKind::kOpen, 20'000.0, true, 0.0, 2'000.0, true,
       0.99, kMixedClasses, kPinnedLambda2},
      {"miss_walks", LoopKind::kClosed, 0.0, false, 0.0, 1'000'000.0, false,
       0.0, kMixedClasses, kPinnedLambda2},
      {"churn_refresh", LoopKind::kOpen, 500.0, true, 1'500.0, 2'000'000.0,
       false, 0.0, kTourClasses, 0.0, kTourFloor},
  };
  return specs;
}

/// Distinct, seed-derived stream for one (purpose, index) pair.
Rng stream_rng(std::uint64_t seed, std::uint64_t purpose, std::uint64_t idx) {
  Rng rng(seed ^ (0x9E3779B97F4A7C15ULL * (purpose * 64 + idx + 1)));
  return rng.split();
}

/// Query classes in seeded order, in blocks holding each class once, so the
/// mix is the same proportion on every seed and only the order varies.
class ClassMix {
 public:
  explicit ClassMix(Rng rng) : rng_(rng) {}
  std::uint8_t next() {
    if (pos_ == kClasses) {
      for (unsigned i = 0; i < kClasses; ++i) block_[i] = std::uint8_t(i);
      for (unsigned i = kClasses - 1; i > 0; --i)
        std::swap(block_[i], block_[rng_.uniform_below(i + 1)]);
      pos_ = 0;
    }
    return block_[pos_++];
  }

 private:
  Rng rng_;
  std::array<std::uint8_t, kClasses> block_{};
  unsigned pos_ = kClasses;
};

struct Outstanding {
  double due_us = 0.0;
  double sent_us = 0.0;
  std::uint64_t trace_ts_us = 0;  ///< send time on the recorder's clock
  std::uint8_t cls = 0;
};

/// One client thread driving one connection. Open loop: a request is due
/// every `interval_us` regardless of replies. Closed loop: at most `window`
/// requests in flight, the next sent when a reply frees a slot.
void drive_connection(Stack& stack, unsigned conn, bool open_loop,
                      double interval_us, std::size_t window,
                      bool allow_cached, std::uint64_t stream, Rng mix_rng,
                      double start_us, double end_us, LoadResult& out) {
  // Wake-ups at the due time need microsecond timers, not the default
  // 50 us slack.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  net::NetClient& client = stack.clients[conn];
  const int fd = client.fd();
  ClassMix mix(mix_rng);
  net::FrameReader reader;
  std::unordered_map<std::uint64_t, Outstanding> outstanding;
  // Request ids are unique across connections and phases, so one id ties
  // a request's client span to its reply.
  std::uint64_t next_id =
      (std::uint64_t{conn} << 48) | (stream << 40) | std::uint64_t{1};
  TraceRecorder* const recorder = TraceRecorder::active();
  double due = start_us + interval_us * conn / kConnections;
  constexpr double kDrainUs = 20e6;
  char buf[64 * 1024];

  auto send = [&](double due_us) {
    const std::uint8_t cls = mix.next();
    const QueryClass& qc = stack.classes[cls];
    net::RequestMsg req;
    req.request_id = next_id++;
    req.tenant_id = stack.tenant_ids[conn][cls];
    req.kind = qc.kind;
    req.method = qc.method;
    req.flags = static_cast<std::uint16_t>(
        net::kReqExplicitTarget | (allow_cached ? net::kReqAllowCached : 0));
    req.epsilon = qc.epsilon;
    req.delta = qc.delta;
    const double sent = now_us();
    if (!client.send_request(req)) {
      ++out.transport_errors;
      return false;
    }
    const std::uint64_t trace_ts = recorder != nullptr ? recorder->now_us() : 0;
    outstanding.emplace(req.request_id,
                        Outstanding{due_us, sent, trace_ts, cls});
    ++out.sent;
    if (open_loop) out.lateness_us.push_back(sent - due_us);
    return true;
  };

  auto absorb = [&](const net::Frame& frame, double recv_us) {
    Reply r;
    std::uint64_t id = 0;
    bool rejected = false;
    if (frame.type() == net::FrameType::kResponse) {
      const auto msg = net::decode_response(frame);
      if (!msg) return false;
      id = msg->request_id;
      const auto status = static_cast<ServeStatus>(msg->status);
      r.ok = status == ServeStatus::kOk;
      if (status == ServeStatus::kDeadlineMiss) ++out.deadline_missed;
      if (status == ServeStatus::kFailed) ++out.failed;
      if (status == ServeStatus::kRejected) rejected = true;
      r.cache_hit = (msg->flags & net::kRespCacheHit) != 0;
      r.coalesced = (msg->flags & net::kRespCoalesced) != 0;
      r.server_us = static_cast<double>(msg->latency_us);
      r.age_us = static_cast<double>(msg->age_us);
      r.value = msg->value;
      r.epsilon = msg->epsilon;
      r.walks = msg->walks;
      r.version = msg->graph_version;
    } else if (frame.type() == net::FrameType::kReject) {
      const auto msg = net::decode_reject(frame);
      if (!msg) return false;
      id = msg->request_id;
      rejected = true;
    } else {
      return false;
    }
    const auto it = outstanding.find(id);
    if (it == outstanding.end()) {
      ++out.duplicate_or_unknown;
      return true;
    }
    if (rejected) ++out.rejected;
    if (recorder != nullptr) {
      recorder->record(TraceEvent{"bench.request", "bench", 'X', 0,
                                  it->second.trace_ts_us,
                                  recorder->now_us() - it->second.trace_ts_us,
                                  "request_id", id});
    }
    r.cls = it->second.cls;
    r.due_us = it->second.due_us;
    r.latency_us = recv_us - it->second.due_us;
    r.rtt_us = recv_us - it->second.sent_us;
    outstanding.erase(it);
    out.replies.push_back(r);
    return true;
  };

  // Reads everything the socket holds without blocking; false on EOF,
  // socket error or a malformed stream.
  auto drain_socket = [&]() {
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (n > 0) {
        reader.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      return false;
    }
    const double recv_us = now_us();
    net::Frame frame;
    for (;;) {
      const net::DecodeStatus st = reader.next(frame);
      if (st == net::DecodeStatus::kNeedMore) return true;
      if (st == net::DecodeStatus::kError || !absorb(frame, recv_us))
        return false;
    }
  };

  for (;;) {
    const double t = now_us();
    // Open loop: every request due before the end is sent, however late.
    const bool sending = open_loop ? due < end_us : t < end_us;
    if (sending) {
      if (open_loop && due <= t) {
        if (!send(due)) break;
        due += interval_us;
        // Behind schedule: keep sending, but read between sends so the
        // server's pipelining window never fills on our side.
        if (due <= t && !drain_socket()) {
          ++out.transport_errors;
          break;
        }
        continue;
      }
      if (!open_loop && outstanding.size() < window) {
        if (!send(t)) break;
        continue;
      }
    } else if (outstanding.empty() || t >= end_us + kDrainUs) {
      break;
    }
    double wake = sending ? end_us : end_us + kDrainUs;
    if (open_loop && sending) wake = due;
    const double wait_us = std::max(0.0, wake - t);
    timespec ts{static_cast<time_t>(wait_us / 1e6),
                static_cast<long>(std::fmod(wait_us, 1e6) * 1e3)};
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::ppoll(&pfd, 1, &ts, nullptr);
    if (ready < 0 && errno != EINTR) {
      ++out.transport_errors;
      break;
    }
    if (ready > 0 && !drain_socket()) {
      ++out.transport_errors;
      break;
    }
  }
  out.unanswered += outstanding.size();
}

LoadResult merge(const std::vector<LoadResult>& parts) {
  LoadResult all;
  for (const LoadResult& p : parts) {
    all.replies.insert(all.replies.end(), p.replies.begin(), p.replies.end());
    all.lateness_us.insert(all.lateness_us.end(), p.lateness_us.begin(),
                           p.lateness_us.end());
    all.sent += p.sent;
    all.rejected += p.rejected;
    all.deadline_missed += p.deadline_missed;
    all.failed += p.failed;
    all.transport_errors += p.transport_errors;
    all.unanswered += p.unanswered;
    all.duplicate_or_unknown += p.duplicate_or_unknown;
  }
  return all;
}

LoadResult drive(Stack& stack, bool open_loop, double rate_rps,
                 std::size_t window, bool allow_cached, std::uint64_t seed,
                 std::uint64_t stream, double seconds) {
  std::vector<LoadResult> parts(kConnections);
  const double interval_us =
      open_loop ? kConnections * 1e6 / rate_rps : 0.0;
  const double cpu0 = process_cpu_s();
  const double start = now_us() + 1000.0;
  const double end = start + seconds * 1e6;
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < kConnections; ++c) {
    threads.emplace_back(drive_connection, std::ref(stack), c, open_loop,
                         interval_us, window, allow_cached, stream,
                         stream_rng(seed, 10 + stream, c), start, end,
                         std::ref(parts[c]));
  }
  for (auto& t : threads) t.join();
  LoadResult all = merge(parts);
  all.start_us = start;
  all.seconds = seconds;
  all.wall_s = (now_us() - start) / 1e6;
  all.cpu_s = process_cpu_s() - cpu0;
  return all;
}

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  for (const auto& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

bool Stack::truth_at(std::uint64_t version, Truth& out) {
  std::lock_guard lock(graph_mutex);
  const auto it = truth.find(version);
  if (it == truth.end()) return false;
  out = it->second;
  return true;
}

std::unique_ptr<Stack> build_stack(const WorkloadSpec& spec,
                                   std::uint64_t seed) {
  auto s = std::make_unique<Stack>();
  s->classes = spec.classes;
  s->ledger.install();

  Rng graph_rng = stream_rng(seed, 1, 0);
  const Graph g =
      largest_component(balanced_random_graph(kOverlayNodes, graph_rng));
  // Probe from the lowest-id node of maximum degree: a tour costs
  // 2|E| / d_origin steps, so a fixed-degree origin keeps the cost of a
  // batch comparable across seeds.
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    if (g.degree(v) > g.degree(s->origin)) s->origin = v;
  s->graph = DynamicGraph(g);
  s->truth[s->graph.version()] = {static_cast<double>(s->graph.num_alive()),
                                  static_cast<double>(
                                      s->graph.total_degree())};

  net::NetServerConfig cfg;
  cfg.acceptors = 2;
  cfg.shards = kShards;
  cfg.metrics = &s->registry;
  for (const QueryClass& qc : s->classes)
    cfg.classes.push_back(
        {qc.name, qc.epsilon, qc.delta, qc.deadline_us, 100'000.0, 20'000.0});
  cfg.service.threads = 2;
  cfg.service.queue_capacity = 64;
  // Longer than a batch, so a refresh is not enqueued again while the
  // previous one for the same key is still walking.
  cfg.service.refresh_period_us = 1'000'000;
  cfg.service.seed = seed + 1;
  cfg.service.cost_aggregate_contexts = spec.aggregate_cost_contexts;
  cfg.service.lambda2_hint = spec.lambda2_hint;
  cfg.service.budget.min_walks = spec.min_walks;
  // One TTL-driven refresh round lands at a fixed time inside a run (at
  // 0.8 x TTL after warm-up), so hit_loopback's refresh work is the same
  // on every run; churn_refresh is driven by version bumps instead.
  cfg.service.freshness.base_ttl_us = 10'000'000;
  s->server = std::make_unique<net::EstimateNetServer>(
      dynamic_graph_source(s->graph, s->graph_mutex, s->origin), cfg);

  // Warm every shard with every class: profiles the snapshot and fills
  // the cache, so the measured phase starts from a warm service.
  std::vector<std::future<EstimateResponse>> warm;
  for (std::size_t i = 0; i < s->server->shard_count(); ++i) {
    for (const QueryClass& qc : s->classes) {
      EstimateRequest req;
      req.kind = static_cast<QueryKind>(qc.kind);
      req.method = static_cast<EstimateMethod>(qc.method);
      req.epsilon = qc.epsilon;
      req.delta = qc.delta;
      req.tenant = "(warmup)";
      warm.push_back(s->server->shard(i).submit(req));
    }
  }
  for (auto& f : warm) {
    if (!f.get().ok()) {
      std::cerr << "perfbench: warm-up query failed\n";
      return nullptr;
    }
  }

  for (unsigned c = 0; c < kConnections; ++c) {
    if (!s->clients[c].connect(s->server->port())) {
      std::cerr << "perfbench: cannot connect to the server\n";
      return nullptr;
    }
    for (unsigned k = 0; k < kClasses; ++k) {
      std::string tenant = "c";
      tenant += std::to_string(c);
      tenant += '-';
      tenant += s->classes[k].name;
      const auto welcome = s->clients[c].hello(tenant, std::uint8_t(k));
      if (!welcome) {
        std::cerr << "perfbench: hello failed\n";
        return nullptr;
      }
      s->tenant_ids[c][k] = welcome->tenant_id;
    }
  }
  return s;
}

bool stop_bounded(Stack& stack, double timeout_s) {
  for (auto& c : stack.clients) c.close();
  net::EstimateNetServer* server = stack.server.get();
  auto done = std::make_shared<std::promise<void>>();
  std::future<void> finished = done->get_future();
  std::thread stopper([server, done] {
    server->stop();
    done->set_value();
  });
  if (finished.wait_for(std::chrono::duration<double>(timeout_s)) ==
      std::future_status::ready) {
    stopper.join();
    return true;
  }
  // stop() is stuck (an acceptor blocked in accept()): nothing can join
  // the stopper or destroy the server, so both are abandoned and the
  // process leaves through std::_Exit once it has reported the failure.
  stopper.detach();
  (void)stack.server.release();
  return false;
}

LoadResult run_load(Stack& stack, const WorkloadSpec& spec,
                    std::uint64_t seed, std::uint64_t stream,
                    double seconds) {
  return drive(stack, spec.loop == LoopKind::kOpen, spec.rate_rps, 1,
               spec.allow_cached, seed, stream, seconds);
}

double measure_saturation(Stack& stack, double seconds) {
  const LoadResult r = drive(stack, false, 0.0, 1, true, 0, 99, seconds);
  return static_cast<double>(r.replies.size()) / r.wall_s;
}

ChurnWriter::ChurnWriter(Stack& stack, std::uint64_t seed, double period_ms)
    : stack_(stack),
      thread_([this, seed, period_ms] { loop(seed, period_ms); }) {}

ChurnWriter::~ChurnWriter() { stop(); }

std::vector<double> ChurnWriter::stop() {
  {
    std::lock_guard lock(wake_mutex_);
    running_ = false;
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
  return hold_us_;
}

void ChurnWriter::loop(std::uint64_t seed, double period_ms) {
  Rng rng = stream_rng(seed, 2, 0);
  const std::size_t base_alive = stack_.graph.num_alive();
  auto next = std::chrono::steady_clock::now();
  const auto period = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double, std::milli>(period_ms));
  for (;;) {
    next += period;
    {
      std::unique_lock lock(wake_mutex_);
      if (wake_.wait_until(lock, next, [this] { return !running_; })) return;
    }
    DynamicGraph& g = stack_.graph;
    double held = 0.0;
    {
      std::lock_guard lock(stack_.graph_mutex);
      const double t0 = now_us();
      churn_join(g, TopologyKind::kBalanced, rng, 2, 10);
      stack_.truth[g.version()] = {static_cast<double>(g.num_alive()),
                                   static_cast<double>(g.total_degree())};
      if (g.num_alive() > base_alive) {
        churn_leave(g, rng);
        stack_.truth[g.version()] = {static_cast<double>(g.num_alive()),
                                     static_cast<double>(g.total_degree())};
      }
      held = now_us() - t0;
    }
    hold_us_.push_back(held);
  }
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double rss_peak_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
