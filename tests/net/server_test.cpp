// EstimateNetServer end-to-end contract over a real loopback socket:
// Hello/Welcome registration, request/response, every admission refusal as
// a kReject frame carrying retry_after_us (token bucket, unknown tenant,
// bad request, and the broker's own queue-full shed forwarded onto the
// wire), tenant multiplexing on one connection, pipelining with replies in
// completion order, event-driven wake-ups, ping, protocol-error handling
// (garbage gets a kError frame, then the connection closes), and a
// connect-and-stop loop against the acceptor pool under CPU contention.
#include "net/server.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "net/client.hpp"
#include "net/socket.hpp"

namespace overcount::net {
namespace {

/// MetricsSnapshot stores counters as (name, value) pairs; linear lookup
/// is fine at test scale.
std::uint64_t counter_value(const MetricsSnapshot& snap,
                            const std::string& name) {
  for (const auto& [key, value] : snap.counters) {
    if (key == name) return value;
  }
  return 0;
}

/// Frozen deterministic clock shared by server + admission layer.
struct TestClock {
  std::shared_ptr<std::atomic<std::uint64_t>> us =
      std::make_shared<std::atomic<std::uint64_t>>(0);
  std::function<std::uint64_t()> fn() const {
    auto ptr = us;
    return [ptr] { return ptr->load(std::memory_order_relaxed); };
  }
};

NetServerConfig base_config() {
  NetServerConfig config;
  config.acceptors = 2;
  config.shards = 1;
  config.service.threads = 2;
  config.service.queue_capacity = 16;
  config.service.lambda2_hint = 0.5;
  config.service.seed = 11;
  return config;
}

RequestMsg size_request(std::uint64_t id, std::uint32_t tenant,
                        double epsilon = 0.3) {
  RequestMsg req;
  req.request_id = id;
  req.tenant_id = tenant;
  req.kind = 0;    // size
  req.method = 0;  // random tour
  req.flags = kReqAllowCached | kReqExplicitTarget;
  req.epsilon = epsilon;
  req.delta = 0.2;
  return req;
}

TEST(NetServer, HelloRequestResponse) {
  const Graph g = complete(16);
  EstimateNetServer server(static_graph_source(g), base_config());
  ASSERT_NE(server.port(), 0);

  NetClient client;
  ASSERT_TRUE(client.connect(server.port()));
  auto welcome = client.hello("acme", 0);
  ASSERT_TRUE(welcome.has_value());
  EXPECT_NE(welcome->tenant_id, 0u);
  EXPECT_EQ(welcome->class_id, 0);
  EXPECT_GT(welcome->rate_per_sec, 0.0);

  auto result = client.request(size_request(1, welcome->tenant_id));
  ASSERT_TRUE(result.has_value());
  ASSERT_FALSE(result->rejected);
  EXPECT_EQ(result->response.status, 0);  // kOk
  EXPECT_NEAR(result->response.value, 16.0, 16.0 * 0.4);
  EXPECT_GT(result->response.walks, 0u);

  // Identical repeat: served from the shard's cache.
  auto repeat = client.request(size_request(2, welcome->tenant_id));
  ASSERT_TRUE(repeat.has_value());
  ASSERT_FALSE(repeat->rejected);
  EXPECT_NE(repeat->response.flags & kRespCacheHit, 0);
  EXPECT_EQ(repeat->response.value, result->response.value);

  EXPECT_TRUE(client.ping(424242));
  const MetricsSnapshot snap = server.metrics().snapshot();
  EXPECT_GE(counter_value(snap, "net.requests"), 2u);
  EXPECT_GE(counter_value(snap, "net.frames_rx"), 3u);
  EXPECT_GE(counter_value(snap, "net.connections"), 1u);
}

TEST(NetServer, UnknownTenantAndBadRequestRejected) {
  const Graph g = complete(12);
  EstimateNetServer server(static_graph_source(g), base_config());
  NetClient client;
  ASSERT_TRUE(client.connect(server.port()));

  // No Hello: refused, not crashed.
  auto result = client.request(size_request(1, 999));
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->rejected);
  EXPECT_EQ(result->reject.reason,
            static_cast<std::uint8_t>(RejectReason::kUnknownTenant));

  auto welcome = client.hello("acme", 0);
  ASSERT_TRUE(welcome.has_value());
  RequestMsg bad = size_request(2, welcome->tenant_id);
  bad.kind = 7;  // no such query kind
  auto bad_result = client.request(bad);
  ASSERT_TRUE(bad_result.has_value());
  ASSERT_TRUE(bad_result->rejected);
  EXPECT_EQ(bad_result->reject.reason,
            static_cast<std::uint8_t>(RejectReason::kBadRequest));

  RequestMsg nan_eps = size_request(3, welcome->tenant_id);
  nan_eps.epsilon = -1.0;
  auto nan_result = client.request(nan_eps);
  ASSERT_TRUE(nan_result.has_value());
  EXPECT_TRUE(nan_result->rejected);
}

TEST(NetServer, RateLimitRejectCarriesExactRetryHint) {
  const Graph g = complete(12);
  TestClock clock;
  NetServerConfig config = base_config();
  config.service.now_us = clock.fn();
  // 1 req/s, burst 1: under a frozen clock the second request must be
  // refused with the exact one-token refill time on the wire.
  config.classes = {{"strict", 0.3, 0.2, 0, 1.0, 1.0}};
  EstimateNetServer server(static_graph_source(g), config);
  NetClient client;
  ASSERT_TRUE(client.connect(server.port()));
  auto welcome = client.hello("greedy", 0);
  ASSERT_TRUE(welcome.has_value());

  auto first = client.request(size_request(1, welcome->tenant_id));
  ASSERT_TRUE(first.has_value());
  EXPECT_FALSE(first->rejected);
  auto second = client.request(size_request(2, welcome->tenant_id));
  ASSERT_TRUE(second.has_value());
  ASSERT_TRUE(second->rejected);
  EXPECT_EQ(second->reject.reason,
            static_cast<std::uint8_t>(RejectReason::kRateLimited));
  EXPECT_EQ(second->reject.retry_after_us, 1'000'000u);

  const MetricsSnapshot snap = server.metrics().snapshot();
  EXPECT_EQ(counter_value(snap, "net.rejects.rate_limited"), 1u);
}

TEST(NetServer, BrokerShedIsForwardedAsQueueFullReject) {
  const Graph g = complete(16);
  NetServerConfig config = base_config();
  config.service.queue_capacity = 2;
  config.max_inflight_per_conn = 64;
  EstimateNetServer server(static_graph_source(g), config);
  NetClient client;
  ASSERT_TRUE(client.connect(server.port()));
  auto welcome = client.hello("burst", 0);
  ASSERT_TRUE(welcome.has_value());

  // Freeze the broker so the EDF queue genuinely fills, then pipeline
  // more distinct uncacheable requests than it can hold.
  server.shard(0).set_paused(true);
  constexpr int kBurst = 8;
  for (int i = 0; i < kBurst; ++i) {
    RequestMsg req = size_request(static_cast<std::uint64_t>(100 + i),
                                  welcome->tenant_id,
                                  0.30 + 0.01 * static_cast<double>(i));
    req.flags = kReqExplicitTarget;  // allow_cached off: no coalescing
    ASSERT_TRUE(client.send_request(req));
  }
  server.shard(0).set_paused(false);

  int oks = 0;
  int queue_full = 0;
  for (int i = 0; i < kBurst; ++i) {
    auto frame = client.read_frame(30'000);
    ASSERT_TRUE(frame.has_value()) << "reply " << i;
    if (frame->type() == FrameType::kResponse) {
      ++oks;
    } else if (frame->type() == FrameType::kReject) {
      auto reject = decode_reject(*frame);
      ASSERT_TRUE(reject.has_value());
      EXPECT_EQ(reject->reason,
                static_cast<std::uint8_t>(RejectReason::kQueueFull));
      ++queue_full;
    }
  }
  // The queue held some, shed the rest — and the shed came back as
  // first-class reject frames, not errors or hangs.
  EXPECT_GT(oks, 0);
  EXPECT_GT(queue_full, 0);
  EXPECT_EQ(oks + queue_full, kBurst);
  const MetricsSnapshot snap = server.metrics().snapshot();
  EXPECT_EQ(counter_value(snap, "net.rejects.queue_full"),
            static_cast<std::uint64_t>(queue_full));
}

TEST(NetServer, MultiplexesTenantsOnOneConnection) {
  const Graph g = complete(16);
  EstimateNetServer server(static_graph_source(g), base_config());
  NetClient client;
  ASSERT_TRUE(client.connect(server.port()));
  auto gold = client.hello("gold-tenant", 0);
  auto bronze = client.hello("bronze-tenant", 2);
  ASSERT_TRUE(gold.has_value());
  ASSERT_TRUE(bronze.has_value());
  ASSERT_NE(gold->tenant_id, bronze->tenant_id);

  auto a = client.request(size_request(1, gold->tenant_id));
  auto b = client.request(size_request(2, bronze->tenant_id));
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_FALSE(a->rejected);
  EXPECT_FALSE(b->rejected);
  EXPECT_EQ(server.tenants().tenant_count(), 2u);

  // Per-tenant cost attribution rode along: both principals appear in the
  // ledger-facing SLO metrics keyed by class.
  const MetricsSnapshot snap = server.metrics().snapshot();
  EXPECT_GE(counter_value(snap, "net.class.gold.responses"), 1u);
  EXPECT_GE(counter_value(snap, "net.class.bronze.responses"), 1u);
}

TEST(NetServer, GarbageStreamGetsErrorFrameThenClose) {
  const Graph g = complete(12);
  EstimateNetServer server(static_graph_source(g), base_config());
  const int fd = connect_loopback(server.port());
  ASSERT_GE(fd, 0);
  const std::string garbage = "GET / HTTP/1.1\r\n\r\n";  // wrong protocol
  ASSERT_TRUE(send_all(fd, garbage.data(), garbage.size()));

  // Expect one kError frame, then EOF.
  FrameReader reader;
  char buf[4096];
  bool got_error = false;
  bool got_eof = false;
  for (int rounds = 0; rounds < 100 && !got_eof; ++rounds) {
    const ssize_t n = recv_some(fd, buf, sizeof(buf), 200);
    if (n == kRecvTimeout) continue;
    if (n <= 0) {
      got_eof = true;
      break;
    }
    reader.append(buf, static_cast<std::size_t>(n));
    Frame frame;
    while (reader.next(frame) == DecodeStatus::kFrame) {
      if (frame.type() == FrameType::kError) got_error = true;
    }
  }
  ::close(fd);
  EXPECT_TRUE(got_error);
  EXPECT_TRUE(got_eof);
  EXPECT_GE(counter_value(server.metrics().snapshot(), "net.protocol_errors"),
            1u);
}

TEST(NetServer, ServesManyConnectionsAcrossAcceptorPool) {
  const Graph g = complete(16);
  NetServerConfig config = base_config();
  config.acceptors = 3;
  EstimateNetServer server(static_graph_source(g), config);
  // More sequential connections than acceptors: each must be served as
  // pool slots free up.
  for (int i = 0; i < 6; ++i) {
    NetClient client;
    ASSERT_TRUE(client.connect(server.port())) << "connection " << i;
    auto welcome = client.hello("conn-" + std::to_string(i), 1);
    ASSERT_TRUE(welcome.has_value());
    auto result = client.request(size_request(1, welcome->tenant_id));
    ASSERT_TRUE(result.has_value());
    EXPECT_FALSE(result->rejected);
  }
  EXPECT_GE(counter_value(server.metrics().snapshot(), "net.connections"), 6u);
}

/// Reads the next frame; nullopt unless it is a well-formed Response.
std::optional<ResponseMsg> next_response(NetClient& client,
                                         int timeout_ms = 10'000) {
  auto frame = client.read_frame(timeout_ms);
  if (!frame.has_value() || frame->type() != FrameType::kResponse)
    return std::nullopt;
  return decode_response(*frame);
}

// Replies leave in completion order: a cache hit pipelined behind a miss
// that is stuck in a paused broker is answered first.
TEST(NetServer, CacheHitOvertakesPendingMissOnOneConnection) {
  const Graph g = complete(16);
  EstimateNetServer server(static_graph_source(g), base_config());
  NetClient client;
  ASSERT_TRUE(client.connect(server.port()));
  auto welcome = client.hello("pipeline", 0);
  ASSERT_TRUE(welcome.has_value());
  auto warm = client.request(size_request(1, welcome->tenant_id, 0.3));
  ASSERT_TRUE(warm.has_value());
  ASSERT_FALSE(warm->rejected);

  server.shard(0).set_paused(true);
  ASSERT_TRUE(client.send_request(size_request(2, welcome->tenant_id, 0.2)));
  ASSERT_TRUE(client.send_request(size_request(3, welcome->tenant_id, 0.3)));
  auto first = next_response(client);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->request_id, 3u);
  EXPECT_NE(first->flags & kRespCacheHit, 0);
  EXPECT_EQ(first->value, warm->response.value);

  server.shard(0).set_paused(false);
  auto second = next_response(client);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->request_id, 2u);
  EXPECT_EQ(second->flags & kRespCacheHit, 0);
}

// A pending reply parks the connection thread instead of polling it: while
// a miss waits 200 ms in a paused broker, the thread wakes for the request,
// for its idle timeouts and for the completion — not once per millisecond.
TEST(NetServer, PendingMissDoesNotSpinTheConnectionThread) {
  const Graph g = complete(16);
  EstimateNetServer server(static_graph_source(g), base_config());
  NetClient client;
  ASSERT_TRUE(client.connect(server.port()));
  auto welcome = client.hello("parked", 0);
  ASSERT_TRUE(welcome.has_value());

  server.shard(0).set_paused(true);
  const std::uint64_t before =
      counter_value(server.metrics().snapshot(), "net.conn_wakeups");
  ASSERT_TRUE(client.send_request(size_request(1, welcome->tenant_id)));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  server.shard(0).set_paused(false);
  auto reply = next_response(client);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->request_id, 1u);
  const std::uint64_t wakeups =
      counter_value(server.metrics().snapshot(), "net.conn_wakeups") - before;
  EXPECT_GE(wakeups, 1u);
  EXPECT_LT(wakeups, 10u);
}

/// Keeps every core busy for its lifetime.
class CpuHog {
 public:
  CpuHog() {
    const unsigned n = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned i = 0; i < n; ++i) {
      threads_.emplace_back([this] {
        std::uint64_t x = 0;
        while (!done_.load(std::memory_order_relaxed)) x = x * 31 + 7;
        sink_.fetch_add(x, std::memory_order_relaxed);
      });
    }
  }
  ~CpuHog() {
    done_.store(true, std::memory_order_relaxed);
    for (auto& t : threads_) t.join();
  }

 private:
  std::atomic<bool> done_{false};
  std::atomic<std::uint64_t> sink_{0};
  std::vector<std::thread> threads_;
};

/// Aborts the test binary if not dismissed within `limit`: a hang fails
/// fast with a message instead of running into the ctest timeout.
class HangWatchdog {
 public:
  HangWatchdog(std::chrono::seconds limit, const char* what)
      : thread_([this, limit, what] {
          std::unique_lock lock(mutex_);
          if (!cv_.wait_for(lock, limit, [this] { return dismissed_; })) {
            std::fprintf(stderr, "hang: %s\n", what);
            std::abort();
          }
        }) {}
  ~HangWatchdog() {
    {
      std::lock_guard lock(mutex_);
      dismissed_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool dismissed_ = false;
  std::thread thread_;
};

// Regression: the acceptor pool shares one listening socket. When two
// acceptors woke from poll() for one connection, the loser blocked in
// accept() on a blocking listener and stop() joined it forever. CPU
// contention makes that double wake-up likely (with the blocking listener
// this loop hung in each of three tries); the non-blocking listener turns
// it into EAGAIN.
TEST(NetServer, ConnectAndStopUnderCpuContentionNeverHangs) {
  const Graph g = complete(16);
  NetServerConfig config = base_config();
  config.acceptors = 3;
  config.service.threads = 1;
  CpuHog hog;
  HangWatchdog watchdog(std::chrono::seconds(60),
                        "EstimateNetServer::stop() under contention");
  for (int round = 0; round < 60; ++round) {
    EstimateNetServer server(static_graph_source(g), config);
    for (int conn = 0; conn < 6; ++conn) {
      NetClient client;
      ASSERT_TRUE(client.connect(server.port())) << "round " << round;
      ASSERT_TRUE(client.ping(static_cast<std::uint64_t>(round)))
          << "round " << round;
    }
    server.stop();
  }
}

}  // namespace
}  // namespace overcount::net
