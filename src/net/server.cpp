#include "net/server.hpp"

#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "net/socket.hpp"
#include "obs/trace.hpp"

namespace overcount::net {
namespace {

constexpr int kAcceptPollMs = 100;
constexpr int kRecvPollMs = 100;
constexpr int kTransientBackoffMs = 10;

/// Completion wake-up of one connection. Replies complete on broker
/// threads, or inside submit() for cache hits and immediate refusals; each
/// completion appends its reply slot here, so slots queue in completion
/// order. The eventfd is written only when the connection thread armed
/// itself just before parking in poll(): completions that land while it is
/// busy, cache hits among them, cost no syscall. Completion callbacks own
/// a shared_ptr, so one that lands after the connection closed still finds
/// a live object and an open fd.
class ReplyNotifier {
 public:
  ReplyNotifier() : fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {}
  ~ReplyNotifier() {
    if (fd_ >= 0) ::close(fd_);
  }
  ReplyNotifier(const ReplyNotifier&) = delete;
  ReplyNotifier& operator=(const ReplyNotifier&) = delete;

  int fd() const noexcept { return fd_; }

  /// Any thread: reply `slot` is ready.
  void complete(std::size_t slot) {
    bool wake = false;
    {
      std::lock_guard lock(mutex_);
      done_.push_back(slot);
      wake = std::exchange(armed_, false);
    }
    if (wake) {
      const std::uint64_t one = 1;
      [[maybe_unused]] const ssize_t rc = ::write(fd_, &one, sizeof(one));
    }
  }

  /// Connection thread, before parking: arms the wake-up unless a
  /// completion is already queued. False = do not park, flush instead.
  bool arm() {
    std::lock_guard lock(mutex_);
    armed_ = done_.empty();
    return armed_;
  }

  /// Connection thread, after poll() returned: later completions queue
  /// silently until the next arm().
  void disarm() {
    std::lock_guard lock(mutex_);
    armed_ = false;
  }

  /// Connection thread: swaps the completed slots, oldest first, into
  /// `out` (which must be empty).
  void take(std::vector<std::size_t>& out) {
    std::lock_guard lock(mutex_);
    out.swap(done_);
  }

  /// Connection thread: resets the eventfd after poll() reported it.
  void clear_wakeup() {
    std::uint64_t count = 0;
    [[maybe_unused]] const ssize_t rc = ::read(fd_, &count, sizeof(count));
  }

 private:
  const int fd_;
  std::mutex mutex_;
  std::vector<std::size_t> done_;  // guarded by mutex_
  bool armed_ = false;             // guarded by mutex_
};

SloOutcome outcome_of(ServeStatus status) {
  switch (status) {
    case ServeStatus::kOk: return SloOutcome::kOk;
    case ServeStatus::kRejected: return SloOutcome::kRejected;
    case ServeStatus::kDeadlineMiss: return SloOutcome::kDeadlineMiss;
    case ServeStatus::kFailed: return SloOutcome::kFailed;
  }
  return SloOutcome::kFailed;
}

}  // namespace

/// In-flight replies live in reusable slots; a slot id is what a
/// completion callback hands back to the notifier.
struct EstimateNetServer::Connection {
  int fd = -1;
  std::shared_ptr<ReplyNotifier> notifier =
      std::make_shared<ReplyNotifier>();
  std::vector<PendingReply> slots;
  std::vector<std::size_t> free_slots;
  std::vector<std::size_t> ready;  // flush_ready() scratch

  std::size_t inflight() const { return slots.size() - free_slots.size(); }

  std::size_t acquire_slot() {
    if (free_slots.empty()) {
      slots.emplace_back();
      return slots.size() - 1;
    }
    const std::size_t slot = free_slots.back();
    free_slots.pop_back();
    return slot;
  }
};

EstimateNetServer::EstimateNetServer(GraphSource source,
                                     NetServerConfig config)
    : config_(std::move(config)),
      owned_metrics_(config_.metrics != nullptr
                         ? nullptr
                         : std::make_unique<MetricsRegistry>()),
      metrics_(config_.metrics != nullptr ? config_.metrics
                                          : owned_metrics_.get()),
      tenants_(config_.classes.empty() ? default_slo_classes()
                                       : config_.classes,
               config_.drr),
      slo_(metrics_, nullptr, config_.slo),
      epoch_(std::chrono::steady_clock::now()) {
  if (config_.acceptors == 0) config_.acceptors = 1;
  if (config_.shards == 0) config_.shards = 1;
  if (config_.max_inflight_per_conn == 0) config_.max_inflight_per_conn = 1;

  listen_fd_ = listen_loopback(config_.port,
                               static_cast<int>(config_.acceptors) * 16);
  if (listen_fd_ < 0) {
    throw std::runtime_error("EstimateNetServer: cannot bind loopback port");
  }
  port_ = bound_port(listen_fd_);

  ServiceConfig shard_config = config_.service;
  shard_config.metrics = metrics_;  // all shards merge into one registry.
  for (unsigned i = 0; i < config_.shards; ++i) {
    shards_.push_back(std::make_unique<EstimateService>(source, shard_config));
  }

  acceptors_.reserve(config_.acceptors);
  for (unsigned i = 0; i < config_.acceptors; ++i) {
    acceptors_.emplace_back([this] { accept_loop(); });
  }
}

EstimateNetServer::~EstimateNetServer() { stop(); }

std::uint64_t EstimateNetServer::now_us() const {
  if (config_.service.now_us) return config_.service.now_us();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void EstimateNetServer::stop() {
  if (stopping_.exchange(true)) {
    return;
  }
  for (auto& t : acceptors_) {
    if (t.joinable()) t.join();
  }
  acceptors_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Shards stop AFTER the handlers drained their in-flight futures, so
  // every admitted request still resolves normally during shutdown.
  for (auto& s : shards_) s->stop();
}

void EstimateNetServer::accept_loop() {
  Counter& connections = metrics_->counter("net.connections");
  Counter& transient = metrics_->counter("net.accept_transient");
  Gauge& active = metrics_->gauge("net.conn_active");
  while (!stopping_.load(std::memory_order_relaxed)) {
    const AcceptResult res = accept_next(listen_fd_, kAcceptPollMs);
    switch (res.status) {
      case AcceptStatus::kAccepted: {
        connections.inc();
        active.add(1.0);
        TraceSpan span("net", "net.connection");
        handle_connection(res.fd);
        ::close(res.fd);
        active.add(-1.0);
        break;
      }
      case AcceptStatus::kTimeout:
        break;
      case AcceptStatus::kTransient:
        // fd exhaustion: the pending connection stays queued in the
        // kernel; back off instead of spinning on EMFILE.
        transient.inc();
        std::this_thread::sleep_for(
            std::chrono::milliseconds(kTransientBackoffMs));
        break;
      case AcceptStatus::kClosed:
        return;
    }
  }
}

void EstimateNetServer::handle_connection(int fd) {
  Connection conn;
  conn.fd = fd;
  // Without an eventfd (descriptor exhaustion) replies could not wake the
  // thread; closing the connection is the honest answer.
  if (conn.notifier->fd() < 0) return;
  FrameReader reader;
  Counter& bytes_rx = metrics_->counter("net.bytes_rx");
  Counter& frames_rx = metrics_->counter("net.frames_rx");
  Counter& protocol_errors = metrics_->counter("net.protocol_errors");
  Counter& wakeups = metrics_->counter("net.conn_wakeups");
  char buf[16 * 1024];
  // False after EOF, a socket error or a protocol error: no more requests
  // are read, but admitted ones still get their replies, and so do those
  // still in flight on shutdown (shards stop only after handlers exit).
  bool reading = true;
  for (;;) {
    if (!flush_ready(conn)) return;  // peer gone: nobody to answer
    const bool stopping = stopping_.load(std::memory_order_relaxed);
    if ((stopping || !reading) && conn.inflight() == 0) return;
    // A full window stops reading the socket until a reply frees a slot.
    const bool read_socket = reading && !stopping &&
                             conn.inflight() < config_.max_inflight_per_conn;
    if (!conn.notifier->arm()) continue;  // a reply landed meanwhile
    pollfd fds[2] = {{conn.notifier->fd(), POLLIN, 0}, {fd, POLLIN, 0}};
    const int ready = ::poll(fds, read_socket ? 2 : 1, kRecvPollMs);
    if (ready < 0 && errno != EINTR) return;  // poll() itself failed
    conn.notifier->disarm();
    wakeups.inc();
    if (ready <= 0) continue;  // idle timeout or EINTR: re-check stopping
    if ((fds[0].revents & POLLIN) != 0) conn.notifier->clear_wakeup();
    if (!read_socket || fds[1].revents == 0) continue;
    const ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK))
      continue;
    if (n <= 0) {  // EOF or hard error.
      reading = false;
      continue;
    }
    bytes_rx.add(static_cast<std::uint64_t>(n));
    reader.append(buf, static_cast<std::size_t>(n));
    Frame frame;
    std::string error;
    while (reading) {
      const DecodeStatus st = reader.next(frame, &error);
      if (st == DecodeStatus::kNeedMore) break;
      if (st == DecodeStatus::kError) {
        protocol_errors.inc();
        trace_instant("net", "net.protocol_error");
        send_frame(fd, encode_error({kErrBadFrame, error}));
        reading = false;
        break;
      }
      frames_rx.inc();
      reading = handle_frame(conn, frame);
    }
  }
}

bool EstimateNetServer::flush_ready(Connection& conn) {
  conn.notifier->take(conn.ready);
  bool ok = true;
  for (const std::size_t slot : conn.ready) {
    ok = ok && write_reply(conn.fd, conn.slots[slot]);
    conn.slots[slot] = PendingReply{};
    conn.free_slots.push_back(slot);
  }
  conn.ready.clear();
  return ok;
}

bool EstimateNetServer::handle_frame(Connection& conn, const Frame& frame) {
  const int fd = conn.fd;
  switch (frame.type()) {
    case FrameType::kHello: {
      auto msg = decode_hello(frame);
      if (!msg) {
        metrics_->counter("net.protocol_errors").inc();
        send_frame(fd, encode_error({kErrBadHello, "malformed hello"}));
        return false;
      }
      const std::uint32_t id = tenants_.hello(msg->tenant, msg->class_id,
                                              now_us());
      if (id == 0) {
        send_frame(fd, encode_error({kErrBadHello, "unknown class"}));
        return false;
      }
      metrics_->counter("net.hellos").inc();
      metrics_->gauge("net.tenants")
          .set(static_cast<double>(tenants_.tenant_count()));
      const SloClassSpec& spec = tenants_.classes()[msg->class_id];
      WelcomeMsg welcome;
      welcome.tenant_id = id;
      welcome.class_id = msg->class_id;
      welcome.epsilon = spec.epsilon;
      welcome.delta = spec.delta;
      welcome.deadline_us = spec.deadline_us;
      welcome.rate_per_sec = spec.rate_per_sec;
      welcome.burst = spec.burst;
      return send_frame(fd, encode_welcome(welcome));
    }
    case FrameType::kRequest:
      return handle_request(conn, frame);
    case FrameType::kPing: {
      auto msg = decode_ping(frame);
      if (!msg) return false;
      return send_frame(fd, encode_ping(*msg, /*pong=*/true));
    }
    default:
      // kWelcome/kResponse/kReject/kError/kPong are server->client only.
      metrics_->counter("net.protocol_errors").inc();
      send_frame(fd,
                 encode_error({kErrUnexpectedType, "unexpected frame type"}));
      return false;
  }
}

bool EstimateNetServer::handle_request(Connection& conn, const Frame& frame) {
  const int fd = conn.fd;
  auto msg = decode_request(frame);
  if (!msg) {
    metrics_->counter("net.protocol_errors").inc();
    send_frame(fd, encode_error({kErrBadFrame, "malformed request"}));
    return false;
  }
  metrics_->counter("net.requests").inc();
  const SloClassSpec* spec = tenants_.spec_for(msg->tenant_id);
  if (spec == nullptr) {
    return send_reject(fd, msg->request_id, RejectReason::kUnknownTenant, 0,
                       "unregistered");
  }
  TraceSpan span("net", "net.request", "tenant", msg->tenant_id);

  if (stopping_.load(std::memory_order_relaxed)) {
    return send_reject(fd, msg->request_id, RejectReason::kShuttingDown,
                       100'000, spec->name);
  }
  if (msg->kind > 1 || msg->method > 1) {
    return send_reject(fd, msg->request_id, RejectReason::kBadRequest, 0,
                       spec->name);
  }
  double epsilon = spec->epsilon;
  double delta = spec->delta;
  if ((msg->flags & kReqExplicitTarget) != 0) {
    epsilon = msg->epsilon;
    delta = msg->delta;
    if (!(epsilon > 0.0 && epsilon < 1.0) || !(delta > 0.0 && delta < 1.0)) {
      return send_reject(fd, msg->request_id, RejectReason::kBadRequest, 0,
                         spec->name);
    }
  }

  // Round-robin shard choice first: saturation (and thus fair share) is
  // judged against the queue the request would actually land on.
  EstimateService& shard =
      *shards_[next_shard_.fetch_add(1, std::memory_order_relaxed) %
               shards_.size()];
  const bool saturated =
      shard.queue_depth() >=
      static_cast<std::size_t>(config_.saturation_fraction *
                               static_cast<double>(shard.queue_capacity()));
  const AdmitDecision decision =
      tenants_.admit(msg->tenant_id, now_us(), saturated);
  switch (decision.result) {
    case AdmitResult::kAdmit:
      break;
    case AdmitResult::kUnknownTenant:
      return send_reject(fd, msg->request_id, RejectReason::kUnknownTenant, 0,
                         spec->name);
    case AdmitResult::kRateLimited:
      return send_reject(fd, msg->request_id, RejectReason::kRateLimited,
                         decision.retry_after_us, spec->name);
    case AdmitResult::kFairShare:
      return send_reject(fd, msg->request_id, RejectReason::kFairShare,
                         decision.retry_after_us, spec->name);
  }

  EstimateRequest req;
  req.kind = static_cast<QueryKind>(msg->kind);
  req.method = static_cast<EstimateMethod>(msg->method);
  req.epsilon = epsilon;
  req.delta = delta;
  req.allow_cached = (msg->flags & kReqAllowCached) != 0;
  req.tenant = tenants_.name_for(msg->tenant_id);
  std::uint64_t deadline_rel = spec->deadline_us;
  if ((msg->flags & kReqHasDeadline) != 0) deadline_rel = msg->deadline_rel_us;
  // Deadlines travel relative on the wire and become absolute on the
  // clock of the shard that will enforce them.
  req.deadline_us =
      deadline_rel == 0 ? kNoDeadline : shard.now_us() + deadline_rel;

  const std::size_t slot = conn.acquire_slot();
  PendingReply& pending = conn.slots[slot];
  pending.request_id = msg->request_id;
  pending.cls = spec->name;
  pending.t0_us = now_us();
  pending.future = shard.submit(
      req, [notifier = conn.notifier, slot] { notifier->complete(slot); });
  return true;
}

bool EstimateNetServer::write_reply(int fd, PendingReply& pending) {
  const EstimateResponse resp = pending.future.get();
  const std::uint64_t latency =
      now_us() > pending.t0_us ? now_us() - pending.t0_us : 0;
  slo_.record(pending.cls, outcome_of(resp.status), latency);
  metrics_->histogram("net.class." + pending.cls + ".latency_us")
      .record(latency);
  if (resp.status == ServeStatus::kRejected) {
    // The broker load-shed after admission (queue full / step budget):
    // forward its retry hint onto the wire as a first-class reject frame.
    metrics_->counter("net.rejects.queue_full").inc();
    RejectMsg reject;
    reject.request_id = pending.request_id;
    reject.reason = static_cast<std::uint8_t>(RejectReason::kQueueFull);
    reject.retry_after_us = resp.retry_after_us;
    return send_frame(fd, encode_reject(reject));
  }
  metrics_->counter("net.responses").inc();
  metrics_->counter("net.class." + pending.cls + ".responses").inc();
  ResponseMsg out;
  out.request_id = pending.request_id;
  out.status = static_cast<std::uint8_t>(resp.status);
  out.flags = static_cast<std::uint16_t>(
      (resp.cache_hit ? kRespCacheHit : 0) |
      (resp.coalesced ? kRespCoalesced : 0));
  out.value = resp.value;
  out.epsilon = resp.epsilon;
  out.walks = resp.walks;
  out.graph_version = resp.graph_version;
  out.age_us = resp.age_us;
  out.latency_us = resp.latency_us;
  out.retry_after_us = resp.retry_after_us;
  return send_frame(fd, encode_response(out));
}

bool EstimateNetServer::send_reject(int fd, std::uint64_t request_id,
                                    RejectReason reason,
                                    std::uint64_t retry_after_us,
                                    const std::string& cls) {
  metrics_->counter(std::string("net.rejects.") + to_string(reason)).inc();
  slo_.record(cls, SloOutcome::kRejected, 0);
  trace_instant("net", "net.reject", "retry_after_us", retry_after_us);
  RejectMsg reject;
  reject.request_id = request_id;
  reject.reason = static_cast<std::uint8_t>(reason);
  reject.retry_after_us = retry_after_us;
  return send_frame(fd, encode_reject(reject));
}

bool EstimateNetServer::send_frame(int fd, const std::string& frame) {
  if (!send_all(fd, frame.data(), frame.size())) return false;
  metrics_->counter("net.frames_tx").inc();
  metrics_->counter("net.bytes_tx").add(frame.size());
  return true;
}

}  // namespace overcount::net
