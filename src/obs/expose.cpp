#include "obs/expose.hpp"

#include <unistd.h>

#include <cctype>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "net/socket.hpp"
#include "obs/cost/cost.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"

namespace overcount {

namespace {

/// Reads from `fd` until the HTTP header terminator, the buffer cap, EOF,
/// or ~2 s of client silence — a slow client trickling its request one
/// byte at a time cannot hold the serving thread hostage, and a request
/// split across packets (perfectly legal TCP) is reassembled instead of
/// being misparsed from its first fragment. EINTR handling lives in
/// net::recv_some (the shared socket helpers in src/net/socket.hpp).
std::string read_request(int fd) {
  std::string request;
  char buf[2048];
  for (int rounds = 0; rounds < 20; ++rounds) {
    const ssize_t got = net::recv_some(fd, buf, sizeof(buf), 100);
    if (got == net::kRecvTimeout) break;  // silence: parse what we have
    if (got <= 0) break;                  // EOF or error
    request.append(buf, static_cast<std::size_t>(got));
    if (request.find("\r\n\r\n") != std::string::npos) break;
    if (request.size() > 16 * 1024) break;  // header cap; answer 400 below
  }
  return request;
}

/// Sends the whole buffer via the shared helper (EINTR + partial-send
/// retries, MSG_NOSIGNAL so a client that hung up mid-response surfaces as
/// an error instead of a process-killing SIGPIPE).
bool send_all(int fd, const std::string& data) {
  return net::send_all(fd, data.data(), data.size());
}

/// Shortest round-trip decimal for a gauge value (the same contract the
/// JSON writer uses); NaN renders as Prometheus' literal "NaN".
std::string format_double(double v) {
  if (v != v) return "NaN";
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc{} ? std::string(buf, ptr) : std::string("0");
}

/// `# HELP` text for a metric. Scrapers and the exposition-format linters
/// treat a TYPE without a HELP as a malformed family, so every metric gets
/// one — derived from the registry name, which is already descriptive
/// ("serve.request_latency_us", "serve.batch_wall_us").
void append_help(std::string& out, const std::string& pname,
                 const std::string& raw_name, const char* kind) {
  out += "# HELP " + pname + " Overcount " + kind + " '" + raw_name + "'.\n";
}

void append_histogram(std::string& out, const std::string& name,
                      const std::string& raw_name, const Log2Histogram& h) {
  // Emitted even with zero observations: a registered histogram that has
  // not fired yet must still expose an empty, well-formed family (HELP,
  // TYPE, +Inf bucket, _sum, _count) so dashboards and rate() queries see
  // the series from scrape one.
  append_help(out, name, raw_name, "log2 histogram");
  out += "# TYPE " + name + " histogram\n";
  // Cumulative le-buckets over the non-empty prefix: bucket i of the log2
  // histogram holds values <= bucket_upper(i), which IS a Prometheus `le`
  // boundary. Past the last non-empty bucket every further line would
  // repeat the count, so stop there and let +Inf close the series.
  std::uint64_t cumulative = 0;
  std::size_t last = 0;
  for (std::size_t i = 0; i < Log2Histogram::kBuckets; ++i)
    if (h.buckets[i] != 0) last = i;
  for (std::size_t i = 0; i <= last && h.count != 0; ++i) {
    cumulative += h.buckets[i];
    out += name + "_bucket{le=\"" +
           std::to_string(Log2Histogram::bucket_upper(i)) + "\"} " +
           std::to_string(cumulative) + "\n";
  }
  out += name + "_bucket{le=\"+Inf\"} " + std::to_string(h.count) + "\n";
  out += name + "_sum " + std::to_string(h.sum) + "\n";
  out += name + "_count " + std::to_string(h.count) + "\n";
}

}  // namespace

std::string prometheus_name(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(0, 1, '_');
  return out;
}

std::string render_prometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const auto& [name, value] : snapshot.counters) {
    std::string pname = prometheus_name(name);
    if (pname.size() < 6 || pname.compare(pname.size() - 6, 6, "_total") != 0)
      pname += "_total";
    append_help(out, pname, name, "counter");
    out += "# TYPE " + pname + " counter\n";
    out += pname + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string pname = prometheus_name(name);
    append_help(out, pname, name, "gauge");
    out += "# TYPE " + pname + " gauge\n";
    out += pname + " " + format_double(value) + "\n";
  }
  for (const auto& [name, hist] : snapshot.histograms)
    append_histogram(out, prometheus_name(name), name, hist);
  return out;
}

MetricsHttpServer::MetricsHttpServer(const MetricsRegistry& registry,
                                     std::uint16_t port)
    : registry_(registry) {
  listen_fd_ = net::listen_loopback(port, 16);
  if (listen_fd_ < 0) {
    throw std::runtime_error("metrics: cannot bind 127.0.0.1:" +
                             std::to_string(port));
  }
  port_ = net::bound_port(listen_fd_);
  thread_ = std::thread([this] { serve_loop(); });
}

MetricsHttpServer::~MetricsHttpServer() { stop(); }

void MetricsHttpServer::stop() {
  if (!stopping_.exchange(true) && thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void MetricsHttpServer::serve_loop() {
  // accept_next polls with a short timeout so stop() is observed within
  // ~100 ms even when no scraper ever connects. Its errno policy (shared
  // with the estimate front end) retries EINTR and reports fd exhaustion
  // as kTransient, so EMFILE backs off instead of spinning — the pending
  // connection stays in the kernel accept queue and is picked up once a
  // descriptor frees.
  while (!stopping_.load(std::memory_order_relaxed)) {
    const net::AcceptResult res = net::accept_next(listen_fd_, 100);
    switch (res.status) {
      case net::AcceptStatus::kAccepted:
        handle_connection(res.fd);
        ::close(res.fd);
        break;
      case net::AcceptStatus::kTimeout:
        break;
      case net::AcceptStatus::kTransient:
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        break;
      case net::AcceptStatus::kClosed:
        return;
    }
  }
}

void MetricsHttpServer::set_ready_check(std::function<bool()> ready) {
  std::lock_guard lock(ready_mutex_);
  ready_check_ = std::move(ready);
}

void MetricsHttpServer::handle_connection(int client_fd) {
  const std::string request = read_request(client_fd);
  if (request.empty()) return;
  // "GET <path> HTTP/1.x" — everything else 400s.
  std::string method, path;
  {
    std::istringstream line(request);
    line >> method >> path;
  }
  // Route = path minus the query string ("/costs?k=5" routes as /costs).
  std::string query;
  if (const std::size_t q = path.find('?'); q != std::string::npos) {
    query = path.substr(q + 1);
    path.resize(q);
  }
  std::string status = "200 OK";
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
  if (method != "GET") {
    status = "405 Method Not Allowed";
    body = "only GET is served\n";
  } else if (path == "/metrics") {
    content_type = "text/plain; version=0.0.4; charset=utf-8";
    body = render_prometheus(registry_.snapshot());
  } else if (path == "/snapshot.json") {
    content_type = "application/json; charset=utf-8";
    std::ostringstream os;
    JsonWriter w(os);
    write_json(w, registry_.snapshot());
    os << '\n';
    body = os.str();
  } else if (path == "/costs") {
    const CostLedger* ledger = cost_ledger_.load(std::memory_order_acquire);
    if (ledger == nullptr) {
      status = "404 Not Found";
      body = "no cost ledger attached\n";
    } else {
      content_type = "application/json; charset=utf-8";
      std::size_t k = 10;
      // Accept exactly "k=<digits>" anywhere in the query; anything else
      // keeps the default rather than 400ing a dashboard.
      for (std::size_t at = 0; at < query.size();) {
        std::size_t end = query.find('&', at);
        if (end == std::string::npos) end = query.size();
        if (query.compare(at, 2, "k=") == 0) {
          unsigned long parsed = 0;
          const auto [ptr, ec] = std::from_chars(
              query.data() + at + 2, query.data() + end, parsed);
          if (ec == std::errc{} && ptr == query.data() + end && parsed > 0)
            k = static_cast<std::size_t>(parsed);
        }
        at = end + 1;
      }
      std::ostringstream os;
      JsonWriter w(os);
      write_costs_json(w, *ledger, k);
      os << '\n';
      body = os.str();
    }
  } else if (path == "/healthz") {
    body = "ok\n";
  } else if (path == "/readyz") {
    std::function<bool()> check;
    {
      std::lock_guard lock(ready_mutex_);
      check = ready_check_;
    }
    if (!check || check()) {
      body = "ready\n";
    } else {
      status = "503 Service Unavailable";
      body = "warming\n";
    }
  } else {
    status = "404 Not Found";
    body = "routes: /metrics /snapshot.json /costs /healthz /readyz\n";
  }
  // Cache-Control on EVERY route: each response is a point-in-time
  // snapshot, and a proxy replaying a cached one would freeze the counters
  // a dashboard believes are live.
  const std::string response =
      "HTTP/1.1 " + status + "\r\nContent-Type: " + content_type +
      "\r\nContent-Length: " + std::to_string(body.size()) +
      "\r\nCache-Control: no-store\r\nConnection: close\r\n\r\n" + body;
  send_all(client_fd, response);
  served_.fetch_add(1, std::memory_order_relaxed);
}

std::unique_ptr<MetricsHttpServer> maybe_serve_metrics(
    const MetricsRegistry& registry) {
  const char* env = std::getenv("OVERCOUNT_METRICS_PORT");
  if (env == nullptr || *env == '\0') return nullptr;
  unsigned long port = 0;
  char* end = nullptr;
  port = std::strtoul(env, &end, 10);
  if (end == env || *end != '\0' || port > 65535) {
    std::cerr << "# metrics: ignoring OVERCOUNT_METRICS_PORT='" << env
              << "' (not a port)\n";
    return nullptr;
  }
  try {
    auto server = std::make_unique<MetricsHttpServer>(
        registry, static_cast<std::uint16_t>(port));
    std::cerr << "# metrics: serving http://127.0.0.1:" << server->port()
              << "/metrics\n";
    return server;
  } catch (const std::exception& e) {
    std::cerr << "# metrics: " << e.what() << '\n';
    return nullptr;
  }
}

std::string http_get_response(std::uint16_t port, const std::string& path) {
  const int fd = net::connect_loopback(port);
  if (fd < 0) return {};
  const std::string request =
      "GET " + path + " HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n";
  if (!send_all(fd, request)) {
    ::close(fd);
    return {};
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = net::recv_some(fd, buf, sizeof(buf), 2000);
    if (n <= 0) break;  // EOF, silence, or error: parse what we have
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string http_get_body(std::uint16_t port, const std::string& path,
                          int* status_out) {
  if (status_out != nullptr) *status_out = 0;
  const std::string response = http_get_response(port, path);
  const std::size_t split = response.find("\r\n\r\n");
  if (split == std::string::npos) return {};
  if (status_out != nullptr) {
    // "HTTP/1.x NNN ..." — the code sits after the first space.
    const std::size_t space = response.find(' ');
    if (space != std::string::npos && space + 4 <= split)
      *status_out = std::atoi(response.c_str() + space + 1);
  }
  return response.substr(split + 4);
}

}  // namespace overcount
