#include "obs/health/watchdog.hpp"

#include <chrono>
#include <utility>

namespace overcount {

std::uint64_t health_now_us() noexcept {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

Watchdog::Watchdog(HealthCenter* health, WatchdogConfig config)
    : health_(health), config_(std::move(config)) {
  if (!config_.now_us) config_.now_us = [] { return health_now_us(); };
}

Watchdog::~Watchdog() { stop(); }

void Watchdog::watch_level(std::string code, std::string subsystem,
                           std::function<double()> value, double threshold,
                           std::uint64_t sustain_us) {
  level_checks_.push_back({std::move(code), std::move(subsystem),
                           std::move(value), threshold, sustain_us, 0, false});
}

std::size_t Watchdog::poll_once() {
  const std::uint64_t now = config_.now_us();
  std::size_t raised = 0;
  for (LevelCheck& c : level_checks_) {
    const double v = c.value();
    if (v < c.threshold) {
      c.exceeding_since_us = 0;
      c.tripped = false;
      continue;
    }
    if (c.exceeding_since_us == 0) c.exceeding_since_us = now;
    const std::uint64_t held =
        now > c.exceeding_since_us ? now - c.exceeding_since_us : 0;
    if (!c.tripped && held >= c.sustain_us) {
      c.tripped = true;
      trips_.fetch_add(1, std::memory_order_relaxed);
      ++raised;
      if (health_ != nullptr)
        health_->raise(HealthSeverity::kCritical, c.code, c.subsystem,
                       "level held above threshold", v, c.threshold);
    }
  }
  return raised;
}

void Watchdog::start() {
  if (thread_.joinable()) return;
  {
    const std::lock_guard<std::mutex> lock(stop_mutex_);
    stopping_ = false;
  }
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(stop_mutex_);
    while (!stopping_) {
      lock.unlock();
      poll_once();
      lock.lock();
      stop_cv_.wait_for(lock,
                        std::chrono::microseconds(config_.poll_period_us),
                        [this] { return stopping_; });
    }
  });
}

void Watchdog::stop() {
  {
    const std::lock_guard<std::mutex> lock(stop_mutex_);
    stopping_ = true;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

}  // namespace overcount
