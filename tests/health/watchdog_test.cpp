// Watchdog semantics under a fully injected clock: a level check only
// trips after its threshold has been held for the sustain window —
// momentary spikes are normal, plateaus are the problem — and trips once
// per episode. Every trip is a kCritical HealthEvent through the wired
// center.
#include "obs/health/watchdog.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "obs/health/health.hpp"

namespace overcount {
namespace {

struct ManualClock {
  std::uint64_t now = 1'000'000;
  WatchdogConfig config() {
    WatchdogConfig cfg;
    cfg.now_us = [this] { return now; };
    return cfg;
  }
};

TEST(Watchdog, LevelCheckRequiresSustainedPlateau) {
  HealthCenter center;
  ManualClock clock;
  Watchdog dog(&center, clock.config());
  double depth = 0.0;
  dog.watch_level("serve.queue_saturated", "serve", [&] { return depth; },
                  8.0, 300'000);

  EXPECT_EQ(dog.poll_once(), 0u);  // below threshold

  depth = 10.0;  // spike begins
  EXPECT_EQ(dog.poll_once(), 0u);  // first sight starts the sustain timer
  clock.now += 200'000;
  EXPECT_EQ(dog.poll_once(), 0u);  // held 200 ms < 300 ms

  depth = 2.0;  // spike resolved before sustain elapsed
  EXPECT_EQ(dog.poll_once(), 0u);
  clock.now += 1'000'000;

  depth = 9.0;  // a real plateau this time
  EXPECT_EQ(dog.poll_once(), 0u);  // timer restarted from here
  clock.now += 300'000;
  EXPECT_EQ(dog.poll_once(), 1u);
  EXPECT_EQ(dog.trips(), 1u);
  clock.now += 300'000;
  EXPECT_EQ(dog.poll_once(), 0u);  // once per episode

  // Recovery re-arms; the next sustained plateau is a fresh episode.
  depth = 0.0;
  EXPECT_EQ(dog.poll_once(), 0u);
  depth = 20.0;
  EXPECT_EQ(dog.poll_once(), 0u);
  clock.now += 300'000;
  EXPECT_EQ(dog.poll_once(), 1u);
  EXPECT_EQ(dog.trips(), 2u);

  const auto events = center.recent();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].code, "serve.queue_saturated");
  EXPECT_EQ(events[0].severity, HealthSeverity::kCritical);
  EXPECT_EQ(events[1].value, 20.0);
  EXPECT_EQ(events[1].threshold, 8.0);
}

TEST(Watchdog, ZeroSustainTripsOnFirstSight) {
  HealthCenter center;
  ManualClock clock;
  Watchdog dog(&center, clock.config());
  double level = 100.0;
  dog.watch_level("serve.queue_saturated", "serve", [&] { return level; },
                  8.0, 0);
  EXPECT_EQ(dog.poll_once(), 1u);
  EXPECT_EQ(dog.trips(), 1u);
}

TEST(Watchdog, BackgroundThreadStartStopIsIdempotent) {
  // Smoke for the threaded path the examples use: start twice, stop twice,
  // destructor stops again. poll cadence is fast so the thread spins a bit.
  HealthCenter center;
  WatchdogConfig cfg;
  cfg.poll_period_us = 1'000;
  Watchdog dog(&center, cfg);
  // Never above threshold: no trips expected.
  dog.watch_level("serve.queue_saturated", "serve", [] { return 0.0; }, 1.0,
                  0);
  dog.start();
  dog.start();
  dog.stop();
  dog.stop();
  EXPECT_EQ(dog.trips(), 0u);
}

}  // namespace
}  // namespace overcount
