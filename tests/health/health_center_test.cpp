// HealthCenter contract: a bounded ring of structured events with monotone
// sequence numbers, severity counters in the registry, subscriber fan-out
// on the raising thread, the TraceRecorder-style install/active pattern
// behind health_raise(), and a JSONL export whose every line is a
// self-contained JSON object (the flight recorder's health_events.jsonl).
#include "obs/health/health.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace overcount {
namespace {

TEST(HealthCenter, RingIsBoundedAndSequenceMonotone) {
  HealthCenter center(nullptr, 4);
  for (int i = 0; i < 6; ++i)
    center.raise(HealthSeverity::kInfo, "test.code", "test",
                 "event " + std::to_string(i), static_cast<double>(i));
  EXPECT_EQ(center.total_raised(), 6u);
  const std::vector<HealthEvent> recent = center.recent();
  ASSERT_EQ(recent.size(), 4u);  // capacity bounds retention
  // Oldest two were dropped; survivors are oldest-first with their original
  // (monotone) sequence numbers intact.
  for (std::size_t i = 0; i < recent.size(); ++i) {
    EXPECT_EQ(recent[i].value, static_cast<double>(i + 2));
    EXPECT_EQ(recent[i].seq, i + 2);
    EXPECT_EQ(recent[i].code, "test.code");
  }
}

TEST(HealthCenter, CountsEventsPerSeverityInTheRegistry) {
  MetricsRegistry registry;
  HealthCenter center(&registry);
  center.raise(HealthSeverity::kInfo, "a", "t", "m");
  center.raise(HealthSeverity::kWarn, "b", "t", "m");
  center.raise(HealthSeverity::kWarn, "c", "t", "m");
  center.raise(HealthSeverity::kCritical, "d", "t", "m");
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter_or_zero("health.events"), 4u);
  EXPECT_EQ(snap.counter_or_zero("health.info"), 1u);
  EXPECT_EQ(snap.counter_or_zero("health.warn"), 2u);
  EXPECT_EQ(snap.counter_or_zero("health.critical"), 1u);
}

TEST(HealthCenter, WorstTracksHighestSeverityEverRaised) {
  HealthCenter center;
  EXPECT_EQ(center.worst(), HealthSeverity::kInfo);
  center.raise(HealthSeverity::kWarn, "a", "t", "m");
  EXPECT_EQ(center.worst(), HealthSeverity::kWarn);
  center.raise(HealthSeverity::kCritical, "b", "t", "m");
  center.raise(HealthSeverity::kInfo, "c", "t", "m");
  EXPECT_EQ(center.worst(), HealthSeverity::kCritical);  // never decays
}

TEST(HealthCenter, SubscribersSeeEveryEvent) {
  HealthCenter center;
  std::vector<std::string> seen;
  center.subscribe([&](const HealthEvent& e) { seen.push_back(e.code); });
  center.subscribe([&](const HealthEvent& e) { seen.push_back(e.code); });
  center.raise(HealthSeverity::kWarn, "x", "t", "m");
  ASSERT_EQ(seen.size(), 2u);  // both subscribers, same event
  EXPECT_EQ(seen[0], "x");
  EXPECT_EQ(seen[1], "x");
}

// Only the hook layer compiles away under OVERCOUNT_HEALTH=OFF; the other
// tests here drive the center directly and run in either build.
#if OVERCOUNT_HEALTH_ENABLED
TEST(HealthCenter, HealthRaiseRoutesThroughInstalledCenter) {
  // With no center installed, health_raise is a no-op branch.
  EXPECT_FALSE(health_active());
  health_raise(HealthSeverity::kCritical, "lost", "t", "m");

  HealthCenter center;
  center.install();
  EXPECT_TRUE(health_active());
  EXPECT_EQ(HealthCenter::active(), &center);
  health_raise(HealthSeverity::kWarn, "found", "t", "m", 7.0, 5.0);
  center.uninstall();
  EXPECT_FALSE(health_active());
  health_raise(HealthSeverity::kWarn, "lost-again", "t", "m");

  const std::vector<HealthEvent> recent = center.recent();
  ASSERT_EQ(recent.size(), 1u);  // only the event raised while installed
  EXPECT_EQ(recent[0].code, "found");
  EXPECT_EQ(recent[0].value, 7.0);
  EXPECT_EQ(recent[0].threshold, 5.0);
}
#endif  // OVERCOUNT_HEALTH_ENABLED

TEST(HealthCenter, JsonlExportParsesLineByLine) {
  HealthCenter center;
  center.raise(HealthSeverity::kCritical, "shard.superstep_stall", "shard",
               "no beat for 2s", 2e6, 1e6);
  center.raise(HealthSeverity::kWarn, "audit.variance_envelope", "audit",
               "spread too wide", std::nan(""), 0.3);
  std::ostringstream os;
  write_health_events_jsonl(os, center.recent());
  std::istringstream is(os.str());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(is, line)) {
    const JsonValue doc = parse_json(line);  // throws on malformed JSON
    ASSERT_TRUE(doc.is_object()) << line;
    for (const char* key :
         {"seq", "ts_us", "severity", "code", "subsystem", "message", "value",
          "threshold"})
      ASSERT_NE(doc.find(key), nullptr) << key << " missing in " << line;
    ++lines;
  }
  EXPECT_EQ(lines, 2u);
  // Non-finite values must render as null, not as bare `nan` (which would
  // make the whole line unparseable).
  const std::string text = os.str();
  const std::size_t second = text.find('\n') + 1;
  const JsonValue warn = parse_json(text.substr(second));
  EXPECT_TRUE(warn.find("value")->is_null());
  EXPECT_EQ(warn.find("severity")->as_string(), "warn");
  EXPECT_EQ(warn.find("code")->as_string(), "audit.variance_envelope");
}

}  // namespace
}  // namespace overcount
