#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "obs/json.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_GIT_REV
#define PERFBENCH_GIT_REV "unknown"
#endif

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    const auto start = line.find_first_not_of(' ', colon + 1);
    return start == std::string::npos ? "" : line.substr(start);
  }
  return "unknown";
}

}  // namespace

std::string stamp_json() {
  std::ostringstream os;
  overcount::JsonWriter w(os, 0);
  w.begin_object();
  w.kv("nproc", std::thread::hardware_concurrency());
  w.kv("cpu", cpu_model());
  w.kv("compiler", PERFBENCH_COMPILER);
  w.kv("build_type", PERFBENCH_BUILD_TYPE);
  w.kv("git_rev", PERFBENCH_GIT_REV);
  w.end_object();
  return os.str();
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("# %-36s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::ostringstream os;
  overcount::JsonWriter w(os, 0);
  w.begin_object();
  w.kv("correct", correct);
  w.kv("attempted", attempted);
  w.kv("failed", failed);
  w.key("metrics");
  w.begin_object();
  for (const Metric& m : metrics) {
    w.key(m.name);
    w.begin_object();
    // A metric with no sample (e.g. no request waited in a queue) reads 0.
    w.kv("value", std::isfinite(m.value) ? m.value : 0.0);
    w.kv("unit", m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::cout << os.str() << std::endl;
}

}  // namespace perfbench
