// Statistics and output: percentiles, the run stamp, and the result line.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

/// Linear-interpolated quantile (0 <= q <= 1); 0 for an empty sample.
double quantile(std::vector<double> values, double q);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// JSON object with nproc, CPU model, compiler, build type and git rev.
std::string stamp_json();

/// Prints the metrics as a table, then the result object as the last line
/// of standard output.
void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics);

}  // namespace perfbench
