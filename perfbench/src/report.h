// Metric collection and the program's output format.
//
// Every metric is printed as a human-readable line
//   metric <name> <value> <unit>
// as soon as it is known, and the last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics": {name: {value,
// unit}}} holding every metric of the run. perfbench/run.py picks the
// metrics BENCHMARK.json names out of that object.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Count attempted operations and the failed ones among them.
  void attempts(std::uint64_t n, std::uint64_t failed) {
    attempted_ += n;
    failed_ += failed;
  }
  /// Record an output-oracle verdict; one false makes the run incorrect.
  void check(bool ok, const std::string& what);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  bool correct() const { return correct_ && failed_ == 0; }

  /// The final JSON line (no trailing newline).
  std::string json() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
};

/// JSON number text: full precision, +-inf clamped to the largest double
/// (JSON has no infinity), NaN as null.
std::string json_number(double v);

}  // namespace perfbench
