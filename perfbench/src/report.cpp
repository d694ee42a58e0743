#include "report.h"

#include <cmath>
#include <cstdio>
#include <limits>

namespace perfbench {

std::string json_number(double v) {
  if (std::isnan(v)) return "null";
  if (std::isinf(v))
    v = v > 0 ? std::numeric_limits<double>::max()
              : std::numeric_limits<double>::lowest();
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = {value, unit};
  std::printf("metric %s %s %s\n", name.c_str(), json_number(value).c_str(),
              unit.c_str());
  std::fflush(stdout);
}

void Report::check(bool ok, const std::string& what) {
  std::printf("check %s %s\n", ok ? "pass" : "FAIL", what.c_str());
  std::fflush(stdout);
  if (!ok) correct_ = false;
}

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics_) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + json_number(vu.first) +
           ", \"unit\": \"" + vu.second + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
