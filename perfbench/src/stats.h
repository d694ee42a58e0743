// Order statistics and rates for the benchmark's reports.
//
// Every timing sample is a wall-clock duration. A failed operation is
// recorded as +inf (`kFailed`), so it counts as missing every latency
// limit instead of vanishing from the distribution. A percentile is only
// reported when at least ten samples lie beyond it; below that it is a
// guess about the tail, not a measurement.
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Latency sample of an operation that failed.
inline constexpr double kFailed = std::numeric_limits<double>::infinity();

/// Seconds between two steady-clock instants.
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Median of a non-empty sample (mean of the two middle values for an
/// even count). Throws std::invalid_argument on an empty sample.
double median(std::vector<double> v);

struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};

/// Quartiles by Python's statistics.quantiles(n=4) default ("exclusive")
/// method, so the figures match the acceptance arithmetic exactly. Needs at
/// least two samples; throws std::invalid_argument otherwise.
Quartiles quartiles(std::vector<double> v);

/// Number of samples strictly beyond the nearest-rank p-th percentile of
/// `n` samples (0 < p < 100).
std::size_t samples_beyond(std::size_t n, double p);

/// Nearest-rank p-th percentile, or nullopt when fewer than ten samples
/// lie beyond it.
std::optional<double> percentile(std::vector<double> v, double p);

/// Set-up repetitions in consecutive batches of at least
/// kSetupBatchSeconds (a short tail joins the batch before it).
inline constexpr double kSetupBatchSeconds = 0.1;

/// The median over batches of the batch's mean repetition time; a
/// repetition of kSetupBatchSeconds or more is a batch of its own, so
/// long set-ups get the plain median. A shared host switches between
/// speeds every tenth of a second or so, and the median of millisecond
/// repetitions flips with whichever speed held the majority of them; a
/// batch's mean moves with the share instead. Throws on an empty sample.
double setup_median(const std::vector<double>& reps);

/// Latency samples of one kind of operation.
class Samples {
 public:
  void add(double seconds) { v_.push_back(seconds); }
  void fail() { v_.push_back(kFailed); }
  std::size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }
  const std::vector<double>& values() const { return v_; }
  void append(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }

 private:
  std::vector<double> v_;
};

/// One kind of timed operation of a workload: per-operation latencies and
/// completion instants, the units of work they did (cycles, requests,
/// seeds, passes) and the wall interval the loop ran in.
///
/// The loop's interval is cut into consecutive windows of at least
/// kWindowSeconds, each ending at an operation's completion, and every
/// figure is the median over those windows: a rate is the median of the
/// windows' work over their wall time, a latency percentile the median of
/// the windows' percentiles. A slow spell of the host that covers less
/// than half the windows then leaves the figure alone. Every window is
/// timed on the steady clock whatever number of threads ran the loop, so a
/// rate cannot come from summed latencies or one thread's CPU time.
struct Path {
  std::string name;
  Samples lat;
  std::vector<Clock::time_point> done;  ///< completion instant, per sample
  std::vector<double> units;            ///< work units, per sample
  double work = 0.0;
  Clock::time_point begin{};
  Clock::time_point end{};

  void start() { begin = Clock::now(); }
  void stop() { end = Clock::now(); }
  /// An operation that took `seconds`, did `n` units and completed at `at`.
  void add(double seconds, double n, Clock::time_point at = Clock::now()) {
    lat.add(seconds);
    done.push_back(at);
    units.push_back(n);
    work += n;
  }
  /// A failed operation: +inf latency, no work.
  void fail(Clock::time_point at = Clock::now()) {
    lat.fail();
    done.push_back(at);
    units.push_back(0.0);
  }
  /// Append another path's samples (e.g. one client thread's).
  void merge(const Path& o);

  /// Median over the windows of work units per wall-clock second; throws
  /// when the interval was never taken or is empty.
  double rate() const;
  /// Median over the windows of the p-th percentile latency, each window
  /// holding enough samples for ten beyond it; nullopt when the whole loop
  /// has fewer.
  std::optional<double> percentile(double p) const;
};

/// Minimum length of one window of a Path.
inline constexpr double kWindowSeconds = 1.0;

}  // namespace perfbench
