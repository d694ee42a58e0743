// Shared plumbing of the four workloads: options, seeded inputs, set-up
// timing, the private artifact store and the generic end-to-end metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string root;       ///< repository root (goldens, QoR baseline)
  std::string work;       ///< private scratch directory of this run
  std::string trace_out;  ///< Chrome trace file (trace mode)
  /// session_mix: re-apply the parent's pin drive to each forked design
  /// session. Off, the fork check shows the drive lost by the snapshot.
  bool repoke_forks = true;

  /// The run's private artifact store, inside `work`.
  std::string store_dir() const { return work + "/store"; }
};

/// splitmix64: every input of a run derives from the workload seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next();
  /// Uniform integer in [lo, hi].
  std::uint64_t between(std::uint64_t lo, std::uint64_t hi);
  /// Uniform double in [0, 1).
  double unit();

 private:
  std::uint64_t s_;
};

/// A 64-bit mix of two values (per-index sub-seeds).
std::uint64_t mix(std::uint64_t a, std::uint64_t b);

/// FNV-1a over a double's bit pattern, folded into `h`.
std::uint64_t fold(std::uint64_t h, double v);

/// The instant static initialization ran: "process start" for setup_s.
Clock::time_point process_start();

/// getrusage maximum resident set size, in MB.
double peak_rss_mb();

/// Remove and re-create a directory.
void reset_dir(const std::string& dir);
/// Total bytes of the regular files under `dir`.
std::uint64_t dir_bytes(const std::string& dir);

/// Set-up repetitions go on past the minimum count until they have taken
/// this long together (at most kMaxSetups), so a set-up of a millisecond
/// is measured hundreds of times rather than a handful.
inline constexpr double kSetupSeconds = 1.0;
inline constexpr int kMaxSetups = 1000;

/// Run a set-up procedure at least `reps` times, and further while the
/// repetitions have taken less than kSetupSeconds, and return
/// setup_median() of their durations. The first repetition is timed from
/// process start, so dynamic loading and static initialization count;
/// each later one rebuilds everything from scratch. The last repetition's
/// state is what the run uses.
template <class F>
double timed_setup(int reps, F&& setup) {
  std::vector<double> s;
  double total = 0.0;
  for (int r = 0; r < reps || (total < kSetupSeconds && r < kMaxSetups); ++r) {
    const Clock::time_point t0 = r == 0 ? process_start() : Clock::now();
    setup(r);
    s.push_back(seconds_between(t0, Clock::now()));
    total += s.back();
  }
  return setup_median(s);
}

/// True while the timed loop of `p` (started with p.start()) should
/// continue: until `seconds` have passed and its 90th percentile has ten
/// samples beyond it, but never past four times `seconds` or 30 s,
/// whichever is longer.
bool keep_going(const Path& p, double seconds);

/// The end-to-end metrics, identical on every workload and each taken from
/// the workload's one timed path (the last three as medians over its
/// windows, see Path):
///   setup_s      median set-up time
///   work_per_s   work units of `p` per wall-clock second
///   op_p50_ms    median latency of one operation of `p`
///   op_p90_ms    90th percentile latency of one operation of `p`
///   peak_rss_mb  maximum resident set size
///   failed_frac  failed operations over attempted ones
/// BENCHMARK.json gates setup_s, work_per_s and op_p90_ms; perfbench/README.md
/// says why the others are only printed.
void report_end_to_end(Report& rep, double setup_s, const Path& p);

/// Per-path figures under `prefix`: <prefix>.p50_ms, .p90_ms and
/// .p99_ms where at least ten samples lie beyond.
void report_latency(Report& rep, const std::string& prefix, const Samples& s);

/// Self time per layer, the remainder, and the trace checks, from a
/// finished traced run. `traced_s` is the steady-clock wall time of the
/// traced interval and `thread_s` the sum over the recording threads of
/// each one's steady-clock time around its root span, both measured
/// independently of the spans: the roots must cover `thread_s`.
/// `untraced_s` is the wall time of the same work with tracing off (for
/// trace_overhead_frac).
void report_trace(Report& rep, const Options& opt, const Tracer& tracer,
                  double traced_s, double thread_s, double untraced_s);

/// The workloads; each throws when it cannot complete a run.
void run_dect(const Options& opt, Report& rep);
void run_session_mix(const Options& opt, Report& rep);
void run_fuzz_campaign(const Options& opt, Report& rep);
void run_toolchain(const Options& opt, Report& rep);

}  // namespace perfbench
