#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <stdexcept>

namespace perfbench {

namespace {

const Clock::time_point g_process_start = Clock::now();

/// The repository's modules; every layer gets a self-time figure even on
/// a workload that never enters it (0 there).
const char* const kLayers[] = {"sched", "opt",     "sim",     "jit",   "batch",
                               "engine", "pipeline", "ckpt",  "service",
                               "verify", "par",     "synth",   "netlist",
                               "flow",  "dect"};

/// How far the thread roots may fall short of the measured traced wall
/// time: thread start-up and the hand-over of each thread's spans at its
/// end lie outside the root span.
constexpr double kRootSlack = 0.02;
constexpr double kRootSlackUs = 2000.0;

}  // namespace

std::uint64_t Rng::next() {
  std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t Rng::between(std::uint64_t lo, std::uint64_t hi) {
  return lo + next() % (hi - lo + 1);
}

double Rng::unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  Rng r(a ^ (b * 0xd1b54a32d192ed03ULL));
  return r.next();
}

std::uint64_t fold(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  for (int i = 0; i < 8; ++i) {
    h ^= (bits >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

Clock::time_point process_start() { return g_process_start; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void reset_dir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t n = 0;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir))
    if (e.is_regular_file()) n += e.file_size();
  return n;
}

bool keep_going(const Path& p, double seconds) {
  const double elapsed = seconds_between(p.begin, Clock::now());
  if (elapsed < seconds) return true;
  if (elapsed >= std::max(4.0 * seconds, 30.0)) return false;
  return samples_beyond(p.lat.size(), 90.0) < 10;
}

void report_end_to_end(Report& rep, double setup_s, const Path& p) {
  const auto p50 = p.percentile(50.0), p90 = p.percentile(90.0);
  if (!p50 || !p90)
    throw std::runtime_error("path '" + p.name + "' has too few samples for its p90");
  rep.metric("setup_s", setup_s, "s");
  rep.metric("work_per_s", p.rate(), "1/s");
  rep.metric("op_p50_ms", *p50 * 1e3, "ms");
  rep.metric("op_p90_ms", *p90 * 1e3, "ms");
  rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
  rep.metric("failed_frac",
             rep.attempted() == 0
                 ? 0.0
                 : static_cast<double>(rep.failed()) /
                       static_cast<double>(rep.attempted()),
             "frac");
}

void report_latency(Report& rep, const std::string& prefix, const Samples& s) {
  if (s.empty()) return;
  rep.metric(prefix + ".p50_ms", median(s.values()) * 1e3, "ms");
  if (const auto q = percentile(s.values(), 90.0))
    rep.metric(prefix + ".p90_ms", *q * 1e3, "ms");
  if (const auto q = percentile(s.values(), 99.0))
    rep.metric(prefix + ".p99_ms", *q * 1e3, "ms");
}

void report_trace(Report& rep, const Options& opt, const Tracer& tracer,
                  double traced_s, double thread_s, double untraced_s) {
  const std::vector<SpanRecord> spans = tracer.spans();
  const LayerTimes lt = layer_times(spans);
  double self_sum = 0.0;
  for (const auto& [layer, us] : lt.self_us) self_sum += us;
  for (const char* layer : kLayers) {
    const auto it = lt.self_us.find(layer);
    rep.metric(std::string("self_ms.") + layer,
               it == lt.self_us.end() ? 0.0 : it->second * 1e-3, "ms");
  }
  // The wall time the roots must cover, from the steady clock around each
  // recording thread rather than from the spans themselves.
  const double wall_us = thread_s * 1e6;
  rep.metric("trace.remainder_ms", lt.remainder_us * 1e-3, "ms");
  rep.metric("trace.wall_ms", wall_us * 1e-3, "ms");
  rep.metric("trace.spans", static_cast<double>(lt.spans), "count");
  rep.metric("trace_overhead_frac", traced_s / untraced_s - 1.0, "frac");
  rep.check(lt.min_self_us >= -1e-6, "every span's self time is >= 0");
  rep.check(std::fabs(self_sum - wall_us) <= kRootSlack * wall_us + kRootSlackUs,
            "self times plus remainder sum to the traced wall time");
  rep.check(tracer.write_chrome(opt.trace_out),
            "trace written to " + opt.trace_out);
}

}  // namespace perfbench
