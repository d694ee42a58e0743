// Tests of the benchmark's own statistics and tracing.
//
// Run: .bench_build/perfbench/perfbench_selftest (or `ctest` in that build
// directory, which also runs perfbench/test_run.py). Exit code 0 when
// every check holds.
#include <time.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "report.h"
#include "stats.h"
#include "trace.h"

using namespace perfbench;

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL %s\n", what.c_str());
  }
}

bool near(double a, double b, double tol = 1e-12) { return std::fabs(a - b) <= tol; }

template <class F>
bool throws(F&& f) {
  try {
    f();
  } catch (const std::exception&) {
    return true;
  }
  return false;
}

std::vector<double> ones(std::size_t n) { return std::vector<double>(n, 1e-3); }

void test_median_and_quartiles() {
  expect(near(median({3.0, 1.0, 2.0}), 2.0), "median of an odd sample");
  expect(near(median({4.0, 1.0, 3.0, 2.0}), 2.5), "median of an even sample");
  expect(throws([] { median({}); }), "median of an empty sample throws");
  // Expected values from Python's statistics.quantiles(data, n=4).
  const Quartiles a = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  expect(near(a.q1, 2.75) && near(a.q2, 5.5) && near(a.q3, 8.25), "quartiles of 1..10");
  const Quartiles b = quartiles({5, 1});
  expect(near(b.q1, 0.0) && near(b.q2, 3.0) && near(b.q3, 6.0),
         "quartiles of two samples extrapolate like Python");
  const Quartiles c = quartiles({0.5, 2.25, 1.0, 8.0, 3.5, 4.0, 0.25});
  expect(near(c.q1, 0.5) && near(c.q2, 2.25) && near(c.q3, 4.0), "quartiles of seven samples");
  expect(throws([] { quartiles({1.0}); }), "quartiles of one sample throw");
}

void test_percentile_needs_ten_beyond() {
  expect(samples_beyond(100, 90.0) == 10, "100 samples leave 10 beyond p90");
  expect(percentile(ones(100), 90.0).has_value(), "p90 of 100 samples is reported");
  expect(!percentile(ones(99), 90.0).has_value(), "p90 of 99 samples is refused");
  expect(percentile(ones(1000), 99.0).has_value(), "p99 of 1000 samples is reported");
  expect(!percentile(ones(999), 99.0).has_value(), "p99 of 999 samples is refused");
  expect(!percentile(ones(10), 50.0).has_value(), "p50 of 10 samples is refused");
  expect(throws([] { percentile(ones(10), 100.0); }), "p100 is not a percentile");
  std::vector<double> v;
  for (int i = 1; i <= 200; ++i) v.push_back(i);
  expect(near(*percentile(v, 90.0), 180.0), "nearest-rank p90 of 1..200");
}

void test_failures_are_infinite_latency() {
  Samples s;
  for (int i = 0; i < 89; ++i) s.add(1e-3);
  for (int i = 0; i < 11; ++i) s.fail();
  expect(std::isinf(*percentile(s.values(), 90.0)),
         "11 failures in 100 requests put p90 at +inf");
  expect(near(median(s.values()), 1e-3), "failures above the median leave it alone");
  Samples t;
  for (int i = 0; i < 40; ++i) t.add(1e-3);
  for (int i = 0; i < 60; ++i) t.fail();
  expect(std::isinf(median(t.values())), "a majority of failures puts p50 at +inf");
  expect(json_number(kFailed) == "1.7976931348623157e+308",
         "an infinite latency prints as the largest double");
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void test_rate_over_wall_time() {
  // Two worker threads do the work and record it on one Path, as the
  // session_mix clients do; the calling thread only waits. A rate over the
  // calling thread's CPU time (Google Benchmark's kIsRate) would divide by
  // almost nothing, and one over the summed latencies would halve the
  // rate: Path::rate must divide by the wall interval.
  Path p;
  std::mutex mu;
  const double cpu0 = thread_cpu_seconds();
  p.start();
  std::vector<std::thread> workers;
  for (int w = 0; w < 2; ++w)
    workers.emplace_back([&p, &mu] {
      const Clock::time_point end = Clock::now() + std::chrono::milliseconds(200);
      while (Clock::now() < end) {
        const Clock::time_point t0 = Clock::now();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        const std::lock_guard<std::mutex> lock(mu);
        p.add(seconds_between(t0, Clock::now()), 1.0);
      }
    });
  for (std::thread& t : workers) t.join();
  p.stop();
  const double cpu_s = thread_cpu_seconds() - cpu0;
  const double wall_s = seconds_between(p.begin, p.end);
  double busy_s = 0.0;
  for (const double x : p.lat.values()) busy_s += x;
  const double rate = p.rate();
  expect(wall_s >= 0.2, "the loop ran at least 200 ms of wall time");
  expect(near(rate, p.work / wall_s, 1e-9 * rate), "Path::rate divides by the wall interval");
  expect(busy_s > 1.5 * wall_s && rate > 1.5 * p.work / busy_s,
         "two threads' summed latencies would understate the rate");
  // Two threads sleeping 1 ms per op cannot beat 2000 ops/s.
  expect(rate <= 2000.0, "a 2-thread rate is bounded by the threads' real pace");
  expect(p.work / std::max(cpu_s, 1e-9) > 5.0 * rate,
         "the calling thread's CPU time would overstate the rate");

  Path never;
  never.add(1e-3, 1.0);
  expect(throws([&] { never.rate(); }), "a path whose interval was never taken has no rate");
  Path reversed;
  reversed.stop();
  reversed.start();
  reversed.add(1e-3, 1.0);
  expect(throws([&] { reversed.rate(); }), "a rate over a reversed interval throws");
}

void test_window_medians() {
  // A synthetic 10 s loop: 10 ms operations, except for a 3 s spell in
  // which the host runs them at half speed. Over the whole interval the
  // rate is 85 ops/s; the window median keeps the 100 ops/s of the other
  // seven seconds, and each second is a window of its own.
  Path p;
  p.start();
  const Clock::time_point t0 = p.begin;
  double t = 0.0;
  while (t < 10.0 - 1e-9) {
    const double dt = t >= 4.0 - 1e-9 && t < 7.0 - 1e-9 ? 0.02 : 0.01;
    t += dt;
    p.add(dt, 1.0, t0 + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(t)));
  }
  p.end = t0 + std::chrono::seconds(10);
  expect(near(p.work / 10.0, 85.0, 1e-9), "the whole interval's rate includes the slow spell");
  // A window straddling the spell's edge may hold one slow operation.
  expect(near(p.rate(), 100.0, 1.5), "the window median rate leaves the slow spell out");
  expect(near(*p.percentile(90.0), 0.01, 1e-12),
         "the window median p90 leaves the slow spell out");
  expect(near(*percentile(p.lat.values(), 90.0), 0.02, 1e-12),
         "the whole loop's p90 is the slow spell's latency");

  // Windows close only at completions: one 2.5 s operation in a 3 s loop
  // is one window, rated over its whole interval.
  Path slow;
  slow.start();
  slow.add(2.5, 1.0, slow.begin + std::chrono::milliseconds(2500));
  slow.end = slow.begin + std::chrono::seconds(3);
  expect(near(slow.rate(), 1.0 / 3.0, 1e-9), "a loop shorter than two windows is one window");

  // A window's percentile needs ten samples beyond it: 50 samples give
  // none for p90, 110 samples in one window give one.
  Path few;
  few.start();
  for (int i = 0; i < 50; ++i) few.add(1e-3, 1.0);
  few.stop();
  expect(!few.percentile(90.0), "p90 of 50 samples is refused");
  Path enough;
  enough.start();
  for (int i = 0; i < 110; ++i) enough.add(i < 99 ? 1e-3 : 2e-3, 1.0);
  enough.stop();
  expect(near(*enough.percentile(90.0), 1e-3), "p90 of 110 samples in one window");
}

void busy(int us) {
  const Clock::time_point end = Clock::now() + std::chrono::microseconds(us);
  while (Clock::now() < end) {
  }
}

void test_setup_median() {
  // Long set-ups are batches of their own: the plain median.
  expect(near(setup_median({4.0, 3.0, 5.0}), 4.0), "long set-ups give the plain median");
  expect(near(setup_median({0.02}), 0.02), "one short set-up is its own batch");
  // Millisecond set-ups on a host that switches speed every 50 of them:
  // 20 at 2 ms, then 30 at 3 ms, ten times over. The plain median is the
  // slow speed, which held 60% of them; 100 ms batches span both speeds,
  // and their median follows the 2.6 ms mean.
  std::vector<double> reps;
  for (int k = 0; k < 10; ++k) {
    reps.insert(reps.end(), 20, 2e-3);
    reps.insert(reps.end(), 30, 3e-3);
  }
  expect(near(median(reps), 3e-3), "the plain median takes the majority speed");
  expect(near(setup_median(reps), 2.6e-3, 0.15e-3), "batch means follow the share of each speed");
  // The first repetition, timed from process start, lifts one batch only.
  std::vector<double> cold(400, 1e-3);
  cold[0] = 0.05;
  expect(near(setup_median(cold), 1e-3, 1e-9), "a slow first repetition moves one batch");
  // A short tail joins the batch before it instead of forming its own.
  std::vector<double> tail(100, 1e-3);
  tail.push_back(1.0e-2);
  expect(near(setup_median(tail), 0.11 / 101.0, 1e-12), "a short tail joins the last batch");
  expect(throws([] { setup_median({}); }), "no set-up has no median");
}

void test_self_times_and_chrome_file() {
  Tracer tracer;
  for (int tid = 0; tid < 2; ++tid) {
    TraceThread tt(tracer, tid, "bench.thread");
    busy(200);
    {
      Span outer(&tt, "outer", "service", 7);
      busy(300);
      {
        Span inner(&tt, "inner", "sim", 7);
        busy(500);
      }
      Span second(&tt, "second", "sim");
      busy(100);
    }
    Span off(nullptr, "off", "sim");  // tracing off: records nothing
  }
  const std::vector<SpanRecord> spans = tracer.spans();
  expect(spans.size() == 8, "two threads of four spans each");
  const LayerTimes lt = layer_times(spans);
  double total = 0.0;
  for (const auto& [layer, us] : lt.self_us) total += us;
  expect(lt.min_self_us >= 0.0, "self times are non-negative");
  expect(near(total, lt.wall_us, 1e-6 * lt.wall_us), "self times sum to the wall time");
  expect(near(lt.remainder_us, lt.self_us.at("bench")), "the remainder is the roots' self time");
  expect(lt.self_us.at("sim") >= 2 * 600.0, "sim self time covers both threads");
  expect(lt.self_us.at("service") >= 2 * 300.0 &&
             lt.self_us.at("service") < lt.self_us.at("sim"),
         "service self time excludes its children");
  expect(lt.remainder_us >= 2 * 200.0, "time outside every layer span is the remainder");

  std::vector<SpanRecord> orphan = {spans[1]};
  expect(throws([&] { layer_times(orphan); }), "a span without its parent is refused");

  const std::string path = "perfbench_selftest_trace.json";
  expect(tracer.write_chrome(path), "the Chrome trace file is written");
  std::ifstream is(path);
  std::stringstream ss;
  ss << is.rdbuf();
  const std::string text = ss.str();
  std::size_t events = 0;
  for (std::size_t p = text.find("\"ph\":\"X\""); p != std::string::npos;
       p = text.find("\"ph\":\"X\"", p + 1))
    ++events;
  expect(text.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0) == 0 && events == 8,
         "the file holds one complete event per span");
  std::remove(path.c_str());
}

}  // namespace

int main() {
  test_median_and_quartiles();
  test_percentile_needs_ten_beyond();
  test_failures_are_infinite_latency();
  test_rate_over_wall_time();
  test_window_medians();
  test_setup_median();
  test_self_times_and_chrome_file();
  if (g_failures != 0) {
    std::printf("%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
