// Spans around the benchmark's calls into each asicpp layer.
//
// A traced run records one span per public call the workload makes: name,
// layer, start, end, parent span and the request or seed it serves. Spans
// live in memory (one buffer per recording thread, so recording takes no
// lock) and are written out once, at exit, as Chrome trace-event JSON —
// the format later in-program spans will use, so the two merge in one
// viewer.
//
// Each recording thread owns a root span of layer "bench" covering its
// whole traced interval. A span's self time is its duration minus its
// direct children's durations (children nest strictly inside their
// parent on one thread), so per thread the self times of all spans sum to
// the root's duration, and the root's own self time is the remainder: the
// part of the traced wall time no layer span covers.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

struct SpanRecord {
  std::string name;
  std::string layer;
  double start_us = 0.0;  ///< since the tracer's epoch
  double end_us = 0.0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for a thread root
  int tid = 0;
  std::int64_t req = -1;  ///< request / seed id, -1 when none
  double dur_us() const { return end_us - start_us; }
};

class TraceThread;

/// Collects the spans of every recording thread of one traced run.
class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  Clock::time_point epoch() const { return epoch_; }
  /// All spans recorded by threads that have finished, in thread order.
  std::vector<SpanRecord> spans() const;
  /// Write the Chrome trace-event JSON ("traceEvents", complete events).
  bool write_chrome(const std::string& path) const;

 private:
  friend class TraceThread;
  void merge(std::vector<SpanRecord> spans);

  Clock::time_point epoch_;
  mutable std::mutex mu_;  ///< guards spans_
  std::vector<SpanRecord> spans_;
};

/// One thread's span recorder. Construct it on the recording thread; the
/// constructor opens the thread's root span, the destructor closes it and
/// hands the thread's spans to the Tracer.
class TraceThread {
 public:
  TraceThread(Tracer& tracer, int tid, const std::string& root_name);
  ~TraceThread();
  TraceThread(const TraceThread&) = delete;
  TraceThread& operator=(const TraceThread&) = delete;

  std::size_t begin(const std::string& name, const std::string& layer,
                    std::int64_t req);
  void end(std::size_t index);

 private:
  double now_us() const;

  Tracer& tracer_;
  int tid_;
  std::vector<SpanRecord> spans_;
  std::vector<std::size_t> stack_;
};

/// Scoped span; a null recorder (tracing off) makes it a no-op.
class Span {
 public:
  Span(TraceThread* t, const std::string& name, const std::string& layer,
       std::int64_t req = -1)
      : t_(t), index_(t != nullptr ? t->begin(name, layer, req) : 0) {}
  ~Span() {
    if (t_ != nullptr) t_->end(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  TraceThread* t_;
  std::size_t index_;
};

/// Self-time accounting over a set of spans.
struct LayerTimes {
  std::map<std::string, double> self_us;  ///< by layer; "bench" = remainder
  double wall_us = 0.0;       ///< sum of thread-root durations
  double remainder_us = 0.0;  ///< self time of the thread roots
  double min_self_us = 0.0;   ///< smallest self time of any span
  std::size_t spans = 0;
};

/// Self time per layer. Throws std::runtime_error when a span's parent is
/// missing from the set.
LayerTimes layer_times(const std::vector<SpanRecord>& spans);

/// Durations (seconds) of every span named `name`.
std::vector<double> span_durations(const std::vector<SpanRecord>& spans,
                                   const std::string& name);

}  // namespace perfbench
