#include "trace.h"

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::vector<SpanRecord> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Tracer::merge(std::vector<SpanRecord> spans) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.insert(spans_.end(), std::make_move_iterator(spans.begin()),
                std::make_move_iterator(spans.end()));
}

bool Tracer::write_chrome(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  char num[64];
  for (const SpanRecord& s : spans()) {
    if (!first) os << ",\n";
    first = false;
    os << "{\"name\":\"" << json_escape(s.name) << "\",\"cat\":\""
       << json_escape(s.layer) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid;
    std::snprintf(num, sizeof num, "%.3f", s.start_us);
    os << ",\"ts\":" << num;
    std::snprintf(num, sizeof num, "%.3f", s.dur_us());
    os << ",\"dur\":" << num << ",\"args\":{\"id\":" << s.id
       << ",\"parent\":" << s.parent << ",\"req\":" << s.req << "}}";
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

TraceThread::TraceThread(Tracer& tracer, int tid, const std::string& root_name)
    : tracer_(tracer), tid_(tid) {
  spans_.reserve(1 << 12);
  begin(root_name, "bench", -1);
}

TraceThread::~TraceThread() {
  while (!stack_.empty()) end(stack_.back());
  tracer_.merge(std::move(spans_));
}

double TraceThread::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() -
                                                   tracer_.epoch())
      .count();
}

std::size_t TraceThread::begin(const std::string& name,
                               const std::string& layer, std::int64_t req) {
  SpanRecord s;
  s.name = name;
  s.layer = layer;
  s.tid = tid_;
  s.req = req;
  // Ids are unique across threads: thread id in the high half.
  s.id = (static_cast<std::uint64_t>(tid_ + 1) << 32) | (spans_.size() + 1);
  s.parent = stack_.empty() ? 0 : spans_[stack_.back()].id;
  s.start_us = now_us();
  s.end_us = s.start_us;
  spans_.push_back(std::move(s));
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void TraceThread::end(std::size_t index) {
  if (stack_.empty() || stack_.back() != index)
    throw std::logic_error("span closed out of order");
  stack_.pop_back();
  spans_[index].end_us = now_us();
}

LayerTimes layer_times(const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, double> child_us;
  std::unordered_map<std::uint64_t, bool> known;
  for (const SpanRecord& s : spans) known[s.id] = true;
  for (const SpanRecord& s : spans) {
    if (s.parent == 0) continue;
    if (known.count(s.parent) == 0)
      throw std::runtime_error("span '" + s.name + "' has no parent record");
    child_us[s.parent] += s.dur_us();
  }
  LayerTimes lt;
  bool first = true;
  for (const SpanRecord& s : spans) {
    const auto it = child_us.find(s.id);
    const double self = s.dur_us() - (it == child_us.end() ? 0.0 : it->second);
    lt.self_us[s.layer] += self;
    if (s.parent == 0) {
      lt.wall_us += s.dur_us();
      lt.remainder_us += self;
    }
    lt.min_self_us = first ? self : std::min(lt.min_self_us, self);
    first = false;
    ++lt.spans;
  }
  return lt;
}

std::vector<double> span_durations(const std::vector<SpanRecord>& spans,
                                   const std::string& name) {
  std::vector<double> out;
  for (const SpanRecord& s : spans)
    if (s.name == name) out.push_back(s.dur_us() * 1e-6);
  return out;
}

}  // namespace perfbench
