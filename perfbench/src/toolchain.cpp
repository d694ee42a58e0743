// toolchain: everything that turns a description into artifacts, and
// nothing that simulates.
//
// One timed operation, a flow pass: over fig6, quickstart, hcor and dect,
// flow::build_example (system synthesis, optimize, techmap),
// flow::emit_verilog and netlist::analyze_timing with the default Liberty
// model. The cold and warm DECT jit compiles are measured in dect_run's
// traced run.
// Oracle: QoR (gates, area, fmax) equals bench/baseline/BENCH_flow_sta.json
// and emitted Verilog is byte-equal to tests/goldens/<design>.v where a
// golden exists; both files are only read.
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>

#include "common.h"
#include "diag/diag.h"
#include "flow/examples.h"
#include "flow/liberty.h"
#include "flow/verilog.h"
#include "netlist/timing.h"
#include "service/json.h"

namespace perfbench {

namespace {

using namespace asicpp;

struct Qor {
  double gates = 0.0;
  double area_um2 = 0.0;
  double fmax_mhz = 0.0;
};

struct Design {
  std::string name;
  std::string golden;  ///< empty: no committed golden
  Qor baseline;
  Samples build, emit, sta;
  Qor qor;
};

struct Toolchain {
  std::vector<Design> designs;
  netlist::DelayModel model;
  Path flow;
  std::uint64_t qor_bad = 0, verilog_bad = 0, passes = 0;
};

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return "";
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

/// First BM_FlowSta/<design> record of the committed QoR baseline.
std::map<std::string, Qor> read_baseline(const std::string& path) {
  const std::string text = read_file(path);
  service::Json doc;
  std::string err;
  if (!service::Json::parse(text, &doc, &err))
    throw std::runtime_error("cannot parse " + path + ": " + err);
  std::map<std::string, Qor> out;
  const service::Json* list = doc.get("benchmarks");
  if (list == nullptr) throw std::runtime_error(path + " has no benchmarks");
  for (const service::Json& b : list->items()) {
    const std::string name = b.get_string("name");
    const std::string prefix = "BM_FlowSta/";
    if (name.rfind(prefix, 0) != 0) continue;
    const std::string design = name.substr(prefix.size());
    if (out.count(design) != 0) continue;
    out[design] = Qor{b.get_number("gates"), b.get_number("area_um2"),
                      b.get_number("fmax_mhz")};
  }
  return out;
}

bool same(double a, double b) {
  // The baseline prints six significant digits.
  return std::fabs(a - b) <= 5e-6 * std::fabs(b);
}

void setup(Toolchain& tc, const Options& opt) {
  tc = Toolchain{};
  tc.flow.name = "flow";
  const std::map<std::string, Qor> base =
      read_baseline(opt.root + "/bench/baseline/BENCH_flow_sta.json");
  for (const std::string& name : flow::example_names()) {
    Design d;
    d.name = name;
    d.golden = read_file(opt.root + "/tests/goldens/" + name + ".v");
    const auto it = base.find(name);
    if (it == base.end()) throw std::runtime_error("no QoR baseline for " + name);
    d.baseline = it->second;
    tc.designs.push_back(std::move(d));
  }
  diag::DiagEngine de;
  tc.model = flow::delay_model(flow::default_library(), de);
}

/// One build + emit + STA pass over every design.
void flow_pass(Toolchain& tc, TraceThread* tt) {
  const auto req = static_cast<std::int64_t>(tc.passes++);
  std::vector<std::string> verilog;
  const Clock::time_point t0 = Clock::now();
  for (Design& d : tc.designs) {
    Clock::time_point s0 = Clock::now();
    std::unique_ptr<flow::Example> ex;
    {
      Span sp(tt, "synth.build_example." + d.name, "synth", req);
      ex = std::make_unique<flow::Example>(flow::build_example(d.name));
    }
    Clock::time_point s1 = Clock::now();
    d.build.add(seconds_between(s0, s1));
    flow::VerilogOptions vo;
    vo.module_name = ex->name;
    {
      Span sp(tt, "flow.emit_verilog." + d.name, "flow", req);
      verilog.push_back(flow::emit_verilog(ex->nl, vo));
    }
    s0 = Clock::now();
    d.emit.add(seconds_between(s1, s0));
    netlist::TimingReport rep;
    {
      Span sp(tt, "netlist.analyze_timing." + d.name, "netlist", req);
      rep = netlist::analyze_timing(ex->nl, tc.model);
    }
    d.sta.add(seconds_between(s0, Clock::now()));
    d.qor = Qor{static_cast<double>(ex->nl.num_gates()), rep.cell_area,
                rep.fmax() * 1e3};
  }
  tc.flow.add(seconds_between(t0, Clock::now()), 1.0);
  // Oracle, outside the timed interval.
  for (std::size_t i = 0; i < tc.designs.size(); ++i) {
    const Design& d = tc.designs[i];
    if (d.qor.gates != d.baseline.gates || !same(d.qor.area_um2, d.baseline.area_um2) ||
        !same(d.qor.fmax_mhz, d.baseline.fmax_mhz))
      ++tc.qor_bad;
    if (!d.golden.empty() && verilog[i] != d.golden) ++tc.verilog_bad;
  }
}

void report_checks(Toolchain& tc, Report& rep) {
  rep.attempts(tc.passes * tc.designs.size(), tc.qor_bad + tc.verilog_bad);
  rep.check(tc.qor_bad == 0, "QoR equals bench/baseline/BENCH_flow_sta.json over " +
                                 std::to_string(tc.passes) + " passes");
  rep.check(tc.verilog_bad == 0, "emitted Verilog is byte-equal to tests/goldens");
}

}  // namespace

void run_toolchain(const Options& opt, Report& rep) {
  Toolchain tc;
  const double setup_s = timed_setup(5, [&](int) { setup(tc, opt); });

  if (!opt.trace) {
    tc.flow.start();
    while (keep_going(tc.flow, opt.seconds)) flow_pass(tc, nullptr);
    tc.flow.stop();
    report_checks(tc, rep);
    rep.metric("flow_s", median(tc.flow.lat.values()), "s");
    rep.metric("flow_passes", static_cast<double>(tc.flow.lat.size()), "count");
    report_end_to_end(rep, setup_s, tc.flow);
    return;
  }

  // Traced run: half the time untraced, then as many passes traced.
  Clock::time_point t0 = Clock::now();
  while (seconds_between(t0, Clock::now()) < opt.seconds / 2.0) flow_pass(tc, nullptr);
  const std::uint64_t n = tc.passes;
  const double untraced_s = seconds_between(t0, Clock::now());
  for (Design& d : tc.designs) d.build = d.emit = d.sta = Samples{};
  Tracer tracer;
  t0 = Clock::now();
  {
    TraceThread tt(tracer, 0, "bench.toolchain");
    for (std::uint64_t i = 0; i < n; ++i) flow_pass(tc, &tt);
  }
  const double traced_s = seconds_between(t0, Clock::now());
  report_checks(tc, rep);
  for (const Design& d : tc.designs) {
    rep.metric("synth.build_ms." + d.name, median(d.build.values()) * 1e3, "ms");
    rep.metric("flow.emit_ms." + d.name, median(d.emit.values()) * 1e3, "ms");
    rep.metric("netlist.sta_ms." + d.name, median(d.sta.values()) * 1e3, "ms");
    rep.metric("flow.gates." + d.name, d.qor.gates, "count");
    rep.metric("flow.area_um2." + d.name, d.qor.area_um2, "um2");
    rep.metric("flow.fmax_mhz." + d.name, d.qor.fmax_mhz, "MHz");
  }
  report_trace(rep, opt, tracer, traced_s, traced_s, untraced_s);
}

}  // namespace perfbench
