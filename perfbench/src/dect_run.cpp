// dect_run: long steady-state simulation of the paper's Table-1 DECT
// transceiver.
//
// The timed path is the default build on the compiled tape, bound through
// pipeline::compile; its oracle is the interpreted levelized scheduler.
// Step i drives "sample" and pokes "hold_request" from the seeded
// stimulus, runs kBurst cycles and folds the datapath outputs into a
// checksum. After the timed region the oracle replays the same stimulus
// over the first kOracleSteps steps, and every checksum must equal the
// oracle's.
//
// The traced run breaks down every cycle kernel the paper's Table 1
// compares, one after the other on the same steps: levelized (oracle:
// compiled), compiled (oracle: levelized), jit compiled cold into an
// emptied private store (oracle: levelized), and the structural_tables
// build on an 8-lane batch::BatchedSystem (oracle: one compiled structural
// instance, every lane compared). Only the compiled path is gated: the
// host's speed swings by a third over minutes, and one workload with
// longer runs stays inside the bounds where four short ones did not.
#include <cmath>
#include <memory>

#include "batch/batch.h"
#include "common.h"
#include "dect/vliw.h"
#include "jit/jit.h"
#include "pipeline/pipeline.h"
#include "sim/compiled.h"

namespace perfbench {

namespace {

using namespace asicpp;

constexpr std::uint64_t kBurst = 64;        ///< cycles per step
constexpr unsigned kLanes = 8;              ///< batched lanes
constexpr std::size_t kOracleSteps = 3000;  ///< steps the oracle replays
constexpr int kSetups = 9;                  ///< minimum set-up repetitions
constexpr int kWarmCompiles = 10;           ///< jit, at the end of each half

struct Stimulus {
  double sample = 0.0;
  bool hold = false;
};

Stimulus stimulus(std::uint64_t seed, std::uint64_t step) {
  Rng r(mix(seed, step));
  Stimulus s;
  s.sample = std::round((r.unit() * 2.0 - 1.0) * 1024.0) / 1024.0;
  s.hold = r.unit() < 0.2;
  return s;
}

/// The engine a workload times, and the one that checks it.
struct Kind {
  std::string engine;
  std::string oracle;
  bool structural = false;
};

/// The kernels of the traced run; kKinds[kTimed] is the gated path.
const Kind kKinds[] = {{"levelized", "compiled", false},
                       {"compiled", "levelized", false},
                       {"jit", "levelized", false},
                       {"batched", "compiled", true}};
constexpr std::size_t kTimed = 1;

/// Layer whose kernel runs an engine's cycles.
std::string layer_of(const std::string& engine) {
  if (engine == "levelized") return "sched";
  if (engine == "compiled") return "sim";
  if (engine == "batched") return "batch";
  return engine;
}

/// One DECT transceiver simulated on one engine.
struct Sim {
  std::string name;    ///< engine.<name>.* metric prefix
  std::string layer;
  std::unique_ptr<dect::DectTransceiver> t;
  pipeline::CompileResult compiled;             ///< instance engines
  std::unique_ptr<batch::BatchedSystem> batch;  ///< the batched engine
  std::vector<std::uint64_t> sums;  ///< per step (batched: per step and lane)
  Path perf;
  std::uint64_t steps = 0;
  double run_s = 0.0;  ///< time spent in the cycles of every step
  double pp_s = 0.0;   ///< time spent poking and probing

  unsigned lanes() const { return batch ? kLanes : 1; }
  std::string prefix() const { return batch ? "batch" : "engine." + name; }
  double bind_s() const {
    for (const auto& st : compiled.stages)
      if (st.stage == "bind") return st.seconds;
    return 0.0;
  }
};

const std::vector<std::string>& data_nets() {
  static const std::vector<std::string> nets = [] {
    std::vector<std::string> v;
    for (int d = 0; d < dect::VliwParams{}.num_datapaths; ++d)
      v.push_back("data_" + std::to_string(d));
    return v;
  }();
  return nets;
}

Sim make_sim(const std::string& engine, bool structural, const std::string& store) {
  Sim s;
  s.name = structural && engine == "compiled" ? "compiled_structural" : engine;
  s.layer = layer_of(engine);
  s.perf.name = s.name;
  dect::VliwParams vp;
  vp.structural_tables = structural;
  s.t = std::make_unique<dect::DectTransceiver>(vp);
  s.t->drive_sample(0.0);
  s.t->set_hold_request(false);
  if (engine == "batched") {
    s.batch = std::make_unique<batch::BatchedSystem>(
        batch::BatchedSystem::compile(s.t->scheduler(), kLanes));
    return s;
  }
  pipeline::CompileRequest req;
  req.design = &s.t->scheduler();
  req.engine = engine;
  req.store_dir = store;
  req.probes = data_nets();
  s.compiled = pipeline::compile(req);
  if (!s.compiled.ok) throw std::runtime_error(s.name + ": " + s.compiled.error);
  return s;
}

/// One step: poke, run kBurst cycles, probe and checksum.
void step(Sim& s, std::uint64_t seed, TraceThread* tt) {
  const Stimulus st = stimulus(seed, s.steps);
  const auto req = static_cast<std::int64_t>(s.steps);
  const Clock::time_point t0 = Clock::now();
  {
    Span sp(tt, s.prefix() + ".poke_probe", "engine", req);
    // Both pins are driven scheduler nets that every engine reads at the
    // start of a cycle; the batched system has no Instance, so its pins
    // go through the transceiver's drivers (broadcast to every lane).
    {
      Span drive(tt, "dect.drive_sample", "dect", req);
      s.t->drive_sample(st.sample);
      if (s.batch) s.t->set_hold_request(st.hold);
    }
    if (!s.batch) s.compiled.instance->poke("hold_request", st.hold ? 1.0 : 0.0);
  }
  const Clock::time_point t1 = Clock::now();
  {
    Span sp(tt, s.prefix() + ".run", s.layer, req);
    if (s.batch) {
      for (std::uint64_t c = 0; c < kBurst; ++c) s.batch->cycle();
    } else {
      engine::Instance& inst = *s.compiled.instance;
      for (std::uint64_t c = 0; c < kBurst; ++c) inst.cycle();
    }
  }
  const Clock::time_point t2 = Clock::now();
  {
    Span sp(tt, s.prefix() + ".poke_probe", "engine", req);
    for (unsigned lane = 0; lane < s.lanes(); ++lane) {
      std::uint64_t h = 0xcbf29ce484222325ULL;
      for (const std::string& n : data_nets())
        h = fold(h, s.batch ? s.batch->net_value(lane, n)
                            : s.compiled.instance->probe(n));
      s.sums.push_back(h);
    }
  }
  const Clock::time_point t3 = Clock::now();
  s.run_s += seconds_between(t1, t2);
  s.pp_s += seconds_between(t0, t1) + seconds_between(t2, t3);
  s.perf.add(seconds_between(t0, t3), static_cast<double>(kBurst * s.lanes()));
  ++s.steps;
}

/// Replay the first steps of `s` on the oracle engine and compare every
/// checksum; returns the oracle, whose own timing is the batched ratio base.
Sim check_outputs(const Sim& s, const Kind& k, const Options& opt, Report& rep) {
  Sim ref = make_sim(k.oracle, k.structural, opt.store_dir());
  const std::size_t n = std::min<std::size_t>(s.steps, kOracleSteps);
  ref.perf.start();
  for (std::size_t i = 0; i < n; ++i) step(ref, opt.seed, nullptr);
  ref.perf.stop();
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < n; ++i) {
    bool same = true;
    for (unsigned lane = 0; lane < s.lanes(); ++lane)
      same = same && s.sums[i * s.lanes() + lane] == ref.sums[i];
    bad += !same;
  }
  rep.attempts(s.steps, bad);
  rep.check(bad == 0 && n > 0,
            s.name + (s.batch ? " (every lane)" : "") + " checksums equal " + ref.name +
                " over the first " + std::to_string(n) + " of " +
                std::to_string(s.steps) + " steps");
  return ref;
}

/// jit only: recompile the same request against the filled store,
/// recording each compile's wall time and bind stage.
void warm_compiles(const Options& opt, Samples& wall_s, Samples& bind_s,
                   TraceThread* tt) {
  for (int i = 0; i < kWarmCompiles; ++i) {
    dect::DectTransceiver t;
    pipeline::CompileRequest req;
    req.design = &t.scheduler();
    req.engine = "jit";
    req.store_dir = opt.store_dir();
    req.probes = data_nets();
    pipeline::CompileResult r;
    const Clock::time_point t0 = Clock::now();
    {
      Span sp(tt, "pipeline.compile.warm", "pipeline", i);
      r = pipeline::compile(req);
    }
    wall_s.add(seconds_between(t0, Clock::now()));
    if (!r.ok || !r.store_hit)
      throw std::runtime_error("warm jit compile missed the store: " + r.error);
    for (const auto& st : r.stages)
      if (st.stage == "bind") bind_s.add(st.seconds);
    r.instance.reset();  // unload before the transceiver goes away
  }
}

std::uint64_t footprint(const std::string& engine, bool structural,
                        const Options& opt, const Sim& s) {
  if (s.batch) return s.batch->footprint_bytes();
  dect::VliwParams vp;
  vp.structural_tables = structural;
  dect::DectTransceiver t(vp);
  if (engine == "jit") {
    jit::JitOptions jo;
    jo.cache_dir = opt.store_dir();
    return jit::JitSystem::compile(t.scheduler(), {}, jo).footprint_bytes();
  }
  return sim::CompiledSystem::compile(t.scheduler()).footprint_bytes();
}

/// One kernel of the traced run: a fresh set-up (cold, for jit), steps
/// for `seconds` untraced, then as many traced on recorder `tid`, the
/// oracle check and the kernel's per-layer metrics. Adds each half's wall
/// time to `untraced_s` and `traced_s`.
void trace_kind(const Kind& k, int tid, double seconds, const Options& opt, Report& rep,
                Tracer& tracer, double& untraced_s, double& traced_s) {
  if (k.engine == "jit") reset_dir(opt.store_dir());
  Sim s = make_sim(k.engine, k.structural, opt.store_dir());
  const double artifact_bytes = static_cast<double>(dir_bytes(opt.store_dir()));

  Samples warm_wall, warm_bind;
  const Clock::time_point u0 = Clock::now();
  while (seconds_between(u0, Clock::now()) < seconds) step(s, opt.seed, nullptr);
  const std::uint64_t n = s.steps;
  // The kernel's untimed rate, printed beside the gated compiled one.
  rep.metric("cycles_per_s." + s.name,
             static_cast<double>(n * kBurst * s.lanes()) / seconds_between(u0, Clock::now()),
             "1/s");
  if (k.engine == "jit") {
    warm_compiles(opt, warm_wall, warm_bind, nullptr);
    rep.metric("compile_cold_s", s.bind_s(), "s");
    rep.metric("compile_warm_ms", median(warm_wall.values()) * 1e3, "ms");
  }
  untraced_s += seconds_between(u0, Clock::now());
  const double run0 = s.run_s, pp0 = s.pp_s;
  warm_bind = Samples{};
  const Clock::time_point t0 = Clock::now();
  {
    TraceThread tt(tracer, tid, "bench.dect_run." + s.name);
    for (std::uint64_t i = 0; i < n; ++i) step(s, opt.seed, &tt);
    if (k.engine == "jit") warm_compiles(opt, warm_wall, warm_bind, &tt);
  }
  traced_s += seconds_between(t0, Clock::now());
  const Sim ref = check_outputs(s, k, opt, rep);

  const auto steps = static_cast<double>(n);
  rep.metric(s.prefix() + ".cycle_us", (s.run_s - run0) / (steps * kBurst) * 1e6, "us");
  rep.metric(s.prefix() + ".poke_probe_us", (s.pp_s - pp0) / steps * 1e6, "us");
  rep.metric(s.prefix() + ".footprint_bytes",
             static_cast<double>(footprint(k.engine, k.structural, opt, s)), "bytes");
  if (!s.batch) rep.metric("pipeline.bind_ms." + s.name, s.bind_s() * 1e3, "ms");
  if (s.batch) {  // the compiled structural ratio base, from the oracle replay
    const auto ref_steps = static_cast<double>(ref.steps);
    rep.metric(ref.prefix() + ".cycle_us", ref.run_s / (ref_steps * kBurst) * 1e6, "us");
    rep.metric(ref.prefix() + ".poke_probe_us", ref.pp_s / ref_steps * 1e6, "us");
    rep.metric(ref.prefix() + ".footprint_bytes",
               static_cast<double>(footprint("compiled", true, opt, ref)), "bytes");
    rep.metric("pipeline.bind_ms." + ref.name, ref.bind_s() * 1e3, "ms");
  }
  if (k.engine == "jit") {
    rep.metric("pipeline.cold.bind_s", s.bind_s(), "s");
    rep.metric("jit.host_compile_s", s.compiled.compile_seconds, "s");
    rep.metric("pipeline.store.artifact_bytes", artifact_bytes, "bytes");
    rep.metric("pipeline.warm.bind_ms", median(warm_bind.values()) * 1e3, "ms");
  }
}

}  // namespace

void run_dect(const Options& opt, Report& rep) {
  // Only jit writes to the store; the other kernels never touch it.
  reset_dir(opt.store_dir());
  if (opt.trace) {
    Tracer tracer;
    double untraced_s = 0.0, traced_s = 0.0;
    const double per_half = opt.seconds / (2.0 * static_cast<double>(std::size(kKinds)));
    int tid = 0;
    for (const Kind& k : kKinds)
      trace_kind(k, tid++, per_half, opt, rep, tracer, untraced_s, traced_s);
    report_trace(rep, opt, tracer, traced_s, traced_s, untraced_s);
    return;
  }

  const Kind& k = kKinds[kTimed];
  std::unique_ptr<Sim> sp;
  const double setup_s = timed_setup(kSetups, [&](int) {
    sp.reset();
    sp = std::make_unique<Sim>(make_sim(k.engine, k.structural, opt.store_dir()));
  });
  Sim& s = *sp;
  s.perf.start();
  while (keep_going(s.perf, opt.seconds)) step(s, opt.seed, nullptr);
  s.perf.stop();
  rep.metric("cycles_per_s." + s.name, s.perf.rate(), "1/s");
  rep.metric("steps", static_cast<double>(s.steps), "count");
  check_outputs(s, k, opt, rep);
  report_end_to_end(rep, setup_s, s.perf);
}

}  // namespace perfbench
