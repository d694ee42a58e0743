// fuzz_campaign: a differential campaign through verify::diff_run_batch
// over seeded generated specs, two jobs.
//
// Each timed operation generates kBatch specs, round-trips each through
// the text form, and diff-runs the batch on the iterative, levelized,
// compiled, gates and batched axes with the pass and checkpoint axes on.
// cppgen and jit are left out: they run the host compiler once per seed.
// Oracle: every DiffResult::ok() and every text round trip must hold.
#include <cmath>

#include "common.h"
#include "engine/engine.h"
#include "verify/diffrun.h"
#include "verify/gen.h"

namespace perfbench {

namespace {

using namespace asicpp;

constexpr unsigned kJobs = 2;
constexpr std::uint64_t kBatch = 8;  ///< seeds per diff_run_batch call
const std::vector<std::string> kAxes = {"iterative", "levelized", "compiled",
                                        "gates", "batched"};

/// Kernel layer each axis runs on, for the engine-level spans.
std::string axis_layer(const std::string& axis) {
  if (axis == "compiled") return "sim";
  if (axis == "gates") return "netlist";
  if (axis == "batched") return "batch";
  return "sched";
}

struct Campaign {
  verify::DiffOptions diff;
  std::uint64_t seed = 0;
  std::uint64_t next = 0;  ///< next spec index
  Path path;
  std::uint64_t seeds = 0, failed = 0, roundtrip_bad = 0;
  std::uint64_t traces = 0, skipped = 0;
  std::uint64_t breakdown_bad = 0;
};

unsigned spec_seed(std::uint64_t seed, std::uint64_t k) {
  return static_cast<unsigned>(mix(seed, k) & 0x7fffffff);
}

std::vector<verify::Spec> make_specs(Campaign& c, std::uint64_t first,
                                     TraceThread* tt) {
  std::vector<verify::Spec> specs;
  for (std::uint64_t k = first; k < first + kBatch; ++k) {
    const auto req = static_cast<std::int64_t>(k);
    {
      Span sp(tt, "verify.generate", "verify", req);
      specs.push_back(verify::generate(verify::GenConfig{}, spec_seed(c.seed, k)));
    }
    Span sp(tt, "verify.text_roundtrip", "verify", req);
    const std::string text = verify::to_text(specs.back());
    if (verify::to_text(verify::from_text(text)) != text) ++c.roundtrip_bad;
  }
  return specs;
}

void tally(Campaign& c, const std::vector<verify::DiffResult>& results) {
  for (const verify::DiffResult& r : results) {
    ++c.seeds;
    if (!r.ok()) ++c.failed;
    for (const auto* set : {&r.traces, &r.noopt_traces, &r.ckpt_traces})
      for (const verify::EngineTrace& t : *set) {
        ++c.traces;
        if (!t.skip_reason.empty()) ++c.skipped;
      }
  }
}

/// One timed operation: generate, round-trip and diff-run a batch.
void batch_op(Campaign& c, TraceThread* tt) {
  const std::uint64_t first = c.next;
  c.next += kBatch;
  const Clock::time_point t0 = Clock::now();
  const std::vector<verify::Spec> specs = make_specs(c, first, tt);
  std::vector<verify::DiffResult> results;
  {
    Span sp(tt, "verify.diff_run_batch", "verify", static_cast<std::int64_t>(first));
    results = verify::diff_run_batch(specs, c.diff, kJobs);
  }
  c.path.add(seconds_between(t0, Clock::now()), static_cast<double>(kBatch));
  tally(c, results);
}

/// Per-engine breakdown of one spec through Engine::trace / trace_ckpt /
/// the passes-off replay; every ran trace must equal the iterative one.
void breakdown(Campaign& c, std::uint64_t k, TraceThread* tt) {
  const verify::Spec spec = verify::generate(verify::GenConfig{}, spec_seed(c.seed, k));
  const auto req = static_cast<std::int64_t>(k);
  engine::TraceOptions topts;
  topts.store_dir = c.diff.store_dir;
  topts.lanes = c.diff.lanes;
  const std::uint64_t ck = spec.cycles >= 2 ? 1 + spec.cycles / 2 : 0;
  std::vector<std::vector<double>> ref;
  bool have_ref = false;
  for (const std::string& axis : kAxes) {
    const engine::Engine& e = engine::Registry::global().at(axis);
    const std::string layer = axis_layer(axis);
    engine::Trace t;
    {
      Span sp(tt, "engine." + axis + ".trace", layer, req);
      t = e.trace(spec, topts);
    }
    if (!t.fail_reason.empty()) ++c.breakdown_bad;
    if (t.ran && !have_ref) {
      ref = t.values;
      have_ref = true;
    } else if (t.ran && t.values != ref) {
      ++c.breakdown_bad;
    }
    if (e.caps().checkpointable && ck != 0) {
      engine::Trace r;
      {
        Span sp(tt, "engine." + axis + ".trace_ckpt", layer, req);
        r = e.trace_ckpt(spec, topts, ck);
      }
      if (r.ran && t.ran && r.values != t.values) ++c.breakdown_bad;
    }
    if (e.caps().pass_axis) {
      engine::TraceOptions noopt = topts;
      noopt.passes = e.noopt_passes();
      engine::Trace r;
      {
        Span sp(tt, "engine." + axis + ".noopt_trace", layer, req);
        r = e.trace(spec, noopt);
      }
      if (r.ran && t.ran && r.values != t.values) ++c.breakdown_bad;
    }
  }
}

void setup(Campaign& c, const Options& opt) {
  c = Campaign{};
  c.seed = opt.seed;
  c.path.name = "batch";
  c.diff.engines = kAxes;
  c.diff.pass_axis = true;
  c.diff.ckpt_axis = true;
  c.diff.store_dir = opt.store_dir();
  c.diff.workdir = opt.work;
  // Warm the registry and the worker pool on two fixed specs, the same for
  // every workload seed, so set-up does the same work on every run.
  std::vector<verify::Spec> warm;
  for (unsigned k = 0; k < kJobs; ++k)
    warm.push_back(verify::generate(verify::GenConfig{}, k + 1));
  for (const verify::DiffResult& r : verify::diff_run_batch(warm, c.diff, kJobs))
    if (!r.ok()) throw std::runtime_error("warm-up diff failed: " + r.summary());
}

void report_checks(Campaign& c, Report& rep) {
  rep.attempts(c.seeds, c.failed);
  rep.check(c.failed == 0, "DiffResult::ok() on all " + std::to_string(c.seeds) + " seeds");
  rep.check(c.roundtrip_bad == 0, "every spec round-trips through to_text/from_text");
  if (c.roundtrip_bad != 0) rep.attempts(0, c.roundtrip_bad);
}

}  // namespace

void run_fuzz_campaign(const Options& opt, Report& rep) {
  Campaign c;
  reset_dir(opt.store_dir());  // no axis here writes to the store
  const double setup_s = timed_setup(5, [&](int) { setup(c, opt); });

  if (!opt.trace) {
    c.path.start();
    while (keep_going(c.path, opt.seconds)) batch_op(c, nullptr);
    c.path.stop();
    report_checks(c, rep);
    rep.metric("seeds_per_s", c.path.rate(), "1/s");
    rep.metric("seeds", static_cast<double>(c.seeds), "count");
    report_end_to_end(rep, setup_s, c.path);
    return;
  }

  // Traced run: a fixed number of batches plus a per-engine breakdown of
  // one spec per batch, untraced then traced.
  const auto batches = static_cast<std::uint64_t>(std::ceil(opt.seconds * 12.0));
  const auto half = [&](TraceThread* tt) {
    for (std::uint64_t b = 0; b < batches; ++b) {
      const std::uint64_t first = c.next;
      batch_op(c, tt);
      breakdown(c, first, tt);
    }
  };
  Clock::time_point t0 = Clock::now();
  half(nullptr);
  const double untraced_s = seconds_between(t0, Clock::now());
  Tracer tracer;
  t0 = Clock::now();
  {
    TraceThread tt(tracer, 0, "bench.fuzz_campaign");
    half(&tt);
  }
  const double traced_s = seconds_between(t0, Clock::now());
  report_checks(c, rep);
  rep.attempts(batches * 2, c.breakdown_bad);
  rep.check(c.breakdown_bad == 0,
            "Engine::trace, trace_ckpt and passes-off replays agree per spec");

  const std::vector<SpanRecord> spans = tracer.spans();
  const auto mean_ms = [&](const std::string& name, const std::string& metric) {
    const std::vector<double> d = span_durations(spans, name);
    if (d.empty()) return;
    double s = 0.0;
    for (const double x : d) s += x;
    rep.metric(metric, s / static_cast<double>(d.size()) * 1e3, "ms");
  };
  mean_ms("verify.generate", "verify.generate_ms");
  mean_ms("verify.text_roundtrip", "verify.text_roundtrip_ms");
  for (const std::string& axis : kAxes) {
    mean_ms("engine." + axis + ".trace", "engine." + axis + ".trace_ms");
    mean_ms("engine." + axis + ".trace_ckpt", "engine." + axis + ".trace_ckpt_ms");
    mean_ms("engine." + axis + ".noopt_trace", "engine." + axis + ".noopt_trace_ms");
  }
  rep.metric("verify.skip_frac",
             static_cast<double>(c.skipped) / static_cast<double>(c.traces), "frac");

  // Seed-parallel speedup: jobs 1 against jobs 2 on the same slice.
  std::vector<verify::Spec> slice;
  for (std::uint64_t k = 0; k < 4 * kBatch; ++k)
    slice.push_back(verify::generate(verify::GenConfig{}, spec_seed(opt.seed, k)));
  t0 = Clock::now();
  verify::diff_run_batch(slice, c.diff, 1);
  const double serial_s = seconds_between(t0, Clock::now());
  t0 = Clock::now();
  verify::diff_run_batch(slice, c.diff, kJobs);
  const double parallel_s = seconds_between(t0, Clock::now());
  rep.metric("par.seed_speedup", serial_s / parallel_s, "ratio");

  report_trace(rep, opt, tracer, traced_s, traced_s, untraced_s);
}

}  // namespace perfbench
