// session_mix: a closed loop of two clients driving service::Service
// in-process through handle_line, each on its own sessions.
//
// Sessions open the quickstart and dect builtins on compiled, seeded
// generated specs (verify::generate -> to_text) on compiled, and seeded
// specs on jit whose artifacts set-up pre-warmed into the run's private
// store. Each client draws a seeded op mix of run (1..1000 cycles), poke,
// checkpoint, fork and open/close churn against probe, delta trace and an
// occasional full-history trace. A session is closed once its history
// reaches kMaxCycles rows, so full traces and checkpoints (which copy the
// history) see tens of thousands of rows whatever the machine speed.
//
// The op proportions, the source rotation, the live-session range and
// kMaxCycles are assumptions, not measurements: the repository records no
// service traffic to derive them from (perfbench/workloads.json says so
// too). Change them only together with the benchmark's recorded figures.
//
// Oracle: every reply must parse with "ok": true, and after the timed
// region every session's trace rows are compared with the same op
// sequence replayed directly through pipeline::compile + Instance. A fork
// is replayed by what it means — its parent's ops up to the checkpoint,
// then its own, on one fresh instance — not by the service's snapshot
// mechanism, and forks of quickstart/dect sessions are reported by a check
// of their own.
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "common.h"
#include "engine/engine.h"
#include "pipeline/pipeline.h"
#include "service/json.h"
#include "service/service.h"
#include "verify/gen.h"

namespace perfbench {

namespace {

using namespace asicpp;
using service::Json;

constexpr int kClients = 2;
constexpr std::uint64_t kMaxCycles = 20000;  ///< history rows before churn
constexpr std::size_t kMinLive = 3, kMaxLive = 5;
constexpr int kRotation = 120;      ///< opens per source rotation
constexpr int kBlock = 20;          ///< opens per block of the exact mix
constexpr int kSpecsCompiled = 48;  ///< generated specs opened on compiled
constexpr int kSpecsJit = 2;        ///< generated specs opened on jit
static_assert(kSpecsCompiled * 5 == kRotation * 2, "each compiled spec once per rotation");
static_assert(kRotation % kBlock == 0 && kBlock % 20 == 0, "whole blocks of the exact mix");

const char* const kOps[] = {"open", "run",   "poke",  "probe",
                            "trace", "checkpoint", "fork", "close"};

/// A design a session can be opened from.
struct Source {
  std::string label;
  std::string engine;
  std::string design;  ///< builtin name, or empty for spec text
  std::string spec;
  std::vector<std::string> probes;
  std::string poke_net;  ///< empty: nothing to poke
  std::string open_line;
};

/// One state-changing op of a session, for the replay oracle.
struct Op {
  enum Kind { kRun, kPoke } kind = kRun;
  std::uint64_t cycles = 0;
  double value = 0.0;
};

struct SessionRec {
  int source = 0;
  std::string id;
  std::vector<Op> ops;
  int parent = -1;              ///< forked from this record of the same client
  std::size_t parent_ops = 0;   ///< parent's op count at the checkpoint
  std::vector<std::pair<std::string, std::size_t>> ckpts;  ///< name, op count
  /// Every trace read: rows [from, to) and the chained hash of the rows.
  struct Read {
    std::uint64_t from = 0, to = 0, hash = 0;
  };
  std::vector<Read> reads;
  std::uint64_t checkpoints = 0;
  std::uint64_t base_cycle = 0;  ///< history length when the session began
  std::uint64_t cycle = 0;
  std::uint64_t last_read = 0;
};

struct Client {
  int index = 0;
  Rng rng{1};
  std::vector<int> rotation;  ///< session sources, opened in this order
  std::size_t opened = 0;
  std::vector<SessionRec> recs;
  std::vector<int> live;  ///< indices into recs
  std::map<std::string, Samples> by_op;  ///< latencies per op type
  Path path;                             ///< every request
  std::uint64_t requests = 0, failed = 0;
  // traced-run counters
  std::uint64_t trace_replies = 0, trace_bytes = 0, history_rows = 0;
  std::uint64_t store_lookups = 0, store_hits = 0;
  double thread_s = 0.0;  ///< wall time of this client's thread body
  std::string error;  ///< first failure, for the report
  /// Trace mode: also parse each request line and re-dump each reply, in
  /// the untraced and the traced half alike, to time the Json layer.
  bool time_json = false;
};

struct Shared {
  service::Service svc;
  std::vector<Source> sources;
  std::string store_dir;
  bool repoke_forks = true;  ///< re-apply the parent's pin drive to a fork
};

constexpr std::uint64_t kHashSeed = 0xcbf29ce484222325ULL;

std::uint64_t row_hash(const std::vector<double>& row) {
  std::uint64_t h = kHashSeed;
  for (const double v : row) h = fold(h, v);
  return h;
}

std::uint64_t row_hash(const Json& row) {
  std::uint64_t h = kHashSeed;
  for (const Json& v : row.items()) h = fold(h, v.as_number());
  return h;
}

std::uint64_t chain(std::uint64_t h, std::uint64_t row) {
  return (h ^ row) * 0x100000001b3ULL;
}

std::string open_line(const Source& s, const std::string& store_dir) {
  Json j = Json::object();
  j.set("op", Json::string("open"));
  j.set("engine", Json::string(s.engine));
  if (!s.design.empty())
    j.set("design", Json::string(s.design));
  else
    j.set("spec", Json::string(s.spec));
  j.set("store_dir", Json::string(store_dir));
  return j.dump();
}

/// Seeded generated specs inside the engine's domain.
std::vector<std::string> spec_pool(std::uint64_t seed, int count,
                                   const std::string& engine) {
  const engine::Engine& eng = engine::Registry::global().at(engine);
  std::vector<std::string> out;
  for (std::uint64_t k = 0; static_cast<int>(out.size()) < count; ++k) {
    const verify::Spec spec = verify::generate(
        verify::GenConfig{}, static_cast<unsigned>(mix(seed, k) & 0x7fffffff));
    if (!eng.domain_limit(spec).empty() || !eng.caps().checkpointable) continue;
    out.push_back(verify::to_text(spec));
  }
  return out;
}

void build_sources(Shared& sh, std::uint64_t seed) {
  sh.sources.clear();
  const auto add = [&](const std::string& label, const std::string& engine,
                       const std::string& design, const std::string& spec,
                       std::vector<std::string> probes, const std::string& poke) {
    Source s;
    s.label = label;
    s.engine = engine;
    s.design = design;
    s.spec = spec;
    s.probes = std::move(probes);
    s.poke_net = poke;
    s.open_line = open_line(s, sh.store_dir);
    sh.sources.push_back(std::move(s));
  };
  add("quickstart", "compiled", "quickstart", "", service::make_design("quickstart")->default_probes(), "x");
  add("dect", "compiled", "dect", "", service::make_design("dect")->default_probes(), "hold_request");
  int k = 0;
  for (const std::string& text : spec_pool(mix(seed, 11), kSpecsCompiled, "compiled"))
    add("spec" + std::to_string(k++), "compiled", "", text,
        verify::from_text(text).probes(), "");
  k = 0;
  for (const std::string& text : spec_pool(mix(seed, 12), kSpecsJit, "jit"))
    add("jitspec" + std::to_string(k++), "jit", "", text,
        verify::from_text(text).probes(), "");
}

/// A client's seeded rotation of session sources: kRotation opens in
/// blocks of kBlock, each block holding 25% quickstart, 20% dect, 40%
/// compiled specs (the next ones of a seeded order, so each spec once per
/// rotation) and 15% jit specs, shuffled within the block. Every stretch
/// of opens then holds the mix to within a block, so runs differ in the
/// designs and ops drawn, not in how many heavy DECT sessions the part of
/// the rotation they reached happened to hold; a large spec pool keeps
/// the seed's draw of spec sizes from moving the run's cost much.
std::vector<int> source_rotation(Rng& rng) {
  std::vector<int> specs;
  for (int k = 0; k < kSpecsCompiled; ++k) specs.push_back(2 + k);
  for (std::size_t i = specs.size() - 1; i > 0; --i)
    std::swap(specs[i], specs[rng.between(0, i)]);
  std::vector<int> r;
  std::size_t next_spec = 0;
  int next_jit = 0;
  for (int b = 0; b < kRotation / kBlock; ++b) {
    std::vector<int> block;
    block.insert(block.end(), kBlock / 4, 0);
    block.insert(block.end(), kBlock / 5, 1);
    for (int k = 0; k < kBlock * 2 / 5; ++k) block.push_back(specs[next_spec++]);
    for (int k = 0; k < kBlock * 3 / 20; ++k)
      block.push_back(2 + kSpecsCompiled + next_jit++ % kSpecsJit);
    for (std::size_t i = block.size() - 1; i > 0; --i)
      std::swap(block[i], block[rng.between(0, i)]);
    r.insert(r.end(), block.begin(), block.end());
  }
  return r;
}

int pick_source(Client& c) { return c.rotation[c.opened++ % c.rotation.size()]; }

/// Send one request; returns the parsed reply (null Json on failure).
Json call(Client& c, Shared& sh, const std::string& op, const std::string& line,
          TraceThread* tt) {
  const auto req = static_cast<std::int64_t>(c.requests);
  if (c.time_json) {
    Span sp(tt, "service.json.parse", "service", req);
    Json parsed;
    std::string err;
    Json::parse(line, &parsed, &err);
  }
  std::string reply;
  const std::string span_name = tt != nullptr ? "service." + op : std::string();
  const Clock::time_point t0 = Clock::now();
  {
    Span sp(tt, span_name, "service", req);
    reply = sh.svc.handle_line(line);
  }
  const double dt = seconds_between(t0, Clock::now());
  ++c.requests;
  Json j;
  std::string err;
  bool ok;
  {
    Span sp(tt, "service.json.parse", "service", req);
    ok = Json::parse(reply, &j, &err) && j.get_bool("ok");
  }
  if (c.time_json) {
    Span sp(tt, "service.json.dump", "service", req);
    (void)j.dump();
  }
  if (op == "trace") {
    c.trace_bytes += reply.size();
    ++c.trace_replies;
  }
  if (!ok) {
    ++c.failed;
    c.by_op[op].fail();
    c.path.fail();
    if (c.error.empty()) c.error = op + ": " + reply.substr(0, 200);
    return Json();
  }
  c.by_op[op].add(dt);
  c.path.add(dt, 1.0);
  return j;
}

void do_open(Client& c, Shared& sh, int source, TraceThread* tt) {
  Json r = call(c, sh, "open", sh.sources[static_cast<std::size_t>(source)].open_line, tt);
  if (r.is_null()) return;
  if (sh.sources[static_cast<std::size_t>(source)].engine == "jit") {
    ++c.store_lookups;
    c.store_hits += r.get_bool("store_hit");
  }
  SessionRec s;
  s.source = source;
  s.id = r.get_string("session");
  c.recs.push_back(std::move(s));
  c.live.push_back(static_cast<int>(c.recs.size() - 1));
}

void do_close(Client& c, Shared& sh, std::size_t slot, TraceThread* tt) {
  SessionRec& s = c.recs[static_cast<std::size_t>(c.live[slot])];
  call(c, sh, "close", R"({"op":"close","session":")" + s.id + "\"}", tt);
  c.live.erase(c.live.begin() + static_cast<long>(slot));
}

void read_trace(Client& c, SessionRec& s, const Json& r) {
  const auto from = static_cast<std::size_t>(r.get_number("from"));
  const Json* rows = r.get("rows");
  if (rows == nullptr) return;
  std::uint64_t h = kHashSeed;
  for (const Json& row : rows->items()) h = chain(h, row_hash(row));
  const std::size_t n = rows->items().size();
  s.reads.push_back(SessionRec::Read{from, from + n, h});
  c.history_rows += static_cast<std::uint64_t>(r.get_number("cycle"));
  s.last_read = from + n;
}

/// One op of the seeded mix.
void client_step(Client& c, Shared& sh, TraceThread* tt) {
  if (c.live.size() < kMinLive) {
    do_open(c, sh, pick_source(c), tt);
    return;
  }
  const std::size_t slot = c.rng.between(0, c.live.size() - 1);
  const int ri = c.live[slot];
  SessionRec& s = c.recs[static_cast<std::size_t>(ri)];
  const Source& src = sh.sources[static_cast<std::size_t>(s.source)];
  if (s.cycle >= kMaxCycles) {
    do_close(c, sh, slot, tt);
    return;
  }
  const double u = c.rng.unit() * 100.0;
  if (u < 30.0) {
    const std::uint64_t n = c.rng.between(1, 1000);
    Json r = call(c, sh, "run",
                  R"({"op":"run","session":")" + s.id + R"(","cycles":)" +
                      std::to_string(n) + "}",
                  tt);
    if (!r.is_null()) {
      s.ops.push_back(Op{Op::kRun, n, 0.0});
      s.cycle += n;
    }
  } else if (u < 44.0 && !src.poke_net.empty()) {
    const double v = src.poke_net == "hold_request"
                         ? static_cast<double>(c.rng.between(0, 1))
                         : std::round((c.rng.unit() * 4.0 - 2.0) * 256.0) / 256.0;
    Json r = call(c, sh, "poke",
                  R"({"op":"poke","session":")" + s.id + R"(","net":")" +
                      src.poke_net + R"(","value":)" + json_number(v) + "}",
                  tt);
    if (!r.is_null()) s.ops.push_back(Op{Op::kPoke, 0, v});
  } else if (u < 64.0) {
    const std::string& net = src.probes[c.rng.between(0, src.probes.size() - 1)];
    call(c, sh, "probe",
         R"({"op":"probe","session":")" + s.id + R"(","net":")" + net + "\"}", tt);
  } else if (u < 84.0) {
    const bool full = u >= 82.0;
    const std::uint64_t since = full ? 0 : s.last_read;
    Json r = call(c, sh, "trace",
                  R"({"op":"trace","session":")" + s.id + R"(","since":)" +
                      std::to_string(since) + "}",
                  tt);
    if (!r.is_null()) read_trace(c, s, r);
  } else if (u < 90.0 || (u < 93.0 && s.ckpts.empty())) {
    // Two rolling names per session, as a client keeping its last two
    // snapshots would; the service replaces a checkpoint of the same name.
    const std::string name = "c" + std::to_string(s.checkpoints++ % 2);
    Json r = call(c, sh, "checkpoint",
                  R"({"op":"checkpoint","session":")" + s.id + R"(","name":")" +
                      name + "\"}",
                  tt);
    if (!r.is_null()) s.ckpts.emplace_back(name, s.ops.size());
  } else if (u < 93.0 && c.live.size() < kMaxLive) {
    const auto [name, at] = s.ckpts.back();
    Json r = call(c, sh, "fork",
                  R"({"op":"fork","session":")" + s.id + R"(","from":")" +
                      name + "\"}",
                  tt);
    if (r.is_null()) return;
    SessionRec child;
    child.source = s.source;
    child.id = r.get_string("session");
    child.parent = ri;
    child.parent_ops = at;
    std::uint64_t cyc = s.base_cycle;
    for (std::size_t i = 0; i < at; ++i)
      if (s.ops[i].kind == Op::kRun) cyc += s.ops[i].cycles;
    child.base_cycle = cyc;
    child.cycle = cyc;
    if (static_cast<std::uint64_t>(r.get_number("cycle")) != cyc) {
      ++c.failed;
      if (c.error.empty()) c.error = "fork resumed at the wrong cycle";
    }
    if (sh.sources[static_cast<std::size_t>(child.source)].engine == "jit") {
      ++c.store_lookups;
      c.store_hits += r.get_bool("store_hit");
    }
    // The child starts from a freshly built design whose pins are at their
    // defaults: the snapshot carries the engine's state, not the drive on
    // a poked pin. Re-apply the drive in force at the checkpoint, as the
    // service's own fork test applies its stimulus to the child.
    if (sh.repoke_forks && !src.poke_net.empty()) {
      for (std::size_t i = at; i-- > 0;) {
        if (s.ops[i].kind != Op::kPoke) continue;
        const double v = s.ops[i].value;
        Json p = call(c, sh, "poke",
                      R"({"op":"poke","session":")" + child.id + R"(","net":")" +
                          src.poke_net + R"(","value":)" + json_number(v) + "}",
                      tt);
        if (!p.is_null()) child.ops.push_back(Op{Op::kPoke, 0, v});
        break;
      }
    }
    c.recs.push_back(std::move(child));
    c.live.push_back(static_cast<int>(c.recs.size() - 1));
  } else if (u < 96.5 && c.live.size() < kMaxLive) {
    do_open(c, sh, pick_source(c), tt);
  } else if (c.live.size() > kMinLive) {
    do_close(c, sh, slot, tt);
  } else {
    call(c, sh, "probe",
         R"({"op":"probe","session":")" + s.id + R"(","net":")" + src.probes[0] + "\"}",
         tt);
  }
}

// --- replay oracle ----------------------------------------------------------

struct Replay {
  std::unique_ptr<service::Design> design;
  pipeline::CompileResult compiled;
};

pipeline::CompileResult compile_source(const Source& src, const std::string& store,
                                       std::unique_ptr<service::Design>* design) {
  pipeline::CompileRequest req;
  req.engine = src.engine;
  req.store_dir = store;
  if (!src.design.empty()) {
    *design = service::make_design(src.design);
    req.design = &(*design)->scheduler();
    req.probes = src.probes;
  } else {
    req.spec_text = src.spec;
  }
  return pipeline::compile(req);
}

/// Apply ops[0..n) of `rec`, appending each produced row's hash to `rows`.
void apply_ops(Replay& rp, const Source& src, const SessionRec& rec,
               std::size_t n, std::vector<std::uint64_t>& rows) {
  std::vector<double> row(src.probes.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Op& op = rec.ops[i];
    if (op.kind == Op::kPoke) {
      rp.compiled.instance->poke(src.poke_net, op.value);
      continue;
    }
    for (std::uint64_t k = 0; k < op.cycles; ++k) {
      rp.compiled.instance->cycle();
      for (std::size_t p = 0; p < src.probes.size(); ++p)
        row[p] = rp.compiled.instance->probe(src.probes[p]);
      rows.push_back(row_hash(row));
    }
  }
}

/// Replay record `ri` up to its own op `n`. A fork resumes where its
/// parent stood at the checkpoint (README: "resume from a checkpoint
/// byte-identically"), so it is replayed as the parent's ops up to the
/// checkpoint, pokes included, followed by its own ops, all on one freshly
/// compiled instance. No snapshot is saved or restored: the oracle does
/// not share the service's fork mechanism.
void replay(const Client& c, const Shared& sh, int ri, std::size_t n,
            std::vector<std::uint64_t>& rows, Replay& rp) {
  const SessionRec& rec = c.recs[static_cast<std::size_t>(ri)];
  const Source& src = sh.sources[static_cast<std::size_t>(rec.source)];
  if (rec.parent >= 0) {
    replay(c, sh, rec.parent, rec.parent_ops, rows, rp);
  } else {
    rp.compiled = compile_source(src, sh.store_dir, &rp.design);
    if (!rp.compiled.ok) throw std::runtime_error("replay compile: " + rp.compiled.error);
  }
  apply_ops(rp, src, rec, n, rows);
}

/// Trace reads of `rec` whose rows differ from the replayed `rows`.
std::uint64_t bad_reads(const SessionRec& rec, const std::vector<std::uint64_t>& rows) {
  std::uint64_t bad = 0;
  for (const SessionRec::Read& r : rec.reads) {
    if (r.to > rows.size()) {
      ++bad;
      continue;
    }
    std::uint64_t h = kHashSeed;
    for (std::uint64_t i = r.from; i < r.to; ++i) h = chain(h, rows[i]);
    bad += h != r.hash;
  }
  return bad;
}

/// Oracle verdicts over one group of sessions.
struct Verdict {
  std::uint64_t sessions = 0, bad_sessions = 0, rows = 0;
  void add(const Verdict& o) {
    sessions += o.sessions;
    bad_sessions += o.bad_sessions;
    rows += o.rows;
  }
};

/// Replay every session of every client (one thread per client) and
/// record two checks: sessions opened directly or forked from a spec
/// session, and forks of quickstart/dect sessions, whose poked pins are
/// part of the state the child must resume from.
void check_replays(const std::vector<Client>& clients, const Shared& sh, Report& rep) {
  std::vector<Verdict> plain(clients.size()), design_forks(clients.size());
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < clients.size(); ++k)
    threads.emplace_back([&, k] {
      const Client& c = clients[k];
      for (std::size_t i = 0; i < c.recs.size(); ++i) {
        const SessionRec& rec = c.recs[i];
        const Source& src = sh.sources[static_cast<std::size_t>(rec.source)];
        std::uint64_t bad = 0;
        try {
          Replay rp;
          std::vector<std::uint64_t> rows;
          replay(c, sh, static_cast<int>(i), rec.ops.size(), rows, rp);
          bad = bad_reads(rec, rows);
        } catch (const std::exception& ex) {  // the whole session fails
          std::fprintf(stderr, "session %s: replay failed: %s\n", rec.id.c_str(), ex.what());
          bad = rec.reads.size() + 1;
        }
        if (bad != 0)
          std::fprintf(stderr, "session %s (%s%s): %llu reads differ from the replay\n",
                       rec.id.c_str(), src.label.c_str(), rec.parent >= 0 ? ", forked" : "",
                       static_cast<unsigned long long>(bad));
        Verdict& v = rec.parent >= 0 && !src.design.empty() ? design_forks[k] : plain[k];
        ++v.sessions;
        v.bad_sessions += bad != 0;
        for (const SessionRec::Read& r : rec.reads) v.rows += r.to - r.from;
      }
    });
  for (std::thread& t : threads) t.join();
  Verdict p, f;
  for (std::size_t k = 0; k < clients.size(); ++k) {
    p.add(plain[k]);
    f.add(design_forks[k]);
  }
  rep.attempts(p.sessions + f.sessions, p.bad_sessions + f.bad_sessions);
  rep.check(p.bad_sessions == 0 && p.rows > 0,
            "trace rows of " + std::to_string(p.sessions) +
                " opened and spec-forked sessions equal a direct pipeline replay (" +
                std::to_string(p.rows) + " rows)");
  rep.check(f.bad_sessions == 0,
            "trace rows of " + std::to_string(f.sessions - f.bad_sessions) + " of " +
                std::to_string(f.sessions) +
                " forked quickstart/dect sessions equal their parent's continuation (" +
                std::to_string(f.rows) + " rows)");
}

// --- checkpoint layer -------------------------------------------------------

constexpr std::uint64_t kCkptCycles = 1000;
constexpr int kCkptReps = 20;

struct CkptStats {
  Samples save, restore;
  double bytes = 0.0;
  std::uint64_t count = 0;
};

/// Instance::save_state and restore_state on one source of each kind
/// (quickstart, dect, a compiled spec, a jit spec): a fresh instance runs
/// kCkptCycles cycles, then is saved and restored into a second fresh
/// instance kCkptReps times. Outside every timed and traced interval.
CkptStats measure_ckpt(const Shared& sh) {
  CkptStats ck;
  for (const std::size_t si : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                               std::size_t{2 + kSpecsCompiled}}) {
    const Source& src = sh.sources[si];
    Replay a, b;
    a.compiled = compile_source(src, sh.store_dir, &a.design);
    b.compiled = compile_source(src, sh.store_dir, &b.design);
    if (!a.compiled.ok || !b.compiled.ok)
      throw std::runtime_error("checkpoint source " + src.label + " did not compile");
    for (std::uint64_t k = 0; k < kCkptCycles; ++k) a.compiled.instance->cycle();
    for (int r = 0; r < kCkptReps; ++r) {
      std::ostringstream os;
      Clock::time_point t0 = Clock::now();
      if (!a.compiled.instance->save_state(os))
        throw std::runtime_error(src.label + ": no snapshot surface");
      ck.save.add(seconds_between(t0, Clock::now()));
      const std::string blob = os.str();
      ck.bytes += static_cast<double>(blob.size());
      ++ck.count;
      std::istringstream is(blob);
      t0 = Clock::now();
      b.compiled.instance->restore_state(is);
      ck.restore.add(seconds_between(t0, Clock::now()));
    }
  }
  return ck;
}

// --- driving the clients ------------------------------------------------------

void setup(Shared& sh, const Options& opt) {
  sh.store_dir = opt.store_dir();
  sh.repoke_forks = opt.repoke_forks;
  build_sources(sh, opt.seed);
  // Pre-warm every jit source: the host compile lands here, not in a
  // latency sample.
  for (const Source& s : sh.sources) {
    if (s.engine != "jit") continue;
    const std::string r = sh.svc.handle_line(s.open_line);
    Json j;
    std::string err;
    if (!Json::parse(r, &j, &err) || !j.get_bool("ok"))
      throw std::runtime_error("jit pre-warm failed: " + r.substr(0, 200));
    sh.svc.handle_line(R"({"op":"close","session":")" + j.get_string("session") + "\"}");
  }
}

std::vector<Client> make_clients(const Options& opt) {
  std::vector<Client> clients(kClients);
  for (int i = 0; i < kClients; ++i) {
    Client& c = clients[static_cast<std::size_t>(i)];
    c.index = i;
    c.rng = Rng(mix(opt.seed, 100 + static_cast<std::uint64_t>(i)));
    c.rotation = source_rotation(c.rng);
    c.path.name = "request";
    c.time_json = opt.trace;
  }
  return clients;
}

/// Run every client on its own thread: `fixed_ops` ops each, or (0) for
/// opt.seconds. Returns every request as one path over the loop's wall
/// interval.
Path run_clients(std::vector<Client>& clients, Shared& sh, const Options& opt,
                 std::uint64_t fixed_ops, Tracer* tracer) {
  Path all;
  all.name = "request";
  std::vector<std::thread> threads;
  all.start();
  for (Client& c : clients) {
    c.path.begin = all.begin;
    threads.emplace_back([&c, &sh, &opt, fixed_ops, tracer] {
      const Clock::time_point t0 = Clock::now();
      std::unique_ptr<TraceThread> tt;
      if (tracer != nullptr)
        tt = std::make_unique<TraceThread>(*tracer, c.index,
                                           "bench.client" + std::to_string(c.index));
      try {
        if (fixed_ops > 0) {
          for (std::uint64_t i = 0; i < fixed_ops; ++i) client_step(c, sh, tt.get());
        } else {
          while (keep_going(c.path, opt.seconds)) client_step(c, sh, tt.get());
        }
      } catch (const std::exception& ex) {  // reported as a failed request
        ++c.failed;
        if (c.error.empty()) c.error = ex.what();
      }
      tt.reset();  // close the root span inside the measured interval
      c.thread_s = seconds_between(t0, Clock::now());
    });
  }
  for (std::thread& t : threads) t.join();
  all.stop();
  for (const Client& c : clients) all.merge(c.path);
  return all;
}

/// Reply checks and the replay oracle over one finished set of clients.
void check_clients(const std::vector<Client>& clients, const Shared& sh, Report& rep) {
  std::uint64_t requests = 0, failed = 0;
  for (const Client& c : clients) {
    requests += c.requests;
    failed += c.failed;
    if (!c.error.empty()) std::fprintf(stderr, "client %d: %s\n", c.index, c.error.c_str());
  }
  rep.attempts(requests, failed);
  rep.check(failed == 0, "every reply parsed with \"ok\":true (" +
                             std::to_string(requests) + " requests)");
  check_replays(clients, sh, rep);
}

}  // namespace

void run_session_mix(const Options& opt, Report& rep) {
  std::unique_ptr<Shared> sh;
  const double setup_s = timed_setup(5, [&](int) {
    sh.reset();  // the previous service's sessions go before its store
    reset_dir(opt.store_dir());
    sh = std::make_unique<Shared>();
    setup(*sh, opt);
  });

  if (!opt.trace) {
    std::vector<Client> clients = make_clients(opt);
    const Path all = run_clients(clients, *sh, opt, 0, nullptr);
    check_clients(clients, *sh, rep);
    rep.metric("requests_per_s", all.rate(), "1/s");
    rep.metric("request_p50_ms", median(all.lat.values()) * 1e3, "ms");
    if (const auto q = percentile(all.lat.values(), 99.0))
      rep.metric("request_p99_ms", *q * 1e3, "ms");
    rep.metric("requests", static_cast<double>(all.lat.size()), "count");
    std::map<std::string, Samples> by_op;
    for (const Client& c : clients)
      for (const auto& [op, lat] : c.by_op) by_op[op].append(lat);
    for (const auto& [op, lat] : by_op) report_latency(rep, "request." + op, lat);
    report_end_to_end(rep, setup_s, all);
    return;
  }

  // Traced run: the same fixed op count per client twice, untraced then
  // traced, each half on a new Service with new clients so both do the
  // same work from the same state.
  const auto ops = static_cast<std::uint64_t>(opt.seconds * 400.0);
  std::vector<Client> untraced = make_clients(opt);
  const Path first = run_clients(untraced, *sh, opt, ops, nullptr);
  const double untraced_s = seconds_between(first.begin, first.end);
  check_clients(untraced, *sh, rep);
  sh = std::make_unique<Shared>();
  setup(*sh, opt);  // the store is warm now: no host compile
  std::vector<Client> clients = make_clients(opt);
  Tracer tracer;
  const Path all = run_clients(clients, *sh, opt, ops, &tracer);
  const double traced_s = seconds_between(all.begin, all.end);
  double thread_s = 0.0;
  for (const Client& c : clients) thread_s += c.thread_s;
  check_clients(clients, *sh, rep);

  std::uint64_t trace_replies = 0, trace_bytes = 0, history_rows = 0, lookups = 0, hits = 0;
  std::map<std::string, Samples> by_op;
  for (const Client& c : clients) {
    for (const auto& [op, lat] : c.by_op) by_op[op].append(lat);
    trace_replies += c.trace_replies;
    trace_bytes += c.trace_bytes;
    history_rows += c.history_rows;
    lookups += c.store_lookups;
    hits += c.store_hits;
  }
  for (const char* op : kOps) {
    const auto it = by_op.find(op);
    if (it == by_op.end() || it->second.empty()) continue;
    const std::vector<double>& v = it->second.values();
    rep.metric(std::string("service.") + op + ".p50_ms", median(v) * 1e3, "ms");
    if (const auto q = percentile(v, 90.0))
      rep.metric(std::string("service.") + op + ".p90_ms", *q * 1e3, "ms");
  }
  const std::vector<SpanRecord> spans = tracer.spans();
  for (const char* what : {"parse", "dump"}) {
    const std::vector<double> d = span_durations(spans, std::string("service.json.") + what);
    double sum = 0.0;
    for (const double x : d) sum += x;
    if (!d.empty())
      rep.metric(std::string("service.json.") + what + "_us",
                 sum / static_cast<double>(d.size()) * 1e6, "us");
  }
  if (trace_replies > 0) {
    rep.metric("service.trace.reply_bytes",
               static_cast<double>(trace_bytes) / static_cast<double>(trace_replies), "bytes");
    rep.metric("service.history_rows",
               static_cast<double>(history_rows) / static_cast<double>(trace_replies), "rows");
  }
  if (lookups > 0)
    rep.metric("pipeline.store_hit_frac",
               static_cast<double>(hits) / static_cast<double>(lookups), "frac");
  const CkptStats ck = measure_ckpt(*sh);
  rep.metric("ckpt.save_ms", median(ck.save.values()) * 1e3, "ms");
  rep.metric("ckpt.restore_ms", median(ck.restore.values()) * 1e3, "ms");
  rep.metric("ckpt.bytes", ck.bytes / static_cast<double>(ck.count), "bytes");
  report_trace(rep, opt, tracer, traced_s, thread_s, untraced_s);
}

}  // namespace perfbench
