// The session-based simulation service, driven in-process through the
// same handle_line entry point the asicpp-serve daemon uses: protocol
// round-trips, session lifecycle, poke/probe/trace semantics, checkpoint
// and fork resumption, N concurrent sessions on one cached artifact
// producing traces bit-identical to N solo runs, and the request limits
// (number grammar, nesting depth, run/trace counts).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "pipeline/pipeline.h"
#include "service/json.h"
#include "service/service.h"
#include "verify/gen.h"

namespace asicpp {
namespace {

using service::Json;
using service::Service;

/// Send one request object and parse the response (every response must be
/// valid single-line JSON carrying "ok").
Json rpc(Service& svc, const std::string& line) {
  const std::string reply = svc.handle_line(line);
  Json out;
  std::string err;
  EXPECT_TRUE(Json::parse(reply, &out, &err)) << reply << ": " << err;
  EXPECT_NE(out.get("ok"), nullptr) << reply;
  return out;
}

Json ok_rpc(Service& svc, const std::string& line) {
  Json r = rpc(svc, line);
  EXPECT_TRUE(r.get_bool("ok")) << r.dump() << " for " << line;
  return r;
}

/// Probe rows of a trace response as doubles.
std::vector<std::vector<double>> rows_of(const Json& trace) {
  std::vector<std::vector<double>> rows;
  const Json* arr = trace.get("rows");
  if (arr == nullptr) return rows;
  for (const Json& row : arr->items()) {
    std::vector<double> r;
    for (const Json& v : row.items()) r.push_back(v.as_number());
    rows.push_back(std::move(r));
  }
  return rows;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '\n') out += "\\n";
    else if (c == '"') out += "\\\"";
    else if (c == '\\') out += "\\\\";
    else out += c;
  }
  return out;
}

// --- json unit tests --------------------------------------------------------

TEST(Json, ParseDumpRoundTrip) {
  const std::string text =
      R"({"op":"open","engine":"jit","watch":["x","y"],"n":-2.5,)"
      R"("flag":true,"nothing":null})";
  Json j;
  std::string err;
  ASSERT_TRUE(Json::parse(text, &j, &err)) << err;
  EXPECT_EQ(j.get_string("op"), "open");
  EXPECT_EQ(j.get_number("n"), -2.5);
  EXPECT_TRUE(j.get_bool("flag"));
  ASSERT_NE(j.get("nothing"), nullptr);
  EXPECT_TRUE(j.get("nothing")->is_null());
  ASSERT_NE(j.get("watch"), nullptr);
  EXPECT_EQ(j.get("watch")->items().size(), 2u);
  // Re-parse the dump: the value survives a full round trip.
  Json again;
  ASSERT_TRUE(Json::parse(j.dump(), &again, &err)) << err;
  EXPECT_EQ(again.dump(), j.dump());
}

TEST(Json, ParseErrorsArePositioned) {
  Json j;
  std::string err;
  EXPECT_FALSE(Json::parse("{\"a\":}", &j, &err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(Json::parse("", &j, &err));
  EXPECT_FALSE(Json::parse("{\"a\":1} trailing", &j, &err));
}

TEST(Json, StringEscapesRoundTrip) {
  Json j = Json::object();
  j.set("s", Json::string("a\"b\\c\nd\te"));
  Json back;
  std::string err;
  ASSERT_TRUE(Json::parse(j.dump(), &back, &err)) << err;
  EXPECT_EQ(back.get_string("s"), "a\"b\\c\nd\te");
}

/// The serialization dump() must keep: printf's %.17g, null when not finite.
std::string printf_reference(double d) {
  if (!std::isfinite(d)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  return buf;
}

/// Seeded doubles: raw bit patterns and scaled integers, then the edge
/// values (signed zeros, subnormals, DBL_MIN/DBL_MAX, non-finite).
std::vector<double> property_doubles() {
  std::vector<double> v;
  std::mt19937_64 rng(20260);
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t bits = rng();
    double d;
    std::memcpy(&d, &bits, sizeof d);
    v.push_back(d);
    const auto mant = static_cast<std::int64_t>(rng() >> (rng() % 64));
    v.push_back(std::ldexp(static_cast<double>(mant),
                           -static_cast<int>(rng() % 48)));
  }
  const double lim[] = {0.0,
                        -0.0,
                        std::numeric_limits<double>::denorm_min(),
                        -std::numeric_limits<double>::denorm_min(),
                        DBL_MIN - std::numeric_limits<double>::denorm_min(),
                        DBL_MIN,
                        DBL_MAX,
                        -DBL_MAX,
                        0.1,
                        1e21,
                        1e-5,
                        123456789012345678.0,
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity(),
                        std::numeric_limits<double>::quiet_NaN()};
  v.insert(v.end(), std::begin(lim), std::end(lim));
  return v;
}

TEST(Json, NumberDumpMatchesPrintf17g) {
  for (const double d : property_doubles())
    ASSERT_EQ(Json::number(d).dump(), printf_reference(d))
        << std::hexfloat << d;
}

TEST(Json, NumberRoundTripsBitExactly) {
  for (const double d : property_doubles()) {
    if (!std::isfinite(d)) continue;
    Json back;
    std::string err;
    const std::string text = Json::number(d).dump();
    ASSERT_TRUE(Json::parse(text, &back, &err)) << text << ": " << err;
    ASSERT_TRUE(back.is_number()) << text;
    const double got = back.as_number();
    ASSERT_EQ(std::memcmp(&got, &d, sizeof d), 0) << text;
  }
}

TEST(Json, StrictNumberGrammar) {
  for (const char* good : {"0", "-0", "12", "-1.5", "1e3", "2.5E-3", "1e+2",
                           "0.0", "4.9406564584124654e-324"}) {
    Json j;
    std::string err;
    EXPECT_TRUE(Json::parse(good, &j, &err)) << good << ": " << err;
    EXPECT_TRUE(j.is_number()) << good;
  }
  // Each rejected number sits at offset 5 of {"a":_}; the error names it.
  for (const char* bad : {"+1", "0x10", ".5", "01", "inf", "NaN", "-",
                          "1.", "1e", "1e+", "-01", "Infinity", "- 1"}) {
    Json j;
    std::string err;
    const std::string text = std::string(R"({"a":)") + bad + "}";
    EXPECT_FALSE(Json::parse(text, &j, &err)) << text;
    EXPECT_EQ(err.rfind("json offset ", 0), 0u) << text << ": " << err;
  }
  Json j;
  std::string err;
  // An overflow is an error, however it is spelled.
  for (const std::string& big : std::vector<std::string>{
           "1e400", "-1e400", "1.8e308", "1" + std::string(400, '0'),
           "0.0001e99999999999999999999",
           "1" + std::string(500, '0') + "e-100"}) {
    EXPECT_FALSE(Json::parse(R"({"a":)" + big + "}", &j, &err)) << big;
    EXPECT_EQ(err, "json offset 5: number out of range") << big;
  }
  // An underflow reads as a zero of the number's sign.
  for (const std::string& tiny : std::vector<std::string>{
           "1e-400", "-1e-330", "2e-324", "0." + std::string(400, '0') + "1",
           "-" + std::string(300, '9') + "e-99999999999999999999"}) {
    ASSERT_TRUE(Json::parse(tiny, &j, &err)) << tiny << ": " << err;
    ASSERT_TRUE(j.is_number()) << tiny;
    EXPECT_EQ(j.as_number(), 0.0) << tiny;
    EXPECT_EQ(std::signbit(j.as_number()), tiny[0] == '-') << tiny;
  }
  // A long mantissa scaled back into range is no overflow.
  ASSERT_TRUE(Json::parse("1" + std::string(500, '0') + "e-400", &j, &err))
      << err;
  EXPECT_EQ(j.as_number(), 1e100);
  EXPECT_FALSE(Json::parse("[1,+1]", &j, &err));
  EXPECT_EQ(err, "json offset 3: invalid number");
  EXPECT_FALSE(Json::parse("[01]", &j, &err));
  EXPECT_EQ(err, "json offset 1: invalid number (leading zero)");
}

TEST(Json, NestingDepthIsCapped) {
  const int cap = Json::kMaxDepth;
  Json j;
  std::string err;
  const std::string at_cap =
      std::string(static_cast<std::size_t>(cap), '[') +
      std::string(static_cast<std::size_t>(cap), ']');
  EXPECT_TRUE(Json::parse(at_cap, &j, &err)) << err;
  const std::string over = "{\"a\":" + at_cap + "}";
  EXPECT_FALSE(Json::parse(over, &j, &err));
  EXPECT_EQ(err, "json offset " + std::to_string(5 + cap - 1) +
                     ": nesting deeper than " + std::to_string(cap));
}

/// A repeated key keeps its first position and takes the last value.
TEST(Json, DuplicateKeysKeepFirstPositionLastValue) {
  Json j;
  std::string err;
  ASSERT_TRUE(Json::parse(R"({"a":1,"b":2,"a":3})", &j, &err)) << err;
  EXPECT_EQ(j.dump(), R"({"a":3,"b":2})");

  std::string text = "{";
  std::string expect = "{";
  for (int i = 0; i < 40; ++i) {
    const std::string kv = "\"k" + std::to_string(i) + "\":" +
                           std::to_string(i == 3 || i == 30 ? -i : i);
    text += (i != 0 ? "," : "") + kv;
    expect += (i != 0 ? "," : "") + kv;
  }
  text += R"(,"k3":103,"k30":130,"k3":203})";
  ASSERT_TRUE(Json::parse(text, &j, &err)) << err;
  std::string want = expect + "}";
  want.replace(want.find("\"k3\":-3"), 7, "\"k3\":203");
  want.replace(want.find("\"k30\":-30"), 9, "\"k30\":130");
  EXPECT_EQ(j.dump(), want);
}

// --- protocol basics --------------------------------------------------------

TEST(Service, PingListsEnginesAndDesigns) {
  Service svc;
  Json r = ok_rpc(svc, R"({"op":"ping"})");
  const Json* engines = r.get("engines");
  ASSERT_NE(engines, nullptr);
  EXPECT_GE(engines->items().size(), 7u);
  const Json* designs = r.get("designs");
  ASSERT_NE(designs, nullptr);
  EXPECT_EQ(designs->items().size(), 2u);
}

TEST(Service, MalformedAndUnknownRequestsFailSoftly) {
  Service svc;
  Json r = rpc(svc, "this is not json");
  EXPECT_FALSE(r.get_bool("ok", true));
  r = rpc(svc, R"({"op":"frobnicate"})");
  EXPECT_FALSE(r.get_bool("ok", true));
  r = rpc(svc, R"({"op":"run","session":"s99","cycles":1})");
  EXPECT_FALSE(r.get_bool("ok", true));
  EXPECT_EQ(svc.session_count(), 0u);
}

TEST(Service, QuickstartPokeRunTrace) {
  Service svc;
  Json open = ok_rpc(
      svc, R"({"op":"open","engine":"compiled","design":"quickstart"})");
  const std::string sid = open.get_string("session");
  ASSERT_FALSE(sid.empty());
  EXPECT_EQ(svc.session_count(), 1u);

  ok_rpc(svc, R"({"op":"poke","session":")" + sid +
                  R"(","net":"x","value":1.0})");
  ok_rpc(svc, R"({"op":"run","session":")" + sid + R"(","cycles":4})");
  Json trace = ok_rpc(svc, R"({"op":"trace","session":")" + sid +
                               R"(","since":0})");
  const auto rows = rows_of(trace);
  ASSERT_EQ(rows.size(), 4u);
  // 2-tap moving average of a constant 1.0: first cycle averages the zero
  // history, then the output settles at 1.0.
  ASSERT_EQ(rows[0].size(), 2u);  // probes x, y
  EXPECT_EQ(rows[0][1], 0.5);
  EXPECT_EQ(rows[1][1], 1.0);
  EXPECT_EQ(rows[3][1], 1.0);

  // Delta read: since=2 returns only the last two rows.
  Json delta = ok_rpc(svc, R"({"op":"trace","session":")" + sid +
                               R"(","since":2})");
  EXPECT_EQ(rows_of(delta).size(), 2u);
  EXPECT_EQ(delta.get_number("from"), 2.0);

  ok_rpc(svc, R"({"op":"close","session":")" + sid + R"("})");
  EXPECT_EQ(svc.session_count(), 0u);
}

TEST(Service, ProbeReadsLastValue) {
  Service svc;
  Json open = ok_rpc(
      svc, R"({"op":"open","engine":"iterative","design":"quickstart"})");
  const std::string sid = open.get_string("session");
  ok_rpc(svc, R"({"op":"poke","session":")" + sid +
                  R"(","net":"x","value":2.0})");
  ok_rpc(svc, R"({"op":"run","session":")" + sid + R"(","cycles":8})");
  Json p = ok_rpc(svc, R"({"op":"probe","session":")" + sid +
                           R"(","net":"y"})");
  EXPECT_EQ(p.get_number("value"), 2.0);
}

TEST(Service, UnknownNetProbeFailsSoftly) {
  // The compiled engine resolves net names eagerly; an unknown probe is a
  // request error, not a dead session.
  Service svc;
  Json open = ok_rpc(
      svc, R"({"op":"open","engine":"compiled","design":"quickstart"})");
  const std::string sid = open.get_string("session");
  Json bad = rpc(svc, R"({"op":"probe","session":")" + sid +
                          R"(","net":"no_such_net"})");
  EXPECT_FALSE(bad.get_bool("ok", true));
  ok_rpc(svc, R"({"op":"run","session":")" + sid + R"(","cycles":1})");
  EXPECT_EQ(svc.session_count(), 1u);
}

// --- spec-based sessions and trace parity -----------------------------------

/// A session opened from spec text must produce the exact trace the
/// engine's own trace() loop yields for the same spec.
TEST(Service, SpecSessionMatchesDirectTrace) {
  const verify::Spec spec = verify::generate(verify::GenConfig{}, 17);
  const std::string text = verify::to_text(spec);

  Service svc;
  Json open = ok_rpc(svc, R"({"op":"open","engine":"compiled","spec":")" +
                              json_escape(text) + R"("})");
  const std::string sid = open.get_string("session");
  ok_rpc(svc, R"({"op":"run","session":")" + sid + R"(","cycles":)" +
                  std::to_string(spec.cycles) + "}");
  const auto rows =
      rows_of(ok_rpc(svc, R"({"op":"trace","session":")" + sid +
                              R"(","since":0})"));

  pipeline::CompileRequest req;
  req.spec = spec;
  req.has_spec = true;
  req.engine = "compiled";
  pipeline::CompileResult direct = pipeline::compile(req);
  ASSERT_TRUE(direct.ok) << direct.error;
  ASSERT_EQ(rows.size(), spec.cycles);
  for (std::uint64_t c = 0; c < spec.cycles; ++c) {
    direct.instance->cycle();
    for (std::size_t i = 0; i < direct.probes.size(); ++i)
      EXPECT_EQ(rows[c][i], direct.instance->probe(direct.probes[i]))
          << "cycle " << c << " probe " << direct.probes[i];
  }
}

/// N parallel jit sessions opened from one spec share the cached artifact
/// and every one of them produces a trace bit-identical to a solo run.
TEST(Service, ParallelSessionsOnOneCachedArtifactAreBitIdentical) {
  const std::string store =
      "/tmp/asicpp_svc_par_store_" + std::to_string(static_cast<long>(getpid()));
  std::system(("rm -rf " + store).c_str());
  setenv("ASICPP_STORE_DIR", store.c_str(), 1);

  // Adapters are outside the jit domain; keep the generated spec inside it.
  verify::GenConfig cfg;
  cfg.allow_adapter = false;
  const verify::Spec spec = verify::generate(cfg, 23);
  const std::string text = verify::to_text(spec);

  // Solo reference run through the pipeline.
  pipeline::CompileRequest req;
  req.spec = spec;
  req.has_spec = true;
  req.engine = "jit";
  pipeline::CompileResult solo = pipeline::compile(req);
  ASSERT_TRUE(solo.ok) << solo.error;
  std::vector<std::vector<double>> reference;
  for (std::uint64_t c = 0; c < spec.cycles; ++c) {
    solo.instance->cycle();
    std::vector<double> row;
    for (const std::string& p : solo.probes)
      row.push_back(solo.instance->probe(p));
    reference.push_back(std::move(row));
  }

  constexpr int kSessions = 4;
  Service svc;
  const std::string open_line =
      R"({"op":"open","engine":"jit","spec":")" + json_escape(text) + R"("})";
  std::vector<std::string> sids(kSessions);
  // char, not bool: vector<bool> packs bits, so concurrent writes to
  // distinct indices would race.
  std::vector<char> warm(kSessions, 0);
  std::vector<std::thread> threads;
  for (int i = 0; i < kSessions; ++i) {
    threads.emplace_back([&, i] {
      Json open = ok_rpc(svc, open_line);
      sids[i] = open.get_string("session");
      warm[i] = open.get_bool("store_hit") ? 1 : 0;
      ok_rpc(svc, R"({"op":"run","session":")" + sids[i] + R"(","cycles":)" +
                      std::to_string(spec.cycles) + "}");
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(svc.session_count(), static_cast<std::size_t>(kSessions));

  for (const std::string& sid : sids) {
    ASSERT_FALSE(sid.empty());
    const auto rows =
        rows_of(ok_rpc(svc, R"({"op":"trace","session":")" + sid +
                                R"(","since":0})"));
    ASSERT_EQ(rows.size(), reference.size()) << sid;
    for (std::size_t c = 0; c < reference.size(); ++c)
      for (std::size_t i = 0; i < reference[c].size(); ++i)
        EXPECT_EQ(rows[c][i], reference[c][i])
            << sid << " cycle " << c << " probe " << i;
  }
  // The solo run warmed the store, so every session was a warm open.
  for (int i = 0; i < kSessions; ++i) {
    EXPECT_TRUE(warm[i]) << sids[i];
    ok_rpc(svc, R"({"op":"close","session":")" + sids[i] + R"("})");
  }
  unsetenv("ASICPP_STORE_DIR");
  std::system(("rm -rf " + store).c_str());
}

// --- checkpoint / fork ------------------------------------------------------

/// A session forked from a named checkpoint replays the parent's remaining
/// cycles byte-identically, and the fork is independent of the parent
/// afterwards.
TEST(Service, ForkFromCheckpointResumesByteIdentically) {
  Service svc;
  Json open = ok_rpc(
      svc, R"({"op":"open","engine":"compiled","design":"quickstart"})");
  const std::string parent = open.get_string("session");

  ok_rpc(svc, R"({"op":"poke","session":")" + parent +
                  R"(","net":"x","value":1.0})");
  ok_rpc(svc, R"({"op":"run","session":")" + parent + R"(","cycles":4})");
  ok_rpc(svc, R"({"op":"checkpoint","session":")" + parent +
                  R"(","name":"mid"})");

  // Parent continues with a new stimulus...
  ok_rpc(svc, R"({"op":"poke","session":")" + parent +
                  R"(","net":"x","value":-1.0})");
  ok_rpc(svc, R"({"op":"run","session":")" + parent + R"(","cycles":4})");
  const auto parent_rows =
      rows_of(ok_rpc(svc, R"({"op":"trace","session":")" + parent +
                              R"(","since":4})"));

  // ...and the fork, resumed from the checkpoint with the same stimulus,
  // must reproduce those rows exactly.
  Json fork = ok_rpc(svc, R"({"op":"fork","session":")" + parent +
                              R"(","from":"mid"})");
  const std::string child = fork.get_string("session");
  ASSERT_FALSE(child.empty());
  ASSERT_NE(child, parent);
  ok_rpc(svc, R"({"op":"poke","session":")" + child +
                  R"(","net":"x","value":-1.0})");
  ok_rpc(svc, R"({"op":"run","session":")" + child + R"(","cycles":4})");
  const auto child_rows =
      rows_of(ok_rpc(svc, R"({"op":"trace","session":")" + child +
                              R"(","since":4})"));

  ASSERT_EQ(child_rows.size(), parent_rows.size());
  for (std::size_t c = 0; c < parent_rows.size(); ++c) {
    ASSERT_EQ(child_rows[c].size(), parent_rows[c].size());
    for (std::size_t i = 0; i < parent_rows[c].size(); ++i)
      EXPECT_EQ(child_rows[c][i], parent_rows[c][i])
          << "cycle " << c << " probe " << i;
  }

  // Diverge the fork: the parent's history is unaffected.
  ok_rpc(svc, R"({"op":"poke","session":")" + child +
                  R"(","net":"x","value":3.0})");
  ok_rpc(svc, R"({"op":"run","session":")" + child + R"(","cycles":2})");
  const auto parent_again =
      rows_of(ok_rpc(svc, R"({"op":"trace","session":")" + parent +
                              R"(","since":4})"));
  EXPECT_EQ(parent_again, parent_rows);
}

/// A pin drive poked before the checkpoint stays in force in the fork: with
/// no stimulus after the fork, the child's rows equal the parent's
/// continuation on every in-process engine with a snapshot surface.
TEST(Service, ForkKeepsPinDrivesPokedBeforeTheCheckpoint) {
  for (const std::string engine : {"compiled", "levelized", "iterative"}) {
    SCOPED_TRACE(engine);
    Service svc;
    Json open = ok_rpc(svc, R"({"op":"open","engine":")" + engine +
                                R"(","design":"quickstart"})");
    const std::string parent = open.get_string("session");
    ok_rpc(svc, R"({"op":"poke","session":")" + parent +
                    R"(","net":"x","value":1.5})");
    ok_rpc(svc, R"({"op":"run","session":")" + parent + R"(","cycles":3})");
    ok_rpc(svc, R"({"op":"checkpoint","session":")" + parent +
                    R"(","name":"c"})");
    ok_rpc(svc, R"({"op":"run","session":")" + parent + R"(","cycles":5})");
    const auto parent_rows =
        rows_of(ok_rpc(svc, R"({"op":"trace","session":")" + parent +
                                R"(","since":3})"));
    ASSERT_EQ(parent_rows.size(), 5u);
    EXPECT_EQ(parent_rows.back()[0], 1.5);  // probe x: the drive held

    Json fork = ok_rpc(svc, R"({"op":"fork","session":")" + parent +
                                R"(","from":"c"})");
    const std::string child = fork.get_string("session");
    ok_rpc(svc, R"({"op":"run","session":")" + child + R"(","cycles":5})");
    const auto child_rows =
        rows_of(ok_rpc(svc, R"({"op":"trace","session":")" + child +
                                R"(","since":3})"));
    EXPECT_EQ(child_rows, parent_rows);
  }
}

TEST(Service, ForkFromUnknownCheckpointFailsSoftly) {
  Service svc;
  Json open = ok_rpc(
      svc, R"({"op":"open","engine":"compiled","design":"quickstart"})");
  const std::string sid = open.get_string("session");
  Json r = rpc(svc, R"({"op":"fork","session":")" + sid +
                        R"(","from":"never_made"})");
  EXPECT_FALSE(r.get_bool("ok", true));
  EXPECT_EQ(svc.session_count(), 1u);  // no half-opened fork left behind
}

// --- request limits ---------------------------------------------------------

/// A line of 20 000 '[' overflowed the daemon's stack (the parser recursed
/// once per level); two million overflow any thread's. Both are now soft
/// parse errors and the service keeps serving.
TEST(Service, DeepNestingFailsSoftly) {
  Service svc;
  for (const std::size_t depth : {std::size_t{20000}, std::size_t{2000000}}) {
    Json r = rpc(svc, std::string(depth, '['));
    EXPECT_FALSE(r.get_bool("ok", true));
    EXPECT_NE(r.get_string("error").find("nesting deeper than"),
              std::string::npos)
        << r.dump();
  }
  ok_rpc(svc, R"({"op":"ping"})");
}

/// Out-of-range run/trace counts were cast straight to an unsigned integer
/// (UB): -1, 1e9 and 2^32+1 ran until the history exhausted memory, 1e20
/// and 1e308 silently ran nothing. Each is now SERVICE-002 and leaves the
/// session's cycle and history as they were.
TEST(Service, RunAndTraceRejectOutOfRangeCounts) {
  Service svc;
  Json open = ok_rpc(
      svc, R"({"op":"open","engine":"compiled","design":"quickstart"})");
  const std::string sid = open.get_string("session");
  ok_rpc(svc, R"({"op":"run","session":")" + sid + R"(","cycles":2})");
  int rejected = 0;
  for (const char* n : {"-1", "1.5", "1e9", "4294967297", "1e20", "1e308",
                        "1000001", "\"16\"", "null", "-0.5"}) {
    SCOPED_TRACE(n);
    Json r = rpc(svc, R"({"op":"run","session":")" + sid +
                          R"(","cycles":)" + n + "}");
    EXPECT_FALSE(r.get_bool("ok", true));
    EXPECT_EQ(r.get_string("error").rfind("SERVICE-002: 'cycles'", 0), 0u)
        << r.dump();
    ++rejected;
  }
  for (const char* n : {"-1", "0.5"}) {
    SCOPED_TRACE(n);
    Json r = rpc(svc, R"({"op":"trace","session":")" + sid +
                          R"(","since":)" + n + "}");
    EXPECT_FALSE(r.get_bool("ok", true));
    EXPECT_EQ(r.get_string("error").rfind("SERVICE-002: 'since'", 0), 0u)
        << r.dump();
    ++rejected;
  }
  // NaN is not JSON: the line fails to parse before it reaches the session.
  Json nan = rpc(svc, R"({"op":"run","session":")" + sid +
                          R"(","cycles":NaN})");
  EXPECT_FALSE(nan.get_bool("ok", true));
  EXPECT_NE(nan.get_string("error").find("invalid number"), std::string::npos);

  // The session is untouched: still at cycle 2 with two rows.
  Json trace = ok_rpc(svc, R"({"op":"trace","session":")" + sid +
                               R"(","since":0})");
  EXPECT_EQ(trace.get_number("cycle"), 2.0);
  EXPECT_EQ(rows_of(trace).size(), 2u);
  // A zero-cycle run and the cap itself are accepted.
  EXPECT_EQ(ok_rpc(svc, R"({"op":"run","session":")" + sid +
                            R"(","cycles":0})")
                .get_number("cycle"),
            2.0);
  // since past the history reads nothing, however far past.
  for (const char* n : {"3", "9007199254740992", "1e300"}) {
    SCOPED_TRACE(n);
    Json past = ok_rpc(svc, R"({"op":"trace","session":")" + sid +
                                R"(","since":)" + n + "}");
    EXPECT_EQ(past.get_number("from"), 2.0);
    EXPECT_TRUE(rows_of(past).empty());
  }

  Json d = ok_rpc(svc, R"({"op":"diag","session":")" + sid + R"("})");
  int service_002 = 0;
  for (const Json& f : d.get("findings")->items())
    service_002 += f.get_string("code") == "SERVICE-002";
  EXPECT_EQ(service_002, rejected);
}

/// open cast "lanes" straight to an unsigned integer: -1, 1e20 and 2^32+1
/// were undefined behaviour, and a huge value asked the batched engine for
/// that many lanes of state. Each is now SERVICE-002 and opens no session.
TEST(Service, OpenRejectsOutOfRangeLanes) {
  const std::string open = R"({"op":"open","engine":"batched","spec":")" +
                           json_escape(verify::to_text(verify::generate(
                               verify::GenConfig{}, 17))) +
                           R"(","lanes":)";
  Service svc;
  for (const char* n : {"-1", "0", "1.5", "1e20", "4294967297", "65",
                        "\"8\"", "null", "true"}) {
    SCOPED_TRACE(n);
    Json r = rpc(svc, open + n + "}");
    EXPECT_FALSE(r.get_bool("ok", true));
    EXPECT_EQ(r.get_string("error").rfind("SERVICE-002: 'lanes'", 0), 0u)
        << r.dump();
    EXPECT_EQ(svc.session_count(), 0u);
  }
  // Both ends of the range open a session that runs.
  for (const unsigned n : {1u, Service::kMaxLanes}) {
    SCOPED_TRACE(n);
    Json r = ok_rpc(svc, open + std::to_string(n) + "}");
    ok_rpc(svc, R"({"op":"run","session":")" + r.get_string("session") +
                    R"(","cycles":3})");
  }
  EXPECT_EQ(svc.session_count(), 2u);
}

/// Every rejected request appended a finding for the session's whole life,
/// so repeating one grew the daemon without limit. A session now keeps
/// kMaxSessionFindings findings and diag counts the rest as dropped.
TEST(Service, SessionFindingsStayAtTheCap) {
  Service svc;
  Json open = ok_rpc(
      svc, R"({"op":"open","engine":"compiled","design":"quickstart"})");
  const std::string sid = open.get_string("session");
  const std::string diag = R"({"op":"diag","session":")" + sid + R"("})";
  const std::size_t before = ok_rpc(svc, diag).get("findings")->items().size();
  ASSERT_LT(before, Service::kMaxSessionFindings);
  const std::string bad =
      R"({"op":"run","session":")" + sid + R"(","cycles":-1})";
  constexpr std::size_t kBad = 10000;
  for (std::size_t i = 0; i < kBad; ++i) {
    Json r = rpc(svc, bad);
    ASSERT_FALSE(r.get_bool("ok", true)) << r.dump();
    ASSERT_EQ(r.get_string("error").rfind("SERVICE-002: 'cycles'", 0), 0u);
  }
  Json d = ok_rpc(svc, diag);
  EXPECT_EQ(d.get("findings")->items().size(), Service::kMaxSessionFindings);
  EXPECT_EQ(d.get_number("dropped"),
            static_cast<double>(before + kBad - Service::kMaxSessionFindings));
  // The session still runs.
  EXPECT_EQ(ok_rpc(svc, R"({"op":"run","session":")" + sid +
                            R"(","cycles":2})")
                .get_number("cycle"),
            2.0);
}

TEST(Service, RunAcceptsTheCycleCap) {
  Service svc;
  Json open = ok_rpc(
      svc, R"({"op":"open","engine":"compiled","design":"quickstart"})");
  const std::string sid = open.get_string("session");
  Json r = ok_rpc(svc, R"({"op":"run","session":")" + sid +
                           R"(","cycles":)" +
                           std::to_string(Service::kMaxRunCycles) + "}");
  EXPECT_EQ(r.get_number("cycle"),
            static_cast<double>(Service::kMaxRunCycles));
}

/// The reply bytes of a fixed poke/run/checkpoint/fork script, pinned:
/// clients compare probe values bit-exactly, so the history layout and the
/// number writer must keep every number, row and key byte-for-byte.
TEST(Service, TraceRepliesArePinned) {
  Service svc;
  const char* script[] = {
      R"({"op":"open","engine":"compiled","design":"quickstart"})",
      R"({"op":"poke","session":"s1","net":"x","value":0.1})",
      R"({"op":"run","session":"s1","cycles":3})",
      R"({"op":"checkpoint","session":"s1","name":"c1"})",
      R"({"op":"poke","session":"s1","net":"x","value":-1.7})",
      R"({"op":"run","session":"s1","cycles":2})",
      R"({"op":"fork","session":"s1","from":"c1"})",
      R"({"op":"poke","session":"s2","net":"x","value":3.3})",
      R"({"op":"run","session":"s2","cycles":3})",
  };
  for (const char* line : script) ok_rpc(svc, line);
  EXPECT_EQ(
      svc.handle_line(R"({"op":"trace","session":"s1","since":0})"),
      R"({"ok":true,"from":0,"probes":["x","y"],"rows":[)"
      R"([0.10000000000000001,0.05078125],[0.10000000000000001,0.1015625],)"
      R"([0.10000000000000001,0.1015625],[-1.7,-0.798828125],)"
      R"([-1.7,-1.69921875]],"cycle":5})");
  EXPECT_EQ(
      svc.handle_line(R"({"op":"trace","session":"s2","since":1})"),
      R"({"ok":true,"from":1,"probes":["x","y"],"rows":[)"
      R"([0.10000000000000001,0.1015625],[0.10000000000000001,0.1015625],)"
      R"([3.2999999999999998,1.701171875],[3.2999999999999998,3.30078125],)"
      R"([3.2999999999999998,3.30078125]],"cycle":6})");
}

TEST(Service, ShutdownIsSticky) {
  Service svc;
  EXPECT_FALSE(svc.shutdown_requested());
  Json r = ok_rpc(svc, R"({"op":"shutdown"})");
  EXPECT_TRUE(r.get_bool("shutdown"));
  EXPECT_TRUE(svc.shutdown_requested());
}

}  // namespace
}  // namespace asicpp
