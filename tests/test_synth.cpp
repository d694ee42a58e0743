#include <cmath>
#include <random>
#include <set>
#include <tuple>

#include <gtest/gtest.h>

#include "fsm/fsm.h"
#include "netlist/equiv.h"
#include "netlist/netsim.h"
#include "sched/cyclesched.h"
#include "sched/fsmcomp.h"
#include "sfg/clk.h"
#include "sfg/eval.h"
#include "synth/dpsynth.h"
#include "synth/optimize.h"
#include "synth/qm.h"
#include "synth/wordnet.h"

namespace asicpp::synth {
namespace {

using fixpt::Fixed;
using fixpt::Format;
using fsm::Fsm;
using fsm::State;
using fsm::always;
using fsm::cnd;
using netlist::GateType;
using netlist::LevelizedSim;
using netlist::Netlist;
using netlist::read_bus;
using netlist::set_bus;
using sfg::Clk;
using sfg::Reg;
using sfg::Sfg;
using sfg::Sig;

Format fmt(int wl, int iwl, bool s = true, fixpt::Quant q = fixpt::Quant::kRound,
           fixpt::Overflow o = fixpt::Overflow::kSaturate) {
  return Format{wl, iwl, s, q, o};
}

long long mant(double v, const Format& f) {
  return static_cast<long long>(std::llround(std::ldexp(fixpt::quantize(v, f), f.frac_bits())));
}

// --- Quine-McCluskey ---

TEST(Qm, MinimizesClassicFunction) {
  // f(a,b,c) = sum m(0,1,2,5,6,7): classic example, 3 essential primes...
  const auto cover = minimize({0, 1, 2, 5, 6, 7}, {}, 3);
  EXPECT_FALSE(cover.empty());
  for (std::uint32_t in = 0; in < 8; ++in) {
    const bool expect = in == 0 || in == 1 || in == 2 || in == 5 || in == 6 || in == 7;
    EXPECT_EQ(eval_cover(cover, in), expect) << in;
  }
  EXPECT_LE(cover_cost(cover), 6);  // minimized, not sum-of-minterms (18)
}

TEST(Qm, DontCaresReduceCost) {
  // f = m(1), dc(3,5,7): with dc, f = LSB (single literal).
  const auto cover = minimize({1}, {3, 5, 7}, 3);
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover[0].literals(), 1);
  EXPECT_TRUE(eval_cover(cover, 1));
  EXPECT_FALSE(eval_cover(cover, 0));
}

TEST(Qm, ConstantFunctions) {
  EXPECT_TRUE(minimize({}, {}, 3).empty());
  const auto all = minimize({0, 1, 2, 3, 4, 5, 6, 7}, {}, 3);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].literals(), 0);  // universal cube
}

TEST(Qm, CubeToString) {
  Cube c{0b100, 0b101};
  EXPECT_EQ(c.to_string(3), "1-0");
}

class QmRandomFunctions : public ::testing::TestWithParam<int> {};

TEST_P(QmRandomFunctions, CoverMatchesTruthTable) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 7919);
  const int nvars = 4 + GetParam() % 4;
  std::vector<std::uint32_t> on, dc;
  for (std::uint32_t in = 0; in < (1u << nvars); ++in) {
    const auto roll = rng() % 4;
    if (roll == 0) on.push_back(in);
    if (roll == 1) dc.push_back(in);
  }
  const auto cover = minimize(on, dc, nvars);
  for (std::uint32_t in = 0; in < (1u << nvars); ++in) {
    const bool is_on = std::find(on.begin(), on.end(), in) != on.end();
    const bool is_dc = std::find(dc.begin(), dc.end(), in) != dc.end();
    if (!is_dc) {
      EXPECT_EQ(eval_cover(cover, in), is_on) << "in=" << in;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QmRandomFunctions, ::testing::Range(0, 8));

// --- WordBuilder primitives vs fixpt reference ---

class WordOpsProperty : public ::testing::TestWithParam<int> {};

TEST_P(WordOpsProperty, AddSubMulMatchFixpt) {
  const int seed = GetParam();
  std::mt19937 rng(static_cast<unsigned>(seed) * 131 + 7);
  const Format fa = fmt(6 + seed % 5, 2 + seed % 3, (seed % 2) == 0);
  const Format fb = fmt(5 + seed % 4, 1 + seed % 4, true);
  const Format fadd = fixpt::add_format(fa, fb);
  Format fsub = fixpt::add_format(fa, fb);
  if (!fsub.is_signed) {
    fsub.is_signed = true;
    fsub.wl += 1;
  }
  const Format fmul = fixpt::mul_format(fa, fb);

  Netlist nl;
  WordBuilder wb(nl);
  const Bus a = wb.input("a", fa);
  const Bus b = wb.input("b", fb);
  wb.output("sum", wb.add(a, b, fadd));
  wb.output("dif", wb.sub(a, b, fsub));
  wb.output("prd", wb.mul(a, b, fmul));
  wb.output("neg", wb.neg(a, fsub));

  LevelizedSim sim(nl);
  std::uniform_real_distribution<double> da(fa.min_value(), fa.max_value());
  std::uniform_real_distribution<double> db(fb.min_value(), fb.max_value());
  for (int t = 0; t < 100; ++t) {
    const double va = fixpt::quantize(da(rng), fa);
    const double vb = fixpt::quantize(db(rng), fb);
    set_bus(sim, "a", fa.wl, mant(va, fa));
    set_bus(sim, "b", fb.wl, mant(vb, fb));
    sim.settle();
    EXPECT_EQ(read_bus(sim, "sum", fadd.wl, fadd.is_signed), mant(va + vb, fadd));
    EXPECT_EQ(read_bus(sim, "dif", fsub.wl, fsub.is_signed), mant(va - vb, fsub));
    EXPECT_EQ(read_bus(sim, "prd", fmul.wl, fmul.is_signed), mant(va * vb, fmul));
    EXPECT_EQ(read_bus(sim, "neg", fsub.wl, fsub.is_signed), mant(-va, fsub));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WordOpsProperty, ::testing::Range(0, 10));

class QuantizeProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(QuantizeProperty, MatchesFixptQuantize) {
  const auto [qi, oi, wl_to, sgn] = GetParam();
  const Format from = fmt(12, 5, true);
  Format to = fmt(wl_to, 2, sgn != 0,
                  qi != 0 ? fixpt::Quant::kRound : fixpt::Quant::kTruncate,
                  oi != 0 ? fixpt::Overflow::kSaturate : fixpt::Overflow::kWrap);
  if (!to.is_signed && to.iwl + 0 > to.wl) GTEST_SKIP();

  Netlist nl;
  WordBuilder wb(nl);
  const Bus a = wb.input("a", from);
  wb.output("q", wb.quantize(a, to));
  LevelizedSim sim(nl);

  std::mt19937 rng(1234u + static_cast<unsigned>(wl_to * 4 + qi * 2 + oi));
  std::uniform_real_distribution<double> d(from.min_value(), from.max_value());
  for (int t = 0; t < 200; ++t) {
    const double v = fixpt::quantize(d(rng), from);
    set_bus(sim, "a", from.wl, mant(v, from));
    sim.settle();
    const double expect = fixpt::quantize(v, to);
    EXPECT_EQ(read_bus(sim, "q", to.wl, to.is_signed), mant(expect, to))
        << "v=" << v << " to=" << to.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, QuantizeProperty,
                         ::testing::Combine(::testing::Values(0, 1),  // trunc/round
                                            ::testing::Values(0, 1),  // wrap/sat
                                            ::testing::Values(4, 6, 9),
                                            ::testing::Values(0, 1)));

TEST(WordBuilder, CompareAndMux) {
  const Format f = fmt(8, 3);
  Netlist nl;
  WordBuilder wb(nl);
  const Bus a = wb.input("a", f);
  const Bus b = wb.input("b", f);
  Bus lt;
  lt.fmt = fmt(1, 1, false);
  lt.bits.push_back(wb.less(a, b));
  wb.output("lt", lt);
  Bus eq;
  eq.fmt = fmt(1, 1, false);
  eq.bits.push_back(wb.equal(a, b));
  wb.output("eq", eq);
  wb.output("mx", wb.mux(wb.less(a, b), b, a, f));

  LevelizedSim sim(nl);
  std::mt19937 rng(99);
  std::uniform_real_distribution<double> d(f.min_value(), f.max_value());
  for (int t = 0; t < 100; ++t) {
    const double va = fixpt::quantize(d(rng), f);
    const double vb = fixpt::quantize(d(rng), f);
    set_bus(sim, "a", f.wl, mant(va, f));
    set_bus(sim, "b", f.wl, mant(vb, f));
    sim.settle();
    EXPECT_EQ(read_bus(sim, "lt", 1, false), va < vb ? 1 : 0);
    EXPECT_EQ(read_bus(sim, "eq", 1, false), va == vb ? 1 : 0);
    EXPECT_EQ(read_bus(sim, "mx", f.wl, true), mant(std::max(va, vb), f));
  }
}

// --- component synthesis vs interpreted simulation ---

// Accumulator with cast: y = acc + x; acc' = cast(acc + x).
struct AccDesign {
  Format in_f = fmt(8, 3);
  Format acc_f = fmt(10, 4);
  Clk clk;
  Reg acc{"acc", clk, acc_f, 0.25};
  Sig x = Sig::input("x", in_f);
  Sfg s{"acc_s"};
  sched::CycleScheduler sched{clk};
  sched::SfgComponent comp{"acc_unit", s};

  AccDesign() {
    s.in(x).out("y", acc + x).assign(acc, acc + x);
    sched.add(comp);
  }
};

TEST(ComponentSynth, SfgAccumulatorMatchesInterpreted) {
  AccDesign d;
  Netlist nl;
  const auto rep = synthesize_component(d.comp, nl);
  EXPECT_GT(rep.gates, 0);
  EXPECT_EQ(rep.dffs, d.acc_f.wl);

  LevelizedSim sim(nl);
  std::mt19937 rng(5);
  std::uniform_real_distribution<double> dist(d.in_f.min_value(), d.in_f.max_value());
  const Format yf = fixpt::add_format(d.acc_f, d.in_f);
  for (int t = 0; t < 60; ++t) {
    const double v = fixpt::quantize(dist(rng), d.in_f);
    // netlist
    set_bus(sim, "x", d.in_f.wl, mant(v, d.in_f));
    sim.settle();
    // interpreted
    d.s.set_input("x", Fixed(v));
    d.s.eval();
    const double y = d.s.output_value("y").value();
    EXPECT_EQ(read_bus(sim, "y", yf.wl, yf.is_signed), mant(y, yf)) << "cycle " << t;
    sim.cycle();
    d.s.update_registers();
    EXPECT_EQ(read_bus(sim, "y", yf.wl, yf.is_signed),
              read_bus(sim, "y", yf.wl, yf.is_signed));
  }
}

// An FSM with two states and guarded transitions; checks state logic for
// every encoding and both controller styles.
class FsmSynthProperty
    : public ::testing::TestWithParam<std::tuple<int, bool, bool>> {};

TEST_P(FsmSynthProperty, MatchesInterpretedAcrossOptions) {
  const auto [enc, qm, share] = GetParam();
  const Format f = fmt(8, 3);
  const Format bitf = fmt(1, 1, false, fixpt::Quant::kTruncate, fixpt::Overflow::kWrap);

  Clk clk;
  Reg mode("mode", clk, bitf, 0.0);
  Reg total("total", clk, f, 0.0);
  Sig x = Sig::input("x", f);
  Sfg up("up"), down("down");
  up.in(x).out("o", total + x).assign(total, (total + x).cast(f)).assign(
      mode, cnd(total > 2.0).expr());
  down.in(x).out("o", total - x).assign(total, (total - x).cast(f)).assign(
      mode, cnd(total > -1.0).expr() & cnd(total < 3.0).expr());
  Fsm m("ctl");
  State s0 = m.initial("s0");
  State s1 = m.state("s1");
  s0 << cnd(mode) << down << s1;
  s0 << always << up << s0;
  s1 << !cnd(mode) << up << s0;
  s1 << always << down << s1;
  sched::FsmComponent comp("ctl_unit", m);
  sched::CycleScheduler sched(clk);
  sched.add(comp);

  SynthOptions opt;
  opt.encoding = static_cast<StateEncoding>(enc);
  opt.qm_controller = qm;
  opt.share_operators = share;
  Netlist nl;
  synthesize_component(comp, nl, opt);
  LevelizedSim sim(nl);

  const Format of = fixpt::add_format(f, f);
  std::mt19937 rng(77);
  std::uniform_real_distribution<double> dist(f.min_value() / 2, f.max_value() / 2);
  for (int t = 0; t < 80; ++t) {
    const double v = fixpt::quantize(dist(rng), f);
    set_bus(sim, "x", f.wl, mant(v, f));
    sim.settle();

    // Interpreted reference: select / eval / read / commit.
    const auto stamp = sfg::new_eval_stamp();
    const auto* tr = m.select(stamp);
    ASSERT_NE(tr, nullptr);
    double y = 0.0;
    for (auto* a : tr->actions) {
      a->set_input("x", Fixed(v));
      a->eval(stamp);
      y = a->output_value("o").value();
    }
    EXPECT_EQ(read_bus(sim, "o", of.wl, of.is_signed), mant(y, of))
        << "cycle " << t << " enc=" << enc << " qm=" << qm << " share=" << share;

    sim.cycle();
    for (auto* a : tr->actions) a->update_registers();
    m.commit(*tr);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Options, FsmSynthProperty,
    ::testing::Combine(::testing::Values(0, 1, 2),  // binary, one-hot, gray
                       ::testing::Bool(), ::testing::Bool()));

// Dispatch datapath: instruction-selected SFGs, shared vs unshared.
class DispatchSynthProperty : public ::testing::TestWithParam<bool> {};

TEST_P(DispatchSynthProperty, MatchesInterpretedAndSharingSavesUnits) {
  const bool share = GetParam();
  const Format f = fmt(8, 3);
  Clk clk;
  sched::CycleScheduler sched(clk);
  Reg r("r", clk, f, 1.0);
  Sig a = Sig::input("a", f);
  Sig b = Sig::input("b", f);
  Sfg mac("mac"), diff("diff"), nop("nop");
  mac.in(a).in(b).out("o", a * b + r).assign(r, (a * b + r).cast(f));
  diff.in(a).in(b).out("o", (a - b) * (a + b)).assign(r, ((a - b) * (a + b)).cast(f));
  nop.out("o", r.sig());
  sched::DispatchComponent dp("dp", sched.net("instr"));
  dp.add_instruction(1, mac);
  dp.add_instruction(2, diff);
  dp.set_default(nop);
  sched.add(dp);

  SynthOptions opt;
  opt.share_operators = share;
  Netlist nl;
  const auto rep = synthesize_component(dp, nl, opt);
  if (share) {
    EXPECT_LT(rep.shared_units, rep.word_ops);  // mac/diff share mul+add
  }

  LevelizedSim sim(nl);
  const Format of = [] {
    // merged output format across the three instructions
    return fmt(1, 1);  // placeholder, computed below from netlist width
  }();
  (void)of;
  // Find output width from the netlist port names.
  int out_w = 0;
  for (const auto& [name, _] : nl.outputs()) {
    if (name.rfind("o[", 0) == 0)
      out_w = std::max(out_w, std::stoi(name.substr(2)) + 1);
  }
  ASSERT_GT(out_w, 0);

  std::mt19937 rng(13);
  std::uniform_real_distribution<double> dist(f.min_value(), f.max_value());
  for (int t = 0; t < 60; ++t) {
    const long instr = static_cast<long>(rng() % 4);  // includes unknown -> nop
    const double va = fixpt::quantize(dist(rng), f);
    const double vb = fixpt::quantize(dist(rng), f);
    set_bus(sim, "instr", 16, instr);
    set_bus(sim, "a", f.wl, mant(va, f));
    set_bus(sim, "b", f.wl, mant(vb, f));
    sim.settle();

    Sfg* sel = instr == 1 ? &mac : instr == 2 ? &diff : &nop;
    const auto stamp = sfg::new_eval_stamp();
    if (sel != &nop) {
      sel->set_input("a", Fixed(va));
      sel->set_input("b", Fixed(vb));
    }
    sel->eval(stamp);
    const double y = sel->output_value("o").value();

    // The netlist output bus is in the merged format; compute its fractional
    // bits from the three producers (all share frac of f arithmetic).
    const Format fo_mac = fixpt::add_format(fixpt::mul_format(f, f), f);
    const long long got = read_bus(sim, "o", out_w, true);
    const long long expect = static_cast<long long>(
        std::llround(std::ldexp(y, fo_mac.frac_bits())));
    EXPECT_EQ(got, expect) << "cycle " << t << " instr " << instr << " share " << share;

    sim.cycle();
    sel->update_registers();
  }
}

INSTANTIATE_TEST_SUITE_P(Share, DispatchSynthProperty, ::testing::Bool());

// --- gate-level optimization ---

TEST(Optimize, RemovesRedundancy) {
  Netlist nl;
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  const auto zero = nl.add_gate(GateType::kConst0);
  const auto one = nl.add_gate(GateType::kConst1);
  const auto and0 = nl.add_gate(GateType::kAnd, a, zero);   // = 0
  const auto or1 = nl.add_gate(GateType::kOr, and0, b);     // = b
  const auto nn = nl.add_gate(GateType::kNot, nl.add_gate(GateType::kNot, or1));  // = b
  const auto dup1 = nl.add_gate(GateType::kXor, a, nn);
  const auto dup2 = nl.add_gate(GateType::kXor, a, nn);     // duplicate
  const auto dead = nl.add_gate(GateType::kAnd, a, one);    // unreferenced
  (void)dead;
  nl.mark_output("y1", dup1);
  nl.mark_output("y2", dup2);

  OptStats st;
  Netlist out = optimize(nl, &st);
  EXPECT_GT(st.simplified + st.deduplicated, 0);
  EXPECT_LT(out.num_gates(), nl.num_gates());
  // Behavior preserved: y1 = y2 = a xor b.
  const auto r = netlist::check_equiv(nl, out, 32, 42);
  EXPECT_TRUE(r.equal) << r.mismatch;
}

class OptimizeEquivProperty : public ::testing::TestWithParam<int> {};

TEST_P(OptimizeEquivProperty, PreservesBehaviorOnRandomNetlists) {
  const int seed = GetParam();
  std::mt19937 rng(static_cast<unsigned>(seed) * 31337 + 11);
  Netlist nl;
  std::vector<std::int32_t> pool;
  for (int i = 0; i < 4; ++i) pool.push_back(nl.add_input("in" + std::to_string(i)));
  pool.push_back(nl.add_gate(GateType::kConst0));
  pool.push_back(nl.add_gate(GateType::kConst1));
  std::vector<std::int32_t> dffs;
  for (int i = 0; i < 2; ++i) {
    const auto d = nl.add_dff((rng() & 1) != 0);
    dffs.push_back(d);
    pool.push_back(d);
  }
  const GateType kinds[] = {GateType::kAnd, GateType::kOr,   GateType::kXor,
                            GateType::kNand, GateType::kNor, GateType::kNot,
                            GateType::kXnor, GateType::kMux, GateType::kBuf};
  for (int i = 0; i < 60; ++i) {
    const GateType t = kinds[rng() % 9];
    const auto pick = [&] { return pool[rng() % pool.size()]; };
    const auto g = (netlist::gate_arity(t) == 1) ? nl.add_gate(t, pick())
                   : (netlist::gate_arity(t) == 3)
                       ? nl.add_gate(t, pick(), pick(), pick())
                       : nl.add_gate(t, pick(), pick());
    pool.push_back(g);
  }
  for (std::size_t i = 0; i < dffs.size(); ++i)
    nl.set_dff_input(dffs[i], pool[pool.size() - 1 - i]);
  for (int i = 0; i < 4; ++i)
    nl.mark_output("o" + std::to_string(i), pool[pool.size() - 1 - static_cast<std::size_t>(i)]);

  Netlist out = optimize(nl);
  EXPECT_LE(out.num_gates(), nl.num_gates());
  const auto r = netlist::check_equiv(nl, out, 64, static_cast<std::uint32_t>(seed));
  EXPECT_TRUE(r.equal) << r.mismatch;
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimizeEquivProperty, ::testing::Range(0, 12));

/// True when `from`'s combinational cone (through placeholders, stopping
/// at DFFs) contains `target`.
bool comb_reaches(const Netlist& nl, std::int32_t from, std::int32_t target) {
  std::vector<std::int32_t> stack{from};
  std::vector<bool> seen(static_cast<std::size_t>(nl.num_gates()), false);
  while (!stack.empty()) {
    const std::int32_t id = stack.back();
    stack.pop_back();
    if (id < 0 || seen[static_cast<std::size_t>(id)]) continue;
    if (id == target) return true;
    seen[static_cast<std::size_t>(id)] = true;
    const netlist::Gate& g = nl.gate(id);
    if (g.type == GateType::kDff) continue;
    for (int i = 0; i < netlist::gate_arity(g.type); ++i) stack.push_back(g.in[i]);
  }
  return false;
}

// Property: over random netlists with duplicated and commuted gates,
// forward-connected placeholders and DFF feedback, the optimized netlist
// holds no two combinational gates with one canonical (type, a, b, c) key,
// and optimizing it again merges nothing and keeps every gate.
TEST(Optimize, ResultIsStructurallyHashedFixpoint) {
  int merged = 0;
  for (int seed = 0; seed < 250; ++seed) {
    SCOPED_TRACE(seed);
    std::mt19937 rng(static_cast<unsigned>(seed) * 104729 + 5);
    const auto below = [&](std::size_t n) { return rng() % n; };
    Netlist nl;
    std::vector<std::int32_t> pool;
    for (int i = 0; i < 2 + static_cast<int>(below(4)); ++i)
      pool.push_back(nl.add_input("in" + std::to_string(i)));
    if (below(2) == 0) pool.push_back(nl.add_gate(GateType::kConst0));
    if (below(2) == 0) pool.push_back(nl.add_gate(GateType::kConst1));
    std::vector<std::int32_t> dffs, holes, made;  // made: gates with fanins
    const GateType kinds[] = {GateType::kAnd, GateType::kOr,   GateType::kXor,
                              GateType::kNand, GateType::kNor, GateType::kXnor,
                              GateType::kNot, GateType::kBuf,  GateType::kMux};
    const int gates = 10 + static_cast<int>(below(70));
    for (int i = 0; i < gates; ++i) {
      const auto r = below(12);
      std::int32_t g;
      if (r == 0) {
        g = nl.add_dff(below(2) == 0);
        dffs.push_back(g);
      } else if (r == 1) {
        g = nl.add_placeholder();
        holes.push_back(g);
      } else if (r <= 3 && !made.empty()) {
        // A copy of an earlier gate, operands swapped for two-input kinds.
        const netlist::Gate src = nl.gate(made[below(made.size())]);
        const int ar = netlist::gate_arity(src.type);
        g = ar == 1   ? nl.add_gate(src.type, src.in[0])
            : ar == 3 ? nl.add_gate(src.type, src.in[0], src.in[1], src.in[2])
                      : nl.add_gate(src.type, src.in[1], src.in[0]);
        made.push_back(g);
      } else {
        const GateType t = kinds[below(9)];
        const auto pick = [&] { return pool[below(pool.size())]; };
        const std::int32_t a = pick(), b = pick(), c = pick();
        g = netlist::gate_arity(t) == 1   ? nl.add_gate(t, a)
            : netlist::gate_arity(t) == 3 ? nl.add_gate(t, a, b, c)
                                          : nl.add_gate(t, a, b);
        made.push_back(g);
      }
      pool.push_back(g);
    }
    // Placeholders take any gate whose cone does not reach back to them
    // (forward references included); DFFs take any gate.
    for (const std::int32_t h : holes) {
      std::int32_t src = pool[below(pool.size())];
      if (comb_reaches(nl, src, h)) src = pool[0];
      nl.connect_placeholder(h, src);
    }
    for (const std::int32_t d : dffs) nl.set_dff_input(d, pool[below(pool.size())]);
    for (int i = 0; i < 4; ++i)
      nl.mark_output("o" + std::to_string(i), pool[pool.size() - 1 - static_cast<std::size_t>(i)]);
    nl.mark_output("r", pool[below(pool.size())]);

    OptStats st;
    const Netlist out = optimize(nl, &st);
    merged += st.deduplicated;
    std::set<std::tuple<int, std::int32_t, std::int32_t, std::int32_t>> keys;
    for (std::int32_t id = 0; id < out.num_gates(); ++id) {
      const netlist::Gate& g = out.gate(id);
      if (g.type == GateType::kInput || g.type == GateType::kDff ||
          g.type == GateType::kConst0 || g.type == GateType::kConst1)
        continue;
      std::int32_t a = g.in[0], b = g.in[1];
      if (netlist::gate_arity(g.type) == 2 && a > b) std::swap(a, b);
      EXPECT_TRUE(keys.emplace(static_cast<int>(g.type), a, b, g.in[2]).second)
          << "gate " << id << " duplicates an earlier one";
    }
    OptStats again;
    const Netlist out2 = optimize(out, &again);
    EXPECT_EQ(again.deduplicated, 0);
    EXPECT_EQ(out2.num_gates(), out.num_gates());
  }
  EXPECT_GT(merged, 250);  // the generator does produce duplicates
}

TEST(Optimize, SynthesizedComponentShrinks) {
  AccDesign d;
  Netlist nl;
  synthesize_component(d.comp, nl);
  OptStats st;
  Netlist out = optimize(nl, &st);
  EXPECT_LE(out.num_gates(), nl.num_gates());
  const auto r = netlist::check_equiv(nl, out, 64, 7);
  EXPECT_TRUE(r.equal) << r.mismatch;
}

}  // namespace
}  // namespace asicpp::synth
