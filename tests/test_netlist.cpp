#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "netlist/equiv.h"
#include "netlist/netlist.h"
#include "netlist/netsim.h"

namespace asicpp::netlist {
namespace {

TEST(Netlist, GateMetadata) {
  EXPECT_EQ(gate_arity(GateType::kAnd), 2);
  EXPECT_EQ(gate_arity(GateType::kNot), 1);
  EXPECT_EQ(gate_arity(GateType::kMux), 3);
  EXPECT_EQ(gate_arity(GateType::kInput), 0);
  EXPECT_STREQ(gate_name(GateType::kXor), "xor");
  EXPECT_GT(gate_area(GateType::kDff), gate_area(GateType::kNand));
  EXPECT_EQ(gate_area(GateType::kInput), 0.0);
}

TEST(Netlist, BuildAndCounts) {
  Netlist nl;
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  const auto x = nl.add_gate(GateType::kXor, a, b);
  const auto d = nl.add_dff(false);
  nl.set_dff_input(d, x);
  nl.mark_output("q", d);
  EXPECT_EQ(nl.num_gates(), 4);
  EXPECT_EQ(nl.num_comb(), 1);
  EXPECT_EQ(nl.num_dff(), 1);
  EXPECT_GT(nl.area(), 0.0);
  EXPECT_EQ(nl.depth(), 1);
}

TEST(Netlist, BadConstructionThrows) {
  Netlist nl;
  const auto a = nl.add_input("a");
  EXPECT_THROW(nl.add_input("a"), std::logic_error);
  EXPECT_THROW(nl.add_gate(GateType::kAnd, a, 99), std::out_of_range);
  EXPECT_THROW(nl.add_gate(GateType::kDff, a), std::invalid_argument);
  EXPECT_THROW(nl.set_dff_input(a, a), std::invalid_argument);
  EXPECT_THROW(nl.mark_output("o", 99), std::out_of_range);
}

TEST(Netlist, LevelizeDetectsCombLoop) {
  Netlist nl;
  const auto a = nl.add_input("a");
  // g1 = a AND g2; g2 = NOT g1 — cannot express forward-only, so build via
  // placeholder: not expressible with add_gate (fanins must exist), which
  // is by design. DFF feedback is the legal loop:
  const auto d = nl.add_dff(false);
  const auto g = nl.add_gate(GateType::kXor, a, d);
  nl.set_dff_input(d, g);
  EXPECT_NO_THROW(nl.levelize());  // sequential loop is fine
  EXPECT_EQ(nl.levelize().size(), 1u);
}

// Reference levelization: Kahn's algorithm over per-gate fanout vectors,
// the shape Netlist::levelize had before its fanouts became one CSR array.
// Returns the order, or nullopt with the error levelize must throw in *err.
std::optional<std::vector<std::int32_t>> reference_levelize(const Netlist& nl,
                                                            std::string* err) {
  const auto n = static_cast<std::size_t>(nl.num_gates());
  const auto is_source = [&](std::int32_t id) {
    const GateType t = nl.gate(id).type;
    return t == GateType::kInput || t == GateType::kConst0 ||
           t == GateType::kConst1 || t == GateType::kDff;
  };
  std::vector<int> pending(n, 0);
  std::vector<std::vector<std::int32_t>> fanout(n);
  std::size_t comb = 0;
  for (std::int32_t id = 0; id < nl.num_gates(); ++id) {
    if (is_source(id)) continue;
    ++comb;
    const Gate& g = nl.gate(id);
    for (int i = 0; i < gate_arity(g.type); ++i) {
      if (g.in[i] < 0) {
        *err = "Netlist::levelize: unconnected fanin (open placeholder?)";
        return std::nullopt;
      }
      if (!is_source(g.in[i])) {
        ++pending[static_cast<std::size_t>(id)];
        fanout[static_cast<std::size_t>(g.in[i])].push_back(id);
      }
    }
  }
  std::vector<std::int32_t> order, ready;
  for (std::int32_t id = 0; id < nl.num_gates(); ++id)
    if (!is_source(id) && pending[static_cast<std::size_t>(id)] == 0) ready.push_back(id);
  while (!ready.empty()) {
    const std::int32_t id = ready.back();
    ready.pop_back();
    order.push_back(id);
    for (const std::int32_t f : fanout[static_cast<std::size_t>(id)])
      if (--pending[static_cast<std::size_t>(f)] == 0) ready.push_back(f);
  }
  if (order.size() != comb) {
    *err = "Netlist::levelize: combinational loop";
    return std::nullopt;
  }
  return order;
}

// Property: over random netlists with placeholders (connected backward,
// forward, into loops, or left open) and DFF feedback, levelize returns
// exactly the reference order, or throws exactly the reference's error.
TEST(Netlist, LevelizeMatchesReferenceKahnOnRandomNetlists) {
  int ordered = 0, open = 0, loops = 0;
  for (int seed = 0; seed < 300; ++seed) {
    SCOPED_TRACE(seed);
    std::mt19937 rng(static_cast<unsigned>(seed) * 7919 + 3);
    const auto below = [&](std::size_t n) { return rng() % n; };
    Netlist nl;
    std::vector<std::int32_t> pool;
    for (int i = 0; i < 1 + static_cast<int>(below(4)); ++i)
      pool.push_back(nl.add_input("in" + std::to_string(i)));
    if (below(2) == 0) pool.push_back(nl.add_gate(GateType::kConst0));
    std::vector<std::int32_t> dffs, holes;
    const GateType kinds[] = {GateType::kAnd, GateType::kOr,   GateType::kXor,
                              GateType::kNand, GateType::kNor, GateType::kXnor,
                              GateType::kNot, GateType::kBuf,  GateType::kMux};
    const int gates = 5 + static_cast<int>(below(60));
    for (int i = 0; i < gates; ++i) {
      const auto r = below(10);
      std::int32_t g;
      if (r == 0) {
        g = nl.add_dff(below(2) == 0);
        dffs.push_back(g);
      } else if (r == 1) {
        g = nl.add_placeholder();
        holes.push_back(g);
      } else {
        const GateType t = kinds[below(9)];
        const auto pick = [&] { return pool[below(pool.size())]; };
        const std::int32_t a = pick(), b = pick(), c = pick();
        g = gate_arity(t) == 1   ? nl.add_gate(t, a)
            : gate_arity(t) == 3 ? nl.add_gate(t, a, b, c)
                                 : nl.add_gate(t, a, b);
      }
      pool.push_back(g);
    }
    for (const std::int32_t d : dffs) nl.set_dff_input(d, pool[below(pool.size())]);
    // Mode 0 connects every placeholder to an earlier gate (acyclic),
    // mode 1 to any gate (forward references, sometimes loops), mode 2
    // like mode 1 but leaves one placeholder open.
    const int mode = seed % 3;
    for (std::size_t k = 0; k < holes.size(); ++k) {
      if (mode == 2 && k + 1 == holes.size()) continue;
      const std::size_t span = mode == 0 ? static_cast<std::size_t>(holes[k])
                                         : static_cast<std::size_t>(nl.num_gates());
      nl.connect_placeholder(holes[k], static_cast<std::int32_t>(below(span)));
    }

    std::string err;
    const auto want = reference_levelize(nl, &err);
    if (want) {
      ++ordered;
      EXPECT_EQ(nl.levelize(), *want);
    } else {
      ++(err.find("loop") != std::string::npos ? loops : open);
      try {
        (void)nl.levelize();
        ADD_FAILURE() << "levelize did not throw: " << err;
      } catch (const std::runtime_error& ex) {
        EXPECT_EQ(std::string(ex.what()), err);
      }
    }
  }
  // Every outcome is exercised.
  EXPECT_GE(ordered, 100);
  EXPECT_GE(open, 20);
  EXPECT_GE(loops, 20);
}

TEST(LevelizedSim, FullAdderTruthTable) {
  Netlist nl;
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  const auto cin = nl.add_input("cin");
  const auto axb = nl.add_gate(GateType::kXor, a, b);
  const auto sum = nl.add_gate(GateType::kXor, axb, cin);
  const auto ab = nl.add_gate(GateType::kAnd, a, b);
  const auto ac = nl.add_gate(GateType::kAnd, axb, cin);
  const auto cout = nl.add_gate(GateType::kOr, ab, ac);
  nl.mark_output("sum", sum);
  nl.mark_output("cout", cout);

  LevelizedSim sim(nl);
  for (int v = 0; v < 8; ++v) {
    sim.set_input("a", v & 1);
    sim.set_input("b", (v >> 1) & 1);
    sim.set_input("cin", (v >> 2) & 1);
    sim.settle();
    const int total = (v & 1) + ((v >> 1) & 1) + ((v >> 2) & 1);
    EXPECT_EQ(sim.output("sum"), (total & 1) != 0) << v;
    EXPECT_EQ(sim.output("cout"), total >= 2) << v;
  }
}

// 4-bit ripple-carry counter out of DFFs and half-adders.
Netlist make_counter(int bits) {
  Netlist nl;
  const auto one = nl.add_gate(GateType::kConst1);
  std::vector<std::int32_t> q;
  for (int i = 0; i < bits; ++i) q.push_back(nl.add_dff(false));
  std::int32_t carry = one;
  for (int i = 0; i < bits; ++i) {
    const auto s = nl.add_gate(GateType::kXor, q[static_cast<std::size_t>(i)], carry);
    carry = nl.add_gate(GateType::kAnd, q[static_cast<std::size_t>(i)], carry);
    nl.set_dff_input(q[static_cast<std::size_t>(i)], s);
    nl.mark_output("q[" + std::to_string(i) + "]", q[static_cast<std::size_t>(i)]);
  }
  return nl;
}

TEST(LevelizedSim, CounterCounts) {
  Netlist nl = make_counter(4);
  LevelizedSim sim(nl);
  for (int c = 0; c < 20; ++c) {
    EXPECT_EQ(read_bus(sim, "q", 4, false), c % 16) << c;
    sim.cycle();
  }
  sim.reset();
  EXPECT_EQ(read_bus(sim, "q", 4, false), 0);
}

TEST(EventSim, CounterMatchesLevelized) {
  Netlist nl = make_counter(6);
  LevelizedSim ref(nl);
  EventSim ev(nl);
  ev.settle();
  for (int c = 0; c < 80; ++c) {
    ref.settle();
    for (const auto& [name, _] : nl.outputs())
      EXPECT_EQ(ev.output(name), ref.output(name)) << name << " cycle " << c;
    ref.cycle();
    ev.cycle();
  }
  EXPECT_GT(ev.events(), 0u);
  EXPECT_GT(ev.footprint_bytes(), 0u);
}

TEST(EventSim, InputChangesPropagate) {
  Netlist nl;
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  const auto g = nl.add_gate(GateType::kNand, a, b);
  nl.mark_output("o", g);
  EventSim sim(nl);
  sim.settle();
  EXPECT_TRUE(sim.output("o"));
  sim.set_input("a", true);
  sim.set_input("b", true);
  sim.settle();
  EXPECT_FALSE(sim.output("o"));
}

TEST(Equiv, IdenticalNetlistsAreEqual) {
  Netlist a = make_counter(4);
  Netlist b = make_counter(4);
  const auto r = check_equiv(a, b, 64, 1);
  EXPECT_TRUE(r.equal) << r.mismatch;
  EXPECT_EQ(r.cycles_checked, 64u);
}

TEST(Equiv, DifferentLogicDetected) {
  Netlist a, b;
  const auto a1 = a.add_input("x");
  const auto a2 = a.add_input("y");
  a.mark_output("o", a.add_gate(GateType::kAnd, a1, a2));
  const auto b1 = b.add_input("x");
  const auto b2 = b.add_input("y");
  b.mark_output("o", b.add_gate(GateType::kOr, b1, b2));
  const auto r = check_equiv(a, b, 64, 7);
  EXPECT_FALSE(r.equal);
  EXPECT_NE(r.mismatch.find("'o'"), std::string::npos);
}

TEST(Equiv, PortMismatchDetected) {
  Netlist a, b;
  const auto a1 = a.add_input("x");
  a.mark_output("o", a.add_gate(GateType::kNot, a1));
  const auto b1 = b.add_input("z");
  b.mark_output("o", b.add_gate(GateType::kNot, b1));
  EXPECT_FALSE(check_equiv(a, b, 4, 3).equal);
}

TEST(Equiv, ModelCheckCatchesBug) {
  // "Adder" with a wired-or bug on the carry.
  Netlist nl;
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  nl.mark_output("sum", nl.add_gate(GateType::kXor, a, b));
  nl.mark_output("carry", nl.add_gate(GateType::kOr, a, b));  // should be AND
  const auto good = check_against_model(
      nl,
      [](const std::map<std::string, bool>& in) {
        return std::map<std::string, bool>{{"sum", in.at("a") != in.at("b")}};
      },
      32, 11);
  EXPECT_TRUE(good.equal) << good.mismatch;
  const auto bad = check_against_model(
      nl,
      [](const std::map<std::string, bool>& in) {
        return std::map<std::string, bool>{{"carry", in.at("a") && in.at("b")}};
      },
      32, 11);
  EXPECT_FALSE(bad.equal);
}

TEST(BusHelpers, SignedRoundTrip) {
  // Pass-through netlist: outputs mirror inputs.
  Netlist nl;
  for (int i = 0; i < 8; ++i) {
    const auto in = nl.add_input("v[" + std::to_string(i) + "]");
    nl.mark_output("v[" + std::to_string(i) + "]", nl.add_gate(GateType::kBuf, in));
  }
  LevelizedSim sim(nl);
  for (const long long v : {0LL, 1LL, -1LL, 127LL, -128LL, 42LL, -77LL}) {
    set_bus(sim, "v", 8, v);
    sim.settle();
    EXPECT_EQ(read_bus(sim, "v", 8, true), v);
  }
  set_bus(sim, "v", 8, 200);
  sim.settle();
  EXPECT_EQ(read_bus(sim, "v", 8, false), 200);
}

// Property: random sequential netlists — EventSim and LevelizedSim always
// agree over random input streams.
class RandomNetlistEquiv : public ::testing::TestWithParam<int> {};

TEST_P(RandomNetlistEquiv, EnginesAgree) {
  const int seed = GetParam();
  std::mt19937 rng(static_cast<unsigned>(seed) * 8191 + 17);
  Netlist nl;
  std::vector<std::int32_t> pool;
  for (int i = 0; i < 4; ++i) pool.push_back(nl.add_input("in" + std::to_string(i)));
  std::vector<std::int32_t> dffs;
  for (int i = 0; i < 3; ++i) {
    const auto d = nl.add_dff((rng() & 1) != 0);
    dffs.push_back(d);
    pool.push_back(d);
  }
  const GateType kinds[] = {GateType::kAnd, GateType::kOr,  GateType::kXor,
                            GateType::kNand, GateType::kNor, GateType::kNot,
                            GateType::kMux};
  for (int i = 0; i < 40; ++i) {
    const GateType t = kinds[rng() % 7];
    const auto pick = [&] { return pool[rng() % pool.size()]; };
    const auto g = (gate_arity(t) == 1)   ? nl.add_gate(t, pick())
                   : (gate_arity(t) == 3) ? nl.add_gate(t, pick(), pick(), pick())
                                          : nl.add_gate(t, pick(), pick());
    pool.push_back(g);
  }
  for (std::size_t i = 0; i < dffs.size(); ++i)
    nl.set_dff_input(dffs[i], pool[pool.size() - 1 - i]);
  for (int i = 0; i < 5; ++i)
    nl.mark_output("o" + std::to_string(i), pool[pool.size() - 1 - static_cast<std::size_t>(i)]);

  LevelizedSim ls(nl);
  EventSim es(nl);
  es.settle();
  std::mt19937 stim(static_cast<unsigned>(seed));
  for (int c = 0; c < 50; ++c) {
    for (int i = 0; i < 4; ++i) {
      const bool v = (stim() & 1) != 0;
      ls.set_input("in" + std::to_string(i), v);
      es.set_input("in" + std::to_string(i), v);
    }
    ls.settle();
    es.settle();
    for (const auto& [name, _] : nl.outputs())
      ASSERT_EQ(ls.output(name), es.output(name)) << name << " seed " << seed << " cycle " << c;
    ls.cycle();
    es.cycle();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomNetlistEquiv, ::testing::Range(0, 10));

}  // namespace
}  // namespace asicpp::netlist
