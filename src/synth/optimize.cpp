#include "synth/optimize.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace asicpp::synth {

using netlist::Gate;
using netlist::GateType;
using netlist::Netlist;

namespace {

/// Working view: every gate id maps to a representative (another gate).
class Rewriter {
 public:
  explicit Rewriter(const Netlist& nl)
      : nl_(&nl),
        repl_(static_cast<std::size_t>(nl.num_gates())),
        keys_(static_cast<std::size_t>(nl.num_gates())) {
    for (std::int32_t i = 0; i < nl.num_gates(); ++i) repl_[static_cast<std::size_t>(i)] = i;
    // Power-of-two table at least twice the gate count: linear probes
    // stay short at a load factor of at most one half.
    std::size_t size = 2;
    while (size < 2 * static_cast<std::size_t>(nl.num_gates())) size *= 2;
    table_.resize(size);
    for (std::int32_t i = 0; i < nl.num_gates(); ++i) {
      const GateType t = nl.gate(i).type;
      if (t == GateType::kConst0) const0_ = i;
      if (t == GateType::kConst1) const1_ = i;
    }
  }

  std::int32_t find(std::int32_t x) {
    while (x >= 0 && repl_[static_cast<std::size_t>(x)] != x) {
      const std::int32_t next = repl_[static_cast<std::size_t>(x)];
      if (next >= 0 && repl_[static_cast<std::size_t>(next)] >= 0)
        repl_[static_cast<std::size_t>(x)] = repl_[static_cast<std::size_t>(next)];
      x = next;
    }
    return x;
  }

  bool is0(std::int32_t x) {
    const std::int32_t r = find(x);
    return r == kPending0 || (const0_ >= 0 && r == const0_);
  }
  bool is1(std::int32_t x) {
    const std::int32_t r = find(x);
    return r == kPending1 || (const1_ >= 0 && r == const1_);
  }

  /// One simplification sweep; returns number of changes.
  int sweep(OptStats& st) {
    int changes = 0;
    std::fill(table_.begin(), table_.end(), kEmpty);
    for (std::int32_t id = 0; id < nl_->num_gates(); ++id) {
      if (find(id) != id) continue;
      const Gate& g = nl_->gate(id);
      if (g.type == GateType::kInput || g.type == GateType::kDff ||
          g.type == GateType::kConst0 || g.type == GateType::kConst1)
        continue;
      const std::int32_t a = g.in[0] >= 0 ? find(g.in[0]) : -1;
      const std::int32_t b = g.in[1] >= 0 ? find(g.in[1]) : -1;
      const std::int32_t c = g.in[2] >= 0 ? find(g.in[2]) : -1;
      std::int32_t to = -1;
      switch (g.type) {
        case GateType::kBuf:
          to = a;
          break;
        case GateType::kNot:
          if (is0(a)) to = need1();
          else if (is1(a)) to = need0();
          else if (a >= 0 && nl_->gate(a).type == GateType::kNot)
            to = find(nl_->gate(a).in[0]);
          break;
        case GateType::kAnd:
          if (is0(a) || is0(b)) to = need0();
          else if (is1(a)) to = b;
          else if (is1(b)) to = a;
          else if (a == b) to = a;
          break;
        case GateType::kOr:
          if (is1(a) || is1(b)) to = need1();
          else if (is0(a)) to = b;
          else if (is0(b)) to = a;
          else if (a == b) to = a;
          break;
        case GateType::kXor:
          if (is0(a)) to = b;
          else if (is0(b)) to = a;
          else if (a == b) to = need0();
          break;
        case GateType::kXnor:
          if (is1(a)) to = b;
          else if (is1(b)) to = a;
          else if (a == b) to = need1();
          break;
        case GateType::kNand:
          if (is0(a) || is0(b)) to = need1();
          break;
        case GateType::kNor:
          if (is1(a) || is1(b)) to = need0();
          break;
        case GateType::kMux:
          if (is1(a)) to = b;
          else if (is0(a)) to = c;
          else if (b == c) to = b;
          break;
        default:
          break;
      }
      if (to != -1 && to != id) {
        repl_[static_cast<std::size_t>(id)] = to;
        ++st.simplified;
        ++changes;
        continue;
      }
      // Structural hashing over canonicalized fanins.
      std::int32_t ha = a, hb = b;
      switch (g.type) {
        case GateType::kAnd:
        case GateType::kOr:
        case GateType::kXor:
        case GateType::kXnor:
        case GateType::kNand:
        case GateType::kNor:
          if (ha > hb) std::swap(ha, hb);
          break;
        default:
          break;
      }
      // The first gate in id order holds each key; later ones merge into it.
      const Key key{static_cast<std::int32_t>(g.type), ha, hb, c};
      const std::size_t mask = table_.size() - 1;
      std::size_t slot = key.hash() & mask;
      while (table_[slot] != kEmpty && !(keys_[static_cast<std::size_t>(table_[slot])] == key))
        slot = (slot + 1) & mask;
      if (table_[slot] == kEmpty) {
        table_[slot] = id;
        keys_[static_cast<std::size_t>(id)] = key;
      } else {
        repl_[static_cast<std::size_t>(id)] = table_[slot];
        ++st.deduplicated;
        ++changes;
      }
    }
    return changes;
  }

  std::int32_t const0() const { return const0_; }
  std::int32_t const1() const { return const1_; }
  bool needs_const0() const { return need0_; }
  bool needs_const1() const { return need1_; }

 private:
  // Constants may not exist in the source netlist; note the need and let
  // the rebuild insert them.
  std::int32_t need0() {
    need0_ = true;
    return const0_ >= 0 ? const0_ : kPending0;
  }
  std::int32_t need1() {
    need1_ = true;
    return const1_ >= 0 ? const1_ : kPending1;
  }

 public:
  static constexpr std::int32_t kPending0 = -2;
  static constexpr std::int32_t kPending1 = -3;

  std::int32_t resolve(std::int32_t x) {
    if (x == kPending0 || x == kPending1) return x;
    return find(x);
  }

 private:
  /// Canonical structural key of a gate: type and representative fanins.
  struct Key {
    std::int32_t type, a, b, c;
    bool operator==(const Key&) const = default;
    std::size_t hash() const {
      std::uint64_t h = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32 |
                         static_cast<std::uint32_t>(b)) * 0x9E3779B97F4A7C15ULL;
      h ^= (static_cast<std::uint64_t>(static_cast<std::uint32_t>(c)) << 8 |
            static_cast<std::uint32_t>(type)) * 0xC2B2AE3D27D4EB4FULL;
      h ^= h >> 31;
      return static_cast<std::size_t>(h * 0x94D049BB133111EBULL >> 32);
    }
  };
  static constexpr std::int32_t kEmpty = -1;

  const Netlist* nl_;
  std::vector<std::int32_t> repl_;
  /// Open-addressed structural hash of gate ids, cleared each sweep; the
  /// key of an id in the table is keys_[id].
  std::vector<std::int32_t> table_;
  std::vector<Key> keys_;
  std::int32_t const0_ = -1;
  std::int32_t const1_ = -1;
  bool need0_ = false;
  bool need1_ = false;
};

}  // namespace

Netlist optimize(const Netlist& in, OptStats* stats) {
  OptStats local;
  OptStats& st = stats != nullptr ? *stats : local;
  st = OptStats{};

  Rewriter rw(in);
  while (rw.sweep(st) > 0) {
    ++st.rounds;
    if (st.rounds > 64) break;
  }

  // Reachability from outputs and (transitively) DFF data cones.
  std::vector<bool> live(static_cast<std::size_t>(in.num_gates()), false);
  std::vector<std::int32_t> stack;
  const auto mark = [&](std::int32_t id) {
    if (id < 0) return;  // pending constants handled at rebuild
    id = rw.find(id);
    if (id < 0) return;
    if (!live[static_cast<std::size_t>(id)]) {
      live[static_cast<std::size_t>(id)] = true;
      stack.push_back(id);
    }
  };
  for (const auto& [_, id] : in.outputs()) mark(id);
  while (!stack.empty()) {
    const std::int32_t id = stack.back();
    stack.pop_back();
    const Gate& g = in.gate(id);
    for (int i = 0; i < netlist::gate_arity(g.type); ++i) mark(g.in[i]);
  }
  // Inputs are part of the interface; keep them live.
  for (const auto& [_, id] : in.inputs()) live[static_cast<std::size_t>(id)] = true;

  // Rebuild compacted.
  Netlist out;
  std::vector<std::int32_t> remap(static_cast<std::size_t>(in.num_gates()), -1);
  std::int32_t c0 = -1, c1 = -1;
  const auto new_const0 = [&]() {
    if (c0 < 0) c0 = out.add_gate(GateType::kConst0);
    return c0;
  };
  const auto new_const1 = [&]() {
    if (c1 < 0) c1 = out.add_gate(GateType::kConst1);
    return c1;
  };

  // Pass 1: inputs and DFF shells (ids needed for feedback).
  for (const auto& [name, id] : in.inputs()) {
    remap[static_cast<std::size_t>(id)] = out.add_input(name);
  }
  for (std::int32_t id = 0; id < in.num_gates(); ++id) {
    if (!live[static_cast<std::size_t>(id)] || rw.find(id) != id) continue;
    if (in.gate(id).type == GateType::kDff)
      remap[static_cast<std::size_t>(id)] = out.add_dff(in.gate(id).init);
  }
  // Pass 2: combinational gates in (old) topological id order; comb fanins
  // always have smaller representative-carrying ids than their consumers
  // except through placeholders, which the sweep collapses to their source.
  const auto lookup = [&](std::int32_t x) -> std::int32_t {
    x = rw.resolve(x);
    if (x == Rewriter::kPending0) return new_const0();
    if (x == Rewriter::kPending1) return new_const1();
    if (x < 0) throw std::logic_error("optimize: unconnected fanin");
    const std::int32_t nid = remap[static_cast<std::size_t>(x)];
    if (nid < 0) throw std::logic_error("optimize: fanin not yet rebuilt");
    return nid;
  };
  // Worklist rebuild: placeholders allow forward fanin references, so id
  // order is not topological — iterate until every live gate is rebuilt.
  std::vector<std::int32_t> pending;
  for (std::int32_t id = 0; id < in.num_gates(); ++id) {
    if (!live[static_cast<std::size_t>(id)] || rw.find(id) != id) continue;
    const Gate& g = in.gate(id);
    switch (g.type) {
      case GateType::kInput:
      case GateType::kDff:
        continue;
      case GateType::kConst0:
        remap[static_cast<std::size_t>(id)] = new_const0();
        continue;
      case GateType::kConst1:
        remap[static_cast<std::size_t>(id)] = new_const1();
        continue;
      default:
        pending.push_back(id);
    }
  }
  const auto resolved = [&](std::int32_t x) -> bool {
    x = rw.resolve(x);
    if (x == Rewriter::kPending0 || x == Rewriter::kPending1) return true;
    return x >= 0 && remap[static_cast<std::size_t>(x)] >= 0;
  };
  while (!pending.empty()) {
    std::vector<std::int32_t> next;
    bool progress = false;
    for (const std::int32_t id : pending) {
      const Gate& g = in.gate(id);
      const int ar = netlist::gate_arity(g.type);
      bool ready = true;
      for (int i = 0; i < ar; ++i) ready = ready && resolved(g.in[i]);
      if (!ready) {
        next.push_back(id);
        continue;
      }
      remap[static_cast<std::size_t>(id)] =
          out.add_gate(g.type, ar > 0 ? lookup(g.in[0]) : -1,
                       ar > 1 ? lookup(g.in[1]) : -1, ar > 2 ? lookup(g.in[2]) : -1);
      progress = true;
    }
    if (!progress)
      throw std::logic_error("optimize: combinational loop in netlist");
    pending.swap(next);
  }
  // Pass 3: DFF data inputs and outputs.
  for (std::int32_t id = 0; id < in.num_gates(); ++id) {
    if (!live[static_cast<std::size_t>(id)] || rw.find(id) != id) continue;
    const Gate& g = in.gate(id);
    if (g.type == GateType::kDff && g.in[0] >= 0)
      out.set_dff_input(remap[static_cast<std::size_t>(id)], lookup(g.in[0]));
  }
  for (const auto& [name, id] : in.outputs()) out.mark_output(name, lookup(id));

  st.dead_removed = in.num_gates() - out.num_gates();
  return out;
}

}  // namespace asicpp::synth
