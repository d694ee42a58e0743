#include "netlist/netlist.h"

#include <sstream>
#include <stdexcept>

namespace asicpp::netlist {

int gate_arity(GateType t) {
  switch (t) {
    case GateType::kInput:
    case GateType::kConst0:
    case GateType::kConst1:
      return 0;
    case GateType::kBuf:
    case GateType::kNot:
    case GateType::kDff:
      return 1;
    case GateType::kMux:
      return 3;
    default:
      return 2;
  }
}

const char* gate_name(GateType t) {
  switch (t) {
    case GateType::kInput: return "input";
    case GateType::kConst0: return "const0";
    case GateType::kConst1: return "const1";
    case GateType::kBuf: return "buf";
    case GateType::kNot: return "not";
    case GateType::kAnd: return "and";
    case GateType::kOr: return "or";
    case GateType::kNand: return "nand";
    case GateType::kNor: return "nor";
    case GateType::kXor: return "xor";
    case GateType::kXnor: return "xnor";
    case GateType::kMux: return "mux";
    case GateType::kDff: return "dff";
  }
  return "?";
}

double gate_area(GateType t) {
  switch (t) {
    case GateType::kInput:
    case GateType::kConst0:
    case GateType::kConst1:
      return 0.0;
    case GateType::kBuf:
    case GateType::kNot:
      return 0.7;
    case GateType::kNand:
    case GateType::kNor:
      return 1.0;
    case GateType::kAnd:
    case GateType::kOr:
      return 1.3;
    case GateType::kXor:
    case GateType::kXnor:
      return 2.3;
    case GateType::kMux:
      return 2.3;
    case GateType::kDff:
      return 5.3;
  }
  return 1.0;
}

std::int32_t Netlist::add_input(const std::string& name) {
  Gate g;
  g.type = GateType::kInput;
  gates_.push_back(g);
  const auto id = static_cast<std::int32_t>(gates_.size()) - 1;
  if (!inputs_.emplace(name, id).second)
    throw std::logic_error("Netlist: duplicate input '" + name + "'");
  return id;
}

std::int32_t Netlist::add_gate(GateType t, std::int32_t a, std::int32_t b,
                               std::int32_t c) {
  if (t == GateType::kInput || t == GateType::kDff)
    throw std::invalid_argument("Netlist::add_gate: use add_input/add_dff");
  const std::int32_t n = num_gates();
  const std::int32_t fan[3] = {a, b, c};
  for (int i = 0; i < gate_arity(t); ++i) {
    if (fan[i] < 0 || fan[i] >= n)
      throw std::out_of_range("Netlist::add_gate: bad fanin");
  }
  Gate g;
  g.type = t;
  g.in[0] = a;
  g.in[1] = b;
  g.in[2] = c;
  gates_.push_back(g);
  return n;
}

std::int32_t Netlist::add_dff(bool init) {
  Gate g;
  g.type = GateType::kDff;
  g.init = init;
  gates_.push_back(g);
  return static_cast<std::int32_t>(gates_.size()) - 1;
}

std::int32_t Netlist::add_placeholder() {
  Gate g;
  g.type = GateType::kBuf;
  gates_.push_back(g);
  return static_cast<std::int32_t>(gates_.size()) - 1;
}

void Netlist::connect_placeholder(std::int32_t buf, std::int32_t src) {
  Gate& g = gates_.at(static_cast<std::size_t>(buf));
  if (g.type != GateType::kBuf || g.in[0] >= 0)
    throw std::invalid_argument("Netlist::connect_placeholder: not an open buffer");
  if (src < 0 || src >= num_gates())
    throw std::out_of_range("Netlist::connect_placeholder: bad fanin");
  g.in[0] = src;
}

void Netlist::set_dff_input(std::int32_t dff, std::int32_t d) {
  Gate& g = gates_.at(static_cast<std::size_t>(dff));
  if (g.type != GateType::kDff)
    throw std::invalid_argument("Netlist::set_dff_input: not a dff");
  if (d < 0 || d >= num_gates())
    throw std::out_of_range("Netlist::set_dff_input: bad fanin");
  g.in[0] = d;
}

void Netlist::mark_output(const std::string& name, std::int32_t gate) {
  if (gate < 0 || gate >= num_gates())
    throw std::out_of_range("Netlist::mark_output: bad gate");
  if (!outputs_.emplace(name, gate).second)
    throw std::logic_error("Netlist: duplicate output '" + name + "'");
}

std::int32_t Netlist::num_comb() const {
  std::int32_t n = 0;
  for (const auto& g : gates_) {
    switch (g.type) {
      case GateType::kInput:
      case GateType::kConst0:
      case GateType::kConst1:
      case GateType::kDff:
        break;
      default:
        ++n;
    }
  }
  return n;
}

std::int32_t Netlist::num_dff() const {
  std::int32_t n = 0;
  for (const auto& g : gates_)
    if (g.type == GateType::kDff) ++n;
  return n;
}

double Netlist::area() const {
  double a = 0.0;
  for (const auto& g : gates_) a += gate_area(g.type);
  return a;
}

std::vector<std::int32_t> Netlist::levelize() const {
  // Kahn's algorithm over combinational edges; DFFs, inputs, constants are
  // sources (their outputs are available at cycle start).
  const auto n = static_cast<std::size_t>(num_gates());
  auto is_source = [&](std::int32_t id) {
    const GateType t = gates_[static_cast<std::size_t>(id)].type;
    return t == GateType::kInput || t == GateType::kConst0 ||
           t == GateType::kConst1 || t == GateType::kDff;
  };
  // Fanouts as one CSR array: count each driver's combinational readers,
  // prefix-sum the counts into row starts, then fill in gate (and pin)
  // order, so every row lists its readers in ascending id.
  std::vector<int> pending(n, 0);
  std::vector<std::int32_t> start(n + 1, 0);
  std::size_t comb = 0;
  for (std::int32_t id = 0; id < num_gates(); ++id) {
    const Gate& g = gates_[static_cast<std::size_t>(id)];
    if (is_source(id)) continue;
    ++comb;
    for (int i = 0; i < gate_arity(g.type); ++i) {
      const std::int32_t f = g.in[i];
      if (f < 0)
        throw std::runtime_error("Netlist::levelize: unconnected fanin (open placeholder?)");
      if (!is_source(f)) {
        ++pending[static_cast<std::size_t>(id)];
        ++start[static_cast<std::size_t>(f) + 1];
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) start[i + 1] += start[i];
  std::vector<std::int32_t> fanout(static_cast<std::size_t>(start[n]));
  std::vector<std::int32_t> fill(start.begin(), start.end() - 1);
  std::vector<std::int32_t> order;
  order.reserve(comb);
  std::vector<std::int32_t> ready;
  for (std::int32_t id = 0; id < num_gates(); ++id) {
    if (is_source(id)) continue;
    const Gate& g = gates_[static_cast<std::size_t>(id)];
    for (int i = 0; i < gate_arity(g.type); ++i)
      if (!is_source(g.in[i]))
        fanout[static_cast<std::size_t>(fill[static_cast<std::size_t>(g.in[i])]++)] = id;
    if (pending[static_cast<std::size_t>(id)] == 0) ready.push_back(id);
  }
  while (!ready.empty()) {
    const std::int32_t id = ready.back();
    ready.pop_back();
    order.push_back(id);
    const auto row = static_cast<std::size_t>(id);
    for (std::int32_t k = start[row]; k < start[row + 1]; ++k) {
      const auto f = static_cast<std::size_t>(fanout[static_cast<std::size_t>(k)]);
      if (--pending[f] == 0) ready.push_back(static_cast<std::int32_t>(f));
    }
  }
  if (order.size() != comb)
    throw std::runtime_error("Netlist::levelize: combinational loop");
  return order;
}

std::string Netlist::to_verilog(const std::string& module_name) const {
  std::ostringstream os;
  auto wire = [](std::int32_t id) { return "w" + std::to_string(id); };
  os << "module " << module_name << " (clk";
  for (const auto& [name, _] : inputs_) os << ", \\" << name << " ";
  for (const auto& [name, _] : outputs_) os << ", \\" << name << " ";
  os << ");\n  input clk;\n";
  for (const auto& [name, _] : inputs_) os << "  input \\" << name << " ;\n";
  for (const auto& [name, _] : outputs_) os << "  output \\" << name << " ;\n";
  for (std::int32_t id = 0; id < num_gates(); ++id) {
    const GateType t = gates_[static_cast<std::size_t>(id)].type;
    os << (t == GateType::kDff ? "  reg " : "  wire ") << wire(id) << ";\n";
  }
  for (const auto& [name, id] : inputs_) os << "  assign " << wire(id) << " = \\" << name << " ;\n";
  for (std::int32_t id = 0; id < num_gates(); ++id) {
    const Gate& g = gates_[static_cast<std::size_t>(id)];
    switch (g.type) {
      case GateType::kInput: break;
      case GateType::kConst0: os << "  assign " << wire(id) << " = 1'b0;\n"; break;
      case GateType::kConst1: os << "  assign " << wire(id) << " = 1'b1;\n"; break;
      case GateType::kBuf: os << "  buf g" << id << " (" << wire(id) << ", " << wire(g.in[0]) << ");\n"; break;
      case GateType::kNot: os << "  not g" << id << " (" << wire(id) << ", " << wire(g.in[0]) << ");\n"; break;
      case GateType::kAnd:
      case GateType::kOr:
      case GateType::kNand:
      case GateType::kNor:
      case GateType::kXor:
      case GateType::kXnor:
        os << "  " << gate_name(g.type) << " g" << id << " (" << wire(id) << ", "
           << wire(g.in[0]) << ", " << wire(g.in[1]) << ");\n";
        break;
      case GateType::kMux:
        os << "  assign " << wire(id) << " = " << wire(g.in[0]) << " ? " << wire(g.in[1])
           << " : " << wire(g.in[2]) << ";\n";
        break;
      case GateType::kDff:
        os << "  initial " << wire(id) << " = 1'b" << (g.init ? 1 : 0) << ";\n";
        os << "  always @(posedge clk) " << wire(id) << " <= " << wire(g.in[0]) << ";\n";
        break;
    }
  }
  for (const auto& [name, id] : outputs_) os << "  assign \\" << name << "  = " << wire(id) << ";\n";
  os << "endmodule\n";
  return os.str();
}

int Netlist::depth() const {
  const auto order = levelize();
  std::vector<int> level(static_cast<std::size_t>(num_gates()), 0);
  int max_level = 0;
  for (const std::int32_t id : order) {
    const Gate& g = gates_[static_cast<std::size_t>(id)];
    int lv = 0;
    for (int i = 0; i < gate_arity(g.type); ++i)
      lv = std::max(lv, level[static_cast<std::size_t>(g.in[i])]);
    level[static_cast<std::size_t>(id)] = lv + 1;
    max_level = std::max(max_level, lv + 1);
  }
  return max_level;
}

}  // namespace asicpp::netlist
