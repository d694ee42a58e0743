#include "flow/verilog.h"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <sstream>
#include <utility>

#include "flow/liberty.h"

namespace asicpp::flow {
namespace {

using netlist::Gate;
using netlist::GateType;
using netlist::Netlist;

/// Verilog identifier, escaped when it is not a plain word. The escaped
/// form includes the trailing space the LRM requires, so callers can
/// concatenate it directly with the following token.
std::string vname(const std::string& name) {
  bool plain = !name.empty() &&
               (std::isalpha(static_cast<unsigned char>(name[0])) != 0 ||
                name[0] == '_');
  if (plain) {
    for (const char c : name) {
      if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '_' &&
          c != '$') {
        plain = false;
        break;
      }
    }
  }
  return plain ? name : "\\" + name + " ";
}

void append_int(std::string& out, std::int32_t v) {
  char buf[16];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, r.ptr);
}

}  // namespace

std::vector<std::int32_t> canonical_order(const Netlist& nl) {
  const auto n = static_cast<std::size_t>(nl.num_gates());
  std::vector<signed char> state(n, 0);  // 0 white, 1 gray, 2 black
  std::vector<std::int32_t> order;
  order.reserve(n);

  // Iterative post-order DFS; gray marking cuts the cycles that run
  // through DFF D-inputs.
  std::vector<std::pair<std::int32_t, int>> stack;
  const auto visit = [&](std::int32_t root) {
    if (root < 0 || state[static_cast<std::size_t>(root)] != 0) return;
    state[static_cast<std::size_t>(root)] = 1;
    stack.clear();
    stack.emplace_back(root, 0);
    while (!stack.empty()) {
      const std::int32_t id = stack.back().first;
      const int i = stack.back().second;
      const Gate& g = nl.gate(id);
      if (i < netlist::gate_arity(g.type)) {
        ++stack.back().second;
        const std::int32_t f = g.in[i];
        if (f >= 0 && state[static_cast<std::size_t>(f)] == 0) {
          state[static_cast<std::size_t>(f)] = 1;
          stack.emplace_back(f, 0);
        }
      } else {
        state[static_cast<std::size_t>(id)] = 2;
        order.push_back(id);
        stack.pop_back();
      }
    }
  };

  // Anchor on names: outputs first (std::map iterates name-sorted), then
  // inputs, then whatever is left (dead logic) in insertion order — the
  // only place ids leak into the order, and only for unreachable gates.
  for (const auto& [name, id] : nl.outputs()) {
    (void)name;
    visit(id);
  }
  for (const auto& [name, id] : nl.inputs()) {
    (void)name;
    visit(id);
  }
  for (std::int32_t id = 0; id < nl.num_gates(); ++id) visit(id);
  return order;
}

std::vector<std::string> input_ports(const Netlist& nl) {
  std::vector<std::string> names;
  names.reserve(nl.inputs().size());
  for (const auto& [name, id] : nl.inputs()) {
    (void)id;
    names.push_back(name);
  }
  return names;
}

std::vector<std::string> output_ports(const Netlist& nl) {
  std::vector<std::string> names;
  names.reserve(nl.outputs().size());
  for (const auto& [name, id] : nl.outputs()) {
    (void)id;
    names.push_back(name);
  }
  return names;
}

std::string emit_verilog(const Netlist& nl, const VerilogOptions& opt) {
  const std::vector<std::int32_t> order = canonical_order(nl);
  const bool has_dffs = nl.num_dff() > 0;

  // What a reference to each gate names: an input's index in in_vname,
  // any other gate's canonical position (its _n wire and _g instance).
  std::vector<std::int32_t> ref(static_cast<std::size_t>(nl.num_gates()), -1);
  for (std::size_t k = 0; k < order.size(); ++k)
    ref[static_cast<std::size_t>(order[k])] = static_cast<std::int32_t>(k);

  // Port names, escaped once each, in port (name) order.
  std::vector<std::string> in_vname;
  std::vector<std::string> out_vname;
  in_vname.reserve(nl.inputs().size());
  out_vname.reserve(nl.outputs().size());
  for (const auto& [name, id] : nl.inputs()) {
    ref[static_cast<std::size_t>(id)] = static_cast<std::int32_t>(in_vname.size());
    in_vname.push_back(vname(name));
  }
  for (const auto& [name, id] : nl.outputs()) out_vname.push_back(vname(name));
  const std::string clk = vname(opt.clock);

  std::string os;
  std::size_t port_bytes = clk.size();
  for (const std::string& v : in_vname) port_bytes += v.size();
  for (const std::string& v : out_vname) port_bytes += v.size();
  os.reserve(256 + 2 * opt.module_name.size() + 3 * port_bytes + 48 * nl.outputs().size() +
             112 * order.size());

  const auto wire = [&](std::int32_t k) {
    os += "_n";
    append_int(os, k);
  };
  const auto net_ref = [&](std::int32_t id) {
    if (id < 0) {
      os += "1'b0";  // unconnected placeholder fanin
    } else if (nl.gate(id).type == GateType::kInput) {
      os += in_vname[static_cast<std::size_t>(ref[static_cast<std::size_t>(id)])];
    } else {
      wire(ref[static_cast<std::size_t>(id)]);
    }
  };

  os += "// ";
  os += opt.module_name;
  os += " — structural netlist over asicpp_sc_hd cells.\n"
        "// Emitted by asicpp-flow; canonical order, byte-stable across "
        "gate insertion orders.\n"
        "module ";
  os += opt.module_name;
  os += " (";
  bool first = true;
  const auto port = [&](const std::string& v) {
    os += first ? "\n    " : ",\n    ";
    os += v;
    first = false;
  };
  if (has_dffs) port(clk);
  for (const std::string& v : in_vname) port(v);
  for (const std::string& v : out_vname) port(v);
  os += "\n  );\n";

  const auto decl = [&](const char* kind, const std::string& v) {
    os += kind;
    os += v;
    os += ";\n";
  };
  if (has_dffs) decl("  input ", clk);
  for (const std::string& v : in_vname) decl("  input ", v);
  for (const std::string& v : out_vname) decl("  output ", v);

  // One wire and one instance per non-input gate, canonical order.
  for (std::size_t k = 0; k < order.size(); ++k) {
    if (nl.gate(order[k]).type == GateType::kInput) continue;
    os += "  wire ";
    wire(static_cast<std::int32_t>(k));
    os += ";\n";
  }

  for (std::size_t k = 0; k < order.size(); ++k) {
    const Gate& g = nl.gate(order[k]);
    if (g.type == GateType::kInput) continue;
    const CellBinding& b = cell_binding(g.type);
    os += "  ";
    os += g.type == GateType::kDff ? dff_cell(g.init) : b.cell;
    os += " _g";
    append_int(os, static_cast<std::int32_t>(k));
    os += " (";
    const char* sep = "";
    const auto pin = [&](const char* name) {
      os += sep;
      os += '.';
      os += name;
      os += '(';
      sep = ", ";
    };
    if (g.type == GateType::kDff) {
      pin("CLK");
      os += clk;
      os += ')';
    }
    for (int i = 0; i < netlist::gate_arity(g.type); ++i) {
      pin(b.pins[i]);
      net_ref(g.in[i]);
      os += ')';
    }
    pin(b.out);
    wire(static_cast<std::int32_t>(k));
    os += "));\n";
  }

  std::size_t out_k = 0;
  for (const auto& [name, id] : nl.outputs()) {
    os += "  assign ";
    os += out_vname[out_k++];
    os += " = ";
    net_ref(id);
    os += ";\n";
  }

  os += "endmodule\n";
  return os;
}

std::string cells_sim_verilog() {
  return R"(// asicpp_sc_hd — behavioral simulation models.
// For iverilog differential runs and Yosys read_verilog of emitted
// designs; timing-free (the Liberty file carries the delays).
module asicpp_sc_hd__buf_1 (A, X);
  input A;
  output X;
  assign X = A;
endmodule

module asicpp_sc_hd__inv_1 (A, Y);
  input A;
  output Y;
  assign Y = ~A;
endmodule

module asicpp_sc_hd__and2_1 (A, B, X);
  input A, B;
  output X;
  assign X = A & B;
endmodule

module asicpp_sc_hd__or2_1 (A, B, X);
  input A, B;
  output X;
  assign X = A | B;
endmodule

module asicpp_sc_hd__nand2_1 (A, B, Y);
  input A, B;
  output Y;
  assign Y = ~(A & B);
endmodule

module asicpp_sc_hd__nor2_1 (A, B, Y);
  input A, B;
  output Y;
  assign Y = ~(A | B);
endmodule

module asicpp_sc_hd__xor2_1 (A, B, X);
  input A, B;
  output X;
  assign X = A ^ B;
endmodule

module asicpp_sc_hd__xnor2_1 (A, B, Y);
  input A, B;
  output Y;
  assign Y = ~(A ^ B);
endmodule

module asicpp_sc_hd__mux2_1 (S, A0, A1, X);
  input S, A0, A1;
  output X;
  assign X = S ? A1 : A0;
endmodule

module asicpp_sc_hd__dfxtp_1 (CLK, D, Q);
  input CLK, D;
  output reg Q;
  initial Q = 1'b0;
  always @(posedge CLK) Q <= D;
endmodule

module asicpp_sc_hd__dfstp_1 (CLK, D, Q);
  input CLK, D;
  output reg Q;
  initial Q = 1'b1;
  always @(posedge CLK) Q <= D;
endmodule

module asicpp_sc_hd__conb_1 (HI, LO);
  output HI, LO;
  assign HI = 1'b1;
  assign LO = 1'b0;
endmodule
)";
}

std::string yosys_script(const VerilogOptions& opt,
                         const std::string& lib_file) {
  std::ostringstream os;
  os << "# Resynthesize " << opt.module_name
     << " through Yosys onto asicpp_sc_hd.\n"
     << "# Usage: yosys " << opt.module_name << ".ys\n"
     << "read_liberty -lib " << lib_file << "\n"
     << "read_verilog " << opt.module_name << ".v\n"
     << "hierarchy -check -top " << opt.module_name << "\n"
     << "flatten\n"
     << "synth -top " << opt.module_name << "\n"
     << "dfflibmap -liberty " << lib_file << "\n"
     << "abc -liberty " << lib_file << "\n"
     << "clean\n"
     << "stat -liberty " << lib_file << "\n"
     << "write_verilog -noattr " << opt.module_name << "_synth.v\n";
  return os.str();
}

std::string flow_config_json(const VerilogOptions& opt,
                             double clock_period_ns) {
  char period[32];
  std::snprintf(period, sizeof period, "%g", clock_period_ns);
  std::ostringstream os;
  os << "{\n"
     << "    \"DESIGN_NAME\": \"" << opt.module_name << "\",\n"
     << "    \"VERILOG_FILES\": \"dir::" << opt.module_name << ".v\",\n"
     << "    \"CLOCK_PORT\": \"" << opt.clock << "\",\n"
     << "    \"CLOCK_PERIOD\": " << period << "\n"
     << "}\n";
  return os.str();
}

std::string emit_testbench(const Netlist& nl, const VerilogOptions& opt,
                           const std::vector<std::vector<int>>& stimuli) {
  const std::vector<std::string> ins = input_ports(nl);
  const std::vector<std::string> outs = output_ports(nl);
  const bool has_dffs = nl.num_dff() > 0;

  std::ostringstream os;
  os << "`timescale 1ns/1ps\n"
     << "// Replay testbench for " << opt.module_name
     << ": one \"cycle <n>: <bits>\" line per cycle.\n"
     << "module tb;\n";
  if (has_dffs) os << "  reg " << vname(opt.clock) << "= 1'b0;\n";
  for (const auto& name : ins) os << "  reg " << vname(name) << "= 1'b0;\n";
  for (const auto& name : outs) os << "  wire " << vname(name) << ";\n";

  os << "  " << opt.module_name << " dut (";
  bool first = true;
  const auto conn = [&](const std::string& formal, const std::string& actual) {
    os << (first ? "" : ", ") << ".";
    // A named connection to an escaped formal needs the escaped form.
    os << vname(formal) << "(" << actual << ")";
    first = false;
  };
  if (has_dffs) conn(opt.clock, vname(opt.clock));
  for (const auto& name : ins) conn(name, vname(name));
  for (const auto& name : outs) conn(name, vname(name));
  os << ");\n";

  os << "  initial begin\n";
  for (std::size_t c = 0; c < stimuli.size(); ++c) {
    os << "    // cycle " << c << "\n";
    for (std::size_t k = 0; k < ins.size() && k < stimuli[c].size(); ++k)
      os << "    " << vname(ins[k]) << "= "
         << (stimuli[c][k] != 0 ? "1'b1" : "1'b0") << ";\n";
    os << "    #4;\n";
    os << "    $display(\"cycle %0d: ";
    for (std::size_t k = 0; k < outs.size(); ++k) os << "%b";
    os << "\", " << c;
    for (const auto& name : outs) os << ", " << vname(name);
    os << ");\n";
    if (has_dffs) {
      os << "    #1;\n    " << vname(opt.clock) << "= 1'b1;\n"
         << "    #5;\n    " << vname(opt.clock) << "= 1'b0;\n";
    } else {
      os << "    #6;\n";
    }
  }
  os << "    $finish;\n  end\nendmodule\n";
  return os.str();
}

}  // namespace asicpp::flow
