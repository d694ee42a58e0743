// Golden-file tests for Verilog emission: the committed tests/goldens/*.v
// are the contract. Emission is canonical, so a mismatch means the
// emitter (or a synthesis recipe) changed behavior — regenerate with
// scripts/update_goldens.sh after reviewing the diff.
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "flow/examples.h"
#include "flow/verilog.h"

namespace asicpp::flow {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) return "";
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

class FlowGolden : public ::testing::TestWithParam<const char*> {};

TEST_P(FlowGolden, EmittedVerilogMatchesCommittedGolden) {
  const std::string name = GetParam();
  const Example ex = build_example(name);
  VerilogOptions opt;
  opt.module_name = ex.name;
  const std::string emitted = emit_verilog(ex.nl, opt);

  const std::string golden_path =
      std::string(ASICPP_SOURCE_DIR) + "/tests/goldens/" + name + ".v";
  const std::string golden = read_file(golden_path);
  ASSERT_FALSE(golden.empty())
      << "missing golden " << golden_path
      << " — run scripts/update_goldens.sh";
  // Byte-identical, not just structurally equal.
  EXPECT_EQ(emitted, golden)
      << "emission changed for '" << name
      << "' — review, then scripts/update_goldens.sh";
}

TEST_P(FlowGolden, EmissionIsStableAcrossRebuilds) {
  // Two independent builds of the same example (fresh schedulers, fresh
  // gate ids) must emit identical bytes.
  const std::string name = GetParam();
  const Example a = build_example(name);
  const Example b = build_example(name);
  VerilogOptions opt;
  opt.module_name = name;
  EXPECT_EQ(emit_verilog(a.nl, opt), emit_verilog(b.nl, opt));
}

INSTANTIATE_TEST_SUITE_P(Designs, FlowGolden,
                         ::testing::Values("fig6", "quickstart", "dect", "hcor"));

}  // namespace
}  // namespace asicpp::flow
