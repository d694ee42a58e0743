// asicpp_perfbench: one workload per process.
//
//   asicpp_perfbench --workload <dect_run|session_mix|fuzz_campaign|toolchain>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    --root <repo root> --work <scratch dir>
//                    [--trace-out <file.json>] [--fork-repoke <0|1>]
//
// --fork-repoke 0 stops session_mix from re-applying a parent's pin drive
// to each fork, so its design-fork check fails wherever the service's
// fork loses that drive (see perfbench/README.md, Oracles).
//
// Prints one "metric <name> <value> <unit>" line per measurement, one
// "check pass|FAIL <what>" line per oracle check, and as its last line a
// JSON object with every metric (see report.h). Exit code 0 when the run
// completed (correct or not), 2 on a usage error, 1 when the run aborted.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "asicpp_perfbench: %s\n"
               "usage: asicpp_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --root <dir> --work <dir> "
               "[--trace-out <file>] [--fork-repoke <0|1>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") opt.workload = v;
    else if (a == "--seed") opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (a == "--seconds") opt.seconds = std::strtod(v.c_str(), nullptr);
    else if (a == "--trace") opt.trace = v == "1";
    else if (a == "--root") opt.root = v;
    else if (a == "--work") opt.work = v;
    else if (a == "--trace-out") opt.trace_out = v;
    else if (a == "--fork-repoke") opt.repoke_forks = v != "0";
    else return usage(("unknown argument " + a).c_str());
  }
  if (opt.root.empty() || opt.work.empty()) return usage("--root and --work are required");
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");
  if (opt.trace_out.empty()) opt.trace_out = opt.work + "/trace.json";

  perfbench::Report rep;
  try {
    if (opt.workload == "dect_run") perfbench::run_dect(opt, rep);
    else if (opt.workload == "session_mix") perfbench::run_session_mix(opt, rep);
    else if (opt.workload == "fuzz_campaign") perfbench::run_fuzz_campaign(opt, rep);
    else if (opt.workload == "toolchain") perfbench::run_toolchain(opt, rep);
    else return usage(("unknown workload '" + opt.workload + "'").c_str());
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "asicpp_perfbench: %s aborted: %s\n",
                 opt.workload.c_str(), ex.what());
    return 1;
  }
  std::printf("%s\n", rep.json().c_str());
  return 0;
}
