#include "sim/tape.h"

#include "opt/semantics.h"

namespace asicpp::sim {

void exec(const Tape& tape, double* s, const fixpt::Quantizer* quants) {
  for (const Instr& i : tape) {
    if (i.op == sfg::Op::kCount && !i.quant) {
      s[i.dst] = s[i.a];
      continue;
    }
    if (i.op == sfg::Op::kCount || i.op == sfg::Op::kCast) {
      s[i.dst] = i.q >= 0 ? quants[i.q](s[i.a]) : fixpt::quantize(s[i.a], i.fmt);
      continue;
    }
    s[i.dst] = opt::apply_op_value(i.op, s[i.a], i.b >= 0 ? s[i.b] : 0.0,
                                   i.c >= 0 ? s[i.c] : 0.0, i.fmt);
  }
}

}  // namespace asicpp::sim
