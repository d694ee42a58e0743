#include "fixpt/format.h"

#include <bit>
#include <cmath>
#include <sstream>

namespace asicpp::fixpt {

double Format::lsb() const { return std::ldexp(1.0, -frac_bits()); }

double Format::max_value() const {
  const int magnitude_bits = wl - (is_signed ? 1 : 0);
  return (std::ldexp(1.0, magnitude_bits) - 1.0) * lsb();
}

double Format::min_value() const {
  if (!is_signed) return 0.0;
  return -std::ldexp(1.0, wl - 1) * lsb();
}

std::string Format::to_string() const {
  std::ostringstream os;
  os << (is_signed ? "fix<" : "ufix<") << wl << ',' << iwl << ','
     << (quant == Quant::kRound ? "rnd" : "trn") << ','
     << (ovf == Overflow::kSaturate ? "sat" : "wrap") << '>';
  return os.str();
}

namespace {

// 2^k, exact: built from the exponent bits in the normal range, which is
// every format a design uses; ldexp covers the rest.
double pow2(int k) {
  if (k < -1022 || k > 1023) return std::ldexp(1.0, k);
  return std::bit_cast<double>(static_cast<std::uint64_t>(k + 1023) << 52);
}

}  // namespace

Quantizer::Quantizer(const Format& f)
    : scale_(pow2(f.frac_bits())),
      inv_scale_(pow2(-f.frac_bits())),
      hi_(pow2(f.wl - (f.is_signed ? 1 : 0)) - 1.0),
      lo_(f.is_signed ? -pow2(f.wl - 1) : 0.0),
      span_(pow2(f.wl)),
      round_(f.quant == Quant::kRound),
      saturate_(f.ovf == Overflow::kSaturate) {}

double quantize(double v, const Format& f) { return Quantizer(f)(v); }

bool representable(double v, const Format& f) { return quantize(v, f) == v; }

Format add_format(const Format& a, const Format& b) {
  Format r;
  r.is_signed = a.is_signed || b.is_signed;
  const int frac = std::max(a.frac_bits(), b.frac_bits());
  const int iwl = std::max(a.iwl, b.iwl) + 1;  // one carry bit
  r.iwl = iwl;
  r.wl = iwl + frac + (r.is_signed ? 1 : 0);
  r.quant = a.quant;
  r.ovf = a.ovf;
  return r;
}

Format mul_format(const Format& a, const Format& b) {
  Format r;
  r.is_signed = a.is_signed || b.is_signed;
  const int frac = a.frac_bits() + b.frac_bits();
  const int iwl = a.iwl + b.iwl + 1;
  r.iwl = iwl;
  r.wl = iwl + frac + (r.is_signed ? 1 : 0);
  r.quant = a.quant;
  r.ovf = a.ovf;
  return r;
}

}  // namespace asicpp::fixpt
