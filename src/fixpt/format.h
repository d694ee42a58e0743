// Fixed-point number formats.
//
// The paper (section 3) simulates finite-wordlength effects with a C++
// fixed-point library that models *quantization* of values rather than their
// bit-vector representation; this is where most of the simulation speedup at
// the word level comes from. A Format captures everything needed to quantize
// a real value: total wordlength, integer wordlength, signedness, and the
// rounding / overflow disciplines.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

namespace asicpp::fixpt {

/// Rounding discipline applied when a value has more fractional precision
/// than the target format can hold.
enum class Quant {
  kTruncate,  ///< drop extra bits (round toward -infinity on the mantissa)
  kRound,     ///< round to nearest, ties away from zero
};

/// Overflow discipline applied when a value exceeds the representable range.
enum class Overflow {
  kSaturate,  ///< clamp to the closest representable extreme
  kWrap,      ///< two's-complement wraparound of the mantissa
};

/// Describes a fixed-point representation <wl, iwl> as in the paper's fixed
/// point library: `wl` total bits including the sign bit when signed, `iwl`
/// integer bits (excluding sign). Fractional bits = wl - iwl - (sign ? 1 : 0).
/// A negative fractional-bit count is allowed (coarser-than-integer grids).
struct Format {
  int wl = 32;
  int iwl = 15;
  bool is_signed = true;
  Quant quant = Quant::kTruncate;
  Overflow ovf = Overflow::kSaturate;

  constexpr int frac_bits() const { return wl - iwl - (is_signed ? 1 : 0); }

  /// Smallest representable increment.
  double lsb() const;
  /// Largest representable value.
  double max_value() const;
  /// Smallest (most negative) representable value.
  double min_value() const;

  bool operator==(const Format&) const = default;

  std::string to_string() const;
};

/// Quantization into one Format with every Format-derived constant computed
/// once: the mantissa scale and its inverse, the mantissa bounds and the
/// wrap span. The compiled engines build one per distinct format at compile
/// time (casts, quantized input loads, register commits) and call it per
/// value.
///
/// Round or floor the scaled value, clamp or wrap the mantissa into
/// [lo, hi], scale back. Scaling by a power of two is exact, so the result
/// is bit-identical to doing the same steps with ldexp, for every format
/// whose lsb and extreme values are finite normal doubles (|frac_bits| + wl
/// below ~1000). NaN passes through; +-inf saturates, and wraps to NaN.
class Quantizer {
 public:
  explicit Quantizer(const Format& f);

  double operator()(double v) const {
    double m = round_ ? std::round(v * scale_) : std::floor(v * scale_);
    if (saturate_) {
      // Branch-free clamp; NaN stays NaN, as it fails both range tests.
      m = std::min(std::max(m, lo_), hi_);
    } else if (m > hi_ || m < lo_) {
      // Two's-complement wraparound: fold the mantissa into [lo, hi].
      m = std::fmod(m - lo_, span_);
      if (m < 0) m += span_;
      m += lo_;
    }
    return m * inv_scale_;
  }

 private:
  double scale_, inv_scale_;  ///< 2^frac_bits and its inverse
  double hi_, lo_;            ///< mantissa bounds
  double span_;               ///< 2^wl, the wrap modulus
  bool round_, saturate_;
};

/// Quantize `v` into format `f` (rounding, then overflow handling): the one
/// definition, `Quantizer(f)(v)`.
double quantize(double v, const Format& f);

/// True when `v` is exactly representable in `f`.
bool representable(double v, const Format& f);

/// Format able to hold the exact sum of values in formats a and b.
Format add_format(const Format& a, const Format& b);
/// Format able to hold the exact product of values in formats a and b.
Format mul_format(const Format& a, const Format& b);

}  // namespace asicpp::fixpt
