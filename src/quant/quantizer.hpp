// Symmetric linear quantization (paper §IV.A: INT8 weights, INT16
// activations).
//
// q = clamp(round(x / scale)); x ~ q * scale. Scales are calibrated from
// absolute maxima (per tensor). Accumulation is 64-bit, modelling the DSP48
// 48-bit accumulator with headroom.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.hpp"

namespace esca::quant {

inline constexpr std::int32_t kInt8Max = 127;
inline constexpr std::int32_t kInt16Max = 32767;

struct QuantParams {
  float scale{1.0F};

  float dequantize(std::int32_t q) const { return static_cast<float>(q) * scale; }
};

/// Scale such that |x| <= abs_max maps onto [-qmax, qmax].
QuantParams calibrate(float abs_max, std::int32_t qmax);

/// Round-to-nearest-even of y, saturated to [-qmax, qmax]. The bounds are
/// applied in float before the integer conversion, so values beyond the
/// int32 range saturate to the bound of their own sign; NaN maps to -qmax.
inline std::int32_t round_saturate(float y, std::int32_t qmax) {
  const auto bound = static_cast<float>(qmax);
  if (!(y > -bound)) return -qmax;
  if (!(y < bound)) return qmax;
  return static_cast<std::int32_t>(std::nearbyint(y));
}

/// Round-to-nearest-even quantization with saturation. Inline: it is the
/// per-element body of every tensor quantization loop.
inline std::int32_t quantize_value(float x, const QuantParams& params, std::int32_t qmax) {
  ESCA_ASSERT(params.scale > 0.0F, "scale must be positive");
  return round_saturate(x / params.scale, qmax);
}

std::vector<std::int8_t> quantize_int8(std::span<const float> values, const QuantParams& params);
std::vector<std::int16_t> quantize_int16(std::span<const float> values,
                                         const QuantParams& params);

/// Max |x - dequant(quant(x))| over the span (bounded by scale/2 pre-clamp).
float quantization_error(std::span<const float> values, const QuantParams& params,
                         std::int32_t qmax);

}  // namespace esca::quant
