#include "geom/kernels/key_kernels.hpp"

#include <cmath>

namespace omu::geom::kernels {

void packed48_batch(const uint16_t* x, const uint16_t* y, const uint16_t* z, std::size_t n,
                    uint64_t* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = packed48(x[i], y[i], z[i]);
  }
}

void quantize_axis(const double* x, std::size_t n, double inv_res, int32_t key_origin,
                   uint16_t* key_out, uint8_t* valid_out) {
  for (std::size_t i = 0; i < n; ++i) {
    // Range-check in the double domain: NaN, +-Inf and huge products fail
    // the window before any integer conversion, so the cast below only
    // ever sees values well inside int64_t.
    const double shifted = std::floor(x[i] * inv_res) + key_origin;
    const bool valid = shifted >= 0.0 && shifted <= 65535.0;
    key_out[i] = valid ? static_cast<uint16_t>(shifted) : uint16_t{0};
    valid_out[i] = valid ? uint8_t{1} : uint8_t{0};
  }
}

}  // namespace omu::geom::kernels
