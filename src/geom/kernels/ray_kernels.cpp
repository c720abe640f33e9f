#include "geom/kernels/ray_kernels.hpp"

#include <cmath>
#include <limits>

namespace omu::geom::kernels {

void prepare_rays(double* end_x, double* end_y, double* end_z, std::size_t n, double origin_x,
                  double origin_y, double origin_z, double max_range, double* dir_x,
                  double* dir_y, double* dir_z, double* length, uint8_t* truncated) {
  const bool limited = max_range > 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double ex = end_x[i];
    double ey = end_y[i];
    double ez = end_z[i];
    double dx = ex - origin_x;
    double dy = ey - origin_y;
    double dz = ez - origin_z;
    const double dist = std::sqrt((dx * dx + dy * dy) + dz * dz);
    uint8_t trunc = 0;
    if (limited && !(dist <= max_range)) {
      const double t = max_range / dist;
      ex = origin_x + dx * t;
      ey = origin_y + dy * t;
      ez = origin_z + dz * t;
      dx = ex - origin_x;
      dy = ey - origin_y;
      dz = ez - origin_z;
      trunc = 1;
    }
    const double len = trunc != 0 ? std::sqrt((dx * dx + dy * dy) + dz * dz) : dist;
    end_x[i] = ex;
    end_y[i] = ey;
    end_z[i] = ez;
    dir_x[i] = dx / len;
    dir_y[i] = dy / len;
    dir_z[i] = dz / len;
    length[i] = len;
    truncated[i] = trunc;
  }
}

void dda_setup_axis(const double* dir, std::size_t n, double origin, double border_pos,
                    double border_neg, double res, int8_t* step, double* t_max,
                    double* t_delta) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    const double d = dir[i];
    const int8_t s = d > 0.0 ? int8_t{1} : (d < 0.0 ? int8_t{-1} : int8_t{0});
    step[i] = s;
    if (s != 0) {
      const double border = s > 0 ? border_pos : border_neg;
      t_max[i] = (border - origin) / d;
      t_delta[i] = res / std::abs(d);
    } else {
      t_max[i] = kInf;
      t_delta[i] = kInf;
    }
  }
}

}  // namespace omu::geom::kernels
