#include "map/ray_batch.hpp"

#include "geom/kernels/key_kernels.hpp"
#include "geom/kernels/ray_kernels.hpp"

namespace omu::map {

namespace kernels = geom::kernels;

void RayBatchPlanner::resize_buffers(std::size_t n) {
  end_x_.resize(n);
  end_y_.resize(n);
  end_z_.resize(n);
  dir_x_.resize(n);
  dir_y_.resize(n);
  dir_z_.resize(n);
  length_.resize(n);
  truncated_.resize(n);
  end_key_x_.resize(n);
  end_key_y_.resize(n);
  end_key_z_.resize(n);
  end_key_valid_x_.resize(n);
  end_key_valid_y_.resize(n);
  end_key_valid_z_.resize(n);
  step_x_.resize(n);
  step_y_.resize(n);
  step_z_.resize(n);
  t_max_x_.resize(n);
  t_max_y_.resize(n);
  t_max_z_.resize(n);
  t_delta_x_.resize(n);
  t_delta_y_.resize(n);
  t_delta_z_.resize(n);
}

void RayBatchPlanner::prepare(const geom::PointCloud& world_points, const geom::Vec3d& origin,
                              double max_range) {
  const std::size_t n = world_points.size();
  resize_buffers(n);

  // AoS float points -> SoA double endpoints (the only gather in the path;
  // everything below streams over contiguous arrays).
  for (std::size_t i = 0; i < n; ++i) {
    const geom::Vec3d p = world_points[i].cast<double>();
    end_x_[i] = p.x;
    end_y_[i] = p.y;
    end_z_[i] = p.z;
  }

  // Stage 1: clip + ray geometry.
  kernels::prepare_rays(end_x_.data(), end_y_.data(), end_z_.data(), n, origin.x, origin.y,
                        origin.z, max_range, dir_x_.data(), dir_y_.data(), dir_z_.data(),
                        length_.data(), truncated_.data());

  // Stage 2: endpoint quantization (KeyCoder::axis_key semantics).
  const double inv_res = 1.0 / coder_->resolution();
  kernels::quantize_axis(end_x_.data(), n, inv_res, kKeyOrigin, end_key_x_.data(),
                         end_key_valid_x_.data());
  kernels::quantize_axis(end_y_.data(), n, inv_res, kKeyOrigin, end_key_y_.data(),
                         end_key_valid_y_.data());
  kernels::quantize_axis(end_z_.data(), n, inv_res, kKeyOrigin, end_key_z_.data(),
                         end_key_valid_z_.data());

  // The scan origin is shared by every ray: quantize it once.
  const auto origin_key = coder_->key_for(origin);
  origin_valid_ = origin_key.has_value();
  origin_key_ = origin_valid_ ? *origin_key : OcKey{};
  if (!origin_valid_) return;  // nothing will be walked; setup is moot

  // Stage 3: per-axis DDA setup against the shared origin cell. The cell
  // boundary coordinates are scan constants; `c - half` carries the same
  // bits as the legacy `c + step*0.5*res` with step = -1 (IEEE a - b ==
  // a + (-b)).
  const double res = coder_->resolution();
  const double half = 0.5 * res;
  {
    const double c = coder_->axis_coord(origin_key_[0]);
    kernels::dda_setup_axis(dir_x_.data(), n, origin.x, c + half, c - half, res,
                            step_x_.data(), t_max_x_.data(), t_delta_x_.data());
  }
  {
    const double c = coder_->axis_coord(origin_key_[1]);
    kernels::dda_setup_axis(dir_y_.data(), n, origin.y, c + half, c - half, res,
                            step_y_.data(), t_max_y_.data(), t_delta_y_.data());
  }
  {
    const double c = coder_->axis_coord(origin_key_[2]);
    kernels::dda_setup_axis(dir_z_.data(), n, origin.z, c + half, c - half, res,
                            step_z_.data(), t_max_z_.data(), t_delta_z_.data());
  }
}

}  // namespace omu::map
