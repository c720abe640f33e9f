// SoA ray batching for the scan-ingest hot path.
//
// The legacy ray-generation stage processed one AoS point at a time:
// clip, quantize, DDA-setup, walk, repeat — every stage interleaved, no
// batch to vectorize over. RayBatchPlanner restructures the front half of
// that loop data-oriented: one prepare() lays the whole scan out as
// structure-of-arrays (clipped endpoints, unit directions, lengths,
// truncation flags, per-axis endpoint keys, per-axis DDA setup), computed
// by the geom/kernels batch kernels with the same bits as the per-ray
// compute_ray_keys arithmetic. The per-ray DDA walk that consumes the plan
// stays serial — each step depends on the previous cell — and is shared
// with the single-ray path (ray_keys.hpp: dda_walk), so batch and per-ray
// traversals are the same code and the same bits.
//
// All buffers are members reused scan over scan (reserve-once growth), so
// steady-state scan streaming performs no per-scan allocations beyond
// vector growth to the largest scan seen.
#pragma once

#include <cstdint>
#include <vector>

#include "geom/pointcloud.hpp"
#include "geom/vec3.hpp"
#include "map/ockey.hpp"
#include "map/ray_keys.hpp"

namespace omu::map {

/// Per-scan SoA ray plan: build once with prepare(), then read per-ray.
class RayBatchPlanner {
 public:
  explicit RayBatchPlanner(const KeyCoder& coder) : coder_(&coder) {}

  const KeyCoder& coder() const { return *coder_; }

  /// Builds the plan for one scan: clips every endpoint to `max_range`
  /// (non-positive = unlimited), quantizes endpoint keys, and computes the
  /// per-axis DDA setup against the shared origin cell.
  void prepare(const geom::PointCloud& world_points, const geom::Vec3d& origin,
               double max_range);

  std::size_t size() const { return end_x_.size(); }

  /// False when the scan origin itself is outside the key space (every ray
  /// of the scan is then invalid).
  bool origin_valid() const { return origin_valid_; }
  const OcKey& origin_key() const { return origin_key_; }

  /// True when both the origin and this ray's (clipped) endpoint quantize
  /// into the key space — the condition under which the ray is cast.
  bool ray_valid(std::size_t i) const {
    return origin_valid_ && (end_key_valid_x_[i] & end_key_valid_y_[i] & end_key_valid_z_[i]) != 0;
  }

  bool truncated(std::size_t i) const { return truncated_[i] != 0; }
  double length(std::size_t i) const { return length_[i]; }

  /// Precondition: ray_valid(i).
  OcKey end_key(std::size_t i) const {
    return OcKey{end_key_x_[i], end_key_y_[i], end_key_z_[i]};
  }

  /// Copies ray i's traversal state (origin/end cells + per-axis setup)
  /// into `dda`, ready for dda_walk. Precondition: ray_valid(i) and
  /// end_key(i) != origin_key().
  void init_dda(std::size_t i, DdaState& dda) const {
    dda.current = origin_key_;
    dda.end = end_key(i);
    dda.step[0] = step_x_[i];
    dda.step[1] = step_y_[i];
    dda.step[2] = step_z_[i];
    dda.t_max[0] = t_max_x_[i];
    dda.t_max[1] = t_max_y_[i];
    dda.t_max[2] = t_max_z_[i];
    dda.t_delta[0] = t_delta_x_[i];
    dda.t_delta[1] = t_delta_y_[i];
    dda.t_delta[2] = t_delta_z_[i];
  }

 private:
  void resize_buffers(std::size_t n);

  const KeyCoder* coder_;

  bool origin_valid_ = false;
  OcKey origin_key_{};

  // Clipped endpoints / ray geometry (prepare_rays outputs).
  std::vector<double> end_x_, end_y_, end_z_;
  std::vector<double> dir_x_, dir_y_, dir_z_;
  std::vector<double> length_;
  std::vector<uint8_t> truncated_;

  // Endpoint keys (quantize_axis outputs).
  std::vector<uint16_t> end_key_x_, end_key_y_, end_key_z_;
  std::vector<uint8_t> end_key_valid_x_, end_key_valid_y_, end_key_valid_z_;

  // Per-axis DDA setup (dda_setup_axis outputs).
  std::vector<int8_t> step_x_, step_y_, step_z_;
  std::vector<double> t_max_x_, t_max_y_, t_max_z_;
  std::vector<double> t_delta_x_, t_delta_y_, t_delta_z_;
};

}  // namespace omu::map
