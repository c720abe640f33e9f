// Stage 1 of the scan-ingest pipeline: ray generation.
//
// Turns each point of a scan into the voxel addresses its sensor ray
// touches — the free cells traversed between origin and endpoint (DDA, see
// ray_keys.hpp) plus the occupied endpoint cell — and hands them to a sink
// one ray at a time. The sink is the dedup-policy stage (dedup_policy.hpp);
// keeping the generator policy-free means both insert modes consume the
// exact same per-ray streams, which is what makes their update batches
// comparable.
//
// Internally the generator is data-oriented: a RayBatchPlanner
// (ray_batch.hpp) lays the whole scan out as SoA arrays and batch-computes
// clip/quantize/DDA-setup through the geom/kernels layer; only the serial
// per-ray DDA walk and the sink dispatch remain in the loop below. The
// per-ray semantics are unchanged bit for bit from the legacy
// one-point-at-a-time pipeline.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "geom/pointcloud.hpp"
#include "geom/vec3.hpp"
#include "map/ockey.hpp"
#include "map/phase_stats.hpp"
#include "map/ray_batch.hpp"
#include "map/ray_keys.hpp"
#include "obs/trace.hpp"

namespace omu::map {

/// One ray's voxel addresses as produced by stage 1. The span aliases the
/// generator's internal buffer and is only valid during the sink call.
struct RaySegment {
  std::span<const OcKey> free_keys;  ///< traversed cells, origin to endpoint
  std::optional<OcKey> endpoint;     ///< occupied cell; nullopt when the ray
                                     ///< was truncated or ends out of range
  bool truncated = false;            ///< ray was clipped to max_range
};

/// Clips `end` to at most `max_range` metres from `origin` (OctoMap's
/// `maxrange` semantics). Returns true if the ray was truncated;
/// non-positive `max_range` means unlimited.
inline bool clip_ray_to_max_range(const geom::Vec3d& origin, geom::Vec3d& end, double max_range) {
  if (max_range <= 0.0) return false;
  const geom::Vec3d d = end - origin;
  const double dist = d.norm();
  if (dist <= max_range) return false;
  end = origin + d * (max_range / dist);
  return true;
}

/// Casts every ray of a scan and reports the per-ray voxel addresses.
class RayUpdateGenerator {
 public:
  explicit RayUpdateGenerator(const KeyCoder& coder) : coder_(&coder), planner_(coder) {}

  const KeyCoder& coder() const { return *coder_; }

  /// Telemetry hook: latency of the SoA batch-prepare stage
  /// ("ingest.prepare_ns"). Null (the default) records nothing.
  void set_prepare_histogram(obs::Histogram* histogram) { prepare_ns_ = histogram; }

  /// Invokes `sink(const RaySegment&)` once per point of the scan, in scan
  /// order. A ray whose endpoints fall outside the representable key space
  /// yields an empty segment (the point is still reported so the sink can
  /// count it). `stats`, when non-null, receives ray_casts /
  /// ray_cast_steps increments.
  template <typename Sink>
  void generate(const geom::PointCloud& world_points, const geom::Vec3d& origin, double max_range,
                PhaseStats* stats, Sink&& sink) {
    {
      obs::TraceSpan span(prepare_ns_, "ingest.prepare");
      planner_.prepare(world_points, origin, max_range);
    }
    const std::size_t n = planner_.size();
    const double res = coder_->resolution();
    for (std::size_t i = 0; i < n; ++i) {
      RaySegment segment;
      segment.truncated = planner_.truncated(i);

      ray_buffer_.clear();
      if (planner_.ray_valid(i)) {
        if (stats != nullptr) stats->ray_casts++;
        const OcKey end_key = planner_.end_key(i);
        if (!(end_key == planner_.origin_key())) {  // same cell: nothing traversed
          DdaState dda;
          planner_.init_dda(i, dda);
          dda_walk(dda, planner_.length(i), res, ray_buffer_, stats);
        }
        segment.free_keys = std::span<const OcKey>(ray_buffer_);
        if (!segment.truncated) segment.endpoint = end_key;
      }
      sink(static_cast<const RaySegment&>(segment));
    }
  }

 private:
  const KeyCoder* coder_;
  RayBatchPlanner planner_;
  std::vector<OcKey> ray_buffer_;
  obs::Histogram* prepare_ns_ = nullptr;
};

}  // namespace omu::map
