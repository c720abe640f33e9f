// Batch ray-preparation kernels: max-range clipping, length/direction
// computation and Amanatides-Woo DDA setup over structure-of-arrays spans.
//
// These are the floating-point half of the insert hot path. The scan
// inserter's ray-generation stage lays a whole scan out as SoA arrays
// (end_x/end_y/end_z...) and runs these kernels over them; the per-ray DDA
// walk that follows is inherently serial (each step depends on the last),
// but everything before it — clip, norm, direction, per-axis step/t_max/
// t_delta — is independent across rays and streams over contiguous
// arrays.
//
// Bit-identity contract (enforced by tests/geom/test_kernels.cpp): the
// kernels perform the exact IEEE operation sequence of the legacy per-ray
// pipeline — same associativity in the norm ((x*x + y*y) + z*z), clipped
// endpoints recomputed as origin + d*t then re-subtracted, no FMA
// contraction (the kernel TUs build with -ffp-contract=off) — so every
// output array is bitwise equal to what compute_ray_keys computes.
#pragma once

#include <cstddef>
#include <cstdint>

namespace omu::geom::kernels {

/// Clips each ray endpoint to at most `max_range` metres from the shared
/// origin (OctoMap `maxrange` semantics; non-positive = unlimited) and
/// derives the ray geometry the DDA needs:
///   d        = end - origin                  (per component)
///   dist     = sqrt((dx*dx + dy*dy) + dz*dz)
///   clip when max_range > 0 and !(dist <= max_range)  [NaN dist clips,
///            matching the per-ray pipeline]:
///     end    = origin + d * (max_range / dist), then d/dist recomputed
///   length   = dist (or the recomputed norm when clipped)
///   dir      = d / length                    (NaN for zero-length rays —
///            callers never walk a ray whose cells coincide)
/// end_* are updated in place; dir_*, length and truncated are outputs.
void prepare_rays(double* end_x, double* end_y, double* end_z, std::size_t n, double origin_x,
                  double origin_y, double origin_z, double max_range, double* dir_x,
                  double* dir_y, double* dir_z, double* length, uint8_t* truncated);

/// Amanatides-Woo per-axis setup for a batch of rays sharing one origin
/// cell. `origin` is the origin coordinate along this axis; `border_pos` /
/// `border_neg` are the origin cell's positive / negative boundary
/// coordinates (center +- res/2, precomputed once per scan). Per ray:
///   step    = sign(dir)            (0 for zero or NaN direction)
///   t_max   = (border[step] - origin) / dir,  infinity when step == 0
///   t_delta = res / |dir|,                    infinity when step == 0
void dda_setup_axis(const double* dir, std::size_t n, double origin, double border_pos,
                    double border_neg, double res, int8_t* step, double* t_max,
                    double* t_delta);

}  // namespace omu::geom::kernels
