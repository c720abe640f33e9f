// The hot-path batch kernels (src/geom/kernels/) against their per-element
// and per-ray references: every kernel must reproduce the legacy per-ray
// pipeline's arithmetic bit for bit on every input — including the edge
// rays (zero-length, axis-aligned, max_range-truncated, negative
// coordinates) and, for quantization, non-finite and huge coordinates.
#include "geom/kernels/key_kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <vector>

#include "geom/kernels/logodds_kernels.hpp"
#include "geom/kernels/ray_kernels.hpp"
#include "geom/rng.hpp"
#include "map/ockey.hpp"
#include "map/ray_generator.hpp"

namespace omu::geom::kernels {
namespace {

// Bitwise equality for floating-point outputs: NaN payloads and signed
// zeros must agree too, not just numeric values.
void expect_bits_eq(double a, double b, const char* what, std::size_t i) {
  EXPECT_EQ(std::bit_cast<uint64_t>(a), std::bit_cast<uint64_t>(b))
      << what << "[" << i << "]: " << a << " vs " << b;
}

void expect_bits_eq(float a, float b, const char* what, std::size_t i) {
  EXPECT_EQ(std::bit_cast<uint32_t>(a), std::bit_cast<uint32_t>(b))
      << what << "[" << i << "]: " << a << " vs " << b;
}

// ---- Morton / packed bit kernels -------------------------------------------

static_assert(part1by2_16(0) == 0);
static_assert(part1by2_16(1) == 1);
static_assert(part1by2_16(0x8000) == (1ull << 45));
static_assert(part1by2_16(0xFFFF) == 0x0000'2492'4924'9249ull);
static_assert(morton48(0xFFFF, 0xFFFF, 0xFFFF) == 0x0000'FFFF'FFFF'FFFFull);
static_assert(packed48(1, 2, 3) == (1ull | (2ull << 16) | (3ull << 32)));

TEST(KeyKernels, MortonChildBitsMatchChildIndex) {
  // The whole point of the interleave: (morton >> 3*(15-d)) & 7 must be the
  // per-depth child octant the octree descent would derive from three
  // per-axis bit extracts.
  SplitMix64 rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    const map::OcKey key{static_cast<uint16_t>(rng.next_below(0x10000)),
                         static_cast<uint16_t>(rng.next_below(0x10000)),
                         static_cast<uint16_t>(rng.next_below(0x10000))};
    const uint64_t morton = morton48(key[0], key[1], key[2]);
    for (int depth = 0; depth < map::kTreeDepth; ++depth) {
      EXPECT_EQ(static_cast<int>((morton >> (3 * (map::kTreeDepth - 1 - depth))) & 7),
                map::child_index(key, depth))
          << "depth " << depth;
    }
  }
}

TEST(KeyKernels, Packed48MatchesOcKeyPacked) {
  SplitMix64 rng(12);
  for (int trial = 0; trial < 200; ++trial) {
    const map::OcKey key{static_cast<uint16_t>(rng.next_below(0x10000)),
                         static_cast<uint16_t>(rng.next_below(0x10000)),
                         static_cast<uint16_t>(rng.next_below(0x10000))};
    EXPECT_EQ(packed48(key[0], key[1], key[2]), key.packed());
  }
}

TEST(KeyKernels, BatchVariantsMatchScalarAndElementwise) {
  SplitMix64 rng(13);
  for (std::size_t n = 0; n <= 37; ++n) {
    std::vector<uint16_t> x(n), y(n), z(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = static_cast<uint16_t>(rng.next_below(0x10000));
      y[i] = static_cast<uint16_t>(rng.next_below(0x10000));
      z[i] = static_cast<uint16_t>(rng.next_below(0x10000));
    }
    std::vector<uint64_t> packed(n);
    packed48_batch(x.data(), y.data(), z.data(), n, packed.data());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(packed[i], packed48(x[i], y[i], z[i])) << "n=" << n << " i=" << i;
    }
  }
}

// ---- Coordinate quantization -----------------------------------------------

TEST(KeyKernels, QuantizeAxisMatchesKeyCoder) {
  const double res = 0.2;
  const map::KeyCoder coder(res);
  SplitMix64 rng(14);

  std::vector<double> coords;
  // In-range randoms, exact voxel boundaries, negative coordinates, and
  // values just inside / outside the representable key space.
  for (int i = 0; i < 200; ++i) coords.push_back(rng.uniform(-50.0, 50.0));
  for (int i = -10; i <= 10; ++i) coords.push_back(static_cast<double>(i) * res);
  coords.insert(coords.end(),
                {0.0, -0.0, res * 0.5, -res * 0.5, -32768.0 * res, -32768.0 * res - 1e-9,
                 32767.0 * res, 32768.0 * res, 1e9, -1e9});
  // Non-finite and huge coordinates are invalid in both, and must be
  // rejected before floor(x / res) reaches an integer conversion (undefined
  // behaviour for NaN, infinities and anything beyond 2^63).
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<double> invalid{std::numeric_limits<double>::quiet_NaN(), kInf, -kInf,
                                    1e30, -1e30};
  coords.insert(coords.end(), invalid.begin(), invalid.end());

  const std::size_t n = coords.size();
  std::vector<uint16_t> keys(n);
  std::vector<uint8_t> valid(n);
  quantize_axis(coords.data(), n, 1.0 / res, map::kKeyOrigin, keys.data(), valid.data());

  for (std::size_t i = 0; i < n; ++i) {
    const auto expected = coder.axis_key(coords[i]);
    EXPECT_EQ(valid[i] != 0, expected.has_value()) << "coord " << coords[i];
    if (expected) EXPECT_EQ(keys[i], *expected) << "coord " << coords[i];
  }
  for (std::size_t i = n - invalid.size(); i < n; ++i) {
    EXPECT_EQ(valid[i], 0) << "coord " << coords[i];
  }
}

// ---- Ray preparation -------------------------------------------------------

struct RaySoA {
  std::vector<double> end_x, end_y, end_z;
  std::vector<double> dir_x, dir_y, dir_z, length;
  std::vector<uint8_t> truncated;

  explicit RaySoA(std::size_t n)
      : end_x(n), end_y(n), end_z(n), dir_x(n), dir_y(n), dir_z(n), length(n), truncated(n) {}
};

// A batch covering every edge-ray class: random, zero-length, axis-aligned
// (both senses), beyond-max_range, and deep-negative coordinates.
std::vector<Vec3d> edge_ray_endpoints(SplitMix64& rng, const Vec3d& origin) {
  std::vector<Vec3d> ends;
  for (int i = 0; i < 40; ++i) {
    ends.push_back({rng.uniform(-12.0, 12.0), rng.uniform(-12.0, 12.0), rng.uniform(-12.0, 12.0)});
  }
  ends.push_back(origin);                                   // zero-length
  ends.push_back({origin.x + 3.0, origin.y, origin.z});     // +x axis-aligned
  ends.push_back({origin.x, origin.y - 4.0, origin.z});     // -y axis-aligned
  ends.push_back({origin.x, origin.y, origin.z + 100.0});   // truncated (max_range 6)
  ends.push_back({-9.5, -8.25, -7.125});                    // negative coords
  ends.push_back({origin.x + 40.0, origin.y - 40.0, origin.z + 40.0});  // truncated diagonal
  return ends;
}

TEST(RayKernels, PrepareRaysMatchesLegacyPerRayClip) {
  SplitMix64 rng(16);
  const Vec3d origin{-1.2, 0.8, 0.4};
  for (const double max_range : {-1.0, 0.0, 6.0}) {
    const auto ends = edge_ray_endpoints(rng, origin);
    const std::size_t n = ends.size();
    RaySoA s(n);
    for (std::size_t i = 0; i < n; ++i) {
      s.end_x[i] = ends[i].x;
      s.end_y[i] = ends[i].y;
      s.end_z[i] = ends[i].z;
    }
    prepare_rays(s.end_x.data(), s.end_y.data(), s.end_z.data(), n, origin.x, origin.y, origin.z,
                 max_range, s.dir_x.data(), s.dir_y.data(), s.dir_z.data(), s.length.data(),
                 s.truncated.data());
    for (std::size_t i = 0; i < n; ++i) {
      // The legacy pipeline: clip the endpoint, then recompute d / length /
      // dir from the clipped endpoint exactly as compute_ray_keys does.
      Vec3d end = ends[i];
      const bool truncated = map::clip_ray_to_max_range(origin, end, max_range);
      const Vec3d d = end - origin;
      const double length = d.norm();
      const Vec3d dir = d / length;
      EXPECT_EQ(s.truncated[i] != 0, truncated) << i;
      expect_bits_eq(s.end_x[i], end.x, "end_x", i);
      expect_bits_eq(s.end_y[i], end.y, "end_y", i);
      expect_bits_eq(s.end_z[i], end.z, "end_z", i);
      expect_bits_eq(s.length[i], length, "length", i);
      expect_bits_eq(s.dir_x[i], dir.x, "dir_x", i);
      expect_bits_eq(s.dir_y[i], dir.y, "dir_y", i);
      expect_bits_eq(s.dir_z[i], dir.z, "dir_z", i);
    }
  }
}

TEST(RayKernels, DdaSetupAxisMatchesPerRayReference) {
  SplitMix64 rng(17);
  const double res = 0.2;
  const double origin = 0.37;
  // The origin cell's boundary coordinates, precomputed the way the batch
  // planner does (center +- res/2).
  const double center = 0.5 * res + std::floor(origin / res) * res;
  const double border_pos = center + 0.5 * res;
  const double border_neg = center - 0.5 * res;

  std::vector<double> dir;
  for (int i = 0; i < 60; ++i) dir.push_back(rng.uniform(-1.0, 1.0));
  dir.insert(dir.end(), {0.0, -0.0, 1.0, -1.0,
                         std::numeric_limits<double>::quiet_NaN()});  // zero-length ray dir
  const std::size_t n = dir.size();

  std::vector<int8_t> steps(n);
  std::vector<double> t_max(n), t_delta(n);
  dda_setup_axis(dir.data(), n, origin, border_pos, border_neg, res, steps.data(),
                 t_max.data(), t_delta.data());

  for (std::size_t i = 0; i < n; ++i) {
    // Legacy per-ray setup (compute_ray_keys): sign, boundary distance over
    // dir, res over |dir|; infinities on the zero-step axes.
    const int step = dir[i] > 0.0 ? 1 : (dir[i] < 0.0 ? -1 : 0);
    EXPECT_EQ(steps[i], step) << "dir " << dir[i];
    if (step != 0) {
      const double border = step > 0 ? border_pos : border_neg;
      expect_bits_eq(t_max[i], (border - origin) / dir[i], "t_max_ref", i);
      expect_bits_eq(t_delta[i], res / std::abs(dir[i]), "t_delta_ref", i);
    } else {
      EXPECT_EQ(t_max[i], std::numeric_limits<double>::infinity()) << i;
      EXPECT_EQ(t_delta[i], std::numeric_limits<double>::infinity()) << i;
    }
  }
}

// ---- Log-odds saturation ---------------------------------------------------

TEST(LogOddsKernels, SaturatingAddMatchesClamp) {
  SplitMix64 rng(18);
  const float lo = -2.0f, hi = 3.5f;
  for (int trial = 0; trial < 500; ++trial) {
    const float value = static_cast<float>(rng.uniform(-3.0, 4.5));
    const float delta = static_cast<float>(rng.uniform(-1.0, 1.0));
    expect_bits_eq(saturating_add(value, delta, lo, hi), std::clamp(value + delta, lo, hi),
                   "saturating_add", static_cast<std::size_t>(trial));
  }
  // Exactly-at-clamp results keep the clamp bound's bits.
  expect_bits_eq(saturating_add(hi, 1.0f, lo, hi), hi, "at_hi", 0);
  expect_bits_eq(saturating_add(lo, -1.0f, lo, hi), lo, "at_lo", 0);
}

TEST(LogOddsKernels, UpdateSaturatesMatchesEarlyAbortCondition) {
  const float lo = -2.0f, hi = 3.5f;
  // Saturated in the update direction: abort.
  EXPECT_TRUE(update_saturates(hi, 0.85f, lo, hi));
  EXPECT_TRUE(update_saturates(lo, -0.4f, lo, hi));
  // Saturated against the update direction: must not abort.
  EXPECT_FALSE(update_saturates(hi, -0.4f, lo, hi));
  EXPECT_FALSE(update_saturates(lo, 0.85f, lo, hi));
  // Interior values never abort.
  EXPECT_FALSE(update_saturates(0.0f, 0.85f, lo, hi));
  EXPECT_FALSE(update_saturates(0.0f, -0.4f, lo, hi));
  // A zero delta is saturated in both directions.
  EXPECT_TRUE(update_saturates(hi, 0.0f, lo, hi));
  EXPECT_TRUE(update_saturates(lo, 0.0f, lo, hi));
}

}  // namespace
}  // namespace omu::geom::kernels
