// Discrete voxel addressing for the 16-level octree.
//
// Following OctoMap, a voxel at the finest resolution is addressed by a
// 3x16-bit key; bit b of each axis key selects the child octant at tree
// depth (15 - b). The key space is centered on the world origin, so the
// map covers [-32768*res, +32767*res] along each axis.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_set>

#include "geom/vec3.hpp"

namespace omu::map {

/// Number of tree levels below the root; leaves live at depth 16.
inline constexpr int kTreeDepth = 16;

/// Key value that corresponds to world coordinate 0 (key-space center).
inline constexpr uint16_t kKeyOrigin = 32768;

/// Discrete address of a finest-resolution voxel (one 16-bit key per axis).
struct OcKey {
  std::array<uint16_t, 3> k{0, 0, 0};

  constexpr OcKey() = default;
  constexpr OcKey(uint16_t kx, uint16_t ky, uint16_t kz) : k{kx, ky, kz} {}

  constexpr uint16_t operator[](std::size_t i) const { return k[i]; }
  constexpr uint16_t& operator[](std::size_t i) { return k[i]; }

  constexpr bool operator==(const OcKey&) const = default;

  /// Packs the key into a single 48-bit integer (useful for hashing and
  /// deterministic ordering in tests).
  constexpr uint64_t packed() const {
    return static_cast<uint64_t>(k[0]) | (static_cast<uint64_t>(k[1]) << 16) |
           (static_cast<uint64_t>(k[2]) << 32);
  }
};

/// Child octant index (0..7) chosen when descending from `depth` to
/// `depth + 1` toward the voxel addressed by `key`.
///
/// Bit 0 of the index is the x split, bit 1 the y split, bit 2 the z split,
/// matching the accelerator's bank numbering (child i is stored in
/// TreeMem bank i, paper Fig. 5).
constexpr int child_index(const OcKey& key, int depth) {
  const int bit = kTreeDepth - 1 - depth;
  return static_cast<int>(((key[0] >> bit) & 1u) | (((key[1] >> bit) & 1u) << 1) |
                          (((key[2] >> bit) & 1u) << 2));
}

/// First-level branch (the child index at the root). The OMU voxel
/// scheduler partitions the octree across the 8 PEs by this value
/// (paper Sec. IV-A).
constexpr int first_level_branch(const OcKey& key) { return child_index(key, 0); }

/// Truncates a key to the voxel-aligned key of its ancestor at `depth`
/// (clears the low bits that select descendants).
constexpr OcKey key_at_depth(const OcKey& key, int depth) {
  const int shift = kTreeDepth - depth;
  if (shift >= 16) return OcKey{};
  const auto mask = static_cast<uint16_t>(~((1u << shift) - 1u));
  return OcKey{static_cast<uint16_t>(key[0] & mask), static_cast<uint16_t>(key[1] & mask),
               static_cast<uint16_t>(key[2] & mask)};
}

/// Hash functor for OcKey (mixes the packed 48-bit value).
struct OcKeyHash {
  std::size_t operator()(const OcKey& key) const {
    uint64_t v = key.packed();
    v = (v ^ (v >> 33)) * 0xFF51AFD7ED558CCDULL;
    v = (v ^ (v >> 33)) * 0xC4CEB9FE1A85EC53ULL;
    return static_cast<std::size_t>(v ^ (v >> 33));
  }
};

/// Unordered set of voxel keys; used for de-duplicating ray updates within
/// one scan (OctoMap's "discretized" insertion).
using KeySet = std::unordered_set<OcKey, OcKeyHash>;

/// Converts between metric coordinates and voxel keys at a fixed
/// resolution (voxel edge length in metres).
class KeyCoder {
 public:
  explicit KeyCoder(double resolution) : resolution_(resolution), inv_resolution_(1.0 / resolution) {}

  double resolution() const { return resolution_; }

  /// Key of the voxel containing coordinate `x` along one axis, or
  /// std::nullopt if it falls outside the representable key space.
  /// NaN, +-Inf and out-of-range coordinates fail the check in the
  /// double domain, before any integer conversion.
  std::optional<uint16_t> axis_key(double x) const {
    const double shifted = std::floor(x * inv_resolution_) + kKeyOrigin;
    if (!(shifted >= 0.0 && shifted <= 65535.0)) return std::nullopt;
    return static_cast<uint16_t>(shifted);
  }

  /// Key of the voxel containing `p`, or std::nullopt if out of range.
  std::optional<OcKey> key_for(const geom::Vec3d& p) const {
    const auto kx = axis_key(p.x);
    const auto ky = axis_key(p.y);
    const auto kz = axis_key(p.z);
    if (!kx || !ky || !kz) return std::nullopt;
    return OcKey{*kx, *ky, *kz};
  }

  /// Center coordinate of the voxel addressed by an axis key.
  double axis_coord(uint16_t key) const {
    return (static_cast<double>(key) - kKeyOrigin + 0.5) * resolution_;
  }

  /// Center of the finest-resolution voxel addressed by `key`.
  geom::Vec3d coord_for(const OcKey& key) const {
    return {axis_coord(key[0]), axis_coord(key[1]), axis_coord(key[2])};
  }

  /// Center of the (larger) voxel addressed by `key` truncated at `depth`;
  /// the node at depth d covers 2^(16-d) finest voxels per axis.
  geom::Vec3d coord_for(const OcKey& key, int depth) const {
    const OcKey base = key_at_depth(key, depth);
    const double cells = static_cast<double>(1u << (kTreeDepth - depth));
    return {(static_cast<double>(base[0]) - kKeyOrigin) * resolution_ + 0.5 * cells * resolution_,
            (static_cast<double>(base[1]) - kKeyOrigin) * resolution_ + 0.5 * cells * resolution_,
            (static_cast<double>(base[2]) - kKeyOrigin) * resolution_ + 0.5 * cells * resolution_};
  }

  /// Edge length of a node at `depth` (depth 16 = finest voxel).
  double node_size(int depth) const {
    return resolution_ * static_cast<double>(1u << (kTreeDepth - depth));
  }

 private:
  double resolution_;
  double inv_resolution_;
};

}  // namespace omu::map
