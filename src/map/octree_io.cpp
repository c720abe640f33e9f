#include "map/octree_io.hpp"

#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "map/framed_record.hpp"

namespace omu::map {

namespace {

// Format v2 is a framed record (framed_record.hpp). v1 files (unframed, no
// checksum) are still readable.
constexpr char kMagic[8] = {'O', 'M', 'U', 'T', 'R', 'E', 'E', '2'};
constexpr char kMagicV1[8] = {'O', 'M', 'U', 'T', 'R', 'E', 'E', '1'};
constexpr const char* kWhat = "OctreeIo";

/// Upper bound on a plausible serialized tree (the 5-byte/node payload of
/// a fully expanded pool would be far below this); anything larger is a
/// corrupt size field and must not be handed to the allocator.
constexpr uint64_t kMaxPayloadBytes = uint64_t{1} << 32;

}  // namespace

void OctreeIo::write(const OccupancyOctree& tree, std::ostream& os) {
  std::ostringstream payload(std::ios::binary);
  write_pod(payload, tree.resolution());
  const OccupancyParams& p = tree.params();
  write_pod(payload, p.log_hit);
  write_pod(payload, p.log_miss);
  write_pod(payload, p.clamp_min);
  write_pod(payload, p.clamp_max);
  write_pod(payload, p.occ_threshold);
  write_pod(payload, static_cast<uint8_t>(p.quantized ? 1 : 0));
  write_recurs(tree, 0, payload);

  write_framed_record(os, kMagic, std::move(payload).str(), kWhat);
}

void OctreeIo::write_recurs(const OccupancyOctree& tree, int32_t node_idx, std::ostream& os) {
  const auto& node = tree.pool_[static_cast<std::size_t>(node_idx)];
  // state() maps the arena's children-field sentinels back to the v1/v2
  // state byte (0 unknown, 1 leaf, 2 inner) — the on-disk format is
  // unchanged by the arena node layout.
  write_pod(os, static_cast<uint8_t>(node.state()));
  if (node.is_unknown()) return;
  write_pod(os, node.value);
  if (node.is_inner()) {
    for (int i = 0; i < 8; ++i) write_recurs(tree, node.children + i, os);
  }
}

OccupancyOctree OctreeIo::read(std::istream& is) {
  char magic[8];
  is.read(magic, sizeof(magic));
  if (!is) throw std::runtime_error("OctreeIo: bad magic");
  if (std::memcmp(magic, kMagicV1, sizeof(kMagicV1)) == 0) {
    // Legacy v1: the node stream follows the header directly, unframed and
    // without a checksum — corruption detection is structural only.
    return read_payload(is);
  }
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("OctreeIo: bad magic");
  }
  std::istringstream payload(read_framed_payload(is, kMaxPayloadBytes, kWhat),
                             std::ios::binary);
  return read_payload(payload);
}

OccupancyOctree OctreeIo::read_payload(std::istream& is) {
  const double resolution = read_pod<double>(is, kWhat);
  if (!(resolution > 0.0)) throw std::runtime_error("OctreeIo: invalid resolution");
  OccupancyParams p;
  p.log_hit = read_pod<float>(is, kWhat);
  p.log_miss = read_pod<float>(is, kWhat);
  p.clamp_min = read_pod<float>(is, kWhat);
  p.clamp_max = read_pod<float>(is, kWhat);
  p.occ_threshold = read_pod<float>(is, kWhat);
  p.quantized = read_pod<uint8_t>(is, kWhat) != 0;

  OccupancyOctree tree(resolution, p);
  read_recurs(is, tree, 0, 0);
  return tree;
}

void OctreeIo::read_recurs(std::istream& is, OccupancyOctree& tree, int32_t node_idx, int depth) {
  const auto state = static_cast<NodeState>(read_pod<uint8_t>(is, kWhat));
  switch (state) {
    case NodeState::kUnknown:
      tree.pool_[static_cast<std::size_t>(node_idx)].make_unknown();
      return;
    case NodeState::kLeaf:
      tree.pool_[static_cast<std::size_t>(node_idx)].make_leaf(read_pod<float>(is, kWhat));
      return;
    case NodeState::kInner: {
      if (depth >= kTreeDepth) throw std::runtime_error("OctreeIo: inner node below max depth");
      const float value = read_pod<float>(is, kWhat);
      const int32_t base = tree.alloc_block();
      auto& node = tree.pool_[static_cast<std::size_t>(node_idx)];
      node.value = value;
      node.children = base;
      for (int i = 0; i < 8; ++i) read_recurs(is, tree, base + i, depth + 1);
      return;
    }
  }
  throw std::runtime_error("OctreeIo: invalid node state byte");
}

bool OctreeIo::write_file(const OccupancyOctree& tree, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  if (!os) return false;
  try {
    write(tree, os);
  } catch (const std::runtime_error&) {
    return false;
  }
  return static_cast<bool>(os);
}

std::optional<OccupancyOctree> OctreeIo::read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return std::nullopt;
  try {
    return read(is);
  } catch (const std::runtime_error&) {
    return std::nullopt;
  }
}

}  // namespace omu::map
