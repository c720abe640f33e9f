#include "world/world_manifest.hpp"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "map/framed_record.hpp"

namespace omu::world {

namespace {

constexpr char kMagic[8] = {'O', 'M', 'U', 'W', 'R', 'L', 'D', '1'};
constexpr const char* kWhat = "WorldManifest";

/// Upper bound on a plausible manifest payload; a corrupt length field
/// must not be handed to the allocator (same guard as octree_io).
constexpr uint64_t kMaxPayloadBytes = uint64_t{1} << 28;

using map::read_pod;
using map::write_pod;

}  // namespace

void WorldManifest::write(std::ostream& os) const {
  std::ostringstream payload(std::ios::binary);
  write_pod(payload, resolution);
  write_pod(payload, params.log_hit);
  write_pod(payload, params.log_miss);
  write_pod(payload, params.clamp_min);
  write_pod(payload, params.clamp_max);
  write_pod(payload, params.occ_threshold);
  write_pod(payload, static_cast<uint8_t>(params.quantized ? 1 : 0));
  write_pod(payload, static_cast<int32_t>(tile_shift));
  write_pod(payload, static_cast<uint64_t>(tiles.size()));
  for (const TileEntry& tile : tiles) {
    write_pod(payload, tile.coord.tx);
    write_pod(payload, tile.coord.ty);
    write_pod(payload, tile.coord.tz);
    write_pod(payload, tile.content_hash);
    write_pod(payload, tile.leaf_count);
  }

  map::write_framed_record(os, kMagic, std::move(payload).str(), kWhat);
}

WorldManifest WorldManifest::read(std::istream& is) {
  char magic[8];
  is.read(magic, sizeof(magic));
  if (!is || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("WorldManifest: bad magic");
  }
  const std::string bytes = map::read_framed_payload(is, kMaxPayloadBytes, kWhat);
  std::istringstream payload(bytes, std::ios::binary);
  WorldManifest m;
  m.resolution = read_pod<double>(payload, kWhat);
  if (!(m.resolution > 0.0)) throw std::runtime_error("WorldManifest: invalid resolution");
  m.params.log_hit = read_pod<float>(payload, kWhat);
  m.params.log_miss = read_pod<float>(payload, kWhat);
  m.params.clamp_min = read_pod<float>(payload, kWhat);
  m.params.clamp_max = read_pod<float>(payload, kWhat);
  m.params.occ_threshold = read_pod<float>(payload, kWhat);
  m.params.quantized = read_pod<uint8_t>(payload, kWhat) != 0;
  m.tile_shift = static_cast<int>(read_pod<int32_t>(payload, kWhat));
  if (m.tile_shift < 1 || m.tile_shift > map::kTreeDepth) {
    throw std::runtime_error("WorldManifest: invalid tile_shift");
  }
  const auto tile_count = read_pod<uint64_t>(payload, kWhat);
  // 5 pods = 22 bytes per entry; a count the payload cannot hold is corrupt.
  if (tile_count > bytes.size() / 22) {
    throw std::runtime_error("WorldManifest: implausible tile count (corrupt stream)");
  }
  const uint32_t tiles_per_axis = 1u << (map::kTreeDepth - m.tile_shift);
  m.tiles.reserve(static_cast<std::size_t>(tile_count));
  for (uint64_t i = 0; i < tile_count; ++i) {
    TileEntry tile;
    tile.coord.tx = read_pod<uint16_t>(payload, kWhat);
    tile.coord.ty = read_pod<uint16_t>(payload, kWhat);
    tile.coord.tz = read_pod<uint16_t>(payload, kWhat);
    if (tile.coord.tx >= tiles_per_axis || tile.coord.ty >= tiles_per_axis ||
        tile.coord.tz >= tiles_per_axis) {
      throw std::runtime_error("WorldManifest: tile coordinate out of range");
    }
    tile.content_hash = read_pod<uint64_t>(payload, kWhat);
    tile.leaf_count = read_pod<uint64_t>(payload, kWhat);
    m.tiles.push_back(tile);
  }
  return m;
}

std::string WorldManifest::manifest_path(const std::string& world_dir) {
  return world_dir + "/" + kFileName;
}

std::string WorldManifest::tile_path(const std::string& world_dir, const TileGrid& grid,
                                     const TileCoord& coord) {
  return world_dir + "/" + kTilesDir + "/" + grid.tile_name(coord) + ".omap";
}

void WorldManifest::write_file(const std::string& world_dir) const {
  // Write-to-temp + rename, so an interrupted write cannot destroy the
  // previous valid manifest.
  const std::string path = manifest_path(world_dir);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) throw std::runtime_error("WorldManifest: cannot open " + tmp + " for writing");
    write(os);
    if (!os) throw std::runtime_error("WorldManifest: write failure on " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    throw std::runtime_error("WorldManifest: failed committing " + path + ": " + ec.message());
  }
}

WorldManifest WorldManifest::read_file(const std::string& world_dir) {
  const std::string path = manifest_path(world_dir);
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("WorldManifest: cannot open " + path);
  try {
    return read(is);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(std::string(e.what()) + " [" + path + "]");
  }
}

}  // namespace omu::world
