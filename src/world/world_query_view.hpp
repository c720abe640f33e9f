// Federated, immutable query view over a tiled world — the read side of
// the out-of-core map.
//
// A WorldQueryView holds one immutable query::MapSnapshot per non-empty
// tile plus a coarse "tile summary" index (max log-odds per octree node
// above the tile-root depth, folded from the per-tile maxima). Queries
// reproduce MapSnapshot's descent bit for bit with the node lookup
// federated across tiles:
//   depth <  tile_depth  -> the summary index (node spans many tiles; its
//                           max over tiles' maxima equals the monolithic
//                           inner-node max, float max being associative)
//   depth >= tile_depth  -> MapSnapshot::probe on the owning tile, whose
//                           sub-tree is bit-identical to the monolithic
//                           tree below the tile root (see tile_grid.hpp)
// (a point query reaching tile depth does one tile lookup and then the
// owning snapshot's own search), so point, batch, coarse-depth and AABB
// answers match a monolithic octree of the same update stream exactly — including views captured
// after tiles were evicted and reloaded (tests/world enforce this).
//
// Where the structures can differ: a monolithic tree may prune eight
// equal-valued *tiles* into one leaf above the tile-root depth. The
// federation then sees an inner node with the same value and descends to
// the tiles' equal leaves — same classification, same box verdicts; only
// a node-level structural probe could tell the difference, which is why
// the view exposes value queries, not a search().
//
// Construction is the only mutation; all queries are const and lock-free,
// so any number of reader threads can use one view while the writer keeps
// mapping and the pager keeps evicting (a tile snapshot outlives its
// evicted tile through the shared_ptr). WorldViewService publishes
// successive views to concurrent readers at flush boundaries.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "geom/aabb.hpp"
#include "geom/vec3.hpp"
#include "map/ockey.hpp"
#include "map/occupancy_params.hpp"
#include "query/map_snapshot.hpp"
#include "world/tile_grid.hpp"

namespace omu::world {

/// The immutable federated view. Always held by shared_ptr; built by
/// TiledWorldMap::capture_view().
class WorldQueryView {
 public:
  /// Builds a view from per-tile snapshots (empty snapshots are skipped).
  /// `epoch` tags the view with its capture sequence number.
  static std::shared_ptr<const WorldQueryView> build(
      const TileGrid& grid, map::OccupancyParams params,
      std::vector<std::pair<TileId, std::shared_ptr<const query::MapSnapshot>>> tiles,
      uint64_t epoch);

  // ---- Point / batch / box queries (bit-identical to a monolithic map) ---

  /// Classifies the voxel at `key`; `max_depth` < 16 answers at coarser
  /// resolution — identical semantics to MapSnapshot::classify.
  map::Occupancy classify(const map::OcKey& key, int max_depth = map::kTreeDepth) const;

  /// Classifies a metric position (out-of-range -> unknown).
  map::Occupancy classify(const geom::Vec3d& position) const;

  /// Classifies a batch of keys; out[i] corresponds to keys[i].
  void classify_batch(const std::vector<map::OcKey>& keys, std::vector<map::Occupancy>& out,
                      int max_depth = map::kTreeDepth) const;

  /// True if any voxel intersecting the metric box is occupied — identical
  /// semantics to OccupancyOctree::any_occupied_in_box, including the
  /// conservative treat-unknown-as-occupied mode.
  bool any_occupied_in_box(const geom::Aabb& box, bool treat_unknown_as_occupied = false) const;

  // ---- Introspection -----------------------------------------------------

  const TileGrid& grid() const { return grid_; }
  const map::KeyCoder& coder() const { return coder_; }
  const map::OccupancyParams& params() const { return params_; }
  double resolution() const { return coder_.resolution(); }
  uint64_t epoch() const { return epoch_; }
  std::size_t tile_count() const { return tiles_.size(); }
  bool empty() const { return tiles_.empty(); }

  /// Total leaves across the federated tile snapshots.
  std::size_t leaf_count() const;

  /// Approximate memory footprint of the federation structures plus all
  /// held tile snapshots, in bytes. (View memory is read-side and *not*
  /// counted against the pager's resident-tile budget.)
  std::size_t memory_bytes() const;

  /// The tile snapshot covering `id`, or nullptr.
  std::shared_ptr<const query::MapSnapshot> tile_snapshot(TileId id) const;

  /// All non-empty tile ids in ascending order — the shard keys a delta
  /// subscription diffs between epochs (service layer).
  std::vector<TileId> tile_ids() const;

 private:
  WorldQueryView(const TileGrid& grid, map::OccupancyParams params,
                 std::vector<std::pair<TileId, std::shared_ptr<const query::MapSnapshot>>> tiles,
                 uint64_t epoch);

  /// Federated analogue of MapSnapshot::probe at (key, depth).
  query::SnapshotNodeProbe probe(const map::OcKey& key, int depth) const;

  bool box_recurs(const map::OcKey& base, int depth, const geom::Aabb& box,
                  bool unknown_occupied) const;

  TileGrid grid_;
  map::KeyCoder coder_;
  map::OccupancyParams params_;
  uint64_t epoch_ = 0;
  std::unordered_map<TileId, std::shared_ptr<const query::MapSnapshot>> tiles_;
  /// summary_[d] maps a depth-d-aligned packed key to the max log-odds
  /// over the tiles below it, for d in [1, tile_depth); the root max is
  /// held separately. Equals the monolithic inner-node values there.
  std::vector<std::unordered_map<uint64_t, float>> summary_;
  query::SnapshotNodeProbe root_{};
};

/// Publishes immutable world views to concurrent readers — the world-layer
/// analogue of query::QueryService. Reads take a brief mutex (a pointer
/// copy, no build work); TiledWorldMap::flush() publishes through
/// attach_view_service. Readers should hold one view per query batch.
class WorldViewService {
 public:
  WorldViewService() = default;
  WorldViewService(const WorldViewService&) = delete;
  WorldViewService& operator=(const WorldViewService&) = delete;

  /// The most recently published view; nullptr until the first publish
  /// (TiledWorldMap::attach_view_service publishes immediately, so an
  /// attached service never hands out nullptr).
  std::shared_ptr<const WorldQueryView> view() const {
    std::lock_guard lock(mutex_);
    return current_;
  }

  /// Swaps in a new view; returns its epoch. Superseded views stay alive
  /// until their last reader drops them.
  uint64_t publish(std::shared_ptr<const WorldQueryView> next);

  /// Total views published.
  uint64_t publications() const {
    std::lock_guard lock(mutex_);
    return publications_;
  }

 private:
  mutable std::mutex mutex_;
  std::shared_ptr<const WorldQueryView> current_;  ///< guarded by mutex_
  uint64_t publications_ = 0;                      ///< guarded by mutex_
};

}  // namespace omu::world
