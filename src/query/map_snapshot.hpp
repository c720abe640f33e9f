// Immutable, flattened snapshot of an occupancy map — the read side of the
// concurrent Voxel Query service (paper Sec. V, Fig. 4).
//
// A MapSnapshot is built from any MapBackend's snapshot export and never
// mutated afterwards, so any number of reader threads can answer point,
// batch, multi-resolution and AABB queries against it with no
// synchronization at all while the writer keeps integrating scans into
// the live map. This is the same reader/writer decoupling OHM and the
// OpenVDB mapping pipeline get from immutable/flattened map views.
//
// Representation: eight refcounted immutable *chunks*, one per first-level
// branch (the root child octant the OMU voxel scheduler routes by). Each
// chunk holds its branch's leaf run in depth-first order plus per-depth
// flat sorted arrays keyed by Morton prefix — morton48(key) >> 3*(16-d) at
// depth d — so ascending key order at every depth *is* depth-first order,
// the order the octree walk emits and the paper's child-i-in-bank-i
// layout (Fig. 5) stores. A chunk is therefore built in one linear pass
// over its leaves, with no sort and no hash: reconstructed inner-node
// values are the max over descendant leaves, folded child-into-parent as
// each inner node closes, which is bit-identical to the octree's parent
// max-propagation (max over the same floats is associative), so snapshot
// answers match a flushed serial classify()/search() exactly — the
// property tests/query/test_snapshot_equivalence.cpp enforces across all
// backends. Every query is one Morton interleave plus a short chain of
// binary searches inside one chunk.
//
// The chunk split is what makes publication O(changed): build_incremental
// rebuilds only the branches a MapSnapshotDelta marks dirty and shares
// the remaining chunks — by shared_ptr, no copy — with the previous
// epoch; build is the same path with every branch dirty. A reader holding
// an old snapshot keeps exactly the chunks that epoch referenced alive;
// chunks die when the last snapshot referencing them does. The content
// hash follows the same split: map::leaf_set_hash is a sum over leaves,
// so the snapshot's hash is the sum of one cached term per chunk, and a
// publication that shares a chunk shares its term. The canonical
// packed-key-sorted flat form (leaves()) is materialized lazily, on first
// request.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "geom/aabb.hpp"
#include "geom/vec3.hpp"
#include "map/map_backend.hpp"
#include "map/ockey.hpp"
#include "map/occupancy_octree.hpp"
#include "map/occupancy_params.hpp"

namespace omu::query {

/// Read-only view of the node a snapshot query terminated at (the
/// flattened analogue of map::NodeView).
struct SnapshotNodeView {
  float log_odds = 0.0f;
  int depth = 0;
  bool is_leaf = true;
};

/// Kind of the node an exact probe() lands on.
enum class SnapshotNodeKind : uint8_t {
  kUnknown,  ///< no node at exactly (key, depth)
  kLeaf,     ///< a leaf record (value = its log-odds)
  kInner,    ///< reconstructed inner node (value = max over descendant leaves)
};

/// Result of probing the node at exactly (key truncated to depth, depth).
struct SnapshotNodeProbe {
  SnapshotNodeKind kind = SnapshotNodeKind::kUnknown;
  float value = 0.0f;
};

/// The immutable flattened map snapshot. Construction is the only mutation;
/// all query methods are const and safe to call from any number of threads
/// concurrently. Always held by shared_ptr (see build) so readers keep a
/// snapshot alive across a concurrent publication of its successor.
class MapSnapshot {
 public:
  /// One depth level of one first-level branch: parallel arrays of node
  /// keys — the Morton prefix morton48(key) >> 3*(16-depth), strictly
  /// ascending — and node values.
  struct Level {
    std::vector<uint64_t> leaf_keys;
    std::vector<float> leaf_values;
    std::vector<uint64_t> inner_keys;
    std::vector<float> inner_max;  ///< max log-odds over descendant leaves
  };

  /// The immutable flattened content of one first-level branch. Built
  /// once, then shared read-only between every snapshot epoch in which the
  /// branch did not change; freed when the last snapshot referencing it is
  /// dropped. Exposed (read-only) so tests can assert the sharing and
  /// lifetime properties directly.
  class Chunk {
   public:
    /// This branch's leaves in depth-first order: ascending (morton48,
    /// depth), not packed-key order (MapSnapshot::leaves() is canonical).
    const std::vector<map::LeafRecord>& leaves() const { return leaves_; }
    /// The flat arrays of depth `depth` (1..16).
    const Level& level(int depth) const { return levels_[static_cast<std::size_t>(depth)]; }
    std::size_t leaf_count() const { return leaves_.size(); }
    /// Max log-odds over the branch's leaves (feeds the root's value).
    float max_log_odds() const { return max_log_odds_; }
    /// map::leaf_set_hash of the branch's leaves: computed on first
    /// request, once per immutable chunk (thread-safe), so publication
    /// costs nothing extra for consumers that never hash.
    uint64_t content_hash() const;
    std::size_t memory_bytes() const;

   private:
    friend class MapSnapshot;
    std::array<Level, map::kTreeDepth + 1> levels_;  ///< index 0 unused
    std::vector<map::LeafRecord> leaves_;
    float max_log_odds_ = 0.0f;
    mutable std::once_flag hash_once_;
    mutable uint64_t hash_ = 0;
  };

  /// What an incremental build reused vs. rebuilt (facade stats surface
  /// this as reused-vs-rebuilt bytes per flush).
  struct BuildStats {
    bool incremental = false;  ///< false = the build was a full rebuild
    uint32_t chunks_reused = 0;
    uint32_t chunks_rebuilt = 0;
    std::size_t bytes_reused = 0;   ///< memory shared from the previous epoch
    std::size_t bytes_rebuilt = 0;  ///< fresh memory allocated by this build
  };

  /// Builds a snapshot from a backend's export — any leaf order; input not
  /// already in depth-first order is sorted into it once. `epoch` tags the
  /// snapshot with its publication sequence number (see QueryService).
  /// Throws std::invalid_argument on a leaf depth outside 0..16 or a
  /// depth-0 record that is not the only one.
  static std::shared_ptr<const MapSnapshot> build(map::MapSnapshotData data, uint64_t epoch = 0,
                                                  BuildStats* stats = nullptr);

  /// Incremental build: rebuilds only the branches `delta` marks dirty and
  /// shares every other chunk with `prev` — O(changed) time and fresh
  /// memory. `prev` must be the snapshot built from the delta source's
  /// previous harvest (the QueryService tracks this pairing). A partial
  /// delta's leaves must be in depth-first order (std::invalid_argument
  /// otherwise); a full delta degrades to build(). Produces bit-identical query answers and
  /// flattened arrays to a full rebuild of the same backend state,
  /// including the backend's root-collapse normalization: when all eight
  /// spliced branches are a single equal-valued depth-1 leaf — the state
  /// in which the octree's root prune leaves one depth-0 record — the
  /// result collapses the same way.
  static std::shared_ptr<const MapSnapshot> build_incremental(
      const MapSnapshot& prev, map::MapSnapshotDelta delta, uint64_t epoch,
      BuildStats* stats = nullptr);

  /// Convenience: flushes the backend and snapshots its current content.
  static std::shared_ptr<const MapSnapshot> capture(map::MapBackend& backend, uint64_t epoch = 0);

  // ---- Point queries -----------------------------------------------------

  /// Finds the deepest node covering `key`, descending at most to
  /// `max_depth` — identical semantics to OccupancyOctree::search.
  std::optional<SnapshotNodeView> search(const map::OcKey& key,
                                         int max_depth = map::kTreeDepth) const;

  /// Classifies the voxel at `key`; `max_depth` < 16 answers at coarser
  /// resolution from the reconstructed inner-node max values.
  map::Occupancy classify(const map::OcKey& key, int max_depth = map::kTreeDepth) const;

  /// Classifies a metric position (out-of-range -> unknown).
  map::Occupancy classify(const geom::Vec3d& position) const;

  // ---- Batch / box queries ----------------------------------------------

  /// Classifies a batch of keys (collision-checking a whole trajectory in
  /// one call); out[i] corresponds to keys[i].
  void classify_batch(const std::vector<map::OcKey>& keys,
                      std::vector<map::Occupancy>& out,
                      int max_depth = map::kTreeDepth) const;

  /// True if any voxel intersecting the metric box is occupied — identical
  /// semantics to OccupancyOctree::any_occupied_in_box, including the
  /// conservative treat-unknown-as-occupied mode.
  bool any_occupied_in_box(const geom::Aabb& box, bool treat_unknown_as_occupied = false) const;

  // ---- Structural probes -------------------------------------------------

  /// The node at exactly (key truncated to `depth`, `depth`): a leaf with
  /// its value, a reconstructed inner node with its subtree max, or
  /// unknown — including unknown when a *shallower* leaf covers the
  /// region (probe is an exact-level lookup, not a search). This is the
  /// building block the tiled world's query federation recurses on
  /// (world::WorldQueryView): it lets a multi-snapshot view reproduce the
  /// octree's descent bit for bit across tile boundaries.
  SnapshotNodeProbe probe(const map::OcKey& key, int depth) const;

  // ---- Introspection -----------------------------------------------------

  const map::KeyCoder& coder() const { return coder_; }
  const map::OccupancyParams& params() const { return params_; }
  double resolution() const { return coder_.resolution(); }
  uint64_t epoch() const { return epoch_; }
  std::size_t leaf_count() const;
  bool empty() const { return root_.kind == NodeKind::kUnknown; }

  /// The canonical (packed key, depth)-sorted leaf array of the whole map,
  /// materialized lazily (one sort of the chunk runs, cached and
  /// thread-safe) — the query paths never need it, so a flush stays
  /// O(changed) unless a consumer asks for the flat form.
  const std::vector<map::LeafRecord>& leaves() const;

  /// map::leaf_set_hash of the snapshot, comparable with the backends'
  /// content_hash(): the sum of the chunks' cached terms (O(chunks) once
  /// each chunk is hashed), or the collapsed root's term. Never sorts.
  uint64_t content_hash() const;

  /// The refcounted chunk of first-level branch `branch` (0..7); null when
  /// the branch is unknown or the map is a collapsed depth-0 leaf. Two
  /// consecutive epochs returning the same pointer shared the branch.
  std::shared_ptr<const Chunk> branch_chunk(int branch) const {
    return chunks_[static_cast<std::size_t>(branch)];
  }

  /// Approximate memory footprint in bytes. Chunks are counted fully even
  /// when shared with other epochs (each snapshot answers for everything
  /// it keeps alive); materialized lazy caches are included.
  std::size_t memory_bytes() const;

 private:
  enum class NodeKind : uint8_t { kUnknown, kLeaf, kInner };
  struct NodeLookup {
    NodeKind kind = NodeKind::kUnknown;
    float value = 0.0f;
  };

  MapSnapshot(double resolution, const map::OccupancyParams& params, uint64_t epoch)
      : coder_(resolution),
        params_(params.quantized ? params.snapped_to_fixed_point() : params),
        epoch_(epoch) {}

  /// build and build_incremental: rebuilds every branch (`prev` null) or
  /// the branches `delta` marks dirty, sharing the rest from `prev`.
  static std::shared_ptr<const MapSnapshot> assemble(const MapSnapshot* prev,
                                                     map::MapSnapshotDelta delta, uint64_t epoch,
                                                     BuildStats* stats);

  /// Builds the immutable chunk of one branch in one pass over its `n`
  /// leaves in depth-first order, with their (morton48 << 5 | depth) sort
  /// keys. Returns null for an empty run (unknown branch).
  static std::shared_ptr<const Chunk> build_chunk(const map::LeafRecord* leaves,
                                                  const uint64_t* dfs_keys, std::size_t n);

  /// Makes this snapshot the fully collapsed map: one depth-0 leaf, flat
  /// form pre-filled.
  void set_collapsed(float value);

  /// Node at depth `depth` (1..16) on the path to the voxel with Morton
  /// code `morton` inside branch chunk `chunk` (null = unknown branch) —
  /// kLeaf with its value, kInner with the subtree max, or kUnknown.
  static NodeLookup chunk_node(const Chunk* chunk, uint64_t morton, int depth);

  /// chunk_node in the voxel's own branch; the root at depth 0.
  NodeLookup node_at(uint64_t morton, int depth) const;

  bool box_recurs(const map::OcKey& base, uint64_t morton, int depth, const geom::Aabb& box,
                  bool unknown_occupied) const;

  /// Fills leaves_cache_ under lazy_mutex_ (double-checked via
  /// lazy_ready_): one global sort of the chunk runs. Only a collapsed
  /// snapshot pre-fills it.
  void ensure_flat() const;

  map::KeyCoder coder_;
  map::OccupancyParams params_;
  uint64_t epoch_ = 0;
  NodeLookup root_;  ///< the depth-0 node
  std::array<std::shared_ptr<const Chunk>, 8> chunks_;  ///< null = unknown branch

  // Lazily materialized flat form (leaves()).
  mutable std::mutex lazy_mutex_;
  mutable std::atomic<bool> lazy_ready_{false};
  mutable std::vector<map::LeafRecord> leaves_cache_;
};

}  // namespace omu::query
