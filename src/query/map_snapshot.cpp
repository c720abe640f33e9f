#include "query/map_snapshot.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <string>

#include "geom/kernels/key_kernels.hpp"

namespace omu::query {

namespace {

/// Bits of a depth-first sort key below the Morton code (depth 0..16).
constexpr int kDepthBits = 5;

uint64_t morton_of(const map::OcKey& key) {
  return geom::kernels::morton48(key[0], key[1], key[2]);
}

/// Depth-first sort key of a leaf: (morton48, depth).
uint64_t dfs_key(const map::LeafRecord& leaf) {
  return (morton_of(leaf.key) << kDepthBits) | static_cast<uint64_t>(leaf.depth);
}

/// Level key of the depth-`depth` node containing Morton code `morton`:
/// its Morton prefix. Ascending prefix order is depth-first order.
constexpr uint64_t prefix_at(uint64_t morton, int depth) {
  return morton >> (3 * (map::kTreeDepth - depth));
}

/// Deepest depth at which two Morton codes still share their ancestor.
int common_depth(uint64_t a, uint64_t b) {
  if (a == b) return map::kTreeDepth;
  return map::kTreeDepth - 1 - (std::bit_width(a ^ b) - 1) / 3;
}

/// Binary search in a sorted key array; returns the value at the matching
/// index, or nullopt.
std::optional<float> find_key(const std::vector<uint64_t>& keys,
                              const std::vector<float>& values, uint64_t key) {
  const auto it = std::lower_bound(keys.begin(), keys.end(), key);
  if (it == keys.end() || *it != key) return std::nullopt;
  return values[static_cast<std::size_t>(it - keys.begin())];
}

constexpr std::size_t level_bytes(const MapSnapshot::Level& level) {
  return level.leaf_keys.capacity() * sizeof(uint64_t) +
         level.leaf_values.capacity() * sizeof(float) +
         level.inner_keys.capacity() * sizeof(uint64_t) +
         level.inner_max.capacity() * sizeof(float);
}

}  // namespace

std::size_t MapSnapshot::Chunk::memory_bytes() const {
  std::size_t bytes = sizeof(*this) + leaves_.capacity() * sizeof(map::LeafRecord);
  for (const Level& level : levels_) bytes += level_bytes(level);
  return bytes;
}

uint64_t MapSnapshot::Chunk::content_hash() const {
  std::call_once(hash_once_, [this] { hash_ = map::leaf_set_hash(leaves_); });
  return hash_;
}

std::shared_ptr<const MapSnapshot::Chunk> MapSnapshot::build_chunk(const map::LeafRecord* leaves,
                                                                   const uint64_t* dfs_keys,
                                                                   std::size_t n) {
  if (n == 0) return nullptr;
  auto chunk = std::make_shared<Chunk>();
  chunk->leaves_.assign(leaves, leaves + n);

  // The open inner nodes are always the ancestor chain (depths 1..top) of
  // the previous leaf, so leaf i keeps the ancestors it shares with leaf
  // i-1 — the deepest is `shared(i)` — and opens depths shared+1..depth-1.
  const auto shared = [&](std::size_t i) {
    if (i == 0) return 0;
    const int depth = std::min(leaves[i - 1].depth, leaves[i].depth) - 1;
    return std::min(depth, common_depth(dfs_keys[i - 1] >> kDepthBits, dfs_keys[i] >> kDepthBits));
  };

  // Counting pass: exact array sizes, so the chunk holds no slack.
  std::array<std::size_t, map::kTreeDepth + 1> leaf_count{};
  std::array<std::size_t, map::kTreeDepth + 1> inner_count{};
  for (std::size_t i = 0; i < n; ++i) {
    for (int d = shared(i) + 1; d < leaves[i].depth; ++d) {
      ++inner_count[static_cast<std::size_t>(d)];
    }
    ++leaf_count[static_cast<std::size_t>(leaves[i].depth)];
  }
  for (int d = 1; d <= map::kTreeDepth; ++d) {
    Level& level = chunk->levels_[static_cast<std::size_t>(d)];
    level.leaf_keys.reserve(leaf_count[static_cast<std::size_t>(d)]);
    level.leaf_values.reserve(leaf_count[static_cast<std::size_t>(d)]);
    level.inner_keys.reserve(inner_count[static_cast<std::size_t>(d)]);
    level.inner_max.reserve(inner_count[static_cast<std::size_t>(d)]);
  }

  // Fill pass. A closed inner node's value is final — the max over its
  // descendant leaves, exactly the octree's parent max-propagation — so it
  // is appended (in depth-first order, i.e. sorted) and folded into its
  // parent.
  std::array<uint64_t, map::kTreeDepth> open_key{};
  std::array<float, map::kTreeDepth> open_max{};
  int top = 0;
  const auto close_to = [&](int depth) {
    for (; top > depth; --top) {
      const auto t = static_cast<std::size_t>(top);
      Level& level = chunk->levels_[t];
      level.inner_keys.push_back(open_key[t]);
      level.inner_max.push_back(open_max[t]);
      if (top > 1) open_max[t - 1] = std::max(open_max[t - 1], open_max[t]);
    }
  };
  float max_value = leaves[0].log_odds;
  for (std::size_t i = 0; i < n; ++i) {
    const map::LeafRecord& leaf = leaves[i];
    const uint64_t morton = dfs_keys[i] >> kDepthBits;
    close_to(shared(i));
    for (int d = top + 1; d < leaf.depth; ++d) {
      open_key[static_cast<std::size_t>(d)] = prefix_at(morton, d);
      open_max[static_cast<std::size_t>(d)] = leaf.log_odds;
    }
    top = leaf.depth - 1;
    if (top >= 1) {
      float& parent = open_max[static_cast<std::size_t>(top)];
      parent = std::max(parent, leaf.log_odds);
    }
    Level& level = chunk->levels_[static_cast<std::size_t>(leaf.depth)];
    level.leaf_keys.push_back(prefix_at(morton, leaf.depth));
    level.leaf_values.push_back(leaf.log_odds);
    max_value = std::max(max_value, leaf.log_odds);
  }
  close_to(0);
  chunk->max_log_odds_ = max_value;
  return chunk;
}

void MapSnapshot::set_collapsed(float value) {
  chunks_ = {};
  root_ = NodeLookup{NodeKind::kLeaf, value};
  leaves_cache_ = {map::LeafRecord{map::OcKey{}, 0, value}};
  lazy_ready_.store(true, std::memory_order_release);
}

std::shared_ptr<const MapSnapshot> MapSnapshot::build(map::MapSnapshotData data, uint64_t epoch,
                                                      BuildStats* stats) {
  map::MapSnapshotDelta delta;
  delta.leaves = std::move(data.leaves);
  delta.resolution = data.resolution;
  delta.params = data.params;
  return assemble(nullptr, std::move(delta), epoch, stats);
}

std::shared_ptr<const MapSnapshot> MapSnapshot::build_incremental(
    const MapSnapshot& prev, map::MapSnapshotDelta delta, uint64_t epoch, BuildStats* stats) {
  if (delta.full) return assemble(nullptr, std::move(delta), epoch, stats);
  if (prev.root_.kind == NodeKind::kLeaf && delta.dirty_mask != 0xFF) {
    // A collapsed previous epoch has no chunks to splice from; backends
    // guarantee a full (or all-dirty) export whenever the root was or is a
    // leaf, so a partial delta here is a caller bug.
    throw std::logic_error(
        "MapSnapshot::build_incremental: partial delta against a collapsed snapshot");
  }
  return assemble(&prev, std::move(delta), epoch, stats);
}

std::shared_ptr<const MapSnapshot> MapSnapshot::assemble(const MapSnapshot* prev,
                                                         map::MapSnapshotDelta delta,
                                                         uint64_t epoch, BuildStats* stats) {
  auto snap =
      std::shared_ptr<MapSnapshot>(new MapSnapshot(delta.resolution, delta.params, epoch));
  std::vector<map::LeafRecord>& leaves = delta.leaves;
  const std::size_t n = leaves.size();
  BuildStats local;
  local.incremental = prev != nullptr;

  // A single depth-0 record is a fully collapsed map: no branch chunks,
  // the root leaf answers everything.
  if (prev == nullptr && n == 1 && leaves[0].depth == 0) {
    snap->set_collapsed(leaves[0].log_odds);
    if (stats) *stats = local;
    return snap;
  }

  // Depth-first sort keys, one Morton code per leaf (reused by the chunk
  // builder). Backends export in this order already; only a full build
  // from some other order pays a sort.
  std::vector<uint64_t> keys(n);
  bool ordered = true;
  for (std::size_t i = 0; i < n; ++i) {
    const int depth = leaves[i].depth;
    if (depth < 1 || depth > map::kTreeDepth) {
      throw std::invalid_argument("MapSnapshot: leaf depth " + std::to_string(depth) +
                                  " outside 1..16 (a depth-0 record must be the only one)");
    }
    keys[i] = dfs_key(leaves[i]);
    ordered = ordered && (i == 0 || keys[i - 1] <= keys[i]);
  }
  if (!ordered) {
    if (prev != nullptr) {
      throw std::invalid_argument(
          "MapSnapshot::build_incremental: dirty-branch leaves not in depth-first order");
    }
    std::sort(leaves.begin(), leaves.end(),
              [](const map::LeafRecord& a, const map::LeafRecord& b) {
                return dfs_key(a) < dfs_key(b);
              });
    std::transform(leaves.begin(), leaves.end(), keys.begin(), dfs_key);
  }

  // In depth-first order each first-level branch is one contiguous run
  // (the branch is the top Morton octet).
  constexpr int kBranchShift = kDepthBits + 3 * (map::kTreeDepth - 1);
  std::size_t begin = 0;
  for (int b = 0; b < 8; ++b) {
    const auto bi = static_cast<std::size_t>(b);
    const std::size_t end = static_cast<std::size_t>(
        std::lower_bound(keys.begin() + static_cast<std::ptrdiff_t>(begin), keys.end(),
                         static_cast<uint64_t>(b + 1) << kBranchShift) -
        keys.begin());
    if (prev == nullptr || (delta.dirty_mask & (1u << b))) {
      snap->chunks_[bi] = build_chunk(leaves.data() + begin, keys.data() + begin, end - begin);
      if (snap->chunks_[bi]) {
        local.chunks_rebuilt++;
        local.bytes_rebuilt += snap->chunks_[bi]->memory_bytes();
      }
    } else {
      snap->chunks_[bi] = prev->chunks_[bi];
      if (snap->chunks_[bi]) {
        local.chunks_reused++;
        local.bytes_reused += snap->chunks_[bi]->memory_bytes();
      }
    }
    begin = end;
  }

  // Root-collapse normalization of a splice: when every branch is a single
  // depth-1 leaf and all eight values compare equal, the canonical full
  // export of the same state is one depth-0 record (the octree's root
  // prune). Match it so incremental and full builds stay bit-identical.
  // The float == mirrors update_inner_and_try_prune's equality test.
  bool collapse = prev != nullptr;
  for (int b = 0; collapse && b < 8; ++b) {
    const auto& chunk = snap->chunks_[static_cast<std::size_t>(b)];
    collapse = chunk && chunk->leaf_count() == 1 && chunk->leaves()[0].depth == 1 &&
               chunk->leaves()[0].log_odds == snap->chunks_[0]->leaves()[0].log_odds;
  }
  if (collapse) {
    snap->set_collapsed(snap->chunks_[0]->leaves()[0].log_odds);
    local = BuildStats{};
    local.incremental = true;
    local.chunks_rebuilt = 1;
    local.bytes_rebuilt = snap->leaves_cache_.capacity() * sizeof(map::LeafRecord);
    if (stats) *stats = local;
    return snap;
  }

  bool any = false;
  float root_max = 0.0f;
  for (const auto& chunk : snap->chunks_) {
    if (!chunk) continue;
    root_max = any ? std::max(root_max, chunk->max_log_odds()) : chunk->max_log_odds();
    any = true;
  }
  snap->root_ = any ? NodeLookup{NodeKind::kInner, root_max} : NodeLookup{NodeKind::kUnknown, 0.0f};
  // leaves() and the chunks' hash terms stay lazy: the build neither
  // sorts nor hashes.
  if (stats) *stats = local;
  return snap;
}

std::shared_ptr<const MapSnapshot> MapSnapshot::capture(map::MapBackend& backend,
                                                        uint64_t epoch) {
  backend.flush();
  return build(backend.export_snapshot_data(), epoch);
}

void MapSnapshot::ensure_flat() const {
  if (lazy_ready_.load(std::memory_order_acquire)) return;
  std::lock_guard lock(lazy_mutex_);
  if (lazy_ready_.load(std::memory_order_relaxed)) return;
  std::size_t total = 0;
  for (const auto& chunk : chunks_) {
    if (chunk) total += chunk->leaf_count();
  }
  std::vector<map::LeafRecord> flat;
  flat.reserve(total);
  for (const auto& chunk : chunks_) {
    if (chunk) flat.insert(flat.end(), chunk->leaves().begin(), chunk->leaves().end());
  }
  // Chunk runs are in depth-first (Morton) order and branches interleave
  // in packed order, so one global sort makes the canonical form.
  std::sort(flat.begin(), flat.end(), map::canonical_leaf_less);
  leaves_cache_ = std::move(flat);
  lazy_ready_.store(true, std::memory_order_release);
}

const std::vector<map::LeafRecord>& MapSnapshot::leaves() const {
  ensure_flat();
  return leaves_cache_;
}

uint64_t MapSnapshot::content_hash() const {
  if (root_.kind == NodeKind::kLeaf) return map::leaf_set_term(map::OcKey{}, 0, root_.value);
  uint64_t hash = 0;
  for (const auto& chunk : chunks_) {
    if (chunk) hash += chunk->content_hash();
  }
  return hash;
}

std::size_t MapSnapshot::leaf_count() const {
  if (lazy_ready_.load(std::memory_order_acquire)) return leaves_cache_.size();
  std::size_t total = 0;
  for (const auto& chunk : chunks_) {
    if (chunk) total += chunk->leaf_count();
  }
  return total;
}

MapSnapshot::NodeLookup MapSnapshot::chunk_node(const Chunk* chunk, uint64_t morton, int depth) {
  if (chunk == nullptr) return NodeLookup{NodeKind::kUnknown, 0.0f};
  const Level& level = chunk->levels_[static_cast<std::size_t>(depth)];
  const uint64_t key = prefix_at(morton, depth);
  if (const auto leaf = find_key(level.leaf_keys, level.leaf_values, key)) {
    return NodeLookup{NodeKind::kLeaf, *leaf};
  }
  if (const auto max = find_key(level.inner_keys, level.inner_max, key)) {
    return NodeLookup{NodeKind::kInner, *max};
  }
  return NodeLookup{NodeKind::kUnknown, 0.0f};
}

MapSnapshot::NodeLookup MapSnapshot::node_at(uint64_t morton, int depth) const {
  if (depth == 0) return root_;
  return chunk_node(chunks_[static_cast<std::size_t>(prefix_at(morton, 1))].get(), morton, depth);
}

SnapshotNodeProbe MapSnapshot::probe(const map::OcKey& key, int depth) const {
  const NodeLookup node = node_at(morton_of(key), depth);
  switch (node.kind) {
    case NodeKind::kUnknown:
      return SnapshotNodeProbe{SnapshotNodeKind::kUnknown, 0.0f};
    case NodeKind::kLeaf:
      return SnapshotNodeProbe{SnapshotNodeKind::kLeaf, node.value};
    case NodeKind::kInner:
      return SnapshotNodeProbe{SnapshotNodeKind::kInner, node.value};
  }
  return SnapshotNodeProbe{};
}

std::optional<SnapshotNodeView> MapSnapshot::search(const map::OcKey& key, int max_depth) const {
  NodeLookup node = root_;
  if (node.kind == NodeKind::kUnknown) return std::nullopt;
  const uint64_t morton = morton_of(key);
  const Chunk* chunk = chunks_[static_cast<std::size_t>(prefix_at(morton, 1))].get();
  int depth = 0;
  while (depth < max_depth && node.kind == NodeKind::kInner) {
    node = chunk_node(chunk, morton, ++depth);
    if (node.kind == NodeKind::kUnknown) return std::nullopt;
  }
  return SnapshotNodeView{node.value, depth, node.kind == NodeKind::kLeaf};
}

map::Occupancy MapSnapshot::classify(const map::OcKey& key, int max_depth) const {
  const auto view = search(key, max_depth);
  if (!view) return map::Occupancy::kUnknown;
  return params_.classify(view->log_odds);
}

map::Occupancy MapSnapshot::classify(const geom::Vec3d& position) const {
  const auto key = coder_.key_for(position);
  if (!key) return map::Occupancy::kUnknown;
  return classify(*key);
}

void MapSnapshot::classify_batch(const std::vector<map::OcKey>& keys,
                                 std::vector<map::Occupancy>& out, int max_depth) const {
  out.resize(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) out[i] = classify(keys[i], max_depth);
}

bool MapSnapshot::any_occupied_in_box(const geom::Aabb& box,
                                      bool treat_unknown_as_occupied) const {
  return box_recurs(map::OcKey{}, 0, 0, box, treat_unknown_as_occupied);
}

bool MapSnapshot::box_recurs(const map::OcKey& base, uint64_t morton, int depth,
                             const geom::Aabb& box, bool unknown_occupied) const {
  const double res = coder_.resolution();
  const double size = coder_.node_size(depth);
  const geom::Vec3d lo{(static_cast<double>(base[0]) - map::kKeyOrigin) * res,
                       (static_cast<double>(base[1]) - map::kKeyOrigin) * res,
                       (static_cast<double>(base[2]) - map::kKeyOrigin) * res};
  if (!geom::Aabb{lo, lo + geom::Vec3d{size, size, size}}.intersects(box)) return false;

  const NodeLookup node = node_at(morton, depth);
  switch (node.kind) {
    case NodeKind::kUnknown:
      return unknown_occupied;
    case NodeKind::kLeaf:
      return params_.classify(node.value) == map::Occupancy::kOccupied;
    case NodeKind::kInner:
      break;
  }
  // Max-propagation prune (the octree descends instead, with the same
  // outcome): a subtree whose max is not occupied can only answer true
  // through an unknown octant.
  if (!unknown_occupied && params_.classify(node.value) != map::Occupancy::kOccupied) {
    return false;
  }
  const int bit = map::kTreeDepth - 1 - depth;
  for (int i = 0; i < 8; ++i) {
    map::OcKey child_base = base;
    child_base[0] |= static_cast<uint16_t>((i & 1) << bit);
    child_base[1] |= static_cast<uint16_t>(((i >> 1) & 1) << bit);
    child_base[2] |= static_cast<uint16_t>(((i >> 2) & 1) << bit);
    const uint64_t child_morton = morton | (static_cast<uint64_t>(i) << (3 * bit));
    if (box_recurs(child_base, child_morton, depth + 1, box, unknown_occupied)) return true;
  }
  return false;
}

std::size_t MapSnapshot::memory_bytes() const {
  std::size_t bytes = sizeof(*this);
  // Only count the flat cache once materialized (the acquire load pairs
  // with ensure_flat's release, so the capacity read is safe).
  if (lazy_ready_.load(std::memory_order_acquire)) {
    bytes += leaves_cache_.capacity() * sizeof(map::LeafRecord);
  }
  for (const auto& chunk : chunks_) {
    if (chunk) bytes += chunk->memory_bytes();
  }
  return bytes;
}

}  // namespace omu::query
