// Properties of the one-pass snapshot chunk builder. Chunks are built from
// depth-first leaf runs with levels keyed by Morton prefix, so the tests
// pin (a) the order the octree really exports — ascending (morton48,
// depth), which is not packed-key order — and (b) on random octrees with
// pruned, mixed-depth leaves: every level's key arrays are strictly
// ascending, every inner value is the brute-force max over its descendant
// leaves, and build() answers identically whatever order its input
// arrives in.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "geom/kernels/key_kernels.hpp"
#include "geom/rng.hpp"
#include "map/map_backend.hpp"
#include "map/occupancy_octree.hpp"
#include "query/map_snapshot.hpp"

namespace omu::query {
namespace {

using map::LeafRecord;
using map::OcKey;

uint64_t morton(const OcKey& key) { return geom::kernels::morton48(key[0], key[1], key[2]); }

uint64_t prefix(const OcKey& key, int depth) {
  return morton(key) >> (3 * (map::kTreeDepth - depth));
}

bool dfs_less(const LeafRecord& a, const LeafRecord& b) {
  if (morton(a.key) != morton(b.key)) return morton(a.key) < morton(b.key);
  return a.depth < b.depth;
}

/// A random octree straddling the key-space centre (so every first-level
/// branch, and several children of each, are populated) with pruned
/// coarse leaves: saturated solid blocks of edge 2..16 collapse to leaves
/// at depths 12..15, scattered hits/misses stay at depth 16.
map::OccupancyOctree random_tree(uint64_t seed) {
  map::OccupancyOctree tree(0.2);
  geom::SplitMix64 rng(seed);
  const auto coord = [&](uint32_t span, uint32_t align) {
    const auto off = static_cast<uint32_t>(rng.next_below(2 * span)) & ~(align - 1);
    return static_cast<uint16_t>(map::kKeyOrigin - span + off);
  };
  for (int block = 0; block < 12; ++block) {
    const uint32_t edge = 2u << rng.next_below(4);  // 2, 4, 8, 16
    const OcKey base{coord(64, edge), coord(64, edge), coord(64, edge)};
    const bool occupied = rng.next_below(3) != 0;
    for (int pass = 0; pass < 12; ++pass) {
      for (uint32_t x = 0; x < edge; ++x) {
        for (uint32_t y = 0; y < edge; ++y) {
          for (uint32_t z = 0; z < edge; ++z) {
            tree.update_node(OcKey{static_cast<uint16_t>(base[0] + x),
                                   static_cast<uint16_t>(base[1] + y),
                                   static_cast<uint16_t>(base[2] + z)},
                             occupied);
          }
        }
      }
    }
  }
  for (int i = 0; i < 3000; ++i) {
    tree.update_node(OcKey{coord(48, 1), coord(48, 1), coord(48, 1)}, rng.next_below(3) != 0);
  }
  return tree;
}

void shuffle(std::vector<LeafRecord>& leaves, geom::SplitMix64& rng) {
  for (std::size_t i = leaves.size(); i > 1; --i) {
    std::swap(leaves[i - 1], leaves[rng.next_below(i)]);
  }
}

void expect_strictly_ascending(const std::vector<uint64_t>& keys, int branch, int depth,
                               const char* what) {
  for (std::size_t i = 1; i < keys.size(); ++i) {
    ASSERT_LT(keys[i - 1], keys[i]) << what << " branch " << branch << " depth " << depth
                                    << " index " << i;
  }
}

TEST(SnapshotChunkBuild, BranchExportIsDepthFirstNotPackedOrder) {
  const map::OccupancyOctree tree = random_tree(1);
  const std::vector<LeafRecord> canonical = tree.leaves_sorted();
  ASSERT_TRUE(std::any_of(canonical.begin(), canonical.end(),
                          [](const LeafRecord& r) { return r.depth < map::kTreeDepth; }))
      << "the fixture must contain pruned leaves";
  std::vector<LeafRecord> all;
  for (int b = 0; b < 8; ++b) {
    std::vector<LeafRecord> run;
    tree.collect_branch_leaves(b, run);
    ASSERT_GT(run.size(), 1u) << "branch " << b;
    for (std::size_t i = 1; i < run.size(); ++i) {
      ASSERT_TRUE(dfs_less(run[i - 1], run[i])) << "branch " << b << " index " << i;
    }
    for (const LeafRecord& r : run) ASSERT_EQ(map::first_level_branch(r.key), b);
    // The branch spans more than one of its children, whose interleaved
    // x/y/z bits order differently from packed (z, y, x) significance.
    EXPECT_FALSE(std::is_sorted(run.begin(), run.end(), map::canonical_leaf_less))
        << "branch " << b;
    all.insert(all.end(), run.begin(), run.end());
  }
  // The whole-tree walk is the branch runs back to back.
  EXPECT_EQ(tree.leaves_dfs(), all);
}

TEST(SnapshotChunkBuild, LevelsAreSortedAndInnerValuesAreSubtreeMax) {
  for (const uint64_t seed : {1u, 7u, 42u}) {
    const map::OccupancyOctree tree = random_tree(seed);
    const auto snapshot =
        MapSnapshot::build(map::MapSnapshotData{tree.leaves_dfs(), 0.2, tree.params()});
    std::size_t inner_checked = 0;
    for (int b = 0; b < 8; ++b) {
      const auto chunk = snapshot->branch_chunk(b);
      ASSERT_NE(chunk, nullptr) << "seed " << seed << " branch " << b;
      ASSERT_TRUE(std::is_sorted(chunk->leaves().begin(), chunk->leaves().end(), dfs_less));

      // Brute force: every leaf's value folded into every ancestor.
      std::map<std::pair<int, uint64_t>, float> expected_inner;
      std::map<std::pair<int, uint64_t>, float> expected_leaf;
      for (const LeafRecord& leaf : chunk->leaves()) {
        expected_leaf[{leaf.depth, prefix(leaf.key, leaf.depth)}] = leaf.log_odds;
        for (int d = 1; d < leaf.depth; ++d) {
          const auto [it, inserted] = expected_inner.try_emplace({d, prefix(leaf.key, d)},
                                                                 leaf.log_odds);
          if (!inserted) it->second = std::max(it->second, leaf.log_odds);
        }
      }

      std::size_t leaves_seen = 0;
      std::size_t inner_seen = 0;
      for (int d = 1; d <= map::kTreeDepth; ++d) {
        const MapSnapshot::Level& level = chunk->level(d);
        ASSERT_EQ(level.leaf_keys.size(), level.leaf_values.size());
        ASSERT_EQ(level.inner_keys.size(), level.inner_max.size());
        expect_strictly_ascending(level.leaf_keys, b, d, "leaf keys");
        expect_strictly_ascending(level.inner_keys, b, d, "inner keys");
        for (std::size_t i = 0; i < level.leaf_keys.size(); ++i) {
          const auto it = expected_leaf.find({d, level.leaf_keys[i]});
          ASSERT_NE(it, expected_leaf.end()) << "depth " << d;
          EXPECT_EQ(level.leaf_values[i], it->second);
        }
        for (std::size_t i = 0; i < level.inner_keys.size(); ++i) {
          const auto it = expected_inner.find({d, level.inner_keys[i]});
          ASSERT_NE(it, expected_inner.end()) << "depth " << d;
          EXPECT_EQ(level.inner_max[i], it->second) << "depth " << d;
        }
        leaves_seen += level.leaf_keys.size();
        inner_seen += level.inner_keys.size();
      }
      EXPECT_EQ(leaves_seen, expected_leaf.size());
      EXPECT_EQ(inner_seen, expected_inner.size());
      inner_checked += inner_seen;
    }
    EXPECT_GT(inner_checked, 0u);
  }
}

TEST(SnapshotChunkBuild, BuildIsIndependentOfInputOrder) {
  for (const uint64_t seed : {3u, 11u}) {
    const map::OccupancyOctree tree = random_tree(seed);
    geom::SplitMix64 rng(seed * 31 + 1);
    std::vector<LeafRecord> shuffled = tree.leaves_dfs();
    shuffle(shuffled, rng);
    const auto dfs =
        MapSnapshot::build(map::MapSnapshotData{tree.leaves_dfs(), 0.2, tree.params()});
    const auto from_shuffled =
        MapSnapshot::build(map::MapSnapshotData{std::move(shuffled), 0.2, tree.params()});
    const auto from_canonical =
        MapSnapshot::build(map::MapSnapshotData{tree.leaves_sorted(), 0.2, tree.params()});

    for (const auto* other : {from_shuffled.get(), from_canonical.get()}) {
      EXPECT_EQ(other->leaves(), dfs->leaves());
      EXPECT_EQ(other->content_hash(), dfs->content_hash());
      EXPECT_EQ(other->content_hash(), tree.content_hash());
      for (int b = 0; b < 8; ++b) {
        const auto x = dfs->branch_chunk(b);
        const auto y = other->branch_chunk(b);
        ASSERT_EQ(x == nullptr, y == nullptr);
        if (x == nullptr) continue;
        EXPECT_EQ(x->leaves(), y->leaves());
        for (int d = 1; d <= map::kTreeDepth; ++d) {
          EXPECT_EQ(x->level(d).leaf_keys, y->level(d).leaf_keys);
          EXPECT_EQ(x->level(d).leaf_values, y->level(d).leaf_values);
          EXPECT_EQ(x->level(d).inner_keys, y->level(d).inner_keys);
          EXPECT_EQ(x->level(d).inner_max, y->level(d).inner_max);
        }
      }
      for (int i = 0; i < 2000; ++i) {
        const OcKey key{static_cast<uint16_t>(map::kKeyOrigin - 80 + rng.next_below(160)),
                        static_cast<uint16_t>(map::kKeyOrigin - 80 + rng.next_below(160)),
                        static_cast<uint16_t>(map::kKeyOrigin - 80 + rng.next_below(160))};
        const int depth = static_cast<int>(rng.next_below(map::kTreeDepth + 1));
        ASSERT_EQ(other->classify(key, depth), dfs->classify(key, depth));
        const auto view = dfs->search(key, depth);
        const auto expected = tree.search(key, depth);
        ASSERT_EQ(view.has_value(), expected.has_value());
        if (view) {
          ASSERT_EQ(view->log_odds, expected->log_odds);
          ASSERT_EQ(view->depth, expected->depth);
          ASSERT_EQ(view->is_leaf, expected->is_leaf);
        }
        const SnapshotNodeProbe p = other->probe(key, depth);
        const SnapshotNodeProbe q = dfs->probe(key, depth);
        ASSERT_EQ(p.kind, q.kind);
        ASSERT_EQ(p.value, q.value);
      }
      for (int i = 0; i < 200; ++i) {
        const geom::Vec3d centre{rng.uniform(-12, 12), rng.uniform(-12, 12),
                                 rng.uniform(-12, 12)};
        const geom::Vec3d size{rng.uniform(0.1, 3), rng.uniform(0.1, 3), rng.uniform(0.1, 3)};
        const auto box = geom::Aabb::from_center_size(centre, size);
        for (const bool unknown_occupied : {false, true}) {
          ASSERT_EQ(other->any_occupied_in_box(box, unknown_occupied),
                    dfs->any_occupied_in_box(box, unknown_occupied));
          ASSERT_EQ(dfs->any_occupied_in_box(box, unknown_occupied),
                    tree.any_occupied_in_box(box, unknown_occupied));
        }
      }
    }
  }
}

TEST(SnapshotChunkBuild, RejectsMalformedInput) {
  map::MapSnapshotData bad_depth;
  bad_depth.leaves = {LeafRecord{OcKey{}, 17, 1.0f}};
  EXPECT_THROW(MapSnapshot::build(std::move(bad_depth)), std::invalid_argument);

  map::MapSnapshotData root_and_more;
  root_and_more.leaves = {LeafRecord{OcKey{}, 0, 1.0f}, LeafRecord{OcKey{}, 16, 1.0f}};
  EXPECT_THROW(MapSnapshot::build(std::move(root_and_more)), std::invalid_argument);

  // A partial delta must arrive in depth-first order: the splice path
  // never sorts.
  const map::OccupancyOctree tree = random_tree(5);
  const auto base =
      MapSnapshot::build(map::MapSnapshotData{tree.leaves_dfs(), 0.2, tree.params()});
  map::MapSnapshotDelta delta;
  delta.full = false;
  delta.dirty_mask = 0x01;
  delta.params = tree.params();
  tree.collect_branch_leaves(0, delta.leaves);
  std::reverse(delta.leaves.begin(), delta.leaves.end());
  EXPECT_THROW(MapSnapshot::build_incremental(*base, std::move(delta), 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace omu::query
