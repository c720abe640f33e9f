// Properties of map::leaf_set_hash, the one map content hash: it ignores
// record order, sums over any split of the map (first-level branches,
// world tiles), hashes a depth-0 record as its eight depth-1 octants, and
// moves on every single-record change — a moved key, a changed depth, a
// one-LSB value step, a dropped or a duplicated record.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <vector>

#include "geom/rng.hpp"
#include "map/occupancy_octree.hpp"

namespace omu::map {
namespace {

/// A random tree: occupied and free updates in a box around the origin,
/// plus a few far-flung voxels so several first-level branches are known.
OccupancyOctree random_tree(uint64_t seed) {
  geom::SplitMix64 rng(seed);
  OccupancyOctree tree(0.1);
  for (int i = 0; i < 3000; ++i) {
    const OcKey key{static_cast<uint16_t>(kKeyOrigin + rng.next_below(96) - 48),
                    static_cast<uint16_t>(kKeyOrigin + rng.next_below(96) - 48),
                    static_cast<uint16_t>(kKeyOrigin + rng.next_below(32) - 16)};
    tree.update_node(key, rng.next_below(3) != 0);
  }
  for (int i = 0; i < 20; ++i) {
    const OcKey key{static_cast<uint16_t>(rng.next_below(1u << 16)),
                    static_cast<uint16_t>(rng.next_below(1u << 16)),
                    static_cast<uint16_t>(rng.next_below(1u << 16))};
    tree.update_node(key, true);
  }
  return tree;
}

float one_lsb_above(float log_odds) {
  const geom::Fixed16 value = geom::Fixed16::from_float(log_odds);
  return geom::Fixed16::from_raw(static_cast<int16_t>(value.raw() + 1)).to_float();
}

class LeafSetHash : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LeafSetHash, ShuffleInvariant) {
  const OccupancyOctree tree = random_tree(GetParam());
  std::vector<LeafRecord> leaves = tree.leaves_dfs();
  ASSERT_GT(leaves.size(), 100u);
  const uint64_t dfs = leaf_set_hash(leaves);
  EXPECT_EQ(dfs, tree.content_hash());
  EXPECT_EQ(leaf_set_hash(tree.leaves_sorted()), dfs);
  std::mt19937_64 shuffler(GetParam());
  for (int round = 0; round < 3; ++round) {
    std::shuffle(leaves.begin(), leaves.end(), shuffler);
    EXPECT_EQ(leaf_set_hash(leaves), dfs);
  }
}

TEST_P(LeafSetHash, BranchRunsSumToTheWhole) {
  const OccupancyOctree tree = random_tree(GetParam());
  uint64_t sum = 0;
  int known_branches = 0;
  for (int branch = 0; branch < 8; ++branch) {
    std::vector<LeafRecord> run;
    tree.collect_branch_leaves(branch, run);
    known_branches += run.empty() ? 0 : 1;
    sum += leaf_set_hash(run);
  }
  EXPECT_GT(known_branches, 1);
  EXPECT_EQ(sum, tree.content_hash());
}

TEST_P(LeafSetHash, TileRunsSumToTheWhole) {
  // A tiled world shards the map at its tile-root depth and cannot merge
  // above it: split the normalized leaf list into per-tile runs.
  const OccupancyOctree tree = random_tree(GetParam());
  for (const int tile_depth : {1, 4, 11}) {
    const std::vector<LeafRecord> leaves = normalize_to_min_depth(tree.leaves_sorted(), tile_depth);
    std::map<uint64_t, std::vector<LeafRecord>> tiles;
    for (const LeafRecord& leaf : leaves) {
      tiles[key_at_depth(leaf.key, tile_depth).packed()].push_back(leaf);
    }
    EXPECT_GT(tiles.size(), 1u);
    uint64_t sum = 0;
    for (const auto& [tile, run] : tiles) sum += leaf_set_hash(run);
    EXPECT_EQ(sum, leaf_set_hash(leaves)) << "tile depth " << tile_depth;
  }
}

TEST_P(LeafSetHash, EverySingleRecordChangeMovesTheHash) {
  const OccupancyOctree tree = random_tree(GetParam());
  const std::vector<LeafRecord> leaves = tree.leaves_sorted();
  const uint64_t base = leaf_set_hash(leaves);
  geom::SplitMix64 rng(GetParam() ^ 0x1EAF);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t i = rng.next_below(leaves.size());
    const LeafRecord& leaf = leaves[i];

    std::vector<LeafRecord> moved = leaves;
    moved[i].key[static_cast<std::size_t>(trial % 3)] ^= 1;
    EXPECT_NE(leaf_set_hash(moved), base) << "moved key, record " << i;

    std::vector<LeafRecord> deeper = leaves;
    deeper[i].depth = leaf.depth == kTreeDepth ? leaf.depth - 1 : leaf.depth + 1;
    EXPECT_NE(leaf_set_hash(deeper), base) << "changed depth, record " << i;

    std::vector<LeafRecord> stepped = leaves;
    stepped[i].log_odds = one_lsb_above(leaf.log_odds);
    EXPECT_NE(leaf_set_hash(stepped), base) << "1-LSB value step, record " << i;

    std::vector<LeafRecord> dropped = leaves;
    dropped.erase(dropped.begin() + static_cast<std::ptrdiff_t>(i));
    EXPECT_NE(leaf_set_hash(dropped), base) << "dropped record " << i;

    std::vector<LeafRecord> duplicated = leaves;
    duplicated.push_back(leaf);
    EXPECT_NE(leaf_set_hash(duplicated), base) << "duplicated record " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LeafSetHash, ::testing::Values(1u, 42u, 2024u));

TEST(LeafSetHashRecords, DepthZeroHashesAsItsEightOctants) {
  for (const float value : {-2.0f, 0.0f, 0.85f, 3.5f}) {
    const std::vector<LeafRecord> collapsed{LeafRecord{OcKey{}, 0, value}};
    const std::vector<LeafRecord> octants = normalize_to_depth1(collapsed);
    ASSERT_EQ(octants.size(), 8u);
    EXPECT_EQ(leaf_set_hash(collapsed), leaf_set_hash(octants)) << value;
  }
  // A collapsed octree and the accelerator-shaped octant list agree.
  OccupancyOctree tree(0.2);
  for (const LeafRecord& octant : normalize_to_depth1({LeafRecord{OcKey{}, 0, -0.4f}})) {
    tree.set_leaf_at_depth(octant.key, octant.depth, octant.log_odds);
  }
  ASSERT_TRUE(tree.root_collapsed());
  EXPECT_EQ(tree.content_hash(), leaf_set_hash(normalize_to_depth1(tree.leaves_sorted())));
}

TEST(LeafSetHashRecords, EmptySetHashesToZero) {
  EXPECT_EQ(leaf_set_hash({}), 0u);
  EXPECT_EQ(OccupancyOctree(0.2).content_hash(), 0u);
}

TEST(LeafSetHashRecords, ValueEntersAtFixed16Resolution) {
  // Floats that quantize to the same Fixed16 value hash equal; the next
  // Fixed16 step does not.
  const OcKey key{kKeyOrigin, kKeyOrigin, kKeyOrigin};
  const float value = 0.85f;
  EXPECT_EQ(leaf_set_term(key, 16, value), leaf_set_term(key, 16, value + 1e-5f));
  EXPECT_NE(leaf_set_term(key, 16, value), leaf_set_term(key, 16, one_lsb_above(value)));
}

}  // namespace
}  // namespace omu::map
