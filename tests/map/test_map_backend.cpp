// MapBackend contract tests against the reference OctreeBackend, plus the
// three-stage ScanInserter composition (ray generation -> dedup policy ->
// dispatch) feeding an explicit backend.
#include "map/map_backend.hpp"

#include <gtest/gtest.h>

#include "geom/rng.hpp"
#include "map/scan_inserter.hpp"

namespace omu::map {
namespace {

geom::PointCloud random_cloud(uint64_t seed, int n) {
  geom::SplitMix64 rng(seed);
  geom::PointCloud cloud;
  for (int i = 0; i < n; ++i) {
    cloud.push_back(geom::Vec3f{static_cast<float>(rng.uniform(-4, 4)),
                                static_cast<float>(rng.uniform(-4, 4)),
                                static_cast<float>(rng.uniform(-1, 1))});
  }
  return cloud;
}

TEST(MapBackend, OctreeBackendApplyMatchesDirectUpdates) {
  const auto cloud = random_cloud(1, 200);
  OccupancyOctree direct(0.2);
  ScanInserter direct_inserter(direct);
  UpdateBatch batch;
  direct_inserter.collect_updates(cloud, {0, 0, 0}, batch);
  for (const VoxelUpdate& u : batch) direct.update_node(u.key, u.occupied);

  OccupancyOctree via_backend(0.2);
  OctreeBackend backend(via_backend);
  backend.apply(batch);
  backend.flush();  // no-op for the synchronous backend

  EXPECT_EQ(backend.content_hash(), direct.content_hash());
  EXPECT_EQ(backend.leaves_sorted(), direct.leaves_sorted());
}

TEST(MapBackend, ClassifyByPositionRoutesThroughCoder) {
  OccupancyOctree tree(0.2);
  OctreeBackend backend(tree);
  UpdateBatch batch;
  batch.push(*tree.coder().key_for({1.1, 0.1, 0.1}), true);
  backend.apply(batch);
  EXPECT_EQ(backend.classify(geom::Vec3d{1.1, 0.1, 0.1}), Occupancy::kOccupied);
  EXPECT_EQ(backend.classify(geom::Vec3d{-1.1, 0.1, 0.1}), Occupancy::kUnknown);
  // Far out of the representable key space -> unknown, not a crash.
  EXPECT_EQ(backend.classify(geom::Vec3d{1e9, 0, 0}), Occupancy::kUnknown);
}

TEST(MapBackend, InserterOverBackendMatchesInserterOverTree) {
  const auto cloud = random_cloud(2, 300);

  OccupancyOctree via_tree(0.2);
  ScanInserter tree_inserter(via_tree);
  const auto r1 = tree_inserter.insert_scan(cloud, {0.1, 0.1, 0.1});

  OccupancyOctree via_backend(0.2);
  OctreeBackend backend(via_backend);
  ScanInserter backend_inserter(backend);
  const auto r2 = backend_inserter.insert_scan(cloud, {0.1, 0.1, 0.1});

  EXPECT_EQ(r1.points, r2.points);
  EXPECT_EQ(r1.free_updates, r2.free_updates);
  EXPECT_EQ(r1.occupied_updates, r2.occupied_updates);
  EXPECT_EQ(via_backend.content_hash(), via_tree.content_hash());
  // Ray-casting counters land on the adapted tree in both spellings.
  EXPECT_EQ(via_backend.stats().ray_casts, via_tree.stats().ray_casts);
}

TEST(MapBackend, DefaultContentHashHashesLeafExport) {
  // A backend with no content_hash override: the default is the leaf-set
  // hash of its export.
  class ExportOnlyBackend final : public MapBackend {
   public:
    explicit ExportOnlyBackend(const OccupancyOctree& tree) : tree_(&tree) {}
    std::string name() const override { return "export-only"; }
    const KeyCoder& coder() const override { return tree_->coder(); }
    OccupancyParams occupancy_params() const override { return tree_->params(); }
    void apply(const UpdateBatch&) override {}
    Occupancy classify(const OcKey& key) override { return tree_->classify(key); }
    std::vector<LeafRecord> leaves_sorted() const override { return tree_->leaves_sorted(); }

   private:
    const OccupancyOctree* tree_;
  };

  OccupancyOctree tree(0.2);
  OctreeBackend backend(tree);
  ExportOnlyBackend export_only(tree);
  UpdateBatch batch;
  batch.push(OcKey{32768, 32768, 32768}, true);
  batch.push(OcKey{40000, 32768, 32768}, false);
  backend.apply(batch);
  EXPECT_EQ(backend.content_hash(), leaf_set_hash(backend.leaves_sorted()));
  EXPECT_EQ(export_only.content_hash(), leaf_set_hash(tree.leaves_sorted()));
  EXPECT_EQ(export_only.content_hash(), backend.content_hash());

  // A collapsed map exports one depth-0 record; the default hashes it as
  // its eight depth-1 octants, like every other backend.
  OccupancyOctree collapsed(0.2);
  for (const LeafRecord& octant : normalize_to_depth1({LeafRecord{OcKey{}, 0, 1.0f}})) {
    collapsed.set_leaf_at_depth(octant.key, octant.depth, octant.log_odds);
  }
  ASSERT_TRUE(collapsed.root_collapsed());
  const ExportOnlyBackend collapsed_export(collapsed);
  EXPECT_EQ(collapsed_export.content_hash(),
            leaf_set_hash(normalize_to_depth1(collapsed.leaves_sorted())));
}

TEST(UpdateBatch, CountsAndClearKeepCapacity) {
  UpdateBatch batch;
  batch.reserve(64);
  const std::size_t cap = batch.capacity();
  EXPECT_GE(cap, 64u);
  batch.push(OcKey{1, 2, 3}, true);
  batch.push(OcKey{4, 5, 6}, false);
  batch.push(OcKey{7, 8, 9}, false);
  EXPECT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch.occupied_count(), 1u);
  EXPECT_EQ(batch.free_count(), 2u);
  EXPECT_EQ(batch.front().key, (OcKey{1, 2, 3}));
  EXPECT_TRUE(batch.back().occupied == false);
  batch.clear();
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.free_count(), 0u);
  EXPECT_EQ(batch.capacity(), cap);  // reserve-once: clear keeps storage
}

TEST(UpdateBatch, AppendConcatenatesInOrder) {
  UpdateBatch a;
  a.push(OcKey{1, 1, 1}, false);
  UpdateBatch b;
  b.push(OcKey{2, 2, 2}, true);
  b.push(OcKey{3, 3, 3}, false);
  a.append(b);
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a[1].key, (OcKey{2, 2, 2}));
  EXPECT_EQ(a.occupied_count(), 1u);
  EXPECT_EQ(a.free_count(), 2u);
}

TEST(ScanInserterStages, CollectReservesFromPreviousScan) {
  // The reserve-once hint: after one scan, the next collect into a fresh
  // batch pre-reserves at least the previous scan's update count.
  OccupancyOctree tree(0.2);
  ScanInserter inserter(tree);
  const auto cloud = random_cloud(3, 100);
  UpdateBatch first;
  const auto r = inserter.collect_updates(cloud, {0, 0, 0}, first);
  ASSERT_GT(r.total_updates(), 0u);

  UpdateBatch second;
  inserter.collect_updates(cloud, {0, 0, 0}, second);
  EXPECT_GE(second.capacity(), r.total_updates());
}

}  // namespace
}  // namespace omu::map
