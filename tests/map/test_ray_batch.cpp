// The SoA ray-batch front end (RayBatchPlanner / RayUpdateGenerator) and
// the sorted-span dedup policy, checked against the legacy per-ray
// pipeline: clip_ray_to_max_range + compute_ray_keys per point, KeySet
// de-duplication per scan. The batch path must reproduce that pipeline's
// traversals, endpoints, flags and PhaseStats exactly — including on the
// edge rays (zero-length, axis-aligned, truncated, out-of-key-space,
// negative coordinates).
#include "map/ray_batch.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "geom/rng.hpp"
#include "map/dedup_policy.hpp"
#include "map/ray_generator.hpp"
#include "map/ray_keys.hpp"
#include "map/update_batch.hpp"

namespace omu::map {
namespace {

struct CollectedRay {
  std::vector<OcKey> free_keys;
  std::optional<OcKey> endpoint;
  bool truncated = false;
};

std::vector<CollectedRay> run_generator(const KeyCoder& coder, const geom::PointCloud& cloud,
                                        const geom::Vec3d& origin, double max_range,
                                        PhaseStats* stats) {
  RayUpdateGenerator generator(coder);
  std::vector<CollectedRay> rays;
  generator.generate(cloud, origin, max_range, stats, [&](const RaySegment& segment) {
    CollectedRay ray;
    ray.free_keys.assign(segment.free_keys.begin(), segment.free_keys.end());
    ray.endpoint = segment.endpoint;
    ray.truncated = segment.truncated;
    rays.push_back(std::move(ray));
  });
  return rays;
}

geom::PointCloud random_cloud(uint64_t seed, int n, double extent) {
  geom::SplitMix64 rng(seed);
  geom::PointCloud cloud;
  for (int i = 0; i < n; ++i) {
    cloud.push_back(geom::Vec3f{static_cast<float>(rng.uniform(-extent, extent)),
                                static_cast<float>(rng.uniform(-extent, extent)),
                                static_cast<float>(rng.uniform(-extent, extent))});
  }
  return cloud;
}

// A small cloud covering every edge-ray class relative to `origin`.
geom::PointCloud edge_cloud(const geom::Vec3d& origin) {
  geom::PointCloud cloud;
  const geom::Vec3f o{static_cast<float>(origin.x), static_cast<float>(origin.y),
                      static_cast<float>(origin.z)};
  cloud.push_back(o);                                      // zero-length
  cloud.push_back({o.x + 0.05f, o.y, o.z});                // same cell as origin
  cloud.push_back({o.x + 1.1f, o.y, o.z});                 // +x axis-aligned
  cloud.push_back({o.x, o.y - 1.3f, o.z});                 // -y axis-aligned
  cloud.push_back({o.x, o.y, o.z + 50.0f});                // truncated at max_range
  cloud.push_back({-3.5f, -2.25f, -4.125f});               // negative coords
  cloud.push_back({20000.0f, 0.0f, 0.0f});                 // outside the key space
  cloud.push_back({o.x - 2.7f, o.y + 1.9f, o.z - 1.3f});   // generic diagonal
  return cloud;
}

TEST(RayBatch, GeneratorMatchesLegacyPerRayPipeline) {
  const KeyCoder coder(0.2);
  const geom::Vec3d origin{0.13, -0.21, 0.32};
  for (const double max_range : {-1.0, 4.0}) {
    geom::PointCloud cloud = random_cloud(41, 400, 8.0);
    cloud.append(edge_cloud(origin));

    PhaseStats batch_stats;
    const auto rays = run_generator(coder, cloud, origin, max_range, &batch_stats);
    ASSERT_EQ(rays.size(), cloud.size());

    PhaseStats ref_stats;
    for (std::size_t i = 0; i < cloud.size(); ++i) {
      // The legacy path: clip the endpoint per ray, then the per-ray
      // compute_ray_keys entry (which re-derives direction and the DDA
      // setup from the clipped endpoint).
      geom::Vec3d end = cloud[i].cast<double>();
      const bool truncated = clip_ray_to_max_range(origin, end, max_range);
      std::vector<OcKey> ref_keys;
      const bool valid = compute_ray_keys(coder, origin, end, ref_keys, &ref_stats);

      EXPECT_EQ(rays[i].truncated, truncated) << "ray " << i;
      EXPECT_EQ(rays[i].free_keys, ref_keys) << "ray " << i;
      if (valid && !truncated) {
        ASSERT_TRUE(rays[i].endpoint.has_value()) << "ray " << i;
        EXPECT_EQ(*rays[i].endpoint, *coder.key_for(end)) << "ray " << i;
      } else {
        EXPECT_FALSE(rays[i].endpoint.has_value()) << "ray " << i;
      }
    }
    EXPECT_EQ(batch_stats.ray_casts, ref_stats.ray_casts);
    EXPECT_EQ(batch_stats.ray_cast_steps, ref_stats.ray_cast_steps);
  }
}

TEST(RayBatch, EdgeRaySegmentsHaveExpectedShape) {
  const KeyCoder coder(0.2);
  const geom::Vec3d origin{0.13, -0.21, 0.32};
  const auto rays = run_generator(coder, edge_cloud(origin), origin, 2.0, nullptr);
  ASSERT_EQ(rays.size(), 8u);
  const OcKey origin_cell = *coder.key_for(origin);

  // Zero-length ray: same cell, nothing traversed, endpoint is the cell.
  EXPECT_TRUE(rays[0].free_keys.empty());
  ASSERT_TRUE(rays[0].endpoint.has_value());
  EXPECT_EQ(*rays[0].endpoint, origin_cell);
  EXPECT_FALSE(rays[0].truncated);

  // Sub-resolution ray: still the same cell.
  EXPECT_TRUE(rays[1].free_keys.empty());
  ASSERT_TRUE(rays[1].endpoint.has_value());
  EXPECT_EQ(*rays[1].endpoint, origin_cell);

  // +x axis-aligned: every traversed cell differs from the origin cell only
  // in x, ascending one cell per step.
  ASSERT_FALSE(rays[2].free_keys.empty());
  ASSERT_TRUE(rays[2].endpoint.has_value());
  for (std::size_t s = 0; s < rays[2].free_keys.size(); ++s) {
    const OcKey& k = rays[2].free_keys[s];
    EXPECT_EQ(k[0], static_cast<uint16_t>(origin_cell[0] + s)) << s;
    EXPECT_EQ(k[1], origin_cell[1]);
    EXPECT_EQ(k[2], origin_cell[2]);
  }
  EXPECT_EQ((*rays[2].endpoint)[0], static_cast<uint16_t>(origin_cell[0] + rays[2].free_keys.size()));

  // -y axis-aligned: descending in y only.
  ASSERT_FALSE(rays[3].free_keys.empty());
  for (std::size_t s = 0; s < rays[3].free_keys.size(); ++s) {
    const OcKey& k = rays[3].free_keys[s];
    EXPECT_EQ(k[0], origin_cell[0]);
    EXPECT_EQ(k[1], static_cast<uint16_t>(origin_cell[1] - s)) << s;
    EXPECT_EQ(k[2], origin_cell[2]);
  }

  // Truncated ray: free space only, no occupied endpoint, and the walk
  // stops near the clipped length (2 m = 10 cells at 0.2 m), far short of
  // the 50 m measurement.
  EXPECT_TRUE(rays[4].truncated);
  EXPECT_FALSE(rays[4].endpoint.has_value());
  ASSERT_FALSE(rays[4].free_keys.empty());
  EXPECT_LE(rays[4].free_keys.size(), 12u);

  // Far-out-of-key-space measurement: clipping runs before quantization
  // (legacy order), so at max_range 2 the clipped ray is back inside the
  // key space and casts as truncated free space. The unclipped case — the
  // ray rejected outright — is covered against the legacy reference in
  // GeneratorMatchesLegacyPerRayPipeline's max_range = -1 pass.
  EXPECT_TRUE(rays[6].truncated);
  EXPECT_FALSE(rays[6].endpoint.has_value());
  EXPECT_FALSE(rays[6].free_keys.empty());
}

TEST(RayBatch, DiscretizedDedupEmitsCanonicalSortedCells) {
  const KeyCoder coder(0.2);
  const geom::Vec3d origin{0.0, 0.0, 0.0};
  // Duplicate every point so rays overlap exactly, plus dense random
  // geometry so rays overlap partially — both dedup cases.
  geom::PointCloud cloud = random_cloud(43, 250, 4.0);
  const geom::PointCloud copy = cloud;
  cloud.append(copy);

  RayUpdateGenerator generator(coder);
  UpdateDeduper deduper(InsertMode::kDiscretized);
  UpdateBatch batch;
  deduper.begin_scan(batch);

  KeySet free_all, occupied_all;
  uint64_t truncated_rays = 0;
  generator.generate(cloud, origin, -1.0, nullptr, [&](const RaySegment& segment) {
    deduper.consume(segment);
    for (const OcKey& k : segment.free_keys) free_all.insert(k);
    if (segment.endpoint) occupied_all.insert(*segment.endpoint);
    if (segment.truncated) ++truncated_rays;
  });
  const ScanInsertResult result = deduper.finish_scan();

  // Reference sets: occupied beats free within a scan.
  for (const OcKey& k : occupied_all) free_all.erase(k);

  EXPECT_EQ(result.points, cloud.size());
  EXPECT_EQ(result.truncated_rays, truncated_rays);
  EXPECT_EQ(result.free_updates, free_all.size());
  EXPECT_EQ(result.occupied_updates, occupied_all.size());
  ASSERT_EQ(batch.size(), free_all.size() + occupied_all.size());
  EXPECT_EQ(batch.free_count(), free_all.size());
  EXPECT_EQ(batch.occupied_count(), occupied_all.size());

  // Emission order is canonical: the free cells in strictly ascending
  // packed-key order, then the occupied cells likewise — not hash-bucket
  // order. Strict ascent also proves uniqueness.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const bool in_free_section = i < free_all.size();
    EXPECT_EQ(batch[i].occupied, !in_free_section) << i;
    if (in_free_section) {
      EXPECT_TRUE(free_all.count(batch[i].key)) << i;
    } else {
      EXPECT_TRUE(occupied_all.count(batch[i].key)) << i;
    }
    if (i > 0 && (i != free_all.size())) {
      EXPECT_LT(batch[i - 1].key.packed(), batch[i].key.packed()) << i;
    }
  }
}

TEST(RayBatch, RayByRayStreamsSegmentsVerbatim) {
  const KeyCoder coder(0.2);
  const geom::Vec3d origin{0.1, 0.1, 0.1};
  geom::PointCloud cloud = random_cloud(44, 60, 3.0);
  cloud.append(edge_cloud(origin));

  RayUpdateGenerator generator(coder);
  UpdateDeduper deduper(InsertMode::kRayByRay);
  UpdateBatch batch;
  deduper.begin_scan(batch);

  std::vector<VoxelUpdate> expected;
  generator.generate(cloud, origin, 2.0, nullptr, [&](const RaySegment& segment) {
    deduper.consume(segment);
    for (const OcKey& k : segment.free_keys) expected.push_back({k, false});
    if (segment.endpoint) expected.push_back({*segment.endpoint, true});
  });
  const ScanInsertResult result = deduper.finish_scan();

  ASSERT_EQ(batch.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(batch[i].key, expected[i].key) << i;
    EXPECT_EQ(batch[i].occupied, expected[i].occupied) << i;
  }
  EXPECT_EQ(result.total_updates(), expected.size());
}

}  // namespace
}  // namespace omu::map
