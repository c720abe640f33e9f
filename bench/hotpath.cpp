// Hot-path microbenchmarks: the per-ray vs SoA batch DDA front ends on
// the same scan, and the end-to-end insert rate (ray casting, dedup and
// octree update) the data-oriented hot path delivers.
//
// Unlike the paper-table families these are host-performance numbers (the
// perf-gate lane tracks them via baseline.json).
#include <string>
#include <vector>

#include "benchkit/benchmark.hpp"
#include "geom/rng.hpp"
#include "map/occupancy_octree.hpp"
#include "map/ray_generator.hpp"
#include "map/ray_keys.hpp"
#include "map/scan_inserter.hpp"

namespace {

using namespace omu;

void hotpath_dda(benchkit::State& state) {
  const bool batch = state.param("impl") == "batch";
  state.pause_timing();
  constexpr std::size_t kRays = 20000;
  geom::SplitMix64 rng(75);
  const geom::Vec3d origin{0.1, 0.05, -0.1};
  geom::PointCloud cloud;
  for (std::size_t i = 0; i < kRays; ++i) {
    cloud.push_back(geom::Vec3f{static_cast<float>(rng.uniform(-8.0, 8.0)),
                                static_cast<float>(rng.uniform(-8.0, 8.0)),
                                static_cast<float>(rng.uniform(-2.0, 2.0))});
  }
  const map::KeyCoder coder(0.2);
  uint64_t keys = 0;
  state.resume_timing();

  if (batch) {
    // The SoA front end: one prepare() for the whole scan, then the shared
    // serial walk per ray.
    map::RayUpdateGenerator generator(coder);
    generator.generate(cloud, origin, -1.0, nullptr, [&](const map::RaySegment& segment) {
      keys += segment.free_keys.size();
    });
  } else {
    // The legacy per-ray pipeline: clip/setup/walk one point at a time.
    std::vector<map::OcKey> buffer;
    for (std::size_t i = 0; i < kRays; ++i) {
      buffer.clear();
      map::compute_ray_keys(coder, origin, cloud[i].cast<double>(), buffer);
      keys += buffer.size();
    }
  }
  state.set_items_processed(kRays);
  state.set_counter("keys_per_ray", static_cast<double>(keys) / static_cast<double>(kRays));
}

void hotpath_insert_e2e(benchkit::State& state) {
  const bool dedup = state.param("mode") == "discretized";
  state.pause_timing();
  geom::SplitMix64 rng(76);
  constexpr int kScans = 10;
  constexpr int kPoints = 2000;
  // One cloud per scan from a slowly advancing origin: realistic revisit
  // structure (saturation, early aborts, warm descent cache) instead of
  // fresh space every scan.
  std::vector<geom::PointCloud> clouds(kScans);
  std::vector<geom::Vec3d> origins(kScans);
  for (int s = 0; s < kScans; ++s) {
    origins[s] = {0.3 * s, 0.1 * s, 0.0};
    for (int i = 0; i < kPoints; ++i) {
      clouds[s].push_back(
          geom::Vec3f{static_cast<float>(origins[s].x + rng.uniform(-6.0, 6.0)),
                      static_cast<float>(origins[s].y + rng.uniform(-6.0, 6.0)),
                      static_cast<float>(rng.uniform(-1.5, 1.5))});
    }
  }
  state.resume_timing();

  map::OccupancyOctree tree(0.2);
  map::InsertPolicy policy;
  policy.mode = dedup ? map::InsertMode::kDiscretized : map::InsertMode::kRayByRay;
  map::ScanInserter inserter(tree, policy);
  for (int s = 0; s < kScans; ++s) {
    inserter.insert_scan(clouds[s], origins[s]);
  }

  state.set_items_processed(static_cast<uint64_t>(kScans) * kPoints);  // points
  state.set_counter("voxel_updates", static_cast<double>(tree.stats().voxel_updates));
  state.set_counter("leaves", static_cast<double>(tree.leaf_count()));
  state.check("map_nonempty", tree.leaf_count() > 0);
}

OMU_BENCHMARK(hotpath_dda).axis("impl", std::vector<std::string>{"per_ray", "batch"});
OMU_BENCHMARK(hotpath_insert_e2e)
    .axis("mode", std::vector<std::string>{"ray_by_ray", "discretized"});

}  // namespace
