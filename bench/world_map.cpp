// Tiled out-of-core world map characterization: the `world` family sweeps
// tile span x memory budget over the FR-079 stream.
//
//   world/shift:S/budget:{off,half}
//
// Each case streams the dataset through a TiledWorldMap (tile span 2^S
// voxels per axis; budget "half" caps resident tile bytes at half the
// unbounded footprint, forcing LRU eviction through the world directory)
// and then hammers a federated WorldQueryView. Checks assert the paging
// never costs a bit (content equals the monolithic octree) and that the
// resident ceiling held; counters report eviction/reload churn and insert
// + query throughput against the monolithic baseline.
#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <string>

#include "bench_common.hpp"
#include "benchkit/benchmark.hpp"
#include "geom/rng.hpp"
#include "map/scan_inserter.hpp"
#include "query/map_snapshot.hpp"
#include "world/tiled_world_map.hpp"

namespace {

using namespace omu;

/// Scratch world directory, removed when the case finishes.
struct ScratchDir {
  std::string path;
  explicit ScratchDir(const std::string& tag) {
    static std::atomic<uint64_t> counter{0};
    path = (std::filesystem::temp_directory_path() /
            ("omu_bench_" + tag + "_" + std::to_string(counter.fetch_add(1))))
               .string();
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

/// Monolithic reference over the same stream: octree + snapshot, built
/// once (cross-case reference, always accessed under paused timing).
struct WorldReference {
  map::OccupancyOctree tree{0.2};
  std::shared_ptr<const query::MapSnapshot> snapshot;
  double insert_seconds = 0.0;
  uint64_t updates = 0;

  WorldReference() {
    const auto& scans = bench::scans_memo(data::DatasetId::kFr079Corridor);
    map::ScanInserter inserter(tree);
    const auto start = std::chrono::steady_clock::now();
    for (const data::DatasetScan& scan : scans) {
      inserter.insert_scan(scan.points, scan.pose.translation());
    }
    insert_seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    updates = tree.stats().voxel_updates;
    map::OctreeBackend backend(tree);
    snapshot = query::MapSnapshot::capture(backend);
  }
};

const WorldReference& reference_memo() {
  static WorldReference* ref = new WorldReference();
  return *ref;
}

/// Unbounded resident footprint per tile shift — sizes the "half" budget.
std::size_t unbounded_bytes_memo(int shift) {
  static std::map<int, std::size_t> cache;
  const auto it = cache.find(shift);
  if (it != cache.end()) return it->second;
  world::TiledWorldConfig cfg;
  cfg.tile_shift = shift;
  world::TiledWorldMap unbounded(cfg);
  map::ScanInserter inserter(unbounded);
  for (const data::DatasetScan& scan : bench::scans_memo(data::DatasetId::kFr079Corridor)) {
    inserter.insert_scan(scan.points, scan.pose.translation());
  }
  return cache[shift] = unbounded.pager_stats().resident_bytes;
}

/// Classifies `n` pseudo-random keys inside the mapped region; returns
/// queries/second.
template <typename QueryFn>
double measure_query_qps(int n, QueryFn&& classify_at) {
  geom::SplitMix64 rng(17);
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < n; ++i) {
    classify_at(map::OcKey{
        static_cast<uint16_t>(map::kKeyOrigin + rng.next_below(512) - 256),
        static_cast<uint16_t>(map::kKeyOrigin + rng.next_below(128) - 64),
        static_cast<uint16_t>(map::kKeyOrigin + rng.next_below(64) - 32)});
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return static_cast<double>(n) / seconds;
}

void world_map(benchkit::State& state) {
  const int shift = static_cast<int>(state.param_int("shift"));
  const bool bounded = state.param("budget") == "half";

  state.pause_timing();
  const auto& scans = bench::scans_memo(data::DatasetId::kFr079Corridor);
  const WorldReference& ref = reference_memo();
  std::size_t budget = 0;
  std::unique_ptr<ScratchDir> dir;
  if (bounded) {
    budget = unbounded_bytes_memo(shift) / 2;
    dir = std::make_unique<ScratchDir>("world_shift" + std::to_string(shift));
  }
  state.resume_timing();

  // ---- Timed: out-of-core insert of the full stream ----------------------
  world::TiledWorldConfig cfg;
  cfg.tile_shift = shift;
  cfg.resident_byte_budget = budget;
  if (dir) cfg.directory = dir->path;
  world::TiledWorldMap world(cfg);
  map::ScanInserter inserter(world);
  const auto insert_start = std::chrono::steady_clock::now();
  for (const data::DatasetScan& scan : scans) {
    inserter.insert_scan(scan.points, scan.pose.translation());
  }
  world.flush();
  const double insert_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - insert_start).count();

  // ---- Timed: federated query throughput ---------------------------------
  const auto view = world.capture_view();
  constexpr int kQueries = 50000;
  const double view_qps =
      measure_query_qps(kQueries, [&](const map::OcKey& key) { return view->classify(key); });

  state.pause_timing();
  const double mono_qps = measure_query_qps(
      kQueries, [&](const map::OcKey& key) { return ref.snapshot->classify(key); });

  // ---- Checks: zero accuracy loss, resident ceiling held -----------------
  const world::TilePagerStats stats = world.pager_stats();
  state.check("bit_identical_to_monolithic",
              world.content_hash() == map::leaf_set_hash(map::normalize_to_min_depth(
                                          ref.tree.leaves_sorted(), world.grid().tile_depth())));
  if (bounded) {
    // Boundary residency under the budget; the continuous high-water may
    // exceed it by at most one residency step (see TilePagerStats).
    state.check("resident_under_budget",
                stats.resident_bytes <= budget &&
                    stats.peak_resident_bytes <= budget + stats.max_residency_step_bytes);
    // With the budget at half the footprint, the stream must have spilled.
    state.check("evictions_forced", stats.evictions > 0);
  }

  // ---- Counters ----------------------------------------------------------
  state.set_items_processed(world.updates_applied());
  state.set_counter("insert_updates_per_sec",
                    static_cast<double>(world.updates_applied()) / insert_seconds);
  state.set_counter("vs_monolithic_insert",
                    (static_cast<double>(world.updates_applied()) / insert_seconds) /
                        (static_cast<double>(ref.updates) / ref.insert_seconds));
  state.set_counter("view_mqps", view_qps / 1e6);
  state.set_counter("vs_monolithic_query", view_qps / mono_qps);
  state.set_counter("tiles", static_cast<double>(stats.known_tiles));
  state.set_counter("evictions", static_cast<double>(stats.evictions));
  state.set_counter("reloads", static_cast<double>(stats.reloads));
  state.set_counter("tile_writes", static_cast<double>(stats.tile_writes));
  state.set_counter("peak_resident_kib",
                    static_cast<double>(stats.peak_resident_bytes) / 1024.0);
  state.set_counter("max_step_kib",
                    static_cast<double>(stats.max_residency_step_bytes) / 1024.0);
  state.set_counter("budget_kib", static_cast<double>(budget) / 1024.0);
  state.resume_timing();
}

benchkit::Family& world_family =
    benchkit::register_family("world", world_map)
        .axis("shift", std::vector<int64_t>{4, 6})
        .axis("budget", std::vector<std::string>{"off", "half"})
        .default_repeats(1)
        .default_warmup(0);

}  // namespace
