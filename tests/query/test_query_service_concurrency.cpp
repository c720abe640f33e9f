// Concurrency contract of the QueryService: N reader threads race a
// writer across snapshot publications with no locks on the read path.
// Run under ThreadSanitizer in CI (the sanitizer matrix job) — the
// assertions here check the memory-model-visible guarantees (snapshot
// immutability, epoch monotonicity, final convergence); TSan checks that
// the races the design claims are benign actually don't exist.
#include "query/query_service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "geom/rng.hpp"
#include "map/scan_inserter.hpp"
#include "world/tiled_world_map.hpp"

namespace omu::query {
namespace {

using map::OcKey;
using map::Occupancy;

geom::PointCloud random_cloud(geom::SplitMix64& rng, int n) {
  geom::PointCloud cloud;
  for (int i = 0; i < n; ++i) {
    cloud.push_back(geom::Vec3f{static_cast<float>(rng.uniform(-5, 5)),
                                static_cast<float>(rng.uniform(-5, 5)),
                                static_cast<float>(rng.uniform(-1, 1))});
  }
  return cloud;
}

TEST(QueryServiceConcurrency, StartsWithEmptyPlaceholderSnapshot) {
  QueryService service;
  ASSERT_NE(service.snapshot(), nullptr);
  EXPECT_EQ(service.epoch(), 0u);
  EXPECT_EQ(service.publications(), 0u);
  EXPECT_EQ(service.classify(OcKey{1, 2, 3}), Occupancy::kUnknown);
}

TEST(QueryServiceConcurrency, PublicationsBumpEpochsMonotonically) {
  QueryService service;
  map::OccupancyOctree tree(0.2);
  map::OctreeBackend backend(tree);
  for (int i = 0; i < 5; ++i) {
    tree.update_node(OcKey{map::kKeyOrigin, map::kKeyOrigin,
                           static_cast<uint16_t>(map::kKeyOrigin + i)},
                     true);
    const uint64_t epoch = service.refresh_from(backend);
    EXPECT_EQ(epoch, static_cast<uint64_t>(i + 1));
    EXPECT_EQ(service.epoch(), epoch);
  }
  EXPECT_EQ(service.publications(), 5u);
  EXPECT_EQ(service.snapshot()->content_hash(), tree.content_hash());
}

TEST(QueryServiceConcurrency, ReaderKeepsSupersededSnapshotAlive) {
  QueryService service;
  map::OccupancyOctree tree(0.2);
  map::OctreeBackend backend(tree);
  tree.update_node(OcKey{map::kKeyOrigin, map::kKeyOrigin, map::kKeyOrigin}, true);
  service.refresh_from(backend);

  const auto held = service.snapshot();
  const uint64_t held_hash = held->content_hash();
  for (int i = 1; i <= 10; ++i) {
    tree.update_node(OcKey{static_cast<uint16_t>(map::kKeyOrigin + i), map::kKeyOrigin,
                           map::kKeyOrigin},
                     true);
    service.refresh_from(backend);
  }
  // The held snapshot is untouched by ten later publications.
  EXPECT_EQ(held->content_hash(), held_hash);
  EXPECT_EQ(held->epoch(), 1u);
  EXPECT_EQ(service.epoch(), 11u);
  EXPECT_NE(service.snapshot()->content_hash(), held_hash);
}

TEST(QueryServiceConcurrency, ConcurrentFlushesNeverPublishStaleContent) {
  // The single producer applies and publishes while a second thread calls
  // refresh_from concurrently (a consumer forcing a fresh epoch). The
  // in-memory tiled world serializes its own methods, so it is a backend
  // two threads may drive at once. Export and publish are one critical
  // section, so a newer epoch can never carry an older export.
  // Observable contract: occupancy maps only gain information, so once
  // any reader sees a voxel as known, every later epoch must know it too.
  QueryService service;
  world::TiledWorldMap backend{world::TiledWorldConfig{}};

  constexpr int kRounds = 60;
  std::atomic<bool> done{false};

  std::thread refresher([&] {
    while (!done.load(std::memory_order_acquire)) service.refresh_from(backend);
  });

  std::thread observer([&] {
    // Tracks (key -> first epoch it was seen known); a later snapshot
    // forgetting it means a stale export was published under a newer epoch.
    std::map<uint64_t, uint64_t> known_since;
    while (!done.load(std::memory_order_acquire)) {
      const auto snapshot = service.snapshot();
      for (const auto& [packed, epoch] : known_since) {
        if (snapshot->epoch() <= epoch) continue;
        const OcKey key{static_cast<uint16_t>(packed & 0xFFFF),
                        static_cast<uint16_t>((packed >> 16) & 0xFFFF),
                        static_cast<uint16_t>((packed >> 32) & 0xFFFF)};
        EXPECT_NE(snapshot->classify(key), Occupancy::kUnknown)
            << "epoch " << snapshot->epoch() << " forgot a voxel known since epoch " << epoch;
      }
      for (const map::LeafRecord& leaf : snapshot->leaves()) {
        known_since.try_emplace(leaf.key.packed(), snapshot->epoch());
      }
    }
  });

  geom::SplitMix64 rng(11);
  map::UpdateBatch batch;
  for (int i = 0; i < kRounds; ++i) {
    batch.clear();
    batch.push(OcKey{static_cast<uint16_t>(map::kKeyOrigin + i),
                     static_cast<uint16_t>(map::kKeyOrigin + rng.next_below(8)),
                     map::kKeyOrigin},
               true);
    backend.apply(batch);
    service.refresh_from(backend);
  }
  done.store(true, std::memory_order_release);
  refresher.join();
  observer.join();
  // The producer's own flushes plus however many the refresher landed.
  EXPECT_GE(service.publications(), static_cast<uint64_t>(kRounds));
  EXPECT_EQ(service.snapshot()->leaf_count(), static_cast<std::size_t>(kRounds));
}

TEST(QueryServiceConcurrency, ReadersRaceIncrementalChurnPublications) {
  // Incremental publication under readers: the writer churns one octant
  // (all-positive coordinates pin every update to a single first-level
  // branch) and publishes spliced epochs, while readers hammer the live
  // snapshot *and* force its lazy forms — several threads can hit the
  // same snapshot's first leaves() materialization (the double-checked
  // ensure_flat path) and the same shared chunk's first content_hash()
  // term (its call_once) at once. Readers also
  // hold superseded epochs and re-verify their hashes never move while
  // later epochs splice chunks the held epoch still shares.
  constexpr int kEpochs = 24;
  constexpr int kReaders = 4;

  QueryService service;
  map::OccupancyOctree tree(0.2);
  map::OctreeBackend backend(tree);
  map::ScanInserter inserter(backend);

  geom::SplitMix64 seed_rng(303);
  // Base content in every octant so most chunks are shareable.
  inserter.insert_scan(random_cloud(seed_rng, 400), {0.0, 0.1, 0.2});
  service.refresh_from(backend);

  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      geom::SplitMix64 rng(static_cast<uint64_t>(r) * 1299709 + 7);
      std::shared_ptr<const MapSnapshot> held;
      uint64_t held_hash = 0;
      uint64_t last_epoch = 0;
      while (!done.load(std::memory_order_acquire)) {
        const auto snapshot = service.snapshot();
        ASSERT_GE(snapshot->epoch(), last_epoch);
        last_epoch = snapshot->epoch();
        // Race the lazy chunk terms and flat form with the other readers.
        const uint64_t hash = snapshot->content_hash();
        ASSERT_EQ(snapshot->leaves().size(), snapshot->leaf_count());
        ASSERT_EQ(snapshot->content_hash(), hash);  // idempotent
        // Point queries against the same immutable epoch.
        for (int i = 0; i < 32; ++i) {
          const OcKey key{static_cast<uint16_t>(map::kKeyOrigin + rng.next_below(64) - 32),
                          static_cast<uint16_t>(map::kKeyOrigin + rng.next_below(64) - 32),
                          static_cast<uint16_t>(map::kKeyOrigin + rng.next_below(16) - 8)};
          snapshot->classify(key);
        }
        if (held == nullptr) {
          held = snapshot;
          held_hash = hash;
        } else {
          // The held epoch shares chunks with snapshots the writer keeps
          // splicing; its content must never move.
          ASSERT_EQ(held->content_hash(), held_hash);
          if (rng.next_below(8) == 0) held.reset();  // rotate the held epoch
        }
      }
    });
  }

  geom::SplitMix64 churn_rng(909);
  for (int e = 0; e < kEpochs; ++e) {
    geom::PointCloud cloud;
    for (int i = 0; i < 60; ++i) {
      cloud.push_back(geom::Vec3f{static_cast<float>(churn_rng.uniform(2, 6)),
                                  static_cast<float>(churn_rng.uniform(2, 6)),
                                  static_cast<float>(churn_rng.uniform(0.3, 1.5))});
    }
    inserter.insert_scan(cloud, {2.0, 2.0, 0.5});
    service.refresh_from(backend);
  }
  done.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();

  const SnapshotPublishStats stats = service.publish_stats();
  EXPECT_EQ(stats.publications, static_cast<uint64_t>(kEpochs) + 1);
  EXPECT_GT(stats.incremental_publications, 0u);
  EXPECT_GT(stats.chunks_reused, 0u);
  EXPECT_EQ(service.snapshot()->content_hash(), tree.content_hash());
}

TEST(QueryServiceConcurrency, ConcurrentPublishersSerializeWithMonotonicEpochs) {
  // Several threads publishing concurrently (e.g. two backends flushing):
  // epochs stay dense and monotonic, the final count is exact.
  constexpr int kPublishers = 4;
  constexpr int kPerThread = 25;
  QueryService service;
  std::vector<std::thread> publishers;
  for (int t = 0; t < kPublishers; ++t) {
    publishers.emplace_back([&, t] {
      map::OccupancyOctree tree(0.2);
      map::OctreeBackend backend(tree);
      for (int i = 0; i < kPerThread; ++i) {
        tree.update_node(OcKey{static_cast<uint16_t>(map::kKeyOrigin + t),
                               static_cast<uint16_t>(map::kKeyOrigin + i), map::kKeyOrigin},
                         true);
        service.refresh_from(backend);
      }
    });
  }
  for (auto& publisher : publishers) publisher.join();
  EXPECT_EQ(service.publications(), static_cast<uint64_t>(kPublishers * kPerThread));
  EXPECT_EQ(service.epoch(), service.publications());
}

}  // namespace
}  // namespace omu::query
