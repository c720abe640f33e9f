// OMU accelerator top level (paper Fig. 7).
//
// Composes the ray casting unit, voxel scheduler, PE array, query unit and
// controller into the full accelerator, and runs the cycle-level
// simulation loop: the ray caster produces voxel updates at its production
// rate, the scheduler issues up to one update per cycle into the target
// PE's bounded queue (stalling on back-pressure), and each PE executes
// updates serially against its private TreeMem. Wall-clock cycles therefore
// include load imbalance across PEs and queue stalls, which is where the
// gap between the ideal 8x PE speedup and the achieved end-to-end speedup
// comes from.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "accel/controller.hpp"
#include "accel/omu_config.hpp"
#include "accel/pe_unit.hpp"
#include "accel/query_unit.hpp"
#include "accel/ray_cast_unit.hpp"
#include "accel/voxel_scheduler.hpp"
#include "geom/pointcloud.hpp"
#include "map/occupancy_octree.hpp"
#include "map/update_batch.hpp"

namespace omu::accel {

/// Thrown when a PE's TreeMem is exhausted (the modeled hardware would
/// raise the overflow status bit and stop accepting updates).
class CapacityExhausted : public std::runtime_error {
 public:
  CapacityExhausted(int pe, std::size_t rows)
      : std::runtime_error("OMU PE " + std::to_string(pe) + " TreeMem exhausted (" +
                           std::to_string(rows) + " rows)"),
        pe_index(pe) {}
  int pe_index;
};

/// Cumulative run totals across all simulated scans.
struct OmuRunTotals {
  uint64_t map_cycles = 0;             ///< wall cycles spent integrating scans
  uint64_t updates_dispatched = 0;     ///< voxel updates issued to PEs
  uint64_t scheduler_stall_cycles = 0; ///< cycles the dispatch port was blocked
  uint64_t scans = 0;                  ///< scans integrated

  /// Seconds of accelerator time at `clock_hz`. Throws
  /// std::invalid_argument for a non-positive clock.
  double seconds(double clock_hz) const {
    if (clock_hz <= 0.0) {
      throw std::invalid_argument("OmuRunTotals::seconds: clock_hz must be > 0");
    }
    return static_cast<double>(map_cycles) / clock_hz;
  }
};

/// Per-scan simulation summary.
struct ScanSimResult {
  RayCastResult cast;      ///< ray casting outcome for the scan
  uint64_t map_cycles = 0; ///< wall cycles to drain the scan's updates
};

/// The complete OMU accelerator model.
class OmuAccelerator {
 public:
  explicit OmuAccelerator(const OmuConfig& config = OmuConfig{});

  const OmuConfig& config() const { return cfg_; }

  // ---- Map building -----------------------------------------------------

  /// Full pipeline for one sensor scan: ray casting -> voxel queues ->
  /// scheduler -> PEs. Throws CapacityExhausted if TreeMem overflows.
  /// Feeds the engine and drains it (map_cycles covers the whole scan).
  ScanSimResult integrate_scan(const geom::PointCloud& world_points, const geom::Vec3d& origin);

  /// Simulates an explicit update stream and drains the pipeline (used by
  /// equivalence tests and benches replaying identical work on both
  /// platforms). Returns the wall cycles consumed by this batch.
  uint64_t simulate_updates(const std::vector<map::VoxelUpdate>& updates);
  uint64_t simulate_updates(const map::UpdateBatch& batch) {
    return simulate_updates(batch.items());
  }

  /// Streaming interface: dispatches a batch without draining, so PEs keep
  /// chewing on queued backlog while the next scan is ray-cast — scans
  /// pipeline back-to-back as they would in a real deployment. Call
  /// flush() after the last batch to retire the backlog; totals() then
  /// reports end-to-end wall cycles.
  void feed_updates(const std::vector<map::VoxelUpdate>& updates);
  void feed_updates(const map::UpdateBatch& batch) { feed_updates(batch.items()); }

  /// Runs the engine until all queues are empty and every PE is idle;
  /// returns the absolute engine cycle.
  uint64_t flush();

  // ---- Query service ----------------------------------------------------

  /// Classifies one voxel via the query unit; `max_depth` < 16 answers at
  /// coarser resolution from the inner nodes' max-occupancy values.
  PeQueryResult query(const map::OcKey& key, int max_depth = map::kTreeDepth);

  /// Convenience: classify a metric position (out-of-range -> unknown).
  map::Occupancy classify(const geom::Vec3d& position);

  // ---- Introspection ----------------------------------------------------

  const OmuRunTotals& totals() const { return totals_; }
  PeUnit& pe(int i) { return *pes_[static_cast<std::size_t>(i)]; }
  const PeUnit& pe(int i) const { return *pes_[static_cast<std::size_t>(i)]; }
  std::size_t pe_count() const { return pes_.size(); }
  VoxelScheduler& scheduler() { return scheduler_; }
  const VoxelScheduler& scheduler() const { return scheduler_; }
  RayCastUnit& ray_cast_unit() { return rc_; }
  QueryUnit& query_unit() { return query_; }
  Controller& controller() { return controller_; }
  const Controller& controller() const { return controller_; }
  bool overflow_seen() const { return overflow_seen_; }

  /// Operation counters summed over all PEs (same fields as the software
  /// baseline, enabling one-to-one comparison).
  map::PhaseStats aggregate_stats() const;

  /// Busy-cycle totals per phase summed over PEs (Fig. 10's accelerator
  /// breakdown).
  PeCycleBreakdown aggregate_cycles() const;

  /// SRAM access totals across all PE TreeMems (energy model input).
  uint64_t sram_reads() const;
  uint64_t sram_writes() const;

  /// Live children rows across PEs, and the bump-pointer peak (memory
  /// utilization reporting, Sec. IV-C).
  uint32_t rows_in_use() const;
  uint32_t peak_rows_touched() const;

  /// All known leaves across PEs in canonical (packed-key, depth) order —
  /// directly comparable against
  /// `normalize_to_depth1(software_tree.leaves_sorted())`.
  std::vector<map::LeafRecord> leaves_sorted() const;

  /// map::leaf_set_hash of the map, summed PE by PE with no export or
  /// sort; equals the software tree's content_hash() when the maps agree.
  uint64_t content_hash() const;

  /// Reads the whole map back into a software octree (the DMA readback a
  /// host would perform to persist or post-process the accelerator's map).
  map::OccupancyOctree to_octree() const;

  /// Power-on reset: clears map content, queues and counters.
  void reset();

 private:
  // Advances the engine: dispatches `updates` (starting at the current
  // engine cycle) and, when `drain` is set, keeps cycling until all PEs
  // retire their backlog. Returns cycles elapsed in this call.
  uint64_t run_engine(const std::vector<map::VoxelUpdate>& updates, bool drain);

  OmuConfig cfg_;
  std::vector<std::unique_ptr<PeUnit>> pes_;
  VoxelScheduler scheduler_;
  RayCastUnit rc_;
  QueryUnit query_;
  Controller controller_;
  OmuRunTotals totals_;
  bool overflow_seen_ = false;
  std::vector<map::VoxelUpdate> scan_buffer_;

  // Persistent engine state (streaming across feed_updates calls).
  uint64_t engine_cycle_ = 0;
  std::vector<uint64_t> pe_busy_until_;
};

}  // namespace omu::accel
