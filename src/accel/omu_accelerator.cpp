#include "accel/omu_accelerator.hpp"

#include <algorithm>

namespace omu::accel {

OmuAccelerator::OmuAccelerator(const OmuConfig& config)
    : cfg_(config),
      scheduler_(config.pe_count, config.pe_queue_depth),
      rc_(config.resolution, /*max_range=*/-1.0, config.rc_updates_per_cycle),
      controller_(*this) {
  if (cfg_.pe_count < 1 || cfg_.pe_count > 8) {
    throw std::invalid_argument("OmuConfig::pe_count must be in 1..8");
  }
  if (cfg_.banks_per_pe < 1 || cfg_.banks_per_pe > 8) {
    throw std::invalid_argument("OmuConfig::banks_per_pe must be in 1..8");
  }
  pes_.reserve(cfg_.pe_count);
  for (std::size_t i = 0; i < cfg_.pe_count; ++i) {
    pes_.push_back(std::make_unique<PeUnit>(static_cast<int>(i), cfg_));
  }
}

ScanSimResult OmuAccelerator::integrate_scan(const geom::PointCloud& world_points,
                                             const geom::Vec3d& origin) {
  ScanSimResult result;
  scan_buffer_.clear();
  result.cast = rc_.cast_scan(world_points, origin, scan_buffer_);
  result.map_cycles = simulate_updates(scan_buffer_);
  totals_.scans++;
  return result;
}

uint64_t OmuAccelerator::simulate_updates(const std::vector<map::VoxelUpdate>& updates) {
  return run_engine(updates, /*drain=*/true);
}

void OmuAccelerator::feed_updates(const std::vector<map::VoxelUpdate>& updates) {
  run_engine(updates, /*drain=*/false);
}

uint64_t OmuAccelerator::flush() {
  run_engine({}, /*drain=*/true);
  return engine_cycle_;
}

uint64_t OmuAccelerator::run_engine(const std::vector<map::VoxelUpdate>& updates, bool drain) {
  const std::size_t n = updates.size();
  const std::size_t pe_count = pes_.size();
  if (pe_busy_until_.size() != pe_count) pe_busy_until_.assign(pe_count, 0);

  const uint64_t start_cycle = engine_cycle_;
  uint64_t cycle = engine_cycle_;
  std::size_t next = 0;

  // Cycle at which the i-th update of this batch is available from the ray
  // casting unit (production-rate limit; paper hides this latency and so
  // does the default configuration). Production starts at batch entry.
  const auto available = [this, start_cycle](std::size_t i) {
    return start_cycle + rc_.available_at_cycle(i);
  };

  while (true) {
    // 1. Idle PEs pick up queued work this cycle.
    for (std::size_t p = 0; p < pe_count; ++p) {
      if (pe_busy_until_[p] > cycle) continue;
      const auto u = scheduler_.pop(static_cast<int>(p));
      if (!u) continue;
      const PeUpdateResult res = pes_[p]->execute_update(u->key, u->occupied);
      if (res.out_of_memory) {
        overflow_seen_ = true;
        throw CapacityExhausted(static_cast<int>(p), cfg_.rows_per_bank);
      }
      pe_busy_until_[p] = cycle + std::max<uint32_t>(1, res.cycles);
    }

    // 2. Scheduler issues up to issue-width updates this cycle.
    std::size_t issued = 0;
    bool stalled_on_full_queue = false;
    while (issued < cfg_.scheduler_issue_per_cycle && next < n && cycle >= available(next)) {
      if (!scheduler_.try_dispatch(updates[next])) {
        stalled_on_full_queue = true;
        break;  // single dispatch stream: head-of-line blocking
      }
      ++next;
      ++issued;
      totals_.updates_dispatched++;
    }

    // 3. Termination. Streaming mode returns as soon as the batch is fully
    // dispatched (backlog keeps draining during the next batch); drain
    // mode also waits for queues and PEs to go idle.
    if (next == n) {
      if (!drain) break;
      if (scheduler_.all_queues_empty()) {
        bool any_busy = false;
        for (std::size_t p = 0; p < pe_count; ++p) {
          if (pe_busy_until_[p] > cycle) {
            any_busy = true;
            break;
          }
        }
        if (!any_busy) break;
      }
    }

    // 4. Advance time. When nothing was issued this cycle, jump directly
    // to the next event (earliest PE completion or ray-caster output);
    // this keeps the loop O(events) instead of O(cycles).
    uint64_t next_cycle = cycle + 1;
    if (issued == 0) {
      uint64_t jump = UINT64_MAX;
      for (std::size_t p = 0; p < pe_count; ++p) {
        if (pe_busy_until_[p] > cycle) jump = std::min(jump, pe_busy_until_[p]);
      }
      if (next < n && available(next) > cycle) jump = std::min(jump, available(next));
      if (jump != UINT64_MAX) next_cycle = std::max(next_cycle, jump);
    }
    if (stalled_on_full_queue) totals_.scheduler_stall_cycles += next_cycle - cycle;
    cycle = next_cycle;
  }

  engine_cycle_ = cycle;
  totals_.map_cycles = engine_cycle_;
  return cycle - start_cycle;
}

PeQueryResult OmuAccelerator::query(const map::OcKey& key, int max_depth) {
  const int pe = scheduler_.pe_for_key(key);
  return query_.issue(*pes_[static_cast<std::size_t>(pe)], key, max_depth);
}

map::Occupancy OmuAccelerator::classify(const geom::Vec3d& position) {
  const map::KeyCoder coder(cfg_.resolution);
  const auto key = coder.key_for(position);
  if (!key) return map::Occupancy::kUnknown;
  return query(*key).occupancy;
}

map::PhaseStats OmuAccelerator::aggregate_stats() const {
  map::PhaseStats total;
  for (const auto& pe : pes_) total += pe->stats();
  total.ray_casts = rc_.stats().ray_casts;
  total.ray_cast_steps = rc_.stats().ray_cast_steps;
  return total;
}

PeCycleBreakdown OmuAccelerator::aggregate_cycles() const {
  PeCycleBreakdown total;
  for (const auto& pe : pes_) total += pe->cycles();
  return total;
}

uint64_t OmuAccelerator::sram_reads() const {
  uint64_t n = 0;
  for (const auto& pe : pes_) n += pe->tree_mem().sram().total_reads();
  return n;
}

uint64_t OmuAccelerator::sram_writes() const {
  uint64_t n = 0;
  for (const auto& pe : pes_) n += pe->tree_mem().sram().total_writes();
  return n;
}

uint32_t OmuAccelerator::rows_in_use() const {
  uint32_t n = 0;
  for (const auto& pe : pes_) n += pe->addr_manager().rows_in_use();
  return n;
}

uint32_t OmuAccelerator::peak_rows_touched() const {
  uint32_t n = 0;
  for (const auto& pe : pes_) n += pe->addr_manager().rows_touched();
  return n;
}

std::vector<map::LeafRecord> OmuAccelerator::leaves_sorted() const {
  std::vector<map::LeafRecord> out;
  // Same flush-footgun fix as the software tree's leaf_reserve_hint():
  // every leaf lives in one of the in-use TreeMem rows (8 slots each), so
  // one reservation replaces the log(n) regrowth of a large export.
  out.reserve(static_cast<std::size_t>(rows_in_use()) * 8 + pes_.size());
  for (const auto& pe : pes_) {
    pe->for_each_leaf([&out](const map::OcKey& key, int depth, float log_odds) {
      out.push_back(map::LeafRecord{key, depth, log_odds});
    });
  }
  std::sort(out.begin(), out.end(), [](const map::LeafRecord& a, const map::LeafRecord& b) {
    if (a.key.packed() != b.key.packed()) return a.key.packed() < b.key.packed();
    return a.depth < b.depth;
  });
  return out;
}

uint64_t OmuAccelerator::content_hash() const {
  uint64_t hash = 0;
  for (const auto& pe : pes_) {
    pe->for_each_leaf([&hash](const map::OcKey& key, int depth, float log_odds) {
      hash += map::leaf_set_term(key, depth, log_odds);
    });
  }
  return hash;
}

map::OccupancyOctree OmuAccelerator::to_octree() const {
  map::OccupancyOctree tree(cfg_.resolution, cfg_.params);
  for (const map::LeafRecord& leaf : leaves_sorted()) {
    tree.set_leaf_at_depth(leaf.key, leaf.depth, leaf.log_odds);
  }
  return tree;
}

void OmuAccelerator::reset() {
  for (auto& pe : pes_) pe->reset();
  scheduler_.reset();
  rc_.reset();
  query_.reset();
  totals_ = OmuRunTotals{};
  overflow_seen_ = false;
  engine_cycle_ = 0;
  pe_busy_until_.clear();
}

}  // namespace omu::accel
