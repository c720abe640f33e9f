// Shared fixtures for the facade suites: deterministic scan streams fed
// both through the public omu::Mapper facade and through hand-wired
// backend setups, so the equivalence tests can demand bit-identity
// between the two construction paths.
#pragma once

#include <string>
#include <vector>

#include <omu/omu.hpp>

#include "../../examples/example_common.hpp"  // the one insert_cloud bridge
#include "../world/world_test_util.hpp"
#include "geom/pointcloud.hpp"
#include "map/map_backend.hpp"
#include "map/scan_inserter.hpp"

namespace omu::facade_testing {

using world::testing::SweepScan;
using world::testing::TempDir;
using world::testing::make_sweep_scans;

// The tests drive the facade through the exact call pattern the examples
// use — one shared PointCloud-to-float-triple bridge, not a copy.
using examples::insert_cloud;

/// Replays a scan stream into a facade session.
inline void stream_into(Mapper& mapper, const std::vector<SweepScan>& scans) {
  for (const SweepScan& scan : scans) {
    const Status s = insert_cloud(mapper, scan.points, scan.origin);
    if (!s.ok()) throw std::runtime_error("facade insert failed: " + s.to_string());
  }
}

/// Replays a scan stream into a hand-wired backend through the same
/// front-end the facade composes.
inline void stream_into(map::MapBackend& backend, const std::vector<SweepScan>& scans) {
  map::ScanInserter inserter(backend);
  for (const SweepScan& scan : scans) inserter.insert_scan(scan.points, scan.origin);
}

/// The default facade test stream: crosses several 6.4 m tiles and
/// revisits them (exercises tiling and paging alike).
inline const std::vector<SweepScan>& test_scans() {
  static const std::vector<SweepScan> scans = make_sweep_scans(/*seed=*/7, /*scans=*/12,
                                                               /*points_per_scan=*/300);
  return scans;
}

}  // namespace omu::facade_testing
