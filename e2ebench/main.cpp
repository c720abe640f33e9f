// omu_e2ebench — the end-to-end mapping benchmark (see README.md).
//
//   omu_e2ebench --workload corridor_live|campus_paged|college_fleet
//                --seed N --seconds S --trace 0|1 [--out-dir DIR]
//                [--tiny] [--corrupt-oracle]
//
// Each workload is a closed loop driven from this one process. A *pass*
// streams the workload's whole input through a fresh session and is then
// checked against a serial-octree oracle built from the same stream during
// set-up; passes repeat until --seconds have elapsed, so every scan that is
// timed is also verified. --trace 0 reports the end-to-end metrics with
// the benchmark's own spans off and the library at its defaults. --trace 1
// times untraced passes for half the budget, then replays the stream with
// spans around each layer call (the composition omu::Mapper uses, called
// directly) and reports the per-layer breakdown.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// A failed check prints correct=false and exits 1: a wrong map is never a
// slow success.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <omu/omu.hpp>

#include "data/datasets.hpp"
#include "geom/rng.hpp"
#include "map/occupancy_octree.hpp"
#include "map/scan_inserter.hpp"
#include "obs/prom_text.hpp"
#include "obs/telemetry.hpp"
#include "omu_api/convert.hpp"
#include "query/query_service.hpp"
#include "service/client.hpp"
#include "service/map_service.hpp"
#include "service/transport.hpp"
#include "world/tiled_world_map.hpp"
#include "world/world_query_view.hpp"

namespace {

using namespace omu;
using Clock = std::chrono::steady_clock;

constexpr double kResolution = 0.2;
constexpr std::size_t kSetupRepeats = 5;

uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
          .count());
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Independent sub-seed `stream` of the workload seed (laps, tenants,
/// probes): SplitMix64 of the mixed pair.
uint64_t derive_seed(uint64_t seed, uint64_t stream) {
  geom::SplitMix64 rng(seed ^ (0x9E3779B97F4A7C15ULL * (stream + 1)));
  return rng.next_u64();
}

// ---- Command line -----------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string out_dir = ".bench_build/e2ebench/run";
  bool tiny = false;            ///< self-test scale
  bool corrupt_oracle = false;  ///< self-test: a wrong oracle hash must fail the run
};

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = next();
    } else if (arg == "--seed") {
      o.seed = std::stoull(next());
    } else if (arg == "--seconds") {
      o.seconds = std::stod(next());
    } else if (arg == "--trace") {
      o.trace = std::stoi(next());
    } else if (arg == "--out-dir") {
      o.out_dir = next();
    } else if (arg == "--tiny") {
      o.tiny = true;
    } else if (arg == "--corrupt-oracle") {
      o.corrupt_oracle = true;
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (o.workload != "corridor_live" && o.workload != "campus_paged" &&
      o.workload != "college_fleet") {
    throw std::invalid_argument("--workload must be corridor_live, campus_paged or college_fleet");
  }
  if (!(o.seconds > 0.0) || (o.trace != 0 && o.trace != 1)) {
    throw std::invalid_argument("--seconds must be > 0 and --trace 0 or 1");
  }
  return o;
}

// ---- Inputs -----------------------------------------------------------------

/// One input scan: world-frame endpoints (possibly none) and the sensor
/// origin, plus the wire's float-triple layout for RPC inserts.
struct Scan {
  geom::PointCloud cloud;
  Vec3 origin;
  std::vector<float> xyz;

  const float* data() const {
    static_assert(sizeof(geom::Vec3f) == 3 * sizeof(float));
    return reinterpret_cast<const float*>(cloud.points().data());
  }
  std::size_t size() const { return cloud.size(); }
  geom::Vec3d origin_d() const { return {origin.x, origin.y, origin.z}; }
};
using Stream = std::vector<Scan>;

/// `laps` traversals of a dataset trajectory; lap k draws its range noise
/// from derive_seed(seed, first_stream + k). Empty scans are kept.
Stream make_stream(data::DatasetId id, double scale, uint64_t seed, std::size_t laps,
                   uint64_t first_stream) {
  Stream stream;
  for (std::size_t lap = 0; lap < laps; ++lap) {
    const data::SyntheticDataset dataset(id, scale, derive_seed(seed, first_stream + lap));
    for (std::size_t i = 0; i < dataset.scan_count(); ++i) {
      data::DatasetScan s = dataset.scan(i);
      Scan scan;
      const geom::Vec3d o = s.pose.translation();
      scan.origin = Vec3{o.x, o.y, o.z};
      scan.cloud = std::move(s.points);
      scan.xyz.assign(scan.data(), scan.data() + 3 * scan.size());
      stream.push_back(std::move(scan));
    }
  }
  return stream;
}

/// Query probes along the stream's rays: u < 1 lands in observed free
/// space, u ~ 1 on surfaces, u > 1 behind them (mostly unknown).
std::vector<Vec3> make_probes(const Stream& stream, std::size_t count, uint64_t seed) {
  geom::SplitMix64 rng(seed);
  std::vector<Vec3> probes;
  probes.reserve(count);
  while (probes.size() < count) {
    const Scan& scan = stream[rng.next_below(stream.size())];
    if (scan.size() == 0) continue;
    const geom::Vec3f p = scan.cloud[rng.next_below(scan.size())];
    const double u = rng.uniform(0.0, 1.15);
    probes.push_back(Vec3{scan.origin.x + (p.x - scan.origin.x) * u,
                          scan.origin.y + (p.y - scan.origin.y) * u,
                          scan.origin.z + (p.z - scan.origin.z) * u});
  }
  return probes;
}

struct StreamProperties {
  std::size_t scans = 0;
  std::size_t points = 0;
  std::size_t empty_scans = 0;
  std::size_t max_points = 0;
};

StreamProperties properties_of(const Stream& stream) {
  StreamProperties p;
  p.scans = stream.size();
  for (const Scan& s : stream) {
    p.points += s.size();
    p.max_points = std::max(p.max_points, s.size());
    if (s.size() == 0) ++p.empty_scans;
  }
  return p;
}

/// The library's default sensor model and insert policy, as the facade
/// derives them from a default MapperConfig.
map::OccupancyParams default_params() { return api::to_occupancy_params(SensorModel{}); }

/// The oracle: the serial octree fed the stream through the reference
/// ScanInserter composition.
struct Oracle {
  std::unique_ptr<map::OccupancyOctree> tree;
  uint64_t hash = 0;
  uint64_t updates = 0;
  uint64_t points = 0;
};

Oracle build_oracle(const Stream& stream, bool corrupt) {
  Oracle o;
  o.tree = std::make_unique<map::OccupancyOctree>(kResolution, default_params());
  map::ScanInserter inserter(*o.tree);
  for (const Scan& s : stream) {
    const map::ScanInsertResult r = inserter.insert_scan(s.cloud, s.origin_d());
    o.updates += r.total_updates();
    o.points += r.points;
  }
  o.hash = o.tree->content_hash();
  if (corrupt) o.hash ^= 1;
  return o;
}

Occupancy to_public(map::Occupancy occ) {
  switch (occ) {
    case map::Occupancy::kFree: return Occupancy::kFree;
    case map::Occupancy::kOccupied: return Occupancy::kOccupied;
    case map::Occupancy::kUnknown: break;
  }
  return Occupancy::kUnknown;
}

std::vector<Occupancy> oracle_answers(const map::OccupancyOctree& tree,
                                      const std::vector<Vec3>& probes) {
  std::vector<Occupancy> out;
  out.reserve(probes.size());
  for (const Vec3& p : probes) out.push_back(to_public(tree.classify(geom::Vec3d{p.x, p.y, p.z})));
  return out;
}

// ---- Run accounting -----------------------------------------------------------

/// Times of one repeated step, kept per slot: slot i of every timed pass
/// (the same scan of the stream) lands in ms[i].
struct SlotTimes {
  std::vector<std::vector<double>> ms;

  void add(std::size_t slot, double value_ms) {
    if (slot >= ms.size()) ms.resize(slot + 1);
    ms[slot].push_back(value_ms);
  }
  /// Every slot's fastest time.
  std::vector<double> best() const {
    std::vector<double> out;
    for (const std::vector<double>& v : ms) {
      if (!v.empty()) out.push_back(*std::min_element(v.begin(), v.end()));
    }
    return out;
  }
  std::size_t samples() const {
    std::size_t n = 0;
    for (const std::vector<double>& v : ms) n += v.size();
    return n;
  }
};

/// One closed loop that runs beside the others (the writer, the readers, a
/// tenant), as the work units (scans or probes) and milliseconds of each
/// slot: slot i of every timed pass (a scan or tenant epoch) lands in
/// slots[i].
struct Lane {
  struct Sample {
    double units = 0.0;
    double ms = 0.0;
  };
  std::vector<std::vector<Sample>> slots;

  void add(std::size_t slot, double units, double ms) {
    if (slot >= slots.size()) slots.resize(slot + 1);
    slots[slot].push_back(Sample{units, ms});
  }
  /// Units per second of one cycle through the slots with every slot at
  /// its best rate over the passes.
  double best_rate() const {
    double units = 0.0;
    double ms = 0.0;
    for (const std::vector<Sample>& v : slots) {
      if (v.empty()) continue;
      const Sample& best = *std::max_element(
          v.begin(), v.end(),
          [](const Sample& a, const Sample& b) { return a.units * b.ms < b.units * a.ms; });
      units += best.units;
      ms += best.ms;
    }
    return ms > 0.0 ? units / (ms / 1e3) : 0.0;
  }
};

/// Everything a run measures, merged across threads and passes.
struct Totals {
  uint64_t scans = 0;
  double wall_s = 0.0;
  uint64_t queries = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t passes = 0;
  std::vector<Lane> scan_lanes;   ///< the writer, or each tenant
  std::vector<Lane> query_lanes;  ///< the readers together, or each tenant
  SlotTimes latency;              ///< view latency per scan (tenants' scans follow each other)
  std::vector<double> pass_peak_rss_mib;  ///< peak resident memory of each timed pass or round
  std::vector<std::string> failures;

  /// Counts one fallible call; returns whether it succeeded.
  bool call(bool ok) {
    ++attempted;
    if (!ok) ++failed;
    return ok;
  }
  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  /// Takes `o`'s call counts and check failures, not its timings (a
  /// warm-up pass is checked like any other but timed by none).
  void merge_checks(const Totals& o) {
    attempted += o.attempted;
    failed += o.failed;
    passes += o.passes;
    failures.insert(failures.end(), o.failures.begin(), o.failures.end());
  }
  /// Takes everything `o` measured; its lanes and latency slots are
  /// appended after this run's.
  void merge(const Totals& o) {
    merge_checks(o);
    scans += o.scans;
    queries += o.queries;
    scan_lanes.insert(scan_lanes.end(), o.scan_lanes.begin(), o.scan_lanes.end());
    query_lanes.insert(query_lanes.end(), o.query_lanes.begin(), o.query_lanes.end());
    latency.ms.insert(latency.ms.end(), o.latency.ms.begin(), o.latency.ms.end());
    pass_peak_rss_mib.insert(pass_peak_rss_mib.end(), o.pass_peak_rss_mib.begin(),
                             o.pass_peak_rss_mib.end());
  }
};

/// Reader-thread tally (one per thread, merged after join).
struct ReaderTally {
  std::vector<Occupancy> answers;  ///< reused batch output
  uint64_t probes = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double share(double part, double whole) { return whole > 0.0 ? part / whole : 0.0; }

/// The highest of the usual tail percentiles with at least ten of `n`
/// samples beyond it (p99 needs 1000, p90 100); p50 below 40 samples.
double tail_percentile(std::size_t n) {
  for (const double p : {99.0, 95.0, 90.0, 85.0, 80.0, 75.0}) {
    if ((1.0 - p / 100.0) * static_cast<double>(n) >= 10.0 - 1e-9) return p;
  }
  return 50.0;
}

/// Units per second of lanes that run side by side.
double lanes_rate(const std::vector<Lane>& lanes) {
  double rate = 0.0;
  for (const Lane& lane : lanes) rate += lane.best_rate();
  return rate;
}

/// Peak resident memory since the last reset_peak_rss() (VmHWM), or of the
/// whole process where /proc does not give it.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// Restarts the peak at the current resident size (Linux 4.0+; elsewhere
/// the peak stays the process's).
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

// ---- Spans (traced runs only) -------------------------------------------------

/// A closed span: [t0, t1) of one layer call, with the span that caused it.
struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;
  const char* name = "";
  uint64_t t0 = 0;
  uint64_t t1 = 0;
};

/// Per-thread in-memory span log (no locking; merged after the threads join).
class SpanLog {
 public:
  explicit SpanLog(uint64_t thread_tag) : next_id_(thread_tag << 40) {}

  std::size_t open(const char* name, uint64_t parent) {
    spans_.push_back(SpanRecord{++next_id_, parent, name, now_ns(), 0});
    return spans_.size() - 1;
  }
  void close(std::size_t index) { spans_[index].t1 = now_ns(); }
  uint64_t id_of(std::size_t index) const { return spans_[index].id; }
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  uint64_t next_id_;
  std::vector<SpanRecord> spans_;
};

/// RAII span; a null log makes it a no-op (no clock reads).
class Span {
 public:
  Span(SpanLog* log, const char* name, uint64_t parent = 0) : log_(log) {
    if (log_ != nullptr) index_ = log_->open(name, parent);
  }
  ~Span() {
    if (log_ != nullptr) log_->close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  uint64_t id() const { return log_ != nullptr ? log_->id_of(index_) : 0; }

 private:
  SpanLog* log_;
  std::size_t index_ = 0;
};

/// Per-name span totals: count, inclusive time and self time (duration
/// minus the time its child spans cover).
struct SpanTotals {
  uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

std::map<std::string, SpanTotals> summarize(const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, uint64_t> child_ns;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.t1 - s.t0;
  }
  std::map<std::string, SpanTotals> out;
  for (const SpanRecord& s : spans) {
    SpanTotals& t = out[s.name];
    const uint64_t dur = s.t1 - s.t0;
    const auto it = child_ns.find(s.id);
    const uint64_t children = it == child_ns.end() ? 0 : it->second;
    ++t.count;
    t.total_ms += static_cast<double>(dur) / 1e6;
    t.self_ms += static_cast<double>(dur - std::min(dur, children)) / 1e6;
  }
  return out;
}

void write_trace(const std::string& path, const std::string& workload, uint64_t seed,
                 const std::vector<SpanRecord>& spans) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  const uint64_t origin = spans.empty() ? 0 : std::min_element(spans.begin(), spans.end(),
                                                               [](const auto& a, const auto& b) {
                                                                 return a.t0 < b.t0;
                                                               })->t0;
  out << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
      << ", \"columns\": [\"id\", \"parent\", \"name\", \"start_ns\", \"duration_ns\"],\n"
      << " \"spans\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    out << "  [" << s.id << ", " << s.parent << ", \"" << s.name << "\", " << s.t0 - origin
        << ", " << s.t1 - s.t0 << "]" << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << " ]}\n";
}

// ---- Report -----------------------------------------------------------------

struct MetricLine {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< sample count / percentile, for the human table
  bool in_json = true;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit, std::string note = "") {
    if (!std::isfinite(value)) {
      failures_.push_back("metric " + name + " is not finite");
      value = 0.0;
    }
    metrics_.push_back(MetricLine{std::move(name), value, std::move(unit), std::move(note)});
  }
  /// A metric shown in the table only (not part of the JSON result).
  void add_table_only(std::string name, double value, std::string unit, std::string note) {
    metrics_.push_back(
        MetricLine{std::move(name), value, std::move(unit), std::move(note), false});
  }
  void info(const std::string& line) { info_.push_back(line); }

  /// Prints the human-readable report, then the JSON result line (last).
  /// Returns the process exit code.
  int finish(const Totals& totals) {
    std::vector<std::string> failures = totals.failures;
    failures.insert(failures.end(), failures_.begin(), failures_.end());
    if (totals.failed > 0) {
      failures.push_back(std::to_string(totals.failed) + " calls returned a non-ok status");
    }
    for (const std::string& line : info_) std::cout << line << "\n";
    for (const MetricLine& m : metrics_) {
      char value[64];
      std::snprintf(value, sizeof value, "%.6g", m.value);
      std::cout << "  " << m.name << std::string(m.name.size() < 32 ? 32 - m.name.size() : 1, ' ')
                << value << " " << m.unit << (m.note.empty() ? "" : "   " + m.note) << "\n";
    }
    for (const std::string& f : failures) std::cout << "CHECK FAILED: " << f << "\n";
    const bool correct = failures.empty();
    std::ostringstream json;
    json.precision(17);
    json << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << std::max<uint64_t>(totals.attempted, 1)
         << ", \"failed\": " << totals.failed << ", \"metrics\": {";
    bool first = true;
    for (const MetricLine& m : metrics_) {
      if (!m.in_json) continue;
      json << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": " << m.value
           << ", \"unit\": \"" << m.unit << "\"}";
      first = false;
    }
    json << "}}";
    std::cout << json.str() << std::endl;
    return correct ? 0 : 1;
  }

 private:
  std::vector<MetricLine> metrics_;
  std::vector<std::string> info_;
  std::vector<std::string> failures_;
};

std::string n_of(uint64_t n) { return "n=" + std::to_string(n); }

/// setup_s plus the end-to-end metrics every workload reports. Every
/// timed step is a slot that recurs once per pass (a scan, or a tenant's
/// epoch), and each metric is taken over the slots' best repetitions: the
/// shortest latency, the highest rate. Interference from the rest of a
/// shared host only ever slows a step and comes and goes within seconds,
/// so a slot's best repetition tracks the program's own cost; a mean or
/// quantile over all repetitions moves with the host from run to run.
/// error_share has no JSON metric of its own: it is failed / attempted of
/// the result line (0 on a correct run, so it cannot carry a relative bound).
void report_end_to_end(Report& report, const Totals& t, const std::vector<double>& setup_s,
                       const std::string& query_note) {
  const std::vector<double> latency = t.latency.best();
  const double tail_p = tail_percentile(latency.size());
  const std::size_t passes = t.latency.ms.empty() ? 0 : t.latency.ms.front().size();
  char slots[96];
  std::snprintf(slots, sizeof slots, "best of %zu timed passes per scan, %zu scans", passes,
                latency.size());
  char tail_note[128];
  std::snprintf(tail_note, sizeof tail_note, "p%g over %s", tail_p, slots);
  report.add("setup_s", median(setup_s), "s", "median of " + std::to_string(setup_s.size()));
  report.add("scan_fps", lanes_rate(t.scan_lanes), "1/s",
             "best rate per slot, " + std::to_string(t.scan_lanes.size()) + " lanes, " +
                 n_of(t.scans) + " scans timed");
  report.add("view_latency_p50_ms", median(latency), "ms",
             std::string(slots) + ", " + n_of(t.latency.samples()));
  report.add("view_latency_tail_ms", percentile(latency, tail_p), "ms", tail_note);
  report.add("query_mqps", lanes_rate(t.query_lanes) / 1e6, "Mq/s",
             "best rate per slot, " + std::to_string(t.query_lanes.size()) + " lanes, " +
                 n_of(t.queries) + " " + query_note);
  report.add("peak_rss_mib", percentile(t.pass_peak_rss_mib, 0.0), "MiB",
             "lowest of " + std::to_string(t.pass_peak_rss_mib.size()) + " timed passes' peaks");
  report.add_table_only("error_share",
                        share(static_cast<double>(t.failed), static_cast<double>(t.attempted)),
                        "ratio", n_of(t.attempted) + " calls (failed/attempted of the result)");
}

/// Runs `setup` kSetupRepeats times (the last result is kept in `out`) and
/// returns each repetition's wall time.
template <typename T, typename Setup>
std::vector<double> timed_setups(std::unique_ptr<T>& out, const Setup& setup) {
  std::vector<double> times;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    out.reset();
    const auto t0 = Clock::now();
    out = setup();
    times.push_back(seconds_between(t0, Clock::now()));
  }
  return times;
}

/// Drives `pass` until `seconds` of timed passes have elapsed (a pass that
/// starts before the deadline finishes; at least one pass runs).
void run_passes(double seconds, const std::function<void()>& pass) {
  const auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
  do {
    pass();
  } while (Clock::now() < deadline);
}

/// The per-layer metric names every traced run prints (BENCHMARK.json's
/// per_layer list); a workload leaves the ones that do not apply at 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names{
      {"map.collect_ms", "ms"},
      {"map.prepare_ms", "ms"},
      {"map.apply_ms", "ms"},
      {"map.updates_per_point", "count"},
      {"map.leaves", "count"},
      {"query.publish_ms", "ms"},
      {"query.chunk_reuse_share", "ratio"},
      {"query.rebuilt_kib_per_publish", "KiB"},
      {"query.classify_ns", "ns"},
      {"query.snapshot_ns", "ns"},
      {"world.apply_ms", "ms"},
      {"world.evict_ms", "ms"},
      {"world.reload_ms", "ms"},
      {"world.view_ms", "ms"},
      {"world.evictions", "count"},
      {"world.reloads", "count"},
      {"world.tile_writes", "count"},
      {"world.transient_reads", "count"},
      {"world.reloads_per_scan", "count"},
      {"world.peak_resident_share", "ratio"},
      {"service.insert_rpc_us", "us"},
      {"service.flush_rpc_ms", "ms"},
      {"service.query_rpc_us", "us"},
      {"service.server_ms", "ms"},
      {"service.wait_ms", "ms"},
      {"service.delta_publish_ms", "ms"},
      {"service.delta_kib_per_epoch", "KiB"},
      {"service.tenant_publish_ms", "ms"},
      {"service.rejected", "count"},
      {"bench.unattributed_share", "ratio"},
      {"bench.trace_overhead_share", "ratio"},
  };
  return names;
}

/// Emits every per-layer metric, taking measured values from `values`.
void report_per_layer(Report& report, const std::map<std::string, double>& values) {
  for (const auto& [name, unit] : per_layer_metrics()) {
    const auto it = values.find(name);
    report.add(name, it == values.end() ? 0.0 : it->second, unit);
  }
  for (const auto& [name, value] : values) {
    const bool known = std::any_of(per_layer_metrics().begin(), per_layer_metrics().end(),
                                   [&](const auto& m) { return m.first == name; });
    if (!known) throw std::logic_error("unlisted per-layer metric " + name);
  }
}

double histogram_sum_ms(const TelemetrySnapshot& snap, const std::string& name) {
  const TelemetrySnapshot::Metric* m = snap.find(name);
  return m == nullptr ? 0.0 : static_cast<double>(m->histogram.sum) / 1e6;
}

// ---- Shapes -----------------------------------------------------------------

/// The sizes that define each workload (the tiny variants back the self-test).
struct Shape {
  double scale = 0.0;
  std::size_t laps = 1;
  std::size_t readers = 2;
  std::size_t probe_batch = 1024;
  std::size_t probe_batches = 16;
  std::size_t tenants = 4;
  std::size_t flush_every = 1;
  int tile_shift = 6;
};

Shape shape_of(const Options& o) {
  Shape s;
  if (o.workload == "corridor_live") {
    s.scale = o.tiny ? 0.002 : 0.01;
    s.laps = o.tiny ? 1 : 3;
  } else if (o.workload == "campus_paged") {
    s.scale = o.tiny ? 0.0005 : 0.002;
  } else {
    s.scale = o.tiny ? 0.0005 : 0.002;
    s.readers = 0;
    s.probe_batch = 256;
    s.flush_every = 8;
  }
  return s;
}

// ---- Shared reader loop (corridor_live, campus_paged) ----------------------------

/// Runs `readers` threads that classify probe batches through `read` until
/// the writer `body` returns; merges their tallies into `totals`. `body`
/// gets the running count of probes the readers have classified.
template <typename ReadBatch>
void with_readers(std::size_t readers, Totals& totals, const ReadBatch& read,
                  const std::function<void(const std::atomic<uint64_t>&)>& body) {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> probes_done{0};
  std::vector<ReaderTally> tallies(readers);
  std::vector<std::thread> threads;
  threads.reserve(readers);
  for (std::size_t r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      for (std::size_t batch = r; !stop.load(std::memory_order_relaxed); ++batch) {
        const uint64_t before = tallies[r].probes;
        read(r, batch, tallies[r]);
        probes_done.fetch_add(tallies[r].probes - before, std::memory_order_relaxed);
      }
    });
  }
  try {
    body(probes_done);
  } catch (...) {
    stop = true;
    for (std::thread& t : threads) t.join();
    throw;
  }
  stop = true;
  for (std::thread& t : threads) t.join();
  for (const ReaderTally& t : tallies) {
    totals.queries += t.probes;
    totals.attempted += t.attempted;
    totals.failed += t.failed;
  }
}

std::string properties_line(const std::string& label, const StreamProperties& p,
                            const Oracle& oracle) {
  char line[256];
  std::snprintf(line, sizeof line,
                "%s: %zu scans, %.1f points/scan (max %zu), %zu empty (%.1f%%), %.2f updates/point",
                label.c_str(), p.scans, share(static_cast<double>(p.points), p.scans), p.max_points,
                p.empty_scans, 100.0 * share(static_cast<double>(p.empty_scans), p.scans),
                share(static_cast<double>(oracle.updates), static_cast<double>(oracle.points)));
  return line;
}

// ---- corridor_live and campus_paged: one writer, concurrent readers ------------

/// Inputs and oracle of a single-writer workload. For campus_paged, set-up
/// also runs the unbounded sizing pass that fixes the paging budget.
struct WriterSetup {
  Stream stream;
  Oracle oracle;
  std::vector<std::vector<Vec3>> probe_batches;
  std::vector<Vec3> final_probes;
  std::vector<Occupancy> final_answers;
  std::size_t footprint_bytes = 0;  ///< campus: unbounded pass's resident bytes
  std::size_t tiles = 0;            ///< campus: tiles the stream touches
  std::size_t budget_bytes = 0;     ///< campus: half the footprint
};

bool is_paged(const Options& o) { return o.workload == "campus_paged"; }

MapperConfig writer_config(const Options& o, const Shape& shape, const std::string& dir,
                           std::size_t budget) {
  MapperConfig config = MapperConfig().resolution(kResolution);
  if (!is_paged(o)) return config;
  WorldOptions world;
  world.directory = dir;
  world.resident_byte_budget = budget;
  world.tile_shift = shape.tile_shift;
  return config.backend(BackendKind::kTiledWorld).world(world);
}

std::unique_ptr<WriterSetup> writer_setup(const Options& o, const Shape& shape) {
  auto s = std::make_unique<WriterSetup>();
  s->stream = make_stream(is_paged(o) ? data::DatasetId::kFreiburgCampus
                                      : data::DatasetId::kFr079Corridor,
                          shape.scale, o.seed, shape.laps, 0);
  s->oracle = build_oracle(s->stream, o.corrupt_oracle);
  for (std::size_t b = 0; b < shape.probe_batches; ++b) {
    s->probe_batches.push_back(
        make_probes(s->stream, shape.probe_batch, derive_seed(o.seed, 1000 + b)));
  }
  s->final_probes = make_probes(s->stream, 4096, derive_seed(o.seed, 999));
  s->final_answers = oracle_answers(*s->oracle.tree, s->final_probes);
  if (is_paged(o)) {
    // Sizing pass: the same world, unbounded and in memory.
    Mapper sizing = Mapper::create(writer_config(o, shape, "", 0)).value();
    for (const Scan& scan : s->stream) {
      if (Status st = sizing.insert(scan.data(), scan.size(), scan.origin); !st.ok()) {
        throw std::runtime_error("campus sizing pass: " + st.to_string());
      }
    }
    const WorldPagingStats paging = sizing.paging_stats().value();
    s->footprint_bytes = paging.resident_bytes;
    s->tiles = paging.known_tiles;
    s->budget_bytes = s->footprint_bytes / 2;
  }
  return s;
}

/// Paging invariants, checked at every operation boundary of a paged pass.
struct PagingGuard {
  std::size_t budget = 0;
  bool over_budget = false;

  void at_boundary(const world::TiledWorldMap* world) {
    if (world != nullptr && world->pager_stats().resident_bytes > budget) over_budget = true;
  }
  void finish(const world::TiledWorldMap& world, Totals& t) const {
    const world::TilePagerStats p = world.pager_stats();
    t.check(!over_budget, "campus_paged: resident bytes exceeded the budget at a boundary");
    t.check(p.peak_resident_bytes <= budget + p.max_residency_step_bytes,
            "campus_paged: peak resident bytes exceeded budget + max step");
    t.check(p.evictions > 0, "campus_paged: no evictions occurred");
  }
};

/// A fresh world directory for one paged pass, removed again on scope exit.
class PassDirectory {
 public:
  PassDirectory(const Options& o, uint64_t pass) {
    if (!is_paged(o)) return;
    path_ = o.out_dir + "/world-" + std::to_string(getpid()) + "-" + std::to_string(pass);
    std::filesystem::remove_all(path_);
  }
  ~PassDirectory() {
    std::error_code ec;
    if (!path_.empty()) std::filesystem::remove_all(path_, ec);
  }
  PassDirectory(const PassDirectory&) = delete;
  PassDirectory& operator=(const PassDirectory&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Checks a finished pass's final view against the oracle's probe answers.
template <typename Classify>
void check_final_probes(const WriterSetup& s, const std::string& label, Totals& t,
                        const Classify& classify) {
  std::vector<Occupancy> answers;
  answers.reserve(s.final_probes.size());
  for (const Vec3& p : s.final_probes) answers.push_back(classify(p));
  t.check(answers == s.final_answers, label + ": final-view probes != oracle");
}

/// One untraced pass through the facade: one writer inserts and flushes
/// every scan while readers snapshot() and classify probe batches.
void writer_pass(const Options& o, const WriterSetup& s, const Shape& shape, Totals& t) {
  reset_peak_rss();
  const PassDirectory dir(o, t.passes);
  auto created = Mapper::create(writer_config(o, shape, dir.path(), s.budget_bytes));
  if (!t.call(created.ok())) return;
  Mapper& mapper = created.value();
  const world::TiledWorldMap* world = mapper.internal_world();
  PagingGuard guard{s.budget_bytes};
  const auto read = [&](std::size_t, std::size_t batch, ReaderTally& tally) {
    const Result<MapView> view = mapper.snapshot();
    ++tally.attempted;
    if (!view.ok()) {
      ++tally.failed;
      return;
    }
    const std::vector<Vec3>& probes = s.probe_batches[batch % s.probe_batches.size()];
    view->classify_batch(probes, tally.answers);
    tally.probes += probes.size();
  };
  // Each scan is a slot of the writer's lane and of the readers' lane (the
  // probes they classified while that scan was being inserted and flushed).
  t.scan_lanes.resize(1);
  t.query_lanes.resize(shape.readers > 0 ? 1 : 0);
  double wall_s = 0.0;
  with_readers(shape.readers, t, read, [&](const std::atomic<uint64_t>& probes_done) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < s.stream.size(); ++i) {
      const Scan& scan = s.stream[i];
      const uint64_t probes_before = probes_done.load(std::memory_order_relaxed);
      const auto t0 = Clock::now();
      const bool inserted = t.call(mapper.insert(scan.data(), scan.size(), scan.origin).ok());
      guard.at_boundary(world);
      const bool flushed = t.call(mapper.flush().ok());
      const double ms = seconds_between(t0, Clock::now()) * 1e3;
      const uint64_t probes = probes_done.load(std::memory_order_relaxed) - probes_before;
      guard.at_boundary(world);
      if (inserted && flushed) {
        t.scan_lanes.front().add(i, 1.0, ms);
        t.latency.add(i, ms);
      }
      if (!t.query_lanes.empty()) t.query_lanes.front().add(i, static_cast<double>(probes), ms);
    }
    wall_s = seconds_between(start, Clock::now());
  });
  t.wall_s += wall_s;
  t.scans += s.stream.size();
  if (world != nullptr) guard.finish(*world, t);
  const Result<uint64_t> hash = mapper.content_hash();
  t.check(t.call(hash.ok()) && *hash == s.oracle.hash, o.workload + ": content hash != oracle");
  const Result<MapView> view = mapper.snapshot();
  if (t.call(view.ok())) {
    check_final_probes(s, o.workload, t, [&](const Vec3& p) { return view->classify(p); });
  }
  t.pass_peak_rss_mib.push_back(peak_rss_mib());
  ++t.passes;
}

/// Traced passes, accumulated: every span, plus per-pass layer values
/// averaged over the passes.
struct LayerTrace {
  std::vector<SpanRecord> spans;
  uint64_t scans = 0;
  double wall_s = 0.0;
  uint64_t passes = 0;
  std::map<std::string, double> sums;

  void add_pass(const std::map<std::string, double>& values) {
    for (const auto& [name, value] : values) sums[name] += value;
    ++passes;
  }
  std::map<std::string, double> means() const {
    std::map<std::string, double> out;
    for (const auto& [name, value] : sums) out[name] = value / static_cast<double>(passes);
    return out;
  }
};

/// The facade's octree composition, called layer by layer: serial octree
/// backend plus the snapshot QueryService.
struct OctreeLayers {
  static constexpr const char* kApplySpan = "map.apply";
  static constexpr const char* kPublishSpan = "query.publish";

  map::OccupancyOctree tree{kResolution, default_params()};
  map::OctreeBackend backend{tree};
  query::QueryService publisher;

  OctreeLayers(const Options&, const WriterSetup&, const Shape&, const std::string&,
               obs::Telemetry& telemetry) {
    backend.set_telemetry(&telemetry);
    publisher.set_telemetry(&telemetry);
  }
  map::MapBackend& sink() { return backend; }
  void publish() { publisher.refresh_from(backend); }
  std::shared_ptr<const query::MapSnapshot> view() const { return publisher.snapshot(); }
  const world::TiledWorldMap* world() const { return nullptr; }
  uint64_t content_hash() const { return tree.content_hash(); }

  void layer_values(const WriterSetup&, double, std::map<std::string, double>& v) const {
    const query::SnapshotPublishStats ps = publisher.publish_stats();
    const map::PhaseStats& ph = tree.stats();
    v["map.updates_per_point"] =
        share(static_cast<double>(ph.voxel_updates), static_cast<double>(ph.ray_casts));
    v["map.leaves"] = static_cast<double>(tree.leaf_count());
    v["query.chunk_reuse_share"] = share(static_cast<double>(ps.chunks_reused),
                                         static_cast<double>(ps.chunks_reused + ps.chunks_rebuilt));
    v["query.rebuilt_kib_per_publish"] = share(static_cast<double>(ps.bytes_rebuilt) / 1024.0,
                                               static_cast<double>(ps.publications));
  }
};

/// The facade's tiled-world composition, called layer by layer: the paged
/// world backend plus its view service (flush() publishes a view).
struct WorldLayers {
  static constexpr const char* kApplySpan = "world.apply";
  static constexpr const char* kPublishSpan = "world.view";

  world::TiledWorldMap map;
  world::WorldViewService views;

  static world::TiledWorldConfig config(const WriterSetup& s, const Shape& shape,
                                        const std::string& dir) {
    world::TiledWorldConfig cfg;
    cfg.resolution = kResolution;
    cfg.params = default_params();
    cfg.tile_shift = shape.tile_shift;
    cfg.resident_byte_budget = s.budget_bytes;
    cfg.directory = dir;
    return cfg;
  }
  WorldLayers(const Options&, const WriterSetup& s, const Shape& shape, const std::string& dir,
              obs::Telemetry& telemetry)
      : map(config(s, shape, dir)) {
    map.set_telemetry(&telemetry);
    map.attach_view_service(&views);
  }
  ~WorldLayers() { map.attach_view_service(nullptr); }
  WorldLayers(const WorldLayers&) = delete;
  WorldLayers& operator=(const WorldLayers&) = delete;

  map::MapBackend& sink() { return map; }
  void publish() { map.flush(); }
  std::shared_ptr<const world::WorldQueryView> view() const { return views.view(); }
  const world::TiledWorldMap* world() const { return &map; }
  uint64_t content_hash() const { return map.content_hash(); }

  void layer_values(const WriterSetup& s, double scans, std::map<std::string, double>& v) const {
    const world::TilePagerStats p = map.pager_stats();
    v["map.updates_per_point"] =
        share(static_cast<double>(s.oracle.updates), static_cast<double>(s.oracle.points));
    v["map.leaves"] = static_cast<double>(map.leaves_sorted().size());
    v["world.evictions"] = static_cast<double>(p.evictions);
    v["world.reloads"] = static_cast<double>(p.reloads);
    v["world.tile_writes"] = static_cast<double>(p.tile_writes);
    v["world.transient_reads"] = static_cast<double>(p.transient_reads);
    v["world.reloads_per_scan"] = static_cast<double>(p.reloads) / scans;
    v["world.peak_resident_share"] =
        share(static_cast<double>(p.peak_resident_bytes), static_cast<double>(s.budget_bytes));
  }
};

/// One traced pass: the same stream through `Layers`, with a root span per
/// scan over child spans for collect_updates, the backend apply and the
/// publication, and reader spans around snapshot and classify.
template <typename Layers>
void writer_traced_pass(const Options& o, const WriterSetup& s, const Shape& shape, Totals& t,
                        LayerTrace& trace) {
  const PassDirectory dir(o, t.passes + (uint64_t{1} << 32));
  obs::Telemetry telemetry;
  Layers layers(o, s, shape, dir.path(), telemetry);
  map::ScanInserter inserter(layers.sink(), map::InsertPolicy{});
  inserter.set_telemetry(&telemetry);
  PagingGuard guard{s.budget_bytes};

  SpanLog writer_log(1);
  std::vector<SpanLog> reader_logs;
  for (std::size_t r = 0; r < shape.readers; ++r) reader_logs.emplace_back(2 + r);
  const auto read = [&](std::size_t r, std::size_t batch, ReaderTally& tally) {
    SpanLog* log = &reader_logs[r];
    std::shared_ptr view = [&] {
      Span span(log, "query.snapshot");
      return layers.view();
    }();
    ++tally.attempted;
    const std::vector<Vec3>& probes = s.probe_batches[batch % s.probe_batches.size()];
    Span span(log, "query.classify");
    for (const Vec3& p : probes) view->classify(geom::Vec3d{p.x, p.y, p.z});
    tally.probes += probes.size();
  };
  const uint64_t queries_before = t.queries;
  double wall_s = 0.0;
  map::UpdateBatch batch;
  with_readers(shape.readers, t, read, [&](const std::atomic<uint64_t>&) {
    const auto start = Clock::now();
    for (const Scan& scan : s.stream) {
      Span root(&writer_log, "scan");
      batch.clear();
      {
        Span span(&writer_log, "map.collect", root.id());
        inserter.collect_updates(scan.cloud, scan.origin_d(), batch);
      }
      {
        Span span(&writer_log, Layers::kApplySpan, root.id());
        layers.sink().apply(batch);
      }
      guard.at_boundary(layers.world());
      Span span(&writer_log, Layers::kPublishSpan, root.id());
      layers.publish();
    }
    wall_s = seconds_between(start, Clock::now());
  });
  guard.at_boundary(layers.world());
  if (layers.world() != nullptr) guard.finish(*layers.world(), t);
  t.check(layers.content_hash() == s.oracle.hash, o.workload + " traced: content hash != oracle");
  const auto final_view = layers.view();
  check_final_probes(s, o.workload + " traced", t, [&](const Vec3& p) {
    return to_public(final_view->classify(geom::Vec3d{p.x, p.y, p.z}));
  });
  ++t.passes;

  std::vector<SpanRecord> spans = writer_log.spans();
  for (const SpanLog& log : reader_logs) {
    spans.insert(spans.end(), log.spans().begin(), log.spans().end());
  }
  const auto sum = summarize(spans);
  const auto total = [&](const char* name) {
    const auto it = sum.find(name);
    return it == sum.end() ? SpanTotals{} : it->second;
  };
  const double scans = static_cast<double>(s.stream.size());
  const TelemetrySnapshot tel = telemetry.snapshot();
  std::map<std::string, double> v;
  v["map.collect_ms"] = total("map.collect").self_ms / scans;
  v["map.prepare_ms"] = histogram_sum_ms(tel, "ingest.prepare_ns") / scans;
  v[std::string(Layers::kApplySpan) + "_ms"] = total(Layers::kApplySpan).self_ms / scans;
  v[std::string(Layers::kPublishSpan) + "_ms"] = total(Layers::kPublishSpan).self_ms / scans;
  if (layers.world() != nullptr) {
    v["world.evict_ms"] = histogram_sum_ms(tel, "paging.evict_ns") / scans;
    v["world.reload_ms"] = histogram_sum_ms(tel, "paging.reload_ns") / scans;
  }
  v["query.classify_ns"] = share(total("query.classify").total_ms * 1e6,
                                 static_cast<double>(t.queries - queries_before));
  v["query.snapshot_ns"] = share(total("query.snapshot").total_ms * 1e6,
                                 static_cast<double>(total("query.snapshot").count));
  v["bench.unattributed_share"] = share(total("scan").self_ms, total("scan").total_ms);
  layers.layer_values(s, scans, v);
  trace.add_pass(v);
  trace.scans += s.stream.size();
  trace.wall_s += wall_s;
  trace.spans.insert(trace.spans.end(), spans.begin(), spans.end());
}

int run_writer_workload(const Options& o) {
  const Shape shape = shape_of(o);
  std::unique_ptr<WriterSetup> setup;
  const std::vector<double> setup_s =
      timed_setups(setup, [&] { return writer_setup(o, shape); });
  Report report;
  const StreamProperties props = properties_of(setup->stream);
  std::string line = properties_line(o.workload + " input", props, setup->oracle) + ", " +
                     std::to_string(props.scans) + " flushes/pass, " +
                     std::to_string(shape.readers) + " readers x " +
                     std::to_string(shape.probe_batch) + "-probe batches";
  if (is_paged(o)) {
    char paging[160];
    std::snprintf(paging, sizeof paging,
                  ", %zu tiles (tile_shift %d), budget %.1f KiB = half of %.1f KiB", setup->tiles,
                  shape.tile_shift, setup->budget_bytes / 1024.0, setup->footprint_bytes / 1024.0);
    line += paging;
  }
  report.info(line);

  Totals totals;
  {
    Totals warm_up;  // checked, not timed: the first pass runs on cold caches
    writer_pass(o, *setup, shape, warm_up);
    totals.merge_checks(warm_up);
  }
  if (!o.trace) {
    run_passes(o.seconds, [&] { writer_pass(o, *setup, shape, totals); });
    report_end_to_end(report, totals, setup_s,
                      is_paged(o) ? "reader MapView::classify (world views)"
                                  : "reader MapView::classify");
    return report.finish(totals);
  }
  // Untraced and traced passes alternate, so drift affects both alike.
  LayerTrace trace;
  run_passes(o.seconds, [&] {
    writer_pass(o, *setup, shape, totals);
    if (is_paged(o)) {
      writer_traced_pass<WorldLayers>(o, *setup, shape, totals, trace);
    } else {
      writer_traced_pass<OctreeLayers>(o, *setup, shape, totals, trace);
    }
  });
  std::map<std::string, double> values = trace.means();
  values["bench.trace_overhead_share"] =
      1.0 - share(trace.scans / trace.wall_s, totals.scans / totals.wall_s);
  write_trace(o.out_dir + "/trace-" + o.workload + "-" + std::to_string(o.seed) + ".json",
              o.workload, o.seed, trace.spans);
  report_per_layer(report, values);
  return report.finish(totals);
}

// ---- college_fleet --------------------------------------------------------------

struct Tenant {
  std::string name;
  Stream stream;
  Oracle oracle;
  std::vector<std::vector<Vec3>> probe_batches;
  std::unique_ptr<service::ServiceClient> client;
};

struct FleetSetup {
  std::string socket_path;
  std::unique_ptr<service::MapService> host;
  std::vector<Tenant> tenants;

  ~FleetSetup() {
    for (Tenant& t : tenants) {
      if (t.client) t.client->shutdown();
    }
    if (host) host->stop();
    if (!socket_path.empty()) std::filesystem::remove(socket_path);
  }
};

std::unique_ptr<FleetSetup> fleet_setup(const Options& o, const Shape& shape) {
  auto s = std::make_unique<FleetSetup>();
  for (std::size_t i = 0; i < shape.tenants; ++i) {
    Tenant t;
    t.name = "t";
    t.name += std::to_string(i);
    t.stream = make_stream(data::DatasetId::kNewCollege, shape.scale, o.seed, 1, 100 + i);
    t.oracle = build_oracle(t.stream, o.corrupt_oracle);
    for (std::size_t b = 0; b < shape.probe_batches; ++b) {
      t.probe_batches.push_back(
          make_probes(t.stream, shape.probe_batch, derive_seed(o.seed, 1000 + 100 * i + b)));
    }
    s->tenants.push_back(std::move(t));
  }
  static std::atomic<int> instance{0};
  std::ostringstream socket_path;
  socket_path << o.out_dir << "/fleet-" << getpid() << "-" << instance++ << ".sock";
  s->socket_path = socket_path.str();
  std::shared_ptr<service::Listener> listener =
      service::SocketListener::listen_unix(s->socket_path);
  s->host = std::make_unique<service::MapService>();
  s->host->start(listener);
  for (Tenant& t : s->tenants) {
    t.client = std::make_unique<service::ServiceClient>(service::connect_unix(s->socket_path));
    if (!t.client->hello("e2ebench-" + t.name).ok()) throw std::runtime_error("hello failed");
  }
  return s;
}

/// One tenant's pass: create + subscribe, stream one insert RPC per scan,
/// flush every `flush_every` scans then one probe-batch query RPC, verify,
/// close. With a log, each epoch is a root span over its RPC spans;
/// `after_stream` runs once the stream is through, before verification.
void tenant_pass(Tenant& tenant, const Shape& shape, Totals& t, SpanLog* log,
                 const std::function<void()>& after_stream = {}) {
  service::ServiceClient& client = *tenant.client;
  service::SessionSpec spec;
  spec.tenant = tenant.name;
  spec.resolution = kResolution;
  spec.backend = static_cast<uint8_t>(BackendKind::kOctree);
  const Result<uint64_t> created = client.create(spec);
  if (!t.call(created.ok())) return;
  const uint64_t session = *created;
  service::SubscriptionMirror mirror;
  t.call(client.subscribe(session, &mirror).ok());

  std::vector<Clock::time_point> starts(shape.flush_every);
  std::size_t batch = 0;
  t.scan_lanes.resize(1);
  t.query_lanes.resize(1);
  for (std::size_t at = 0; at < tenant.stream.size(); at += shape.flush_every) {
    Span root(log, "epoch");
    const std::size_t end = std::min(at + shape.flush_every, tenant.stream.size());
    std::size_t admitted = 0;
    for (std::size_t i = at; i < end; ++i) {
      const Scan& scan = tenant.stream[i];
      starts[i - at] = Clock::now();
      Span span(log, "service.insert_rpc", root.id());
      if (t.call(client.insert(session, scan.origin, scan.xyz).ok())) ++admitted;
    }
    bool flushed = false;
    {
      Span span(log, "service.flush_rpc", root.id());
      flushed = t.call(client.flush(session).ok());
    }
    const auto visible = Clock::now();
    if (flushed) {
      for (std::size_t i = 0; i < end - at && i < admitted; ++i) {
        t.latency.add(at + i, seconds_between(starts[i], visible) * 1e3);
      }
    }
    const std::vector<Vec3>& probes = tenant.probe_batches[batch % tenant.probe_batches.size()];
    bool queried = false;
    {
      Span span(log, "service.query_rpc", root.id());
      queried = t.call(client.query(session, probes).ok());
    }
    if (queried) t.queries += probes.size();
    // The epoch is one slot of both lanes: its scans and its probes.
    const double epoch_ms = seconds_between(starts[0], Clock::now()) * 1e3;
    if (flushed) t.scan_lanes.front().add(batch, static_cast<double>(admitted), epoch_ms);
    if (queried) t.query_lanes.front().add(batch, static_cast<double>(probes.size()), epoch_ms);
    ++batch;
  }
  t.scans += tenant.stream.size();
  if (after_stream) after_stream();

  const Result<uint64_t> hash = client.content_hash(session);
  t.check(t.call(hash.ok()) && *hash == tenant.oracle.hash,
          "college_fleet: tenant " + tenant.name + " content hash != oracle");
  t.check(mirror.converged() && mirror.hash_mismatches() == 0 &&
              mirror.content_hash() == tenant.oracle.hash,
          "college_fleet: tenant " + tenant.name + " mirror did not converge to the oracle");
  t.call(client.close_session(session).ok());
  ++t.passes;
}

double scrape_sum(const obs::PromScrape& scrape, const std::string& sample,
                  const std::string& tenant = "") {
  double total = 0.0;
  for (const obs::PromFamily& family : scrape.families) {
    for (const obs::PromSample& s : family.samples) {
      if (s.name != sample) continue;
      if (!tenant.empty()) {
        const auto it = s.labels.find("tenant");
        if (it == s.labels.end() || it->second != tenant) continue;
      }
      total += s.value;
    }
  }
  return total;
}

/// Runs every tenant's client thread concurrently, in rounds of one pass
/// per tenant, until `seconds` elapse (one round for 0). Every round starts
/// all tenants together, so each holds every tenant's full map at once near
/// its end. Between rounds, with every session closed, the allocator hands
/// its free pages back (malloc_trim) and the peak restarts: each round's
/// peak is the peak of one round, not of how far the tenants' passes have
/// drifted apart or how much free memory the per-thread heaps have gathered
/// by then. Returns the fleet wall time (first start to last end).
double run_fleet_window(FleetSetup& s, const Shape& shape, double seconds, Totals& totals) {
  const std::size_t n = s.tenants.size();
  std::vector<Totals> per_tenant(n);
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration<double>(seconds);
  std::size_t rounds = 0;
  bool more = true;
  std::barrier round(static_cast<std::ptrdiff_t>(n), [&]() noexcept {
    if (rounds > 0) totals.pass_peak_rss_mib.push_back(peak_rss_mib());
    malloc_trim(0);
    reset_peak_rss();
    more = rounds++ == 0 || Clock::now() < deadline;
  });
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      for (round.arrive_and_wait(); more; round.arrive_and_wait()) {
        try {
          tenant_pass(s.tenants[i], shape, per_tenant[i], nullptr);
        } catch (const std::exception& e) {
          per_tenant[i].failures.push_back("tenant " + s.tenants[i].name + ": " + e.what());
          round.arrive_and_drop();
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall = seconds_between(start, Clock::now());
  for (const Totals& t : per_tenant) totals.merge(t);
  return wall;
}

int run_fleet(const Options& o) {
  const Shape shape = shape_of(o);
  std::filesystem::create_directories(o.out_dir);
  std::unique_ptr<FleetSetup> setup;
  const std::vector<double> setup_s =
      timed_setups(setup, [&] { return fleet_setup(o, shape); });
  Report report;
  const StreamProperties props = properties_of(setup->tenants.front().stream);
  report.info(properties_line("college_fleet input (tenant t0)", props,
                              setup->tenants.front().oracle) +
              ", " + std::to_string(shape.tenants) + " tenants, flush every " +
              std::to_string(shape.flush_every) + " scans, " + std::to_string(shape.probe_batch) +
              "-probe query RPC per flush");

  Totals totals;
  {
    Totals warm_up;  // one checked pass per tenant, not timed
    run_fleet_window(*setup, shape, 0.0, warm_up);
    totals.merge_checks(warm_up);
  }
  const double untraced_s = o.trace ? o.seconds / 2 : o.seconds;
  totals.wall_s = run_fleet_window(*setup, shape, untraced_s, totals);
  if (!o.trace) {
    report_end_to_end(report, totals, setup_s, "query RPC probes");
    return report.finish(totals);
  }

  // Traced replay: one pass per tenant, all concurrent. The service is
  // scraped once every tenant has streamed, before any verification RPC
  // or session close (per-tenant rollups cover live sessions only).
  const obs::PromScrape before = obs::parse_prometheus_text(setup->host->metrics_prometheus());
  obs::PromScrape after;
  std::barrier sync(static_cast<std::ptrdiff_t>(setup->tenants.size()),
                    [&]() noexcept {
                      try {
                        after = obs::parse_prometheus_text(setup->host->metrics_prometheus());
                      } catch (...) {
                      }
                    });
  std::vector<Totals> per_tenant(setup->tenants.size());
  std::vector<SpanLog> logs;
  for (std::size_t i = 0; i < setup->tenants.size(); ++i) logs.emplace_back(1 + i);
  std::vector<std::thread> threads;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < setup->tenants.size(); ++i) {
    threads.emplace_back([&, i] {
      bool arrived = false;
      try {
        tenant_pass(setup->tenants[i], shape, per_tenant[i], &logs[i], [&] {
          arrived = true;
          sync.arrive_and_wait();
        });
      } catch (const std::exception& e) {
        per_tenant[i].failures.push_back("tenant " + setup->tenants[i].name + ": " + e.what());
      }
      if (!arrived) sync.arrive_and_drop();
    });
  }
  for (std::thread& t : threads) t.join();
  const double traced_wall = seconds_between(start, Clock::now());
  Totals traced;
  for (const Totals& t : per_tenant) traced.merge(t);
  const double untraced_fps = totals.scans / totals.wall_s;
  totals.merge(traced);

  std::vector<SpanRecord> spans;
  for (const SpanLog& log : logs) spans.insert(spans.end(), log.spans().begin(), log.spans().end());
  const auto sum = summarize(spans);
  const auto total = [&](const char* name) {
    const auto it = sum.find(name);
    return it == sum.end() ? SpanTotals{} : it->second;
  };
  const auto diff = [&](const std::string& sample) {
    return scrape_sum(after, sample) - scrape_sum(before, sample);
  };
  const double epochs = static_cast<double>(total("epoch").count);
  double tenant_refresh_ms = 0.0;
  double tenant_splice_ms = 0.0;
  for (const Tenant& t : setup->tenants) {
    tenant_refresh_ms += scrape_sum(after, "omu_tenant_publish_refresh_ns_sum", t.name) / 1e6;
    tenant_splice_ms += scrape_sum(after, "omu_tenant_publish_splice_ns_sum", t.name) / 1e6;
  }
  // Publication counts are not on the wire: replay tenant t0's exact call
  // sequence (insert per scan, flush every flush_every) through the
  // facade composition its server session runs.
  MapperStats::Publication pub;
  {
    Mapper replay = Mapper::create(MapperConfig().resolution(kResolution)).value();
    const Stream& stream = setup->tenants.front().stream;
    for (std::size_t i = 0; i < stream.size(); ++i) {
      replay.insert(stream[i].data(), stream[i].size(), stream[i].origin);
      if ((i + 1) % shape.flush_every == 0 || i + 1 == stream.size()) replay.flush();
    }
    pub = replay.stats()->publication;
  }
  std::map<std::string, double> v;
  const Oracle& oracle0 = setup->tenants.front().oracle;
  v["map.updates_per_point"] =
      share(static_cast<double>(oracle0.updates), static_cast<double>(oracle0.points));
  v["map.leaves"] = static_cast<double>(oracle0.tree->leaf_count());
  v["query.publish_ms"] = share(tenant_refresh_ms, epochs);
  v["query.chunk_reuse_share"] = share(static_cast<double>(pub.chunks_reused),
                                       static_cast<double>(pub.chunks_reused + pub.chunks_rebuilt));
  v["query.rebuilt_kib_per_publish"] =
      share(static_cast<double>(pub.bytes_rebuilt) / 1024.0,
            static_cast<double>(pub.snapshots_published));
  const double rpc_ms = total("service.insert_rpc").total_ms + total("service.flush_rpc").total_ms +
                        total("service.query_rpc").total_ms;
  const double server_ms = diff("omu_service_request_ns_sum") / 1e6;
  v["service.insert_rpc_us"] = share(total("service.insert_rpc").total_ms * 1e3,
                                     static_cast<double>(total("service.insert_rpc").count));
  v["service.flush_rpc_ms"] = share(total("service.flush_rpc").total_ms,
                                    static_cast<double>(total("service.flush_rpc").count));
  v["service.query_rpc_us"] = share(total("service.query_rpc").total_ms * 1e3,
                                    static_cast<double>(total("service.query_rpc").count));
  v["service.server_ms"] = share(server_ms, epochs);
  v["service.wait_ms"] = share(rpc_ms - server_ms, epochs);
  v["service.delta_publish_ms"] = share(diff("omu_service_delta_publish_ns_sum") / 1e6, epochs);
  v["service.delta_kib_per_epoch"] = share(diff("omu_service_delta_bytes") / 1024.0,
                                           diff("omu_service_delta_events"));
  v["service.tenant_publish_ms"] = share(tenant_splice_ms, epochs);
  v["service.rejected"] = scrape_sum(after, "omu_service_inserts_rejected_rate") +
                          scrape_sum(after, "omu_service_inserts_rejected_bytes") +
                          scrape_sum(after, "omu_service_inserts_rejected_backpressure") +
                          scrape_sum(after, "omu_service_inserts_rejected_invalid") +
                          scrape_sum(after, "omu_service_sessions_rejected");
  v["bench.unattributed_share"] = share(total("epoch").self_ms, total("epoch").total_ms);
  v["bench.trace_overhead_share"] =
      1.0 - share(traced.scans / traced_wall, untraced_fps);
  write_trace(o.out_dir + "/trace-college_fleet-" + std::to_string(o.seed) + ".json", o.workload,
              o.seed, spans);
  report_per_layer(report, v);
  return report.finish(totals);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options options = parse_options(argc, argv);
    std::filesystem::create_directories(options.out_dir);
    if (options.workload == "college_fleet") return run_fleet(options);
    return run_writer_workload(options);
  } catch (const std::exception& e) {
    std::cerr << "omu_e2ebench: " << e.what() << "\n";
    return 2;
  }
}
