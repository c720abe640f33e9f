// MetricRegistry / Histogram unit tests: bucket boundary placement,
// quantile estimation error bounds against a sorted reference on
// randomized samples, elementwise snapshot merging (the per-session
// rollup primitive), and registry get-or-create semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "geom/rng.hpp"
#include "obs/metrics.hpp"

namespace omu::obs {
namespace {

// ---- Bucket boundaries ------------------------------------------------------

TEST(ObsHistogram, BucketIndexMatchesPowerOfTwoBoundaries) {
  // Bucket 0 holds exactly the value 0; bucket i >= 1 holds [2^(i-1), 2^i - 1].
  EXPECT_EQ(Histogram::bucket_index(0), 0u);
  EXPECT_EQ(Histogram::bucket_index(1), 1u);
  for (std::size_t i = 2; i < Histogram::kBuckets - 1; ++i) {
    const uint64_t lower = uint64_t{1} << (i - 1);
    const uint64_t upper = (uint64_t{1} << i) - 1;
    EXPECT_EQ(Histogram::bucket_index(lower), i) << "lower edge of bucket " << i;
    EXPECT_EQ(Histogram::bucket_index(upper), i) << "upper edge of bucket " << i;
    EXPECT_EQ(Histogram::bucket_index(lower - 1), i - 1) << "below bucket " << i;
  }
  // The last bucket is open-ended: everything with bit_width >= 64 clamps.
  EXPECT_EQ(Histogram::bucket_index(uint64_t{1} << 63), Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::bucket_index(~uint64_t{0}), Histogram::kBuckets - 1);
}

TEST(ObsHistogram, SnapshotBucketEdgesAgreeWithBucketIndex) {
  // The snapshot's advertised [lower, upper] ranges tile uint64 space and
  // agree with where record() actually places values.
  for (std::size_t i = 0; i < HistogramSnapshot::kBuckets; ++i) {
    EXPECT_EQ(Histogram::bucket_index(HistogramSnapshot::bucket_lower(i)), i);
    EXPECT_EQ(Histogram::bucket_index(HistogramSnapshot::bucket_upper(i)), i);
    if (i > 0) {
      EXPECT_EQ(HistogramSnapshot::bucket_lower(i),
                HistogramSnapshot::bucket_upper(i - 1) + 1);
    }
  }
  EXPECT_EQ(HistogramSnapshot::bucket_upper(HistogramSnapshot::kBuckets - 1), ~uint64_t{0});
}

TEST(ObsHistogram, RecordAccumulatesCountSumMax) {
  Histogram h;
  h.record(0);
  h.record(7);
  h.record(1024);
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(snap.sum, 0u + 7u + 1024u);
  EXPECT_EQ(snap.max, 1024u);
  EXPECT_EQ(snap.buckets[0], 1u);                            // the 0
  EXPECT_EQ(snap.buckets[Histogram::bucket_index(7)], 1u);   // [4, 7]
  EXPECT_EQ(snap.buckets[Histogram::bucket_index(1024)], 1u);
}

// ---- Quantiles --------------------------------------------------------------

/// Exact reference: the sorted sample at rank ceil(q * n) (1-based).
uint64_t sorted_quantile(std::vector<uint64_t> values, double q) {
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

TEST(ObsHistogram, QuantileOfEmptyHistogramIsZero) {
  EXPECT_EQ(HistogramSnapshot{}.quantile(0.5), 0.0);
}

TEST(ObsHistogram, QuantileIsExactWhenBucketsAreSingletons) {
  // 0 and 1 live in singleton buckets, so no interpolation error exists.
  Histogram h;
  for (int i = 0; i < 90; ++i) h.record(0);
  for (int i = 0; i < 10; ++i) h.record(1);
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.quantile(0.50), 0.0);
  EXPECT_EQ(snap.quantile(0.90), 0.0);
  EXPECT_EQ(snap.quantile(0.91), 1.0);
  EXPECT_EQ(snap.quantile(1.00), 1.0);
}

TEST(ObsHistogram, QuantileStaysInsideTheRankBucketOnRandomSamples) {
  // The factor-2 error contract: the estimate must land inside the bucket
  // that holds the sorted reference's rank sample — i.e. within
  // [reference/2, 2*reference] — across distributions and quantiles.
  geom::SplitMix64 rng(0xBADC0FFEEull);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<uint64_t> values;
    Histogram h;
    const int n = 200 + static_cast<int>(rng.next_below(2000));
    for (int i = 0; i < n; ++i) {
      // Log-uniform latencies spanning ~6 decades, the shape of real
      // timing data (plus occasional zeros).
      const double mag = rng.uniform(0.0, 20.0);
      const uint64_t v = rng.next_below(64) == 0 ? 0 : static_cast<uint64_t>(std::exp2(mag));
      values.push_back(v);
      h.record(v);
    }
    const HistogramSnapshot snap = h.snapshot();
    for (const double q : {0.01, 0.25, 0.50, 0.90, 0.99, 1.0}) {
      const uint64_t ref = sorted_quantile(values, q);
      const double est = snap.quantile(q);
      const std::size_t bucket = Histogram::bucket_index(ref);
      EXPECT_GE(est, static_cast<double>(HistogramSnapshot::bucket_lower(bucket)))
          << "q=" << q << " ref=" << ref;
      EXPECT_LE(est, static_cast<double>(std::max(
                         HistogramSnapshot::bucket_upper(bucket), snap.max)))
          << "q=" << q << " ref=" << ref;
      if (ref > 0) {
        EXPECT_GE(est * 2.0, static_cast<double>(ref)) << "q=" << q;
        EXPECT_LE(est, static_cast<double>(ref) * 2.0) << "q=" << q;
      }
    }
  }
}

TEST(ObsHistogram, TopBucketQuantileIsCappedByObservedMax) {
  // A sample in the open-ended last bucket must not report the bucket's
  // astronomically large upper edge: the estimate caps at the recorded max.
  Histogram h;
  h.record(~uint64_t{0} - 17);
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_LE(snap.quantile(1.0), static_cast<double>(snap.max));
}

// ---- Merge ------------------------------------------------------------------

TEST(ObsHistogram, MergeIsElementwiseAndOrderIndependent) {
  geom::SplitMix64 rng(42);
  Histogram all;
  Histogram shard[3];
  for (int i = 0; i < 3000; ++i) {
    const uint64_t v = rng.next_below(100000);
    all.record(v);
    shard[i % 3].record(v);
  }
  HistogramSnapshot merged = shard[2].snapshot();
  merged.merge(shard[0].snapshot());
  merged.merge(shard[1].snapshot());

  const HistogramSnapshot reference = all.snapshot();
  EXPECT_EQ(merged.count, reference.count);
  EXPECT_EQ(merged.sum, reference.sum);
  EXPECT_EQ(merged.max, reference.max);
  EXPECT_EQ(merged.buckets, reference.buckets);
  EXPECT_EQ(merged.quantile(0.99), reference.quantile(0.99));
}

// ---- Registry ---------------------------------------------------------------

TEST(ObsRegistry, GetOrCreateReturnsStablePointers) {
  MetricRegistry registry;
  Counter* c1 = registry.counter("ingest.scans");
  Counter* c2 = registry.counter("ingest.scans");
  EXPECT_EQ(c1, c2);
  c1->add(3);
  EXPECT_EQ(c2->value(), 3u);

  Gauge* g = registry.gauge("service.sessions");
  g->set(-5);
  EXPECT_EQ(registry.gauge("service.sessions")->value(), -5);

  Histogram* h = registry.histogram("ingest.insert_ns");
  h->record(9);
  EXPECT_EQ(registry.histogram("ingest.insert_ns")->count(), 1u);
}

TEST(ObsRegistry, KindMismatchThrowsLogicError) {
  MetricRegistry registry;
  registry.counter("a.b");
  EXPECT_THROW(registry.gauge("a.b"), std::logic_error);
  EXPECT_THROW(registry.histogram("a.b"), std::logic_error);
}

TEST(ObsRegistry, SamplesAreNameSortedAndComplete) {
  MetricRegistry registry;
  registry.counter("z.count")->add(1);
  registry.histogram("a.lat_ns")->record(2);
  registry.gauge("m.depth")->set(7);

  const std::vector<MetricSample> samples = registry.samples();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].name, "a.lat_ns");
  EXPECT_EQ(samples[0].kind, MetricKind::kHistogram);
  EXPECT_EQ(samples[0].histogram.count, 1u);
  EXPECT_EQ(samples[1].name, "m.depth");
  EXPECT_EQ(samples[1].gauge, 7);
  EXPECT_EQ(samples[2].name, "z.count");
  EXPECT_EQ(samples[2].counter, 1u);
}

}  // namespace
}  // namespace omu::obs
