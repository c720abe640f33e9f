// SubscriptionMirror against hand-built delta events: the mirror keeps one
// cached hash term per shard and moves its total by the changed shards
// only, so every splice path — change, replace, remove, baseline reset —
// must keep the cached terms in step with the shards they describe.
#include <gtest/gtest.h>

#include <vector>

#include "geom/fixed_point.hpp"
#include "map/occupancy_octree.hpp"
#include "service/client.hpp"

namespace omu::service {
namespace {

using map::LeafRecord;
using map::OcKey;

/// A small leaf run unique to `shard` and `salt`.
std::vector<LeafRecord> run(uint64_t shard, int salt, int n = 16) {
  std::vector<LeafRecord> leaves;
  for (int i = 0; i < n; ++i) {
    leaves.push_back(LeafRecord{OcKey{static_cast<uint16_t>(1000 * shard + i),
                                      static_cast<uint16_t>(salt), static_cast<uint16_t>(i)},
                                16, 0.25f * static_cast<float>(i % 5) - 0.5f});
  }
  return leaves;
}

DeltaEvent event(uint64_t epoch, bool baseline) {
  DeltaEvent e;
  e.epoch = epoch;
  e.baseline = baseline ? 1 : 0;
  return e;
}

/// Attaches `hash` as the publisher hash.
DeltaEvent& with_hash(DeltaEvent& e, uint64_t hash) {
  e.has_hash = 1;
  e.publisher_hash = hash;
  return e;
}

TEST(SubscriptionMirror, OneStepValueChangeInAChangedShardIsOneMismatch) {
  SubscriptionMirror mirror;
  const auto a = run(0, 1);
  const auto b = run(1, 1);
  DeltaEvent base = event(1, true);
  base.changed_shards = {DeltaShard{0, a}, DeltaShard{1, b}};
  mirror.apply(with_hash(base, map::leaf_set_hash(a) + map::leaf_set_hash(b)));
  ASSERT_EQ(mirror.hash_mismatches(), 0u);

  // The publisher's shard 1 moved one leaf by one Fixed16 step, but the
  // event carries the stale run: exactly one mismatch, no false reports
  // before or after.
  auto published = b;
  const geom::Fixed16 v = geom::Fixed16::from_float(published[3].log_odds);
  published[3].log_odds = geom::Fixed16::from_raw(static_cast<int16_t>(v.raw() + 1)).to_float();
  DeltaEvent stale = event(2, false);
  stale.changed_shards = {DeltaShard{1, b}};
  mirror.apply(with_hash(stale, map::leaf_set_hash(a) + map::leaf_set_hash(published)));
  EXPECT_EQ(mirror.hash_mismatches(), 1u);

  DeltaEvent fixed = event(3, false);
  fixed.changed_shards = {DeltaShard{1, published}};
  mirror.apply(with_hash(fixed, map::leaf_set_hash(a) + map::leaf_set_hash(published)));
  EXPECT_EQ(mirror.hash_mismatches(), 1u);
  EXPECT_EQ(mirror.content_hash(), map::leaf_set_hash(a) + map::leaf_set_hash(published));
}

TEST(SubscriptionMirror, ReplacedShardReplacesItsTermAndRemovedShardSubtractsIt) {
  SubscriptionMirror mirror;
  const auto a = run(0, 1);
  const auto b = run(1, 1);
  const auto c = run(2, 1);
  DeltaEvent base = event(1, true);
  base.changed_shards = {DeltaShard{0, a}, DeltaShard{1, b}, DeltaShard{2, c}};
  mirror.apply(base);
  EXPECT_EQ(mirror.content_hash(),
            map::leaf_set_hash(a) + map::leaf_set_hash(b) + map::leaf_set_hash(c));

  const auto b2 = run(1, 2, 40);
  DeltaEvent replace = event(2, false);
  replace.changed_shards = {DeltaShard{1, b2}};
  mirror.apply(replace);
  EXPECT_EQ(mirror.content_hash(),
            map::leaf_set_hash(a) + map::leaf_set_hash(b2) + map::leaf_set_hash(c));
  EXPECT_EQ(mirror.leaf_count(), a.size() + b2.size() + c.size());

  DeltaEvent remove = event(3, false);
  remove.removed_shards = {0, 7};  // 7 was never held: ignored
  mirror.apply(remove);
  EXPECT_EQ(mirror.content_hash(), map::leaf_set_hash(b2) + map::leaf_set_hash(c));
  EXPECT_EQ(mirror.shard_count(), 2u);

  // Removing and re-adding a shard in one event lands on the new run.
  DeltaEvent both = event(4, false);
  both.removed_shards = {2};
  both.changed_shards = {DeltaShard{2, a}};
  mirror.apply(both);
  EXPECT_EQ(mirror.content_hash(), map::leaf_set_hash(b2) + map::leaf_set_hash(a));
  EXPECT_EQ(mirror.epoch(), 4u);
}

TEST(SubscriptionMirror, BaselineClearsEveryCachedTerm) {
  SubscriptionMirror mirror;
  DeltaEvent first = event(1, true);
  first.changed_shards = {DeltaShard{0, run(0, 1)}, DeltaShard{1, run(1, 1)}};
  mirror.apply(first);
  ASSERT_NE(mirror.content_hash(), 0u);

  const auto fresh = run(5, 9);
  DeltaEvent rebase = event(2, true);
  rebase.changed_shards = {DeltaShard{5, fresh}};
  mirror.apply(with_hash(rebase, map::leaf_set_hash(fresh)));
  EXPECT_EQ(mirror.content_hash(), map::leaf_set_hash(fresh));
  EXPECT_EQ(mirror.shard_count(), 1u);
  EXPECT_EQ(mirror.hash_mismatches(), 0u);

  DeltaEvent empty = event(3, true);
  mirror.apply(with_hash(empty, 0));
  EXPECT_EQ(mirror.content_hash(), 0u);
  EXPECT_EQ(mirror.shard_count(), 0u);
  EXPECT_TRUE(mirror.converged());
}

TEST(SubscriptionMirror, PublisherHashOmittingAHeldShardIsAMismatch) {
  SubscriptionMirror mirror;
  const auto a = run(0, 1);
  const auto b = run(1, 1);
  DeltaEvent base = event(1, true);
  base.changed_shards = {DeltaShard{0, a}, DeltaShard{1, b}};
  mirror.apply(with_hash(base, map::leaf_set_hash(a) + map::leaf_set_hash(b)));
  ASSERT_TRUE(mirror.converged());

  // The publisher no longer counts shard 0, but no removal reached the
  // mirror (a dropped shard): the mirror still holds it and must say so.
  const auto b2 = run(1, 3);
  DeltaEvent next = event(2, false);
  next.changed_shards = {DeltaShard{1, b2}};
  mirror.apply(with_hash(next, map::leaf_set_hash(b2)));
  EXPECT_EQ(mirror.hash_mismatches(), 1u);
  EXPECT_FALSE(mirror.converged());
}

}  // namespace
}  // namespace omu::service
