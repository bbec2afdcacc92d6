// fleet::fuse in degraded mode: a stale (cached) shard's regions are
// demoted to tier C and name the shard among their open breakers, once
// per level, while a fresh shard's regions keep their tier — checked
// against the demotion loop fuse used to run, written out plainly.
#include "iqb/fleet/coordinator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "iqb/core/pipeline.hpp"
#include "iqb/report/render.hpp"
#include "iqb/util/json.hpp"
#include "iqb/util/rng.hpp"

namespace iqb::fleet {
namespace {

/// A shard owning every `stride`-th of `regions` regions from `first`,
/// with plausible per-dataset aggregates (ookla carries no loss).
ShardPayload shard(std::size_t first, std::size_t stride, std::size_t regions,
                   std::uint64_t seed) {
  util::Rng rng(seed);
  ShardPayload payload;
  payload.cycle = 7;
  for (std::size_t r = first; r < regions; r += stride) {
    char region[16];
    std::snprintf(region, sizeof region, "region_%03zu", r);
    for (const char* dataset : {"cloudflare", "ndt", "ookla"}) {
      for (datasets::Metric metric : datasets::kAllMetrics) {
        if (metric == datasets::Metric::kLoss &&
            std::string(dataset) == "ookla") {
          continue;
        }
        datasets::AggregateCell cell;
        cell.region = region;
        cell.dataset = dataset;
        cell.metric = metric;
        cell.sample_count = 50;
        switch (metric) {
          case datasets::Metric::kDownload:
            cell.value = rng.uniform(5, 900);
            break;
          case datasets::Metric::kUpload:
            cell.value = rng.uniform(1, 300);
            break;
          case datasets::Metric::kLoss:
            cell.value = rng.uniform(0, 0.02);
            break;
          default:
            cell.value = rng.uniform(5, 200);
            break;
        }
        payload.table.put(std::move(cell));
      }
    }
  }
  return payload;
}

TEST(FleetFuse, StaleShardDemotesEachOfItsRegionsOnce) {
  const core::IqbConfig config = core::IqbConfig::paper_defaults();
  std::vector<ShardView> views(3);
  views[0].name = "a";
  views[0].payload = shard(0, 2, 240, 1);
  views[1].name = "b";
  views[1].payload = shard(1, 2, 240, 2);
  views[1].payload->health.open_breakers = {"feed:ookla"};
  views[1].stale = true;
  views[2].name = "c";  // never answered: no payload at all

  const FuseOutput fused = fuse(config, views, "fleet-1");
  const std::vector<std::string> stale = views[1].payload->table.regions();
  ASSERT_EQ(stale.size(), 120u);
  EXPECT_EQ(fused.shards_fresh, 1u);
  EXPECT_EQ(fused.shards_cached, 1u);
  EXPECT_EQ(fused.shards_missing, 1u);
  EXPECT_TRUE(fused.tier_c);
  EXPECT_EQ(fused.tier_c_regions, stale);
  EXPECT_EQ(fused.stale_regions, stale);

  // The reference: merge, score, and demote by rescanning every stale
  // view's regions for every stale region.
  datasets::AggregateTable merged;
  robust::IngestHealth health;
  for (const ShardView& view : views) {
    if (view.payload) merged.merge(view.payload->table);
  }
  health.open_breakers = {"feed:ookla"};
  const core::Pipeline pipeline(config);
  std::vector<core::RegionResult> results;
  for (const std::string& region : merged.regions()) {
    auto scored = pipeline.score_region(merged, region, health);
    ASSERT_TRUE(scored.ok()) << region;
    core::RegionResult result = std::move(scored).value();
    if (std::find(stale.begin(), stale.end(), region) != stale.end()) {
      for (const ShardView& view : views) {
        if (!view.stale || !view.payload) continue;
        const auto owned = view.payload->table.regions();
        if (std::find(owned.begin(), owned.end(), region) != owned.end()) {
          result.high.degradation.open_breakers.push_back("shard:" + view.name);
          result.minimum.degradation.open_breakers.push_back("shard:" +
                                                             view.name);
        }
      }
      result.high.degradation.tier = robust::ConfidenceTier::kC;
      result.minimum.degradation.tier = robust::ConfidenceTier::kC;
    }
    results.push_back(std::move(result));
  }
  EXPECT_EQ(fused.scores_json, report::to_json(results).dump(2) + "\n");

  // And on the served document itself: "shard:b" once per level on
  // each stale region, nowhere else.
  auto document = util::parse_json(fused.scores_json);
  ASSERT_TRUE(document.ok());
  const util::JsonValue* regions = document->find("regions");
  ASSERT_NE(regions, nullptr);
  ASSERT_EQ(regions->as_array().size(), 240u);
  for (const util::JsonValue& region : regions->as_array()) {
    const std::string name = region.find("region")->as_string();
    const bool is_stale =
        std::binary_search(stale.begin(), stale.end(), name);
    for (const char* level : {"high", "minimum"}) {
      const util::JsonValue& degradation =
          *region.find(level)->find("degradation");
      const auto& breakers = degradation.find("open_breakers")->as_array();
      EXPECT_EQ(std::count(breakers.begin(), breakers.end(),
                           util::JsonValue("shard:b")),
                is_stale ? 1 : 0)
          << name << " " << level;
      EXPECT_EQ(std::count(breakers.begin(), breakers.end(),
                           util::JsonValue("shard:a")),
                0);
      if (is_stale) {
        EXPECT_EQ(degradation.find("tier")->as_string(), "C") << name;
      }
    }
  }
}

}  // namespace
}  // namespace iqb::fleet
