#include "iqb/fleet/coordinator.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "iqb/core/pipeline.hpp"
#include "iqb/report/render.hpp"
#include "iqb/util/log.hpp"

namespace iqb::fleet {

FuseOutput fuse(const core::IqbConfig& config,
                std::span<const ShardView> views,
                const std::string& trace_id) {
  FuseOutput output;

  datasets::AggregateTable fused;
  robust::IngestHealth health;
  std::set<std::string> open_breakers;
  std::set<std::string> stale_regions;
  // Each stale view's regions, listed once per gather for the tier-C
  // marking below.
  std::vector<std::pair<const ShardView*, std::vector<std::string>>>
      stale_views;
  std::uint64_t max_cycle = 0;

  for (const ShardView& view : views) {
    if (!view.payload) {
      ++output.shards_missing;
      continue;
    }
    // Region-partitioned shards make merge exact: each region's cells
    // live on exactly one shard, so colliding-key overwrites only
    // happen if the operator misconfigured overlapping --regions (the
    // last shard wins, as AggregateTable::merge documents).
    fused.merge(view.payload->table);
    health.rows_quarantined += view.payload->health.rows_quarantined;
    health.sources_retried += view.payload->health.sources_retried;
    for (const std::string& breaker : view.payload->health.open_breakers) {
      open_breakers.insert(breaker);
    }
    max_cycle = std::max(max_cycle, view.payload->cycle);
    if (view.stale) {
      ++output.shards_cached;
      std::vector<std::string> owned = view.payload->table.regions();
      stale_regions.insert(owned.begin(), owned.end());
      stale_views.emplace_back(&view, std::move(owned));
    } else {
      ++output.shards_fresh;
    }
  }
  health.open_breakers.assign(open_breakers.begin(), open_breakers.end());
  output.max_shard_cycle = max_cycle;
  output.stale_regions.assign(stale_regions.begin(), stale_regions.end());
  if (!output.any_payload()) return output;

  // Score the fused table exactly like a single daemon scores its own
  // aggregation: same per-region scorer, same (sorted) region order,
  // same renderer — that is what makes the zero-fault output
  // byte-identical.
  const core::Pipeline pipeline(config);
  std::vector<core::RegionResult> results;
  for (const std::string& region : fused.regions()) {
    auto result = pipeline.score_region(fused, region, health);
    if (!result.ok()) {
      IQB_LOG(kWarn) << "fleet: skipped region " << region << ": "
                     << result.error().message;
      output.skipped_regions.push_back(region);
      continue;
    }
    core::RegionResult scored = std::move(result).value();
    if (stale_regions.count(region) != 0) {
      // The region's data is a previous cycle's: the score stands but
      // cannot be corroborated this cycle, so confidence drops to the
      // single-source tier and the report names the silent shard.
      for (const auto& [view, owned] : stale_views) {
        if (std::binary_search(owned.begin(), owned.end(), region)) {
          scored.high.degradation.open_breakers.push_back("shard:" +
                                                          view->name);
          scored.minimum.degradation.open_breakers.push_back("shard:" +
                                                             view->name);
        }
      }
      scored.high.degradation.tier = robust::ConfidenceTier::kC;
      scored.minimum.degradation.tier = robust::ConfidenceTier::kC;
    }
    if (scored.degradation().tier == robust::ConfidenceTier::kC) {
      output.tier_c = true;
      output.tier_c_regions.push_back(scored.region);
    }
    results.push_back(std::move(scored));
  }
  output.scores_json = report::scores_document(results);

  ShardPayload fused_payload;
  fused_payload.cycle = max_cycle;
  fused_payload.trace_id = trace_id;
  fused_payload.table = std::move(fused);
  fused_payload.health = std::move(health);
  output.aggregate_json = serialize_shard_payload(fused_payload);
  return output;
}

}  // namespace iqb::fleet
