#include "iqb/core/pipeline.hpp"

#include <algorithm>
#include <optional>

#include "iqb/obs/telemetry.hpp"
#include "iqb/util/log.hpp"
#include "iqb/util/thread_pool.hpp"

namespace iqb::core {

using util::Result;

bool Pipeline::RunOutput::degraded() const noexcept {
  return std::any_of(results.begin(), results.end(),
                     [](const RegionResult& result) {
                       return result.degradation().degraded();
                     });
}

Pipeline::RunOutput Pipeline::run(const datasets::RecordStore& store) const {
  return run(store, robust::IngestHealth{});
}

Pipeline::RunOutput Pipeline::run(const datasets::RecordStore& store,
                                  const robust::IngestHealth& health) const {
  return run(store, health, nullptr);
}

Pipeline::RunOutput Pipeline::run(const datasets::RecordStore& store,
                                  const robust::IngestHealth& health,
                                  obs::Telemetry* telemetry) const {
  // Stamp the cycle's trace id onto every log record and the root
  // span for the duration of the run (keeps the caller's trace id,
  // if any, when telemetry carries none).
  util::ScopedLogTrace log_trace(telemetry && !telemetry->trace_id.empty()
                                     ? telemetry->trace_id
                                     : util::log_trace_id());
  obs::ScopedSpan run_span(telemetry ? telemetry->tracer : nullptr,
                           "pipeline.run");
  if (telemetry && !telemetry->trace_id.empty()) {
    run_span.set_attribute("trace_id", telemetry->trace_id);
  }

  // One pool shared by the aggregate and score stages. threads == 1
  // (the library default) never constructs a pool and takes exactly
  // the historical serial code path below.
  const std::size_t threads =
      util::ThreadPool::resolve_threads(config_.aggregation.threads);
  std::optional<util::ThreadPool> pool;
  if (threads > 1) pool.emplace(threads);

  RunOutput output;
  {
    obs::StageTimer stage(telemetry, "aggregate");
    output.aggregates = datasets::aggregate(store, config_.aggregation,
                                            telemetry, pool ? &*pool : nullptr);
  }
  obs::StageTimer stage(telemetry, "score");
  const std::vector<std::string> regions = store.regions();
  if (pool && regions.size() > 1) {
    // Parallel scoring writes into per-region slots; all telemetry is
    // emitted from the fold below in region order, so counters,
    // results and skipped entries are byte-identical to the serial
    // path at any thread count.
    struct Slot {
      std::optional<RegionResult> result;
      std::optional<SkippedRegion> skipped;
    };
    std::vector<Slot> slots(regions.size());
    pool->parallel_for(regions.size(), [&](std::size_t i) {
      auto result = score_region(output.aggregates, regions[i], health);
      if (result.ok()) {
        slots[i].result = std::move(result).value();
      } else {
        slots[i].skipped = SkippedRegion{regions[i], result.error().code,
                                         result.error().message};
      }
    });
    obs::add_counter(telemetry, "iqb_parallel_tasks_total",
                     "Tasks fanned out to the thread pool",
                     {{"stage", "score"}},
                     static_cast<double>(regions.size()));
    for (std::size_t i = 0; i < regions.size(); ++i) {
      obs::ScopedSpan region_span(telemetry ? telemetry->tracer : nullptr,
                                  "score.region");
      region_span.set_attribute("region", regions[i]);
      if (slots[i].result) {
        obs::add_counter(telemetry, "iqb_pipeline_regions_scored_total",
                         "Regions scored successfully");
        output.results.push_back(std::move(*slots[i].result));
      } else {
        obs::add_counter(
            telemetry, "iqb_pipeline_regions_skipped_total",
            "Regions the pipeline could not score",
            {{"reason",
              std::string(util::error_code_name(slots[i].skipped->code))},
             {"region", regions[i]}});
        region_span.set_attribute("skipped", "true");
        output.skipped.push_back(std::move(*slots[i].skipped));
      }
    }
  } else {
    for (const std::string& region : regions) {
      obs::ScopedSpan region_span(telemetry ? telemetry->tracer : nullptr,
                                  "score.region");
      region_span.set_attribute("region", region);
      auto result = score_region(output.aggregates, region, health);
      if (result.ok()) {
        obs::add_counter(telemetry, "iqb_pipeline_regions_scored_total",
                         "Regions scored successfully");
        output.results.push_back(std::move(result).value());
      } else {
        obs::add_counter(
            telemetry, "iqb_pipeline_regions_skipped_total",
            "Regions the pipeline could not score",
            {{"reason",
              std::string(util::error_code_name(result.error().code))},
             {"region", region}});
        region_span.set_attribute("skipped", "true");
        output.skipped.push_back(
            {region, result.error().code, result.error().message});
      }
    }
  }
  obs::set_gauge(telemetry, "iqb_pipeline_aggregate_cells",
                 "Aggregate cells produced by the last run", {},
                 static_cast<double>(output.aggregates.size()));
  return output;
}

Result<RegionResult> Pipeline::score_region(
    const datasets::AggregateTable& aggregates, const std::string& region,
    const robust::IngestHealth& health) const {
  auto high = scorer_.score_region(aggregates, region, config_.dataset_panel,
                                   QualityLevel::kHigh);
  if (!high.ok()) return high.error();
  auto minimum = scorer_.score_region(aggregates, region, config_.dataset_panel,
                                      QualityLevel::kMinimum);
  if (!minimum.ok()) return minimum.error();

  RegionResult result;
  result.region = region;
  result.high = std::move(high).value();
  result.minimum = std::move(minimum).value();
  result.grade = config_.grading.grade(result.high.iqb_score);
  // Degradation accounting: which panel datasets actually contributed
  // a binary cell at each level, plus whatever the ingest layer saw.
  result.high.degradation = robust::assess_region(
      region, config_.dataset_panel, result.high.binary.datasets(), health);
  result.minimum.degradation = robust::assess_region(
      region, config_.dataset_panel, result.minimum.binary.datasets(), health);
  result.aggregates = aggregates.cells_for_region(region);
  return result;
}

}  // namespace iqb::core
