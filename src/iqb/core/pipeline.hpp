// End-to-end pipeline: measurement records -> regional IQB results.
//
// This is the library's front door (Fig. 1 as code): give it a record
// store and a config, get per-region scores at both quality levels,
// with the full breakdown and a letter grade.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "iqb/core/config.hpp"
#include "iqb/core/score.hpp"
#include "iqb/datasets/store.hpp"

namespace iqb::obs {
struct Telemetry;
}

namespace iqb::core {

/// One region's complete IQB result.
struct RegionResult {
  std::string region;
  ScoreBreakdown high;     ///< Scored against high-quality thresholds.
  ScoreBreakdown minimum;  ///< Scored against minimum-quality thresholds.
  Grade grade = Grade::kE; ///< Grade of the high-quality score.
  /// The aggregates the scores were derived from (for reporting).
  std::vector<datasets::AggregateCell> aggregates;

  /// The region's degradation account (the high-quality breakdown's;
  /// both levels carry one, they differ only if threshold coverage
  /// differs by level).
  const robust::DegradationReport& degradation() const noexcept {
    return high.degradation;
  }
};

/// A region the pipeline could not score at all, machine-readable.
struct SkippedRegion {
  std::string region;
  util::ErrorCode code = util::ErrorCode::kInternal;
  std::string reason;

  std::string to_string() const { return region + ": " + reason; }
};

class Pipeline {
 public:
  explicit Pipeline(IqbConfig config)
      : config_(std::move(config)),
        scorer_(config_.thresholds, config_.weights) {}

  const IqbConfig& config() const noexcept { return config_; }

  /// Aggregate the store once and score every region in it.
  /// Regions that cannot be scored at all are skipped with a
  /// structured entry in `skipped`.
  struct RunOutput {
    std::vector<RegionResult> results;
    std::vector<SkippedRegion> skipped;
    datasets::AggregateTable aggregates;

    /// True if any scored region is below confidence tier A.
    bool degraded() const noexcept;
  };
  RunOutput run(const datasets::RecordStore& store) const;

  /// As run(), folding ingest-side health (quarantined rows, open
  /// breakers reported by whoever loaded the data) into every
  /// region's DegradationReport and confidence tier.
  RunOutput run(const datasets::RecordStore& store,
                const robust::IngestHealth& health) const;

  /// As run(), additionally recording telemetry: an "aggregate" and a
  /// "score" stage span (one "score.region" child per region) plus
  /// stage-duration histograms and scored/skipped counters. A null
  /// telemetry — or one with null members — records nothing, and the
  /// scoring output is bit-identical either way.
  RunOutput run(const datasets::RecordStore& store,
                const robust::IngestHealth& health,
                obs::Telemetry* telemetry) const;

  /// Score one region from a pre-built aggregate table. When a
  /// (region, requirement) is covered by fewer datasets than the
  /// configured panel, the per-dataset weights renormalize over the
  /// *available* datasets (the paper's eq. 1 normalized-weight form)
  /// and the result's DegradationReport says so.
  util::Result<RegionResult> score_region(
      const datasets::AggregateTable& aggregates, const std::string& region,
      const robust::IngestHealth& health = {}) const;

 private:
  IqbConfig config_;
  Scorer scorer_;  ///< Built once from config_; shared by every region.
};

}  // namespace iqb::core
