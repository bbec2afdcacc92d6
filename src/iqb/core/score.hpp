// The IQB score — paper §3, equations (1)-(5).
//
// Pipeline:  binary requirement scores S_{u,r,d}  (threshold checks on
// aggregated dataset values)  →  requirement agreement scores S_{u,r}
// (eq. 1)  →  use-case scores S_u (eq. 2/3)  →  S_IQB (eq. 4/5).
//
// Missing data policy: real datasets have coverage gaps (Ookla has no
// loss). A missing S_{u,r,d} simply drops out of eq. (1)'s weighted
// average — the normalization Σ_d w runs over *present* datasets. If a
// requirement has no data in any dataset, it likewise drops out of
// eq. (2); if a use case ends up with no requirements, it drops out of
// eq. (4). A region with no usable cell at all is an error. Every drop
// is recorded in ScoreBreakdown::coverage_warnings.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "iqb/core/thresholds.hpp"
#include "iqb/core/weights.hpp"
#include "iqb/datasets/aggregate.hpp"
#include "iqb/robust/degradation.hpp"

namespace iqb::core {

/// The binary score tensor S_{u,r,d} for one region at one quality
/// level. Cells may be absent (missing data). Stored flat: one block of
/// [use case][requirement] cells per dataset, blocks in dataset-name
/// order.
class BinaryScoreTensor {
 public:
  void set(UseCase use_case, Requirement requirement, const std::string& dataset,
           bool met);
  std::optional<bool> get(UseCase use_case, Requirement requirement,
                          const std::string& dataset) const noexcept;
  std::size_t size() const noexcept { return size_; }
  /// Datasets with at least one present cell, sorted by name.
  std::vector<std::string> datasets() const { return datasets_; }

 private:
  friend class Scorer;  // walks the blocks by index
  enum class Cell : std::uint8_t { kAbsent, kFalse, kTrue };
  static constexpr std::size_t kBlock =
      kAllUseCases.size() * kAllRequirements.size();
  static std::size_t slot(UseCase use_case, Requirement requirement) noexcept {
    return static_cast<std::size_t>(use_case) * kAllRequirements.size() +
           static_cast<std::size_t>(requirement);
  }

  std::vector<std::string> datasets_;
  std::vector<Cell> cells_;  ///< datasets_.size() blocks of kBlock.
  std::size_t size_ = 0;     ///< Present cells.
};

/// Full decomposition of one region's IQB score.
struct ScoreBreakdown {
  QualityLevel level = QualityLevel::kHigh;
  double iqb_score = 0.0;  ///< S_IQB in [0,1].
  std::map<UseCase, double> use_case_scores;                      ///< S_u.
  std::map<std::pair<UseCase, Requirement>, double> requirement_scores;  ///< S_{u,r}.
  BinaryScoreTensor binary;                                       ///< S_{u,r,d}.
  /// Human-readable notes about dropped cells/requirements/use cases.
  std::vector<std::string> coverage_warnings;
  /// What was missing when this score was made (filled by the
  /// pipeline; a healthy full-panel run carries an all-clear tier-A
  /// report and identical scores).
  robust::DegradationReport degradation;
};

class Scorer {
 public:
  Scorer(ThresholdTable thresholds, WeightTable weights)
      : thresholds_(std::move(thresholds)), weights_(std::move(weights)) {}

  const ThresholdTable& thresholds() const noexcept { return thresholds_; }
  const WeightTable& weights() const noexcept { return weights_; }

  /// Build S_{u,r,d} for a region from aggregated dataset values.
  /// `datasets` lists the datasets to consult (typically the weight
  /// table's known datasets). Cells without an aggregate are absent.
  BinaryScoreTensor binarize(const datasets::AggregateTable& aggregates,
                             const std::string& region,
                             const std::vector<std::string>& datasets,
                             QualityLevel level) const;

  /// Score a tensor: the factored evaluation (eqs. 1, 2, 4).
  /// Error if the tensor contributes no usable cell.
  util::Result<ScoreBreakdown> score(const BinaryScoreTensor& tensor,
                                     QualityLevel level) const;

  /// The collapsed single-sum evaluation (eq. 5):
  /// S_IQB = Σ_u Σ_r Σ_d w'_u w'_{u,r} w'_{u,r,d} S_{u,r,d}.
  /// Algebraically identical to score().iqb_score; exists so property
  /// tests can verify the paper's derivation and benches can compare
  /// the two evaluation orders.
  util::Result<double> score_collapsed(const BinaryScoreTensor& tensor) const;

  /// Convenience: binarize + score in one step.
  util::Result<ScoreBreakdown> score_region(
      const datasets::AggregateTable& aggregates, const std::string& region,
      const std::vector<std::string>& datasets, QualityLevel level) const;

  /// Eq. (1)'s normalized dataset weights w'_{u,r,d} over the
  /// *present* datasets, made explicit: the returned weights sum to 1
  /// (empty map if no present dataset carries positive weight). This
  /// is exactly the renormalization score() applies implicitly when a
  /// dataset is missing, exposed for degradation reporting and tests.
  std::map<std::string, double> renormalized_dataset_weights(
      UseCase use_case, Requirement requirement,
      const std::vector<std::string>& present_datasets) const;

 private:
  ThresholdTable thresholds_;
  WeightTable weights_;
};

}  // namespace iqb::core
