#include "iqb/core/score.hpp"

#include <algorithm>

namespace iqb::core {

using util::ErrorCode;
using util::make_error;
using util::Result;

void BinaryScoreTensor::set(UseCase use_case, Requirement requirement,
                            const std::string& dataset, bool met) {
  auto it = std::lower_bound(datasets_.begin(), datasets_.end(), dataset);
  const auto block = static_cast<std::size_t>(it - datasets_.begin());
  if (it == datasets_.end() || *it != dataset) {
    datasets_.insert(it, dataset);
    cells_.insert(cells_.begin() + static_cast<std::ptrdiff_t>(block * kBlock),
                  kBlock, Cell::kAbsent);
  }
  Cell& cell = cells_[block * kBlock + slot(use_case, requirement)];
  if (cell == Cell::kAbsent) ++size_;
  cell = met ? Cell::kTrue : Cell::kFalse;
}

std::optional<bool> BinaryScoreTensor::get(UseCase use_case,
                                           Requirement requirement,
                                           const std::string& dataset) const noexcept {
  auto it = std::lower_bound(datasets_.begin(), datasets_.end(), dataset);
  if (it == datasets_.end() || *it != dataset) return std::nullopt;
  const auto block = static_cast<std::size_t>(it - datasets_.begin());
  const Cell cell = cells_[block * kBlock + slot(use_case, requirement)];
  if (cell == Cell::kAbsent) return std::nullopt;
  return cell == Cell::kTrue;
}

BinaryScoreTensor Scorer::binarize(const datasets::AggregateTable& aggregates,
                                   const std::string& region,
                                   const std::vector<std::string>& datasets,
                                   QualityLevel level) const {
  BinaryScoreTensor tensor;
  // The region's cells are one sorted run; every lookup below stays
  // inside it.
  const std::span<const datasets::AggregateCell> cells =
      aggregates.region_cells(region);
  if (cells.empty()) return tensor;
  const auto find = [&cells](const std::string& dataset,
                             datasets::Metric metric)
      -> const datasets::AggregateCell* {
    for (const datasets::AggregateCell& cell : cells) {
      if (cell.metric == metric && cell.dataset == dataset) return &cell;
    }
    return nullptr;
  };
  for (UseCase use_case : kAllUseCases) {
    for (Requirement requirement : kAllRequirements) {
      auto threshold = thresholds_.get(use_case, requirement, level);
      if (!threshold.ok()) continue;  // unconfigured cell
      const datasets::Metric metric = requirement_metric(requirement);
      for (const std::string& dataset : datasets) {
        const datasets::AggregateCell* cell = find(dataset, metric);
        if (!cell) continue;  // dataset doesn't cover this metric
        tensor.set(use_case, requirement, dataset,
                   threshold->met_by(requirement, cell->value));
      }
    }
  }
  return tensor;
}

Result<ScoreBreakdown> Scorer::score(const BinaryScoreTensor& tensor,
                                     QualityLevel level) const {
  ScoreBreakdown breakdown;
  breakdown.level = level;
  breakdown.binary = tensor;
  const std::vector<std::string>& datasets = tensor.datasets_;

  double iqb_numerator = 0.0;
  double iqb_denominator = 0.0;

  for (UseCase use_case : kAllUseCases) {
    const int w_u = weights_.use_case_weight(use_case);
    double use_case_numerator = 0.0;
    double use_case_denominator = 0.0;
    bool use_case_has_data = false;

    for (Requirement requirement : kAllRequirements) {
      const int w_ur = weights_.requirement_weight(use_case, requirement);

      // Eq. (1): requirement agreement score over present datasets.
      double agreement_numerator = 0.0;
      double agreement_denominator = 0.0;
      // Sum in dataset-name order (datasets_ is sorted): another order
      // could change the last bits of every published score.
      const std::size_t slot = BinaryScoreTensor::slot(use_case, requirement);
      for (std::size_t d = 0; d < datasets.size(); ++d) {
        const BinaryScoreTensor::Cell met =
            tensor.cells_[d * BinaryScoreTensor::kBlock + slot];
        if (met == BinaryScoreTensor::Cell::kAbsent) continue;
        const int w_urd =
            weights_.dataset_weight(use_case, requirement, datasets[d]);
        agreement_numerator +=
            static_cast<double>(w_urd) *
            (met == BinaryScoreTensor::Cell::kTrue ? 1.0 : 0.0);
        agreement_denominator += static_cast<double>(w_urd);
      }
      if (agreement_denominator <= 0.0) {
        breakdown.coverage_warnings.push_back(
            "no dataset covers " + std::string(use_case_name(use_case)) + "/" +
            std::string(requirement_name(requirement)) +
            "; requirement dropped");
        continue;
      }
      const double s_ur = agreement_numerator / agreement_denominator;
      breakdown.requirement_scores[{use_case, requirement}] = s_ur;

      // Eq. (2) accumulation.
      use_case_numerator += static_cast<double>(w_ur) * s_ur;
      use_case_denominator += static_cast<double>(w_ur);
      use_case_has_data = true;
    }

    if (!use_case_has_data || use_case_denominator <= 0.0) {
      breakdown.coverage_warnings.push_back(
          "use case " + std::string(use_case_name(use_case)) +
          " has no scoreable requirement; dropped");
      continue;
    }
    const double s_u = use_case_numerator / use_case_denominator;
    breakdown.use_case_scores[use_case] = s_u;

    // Eq. (4) accumulation.
    iqb_numerator += static_cast<double>(w_u) * s_u;
    iqb_denominator += static_cast<double>(w_u);
  }

  if (iqb_denominator <= 0.0) {
    return make_error(ErrorCode::kEmptyInput,
                      "no use case could be scored (empty tensor or all "
                      "weights zero)");
  }
  breakdown.iqb_score = iqb_numerator / iqb_denominator;
  return breakdown;
}

Result<double> Scorer::score_collapsed(const BinaryScoreTensor& tensor) const {
  // Eq. (5): one triple sum over normalized weights. Normalizers are
  // computed over the same "present cells only" sets as score() so the
  // two evaluations agree exactly in the presence of missing data.
  const std::vector<std::string> datasets = tensor.datasets();

  // Pass 1: per-(u,r) dataset normalizers and per-u requirement
  // normalizers, honouring coverage.
  std::map<std::pair<int, int>, double> dataset_norm;
  std::map<int, double> requirement_norm;
  double use_case_norm = 0.0;
  for (UseCase use_case : kAllUseCases) {
    bool use_case_has_data = false;
    for (Requirement requirement : kAllRequirements) {
      double denom = 0.0;
      for (const std::string& dataset : datasets) {
        if (tensor.get(use_case, requirement, dataset)) {
          denom += static_cast<double>(
              weights_.dataset_weight(use_case, requirement, dataset));
        }
      }
      if (denom > 0.0) {
        dataset_norm[{static_cast<int>(use_case), static_cast<int>(requirement)}] =
            denom;
        requirement_norm[static_cast<int>(use_case)] +=
            static_cast<double>(weights_.requirement_weight(use_case, requirement));
        use_case_has_data = true;
      }
    }
    if (use_case_has_data &&
        requirement_norm[static_cast<int>(use_case)] > 0.0) {
      use_case_norm += static_cast<double>(weights_.use_case_weight(use_case));
    }
  }
  if (use_case_norm <= 0.0) {
    return make_error(ErrorCode::kEmptyInput,
                      "no use case could be scored (empty tensor or all "
                      "weights zero)");
  }

  // Pass 2: the triple sum of eq. (5).
  double score = 0.0;
  for (UseCase use_case : kAllUseCases) {
    auto req_norm_it = requirement_norm.find(static_cast<int>(use_case));
    if (req_norm_it == requirement_norm.end() || req_norm_it->second <= 0.0) {
      continue;
    }
    const double w_u_norm =
        static_cast<double>(weights_.use_case_weight(use_case)) / use_case_norm;
    for (Requirement requirement : kAllRequirements) {
      auto ds_norm_it = dataset_norm.find(
          {static_cast<int>(use_case), static_cast<int>(requirement)});
      if (ds_norm_it == dataset_norm.end()) continue;
      const double w_ur_norm =
          static_cast<double>(weights_.requirement_weight(use_case, requirement)) /
          req_norm_it->second;
      for (const std::string& dataset : datasets) {
        auto met = tensor.get(use_case, requirement, dataset);
        if (!met) continue;
        const double w_urd_norm =
            static_cast<double>(
                weights_.dataset_weight(use_case, requirement, dataset)) /
            ds_norm_it->second;
        score += w_u_norm * w_ur_norm * w_urd_norm * (*met ? 1.0 : 0.0);
      }
    }
  }
  return score;
}

Result<ScoreBreakdown> Scorer::score_region(
    const datasets::AggregateTable& aggregates, const std::string& region,
    const std::vector<std::string>& datasets, QualityLevel level) const {
  return score(binarize(aggregates, region, datasets, level), level);
}

std::map<std::string, double> Scorer::renormalized_dataset_weights(
    UseCase use_case, Requirement requirement,
    const std::vector<std::string>& present_datasets) const {
  return robust::renormalize_weights(
      present_datasets, [this, use_case, requirement](const std::string& d) {
        return weights_.dataset_weight(use_case, requirement, d);
      });
}

}  // namespace iqb::core
