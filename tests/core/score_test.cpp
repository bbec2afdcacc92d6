// Scorer tests, including the property tests for the paper's algebra:
// eq. (3) is the collapse of (1)+(2), eq. (5) of (3)+(4); the factored
// and collapsed evaluations must agree exactly for arbitrary weights
// and tensors, including with missing cells.
#include "iqb/core/score.hpp"

#include <gtest/gtest.h>

#include "iqb/util/rng.hpp"

namespace iqb::core {
namespace {

const std::vector<std::string> kPanel{"ndt", "cloudflare", "ookla"};

Scorer paper_scorer() {
  return Scorer(ThresholdTable::paper_defaults(),
                WeightTable::paper_defaults(kPanel));
}

BinaryScoreTensor full_tensor(bool met) {
  BinaryScoreTensor tensor;
  for (UseCase use_case : kAllUseCases) {
    for (Requirement requirement : kAllRequirements) {
      for (const std::string& dataset : kPanel) {
        tensor.set(use_case, requirement, dataset, met);
      }
    }
  }
  return tensor;
}

/// Random tensor where each cell is present with p_present and, when
/// present, true with p_met.
BinaryScoreTensor random_tensor(util::Rng& rng, double p_present,
                                double p_met) {
  BinaryScoreTensor tensor;
  for (UseCase use_case : kAllUseCases) {
    for (Requirement requirement : kAllRequirements) {
      for (const std::string& dataset : kPanel) {
        if (rng.bernoulli(p_present)) {
          tensor.set(use_case, requirement, dataset, rng.bernoulli(p_met));
        }
      }
    }
  }
  return tensor;
}

WeightTable random_weights(util::Rng& rng) {
  WeightTable weights;
  for (UseCase use_case : kAllUseCases) {
    (void)weights.set_use_case_weight(
        use_case, static_cast<int>(rng.uniform_int(1, 5)));
    for (Requirement requirement : kAllRequirements) {
      (void)weights.set_requirement_weight(
          use_case, requirement, static_cast<int>(rng.uniform_int(1, 5)));
      for (const std::string& dataset : kPanel) {
        (void)weights.set_dataset_weight(
            use_case, requirement, dataset,
            static_cast<int>(rng.uniform_int(1, 5)));
      }
    }
  }
  return weights;
}

TEST(Scorer, AllMetGivesOne) {
  auto breakdown = paper_scorer().score(full_tensor(true), QualityLevel::kHigh);
  ASSERT_TRUE(breakdown.ok());
  EXPECT_DOUBLE_EQ(breakdown->iqb_score, 1.0);
  for (const auto& [use_case, score] : breakdown->use_case_scores) {
    EXPECT_DOUBLE_EQ(score, 1.0);
  }
  EXPECT_TRUE(breakdown->coverage_warnings.empty());
}

TEST(Scorer, NoneMetGivesZero) {
  auto breakdown = paper_scorer().score(full_tensor(false), QualityLevel::kHigh);
  ASSERT_TRUE(breakdown.ok());
  EXPECT_DOUBLE_EQ(breakdown->iqb_score, 0.0);
}

TEST(Scorer, EmptyTensorIsError) {
  BinaryScoreTensor empty;
  auto breakdown = paper_scorer().score(empty, QualityLevel::kHigh);
  ASSERT_FALSE(breakdown.ok());
  EXPECT_EQ(breakdown.error().code, util::ErrorCode::kEmptyInput);
  EXPECT_FALSE(paper_scorer().score_collapsed(empty).ok());
}

TEST(Scorer, HandWorkedExample) {
  // Single use case contributes: gaming with Table 1 weights
  // down=4, up=4, latency=5, loss=4 (sum 17). Equal dataset weights.
  // down met by all 3 datasets (S=1), latency met by 2 of 3 (S=2/3),
  // up met by none (S=0), loss by all (S=1).
  // S_gaming = (4*1 + 4*0 + 5*(2/3) + 4*1) / 17 = (4 + 10/3 + 4)/17.
  BinaryScoreTensor tensor;
  for (const std::string& dataset : kPanel) {
    tensor.set(UseCase::kGaming, Requirement::kDownloadThroughput, dataset, true);
    tensor.set(UseCase::kGaming, Requirement::kUploadThroughput, dataset, false);
    tensor.set(UseCase::kGaming, Requirement::kPacketLoss, dataset, true);
  }
  tensor.set(UseCase::kGaming, Requirement::kLatency, "ndt", true);
  tensor.set(UseCase::kGaming, Requirement::kLatency, "cloudflare", true);
  tensor.set(UseCase::kGaming, Requirement::kLatency, "ookla", false);

  auto breakdown = paper_scorer().score(tensor, QualityLevel::kHigh);
  ASSERT_TRUE(breakdown.ok());
  const double expected_gaming = (4.0 + 10.0 / 3.0 + 4.0) / 17.0;
  EXPECT_NEAR(breakdown->use_case_scores.at(UseCase::kGaming), expected_gaming,
              1e-12);
  // Only gaming has data, so S_IQB == S_gaming.
  EXPECT_NEAR(breakdown->iqb_score, expected_gaming, 1e-12);
  // Five other use cases were dropped.
  EXPECT_EQ(breakdown->coverage_warnings.size(), 5u * 4u + 5u);
}

TEST(Scorer, RequirementAgreementIsWeightedAverage) {
  // Unequal dataset weights: ndt=4, cloudflare=1, ookla=1. Only ndt
  // meets -> S_{u,r} = 4/6.
  WeightTable weights = WeightTable::paper_defaults(kPanel);
  (void)weights.set_dataset_weight(UseCase::kGaming, Requirement::kLatency,
                                   "ndt", 4);
  Scorer scorer(ThresholdTable::paper_defaults(), weights);
  BinaryScoreTensor tensor;
  tensor.set(UseCase::kGaming, Requirement::kLatency, "ndt", true);
  tensor.set(UseCase::kGaming, Requirement::kLatency, "cloudflare", false);
  tensor.set(UseCase::kGaming, Requirement::kLatency, "ookla", false);
  auto breakdown = scorer.score(tensor, QualityLevel::kHigh);
  ASSERT_TRUE(breakdown.ok());
  EXPECT_NEAR(
      breakdown->requirement_scores.at({UseCase::kGaming, Requirement::kLatency}),
      4.0 / 6.0, 1e-12);
}

TEST(Scorer, MissingDatasetDropsFromNormalization) {
  // Loss covered only by ndt and cloudflare (the Ookla gap): agreement
  // averages over the two present datasets.
  BinaryScoreTensor tensor;
  tensor.set(UseCase::kGaming, Requirement::kPacketLoss, "ndt", true);
  tensor.set(UseCase::kGaming, Requirement::kPacketLoss, "cloudflare", false);
  auto breakdown = paper_scorer().score(tensor, QualityLevel::kHigh);
  ASSERT_TRUE(breakdown.ok());
  EXPECT_NEAR(breakdown->requirement_scores.at(
                  {UseCase::kGaming, Requirement::kPacketLoss}),
              0.5, 1e-12);
}

TEST(Scorer, ZeroWeightRequirementContributesNothing) {
  WeightTable weights = WeightTable::paper_defaults(kPanel);
  (void)weights.set_requirement_weight(UseCase::kGaming,
                                       Requirement::kUploadThroughput, 0);
  Scorer scorer(ThresholdTable::paper_defaults(), weights);
  // Upload fails everywhere, everything else passes: with weight 0 on
  // upload, gaming still scores 1.
  BinaryScoreTensor tensor;
  for (Requirement requirement : kAllRequirements) {
    for (const std::string& dataset : kPanel) {
      tensor.set(UseCase::kGaming, requirement, dataset,
                 requirement != Requirement::kUploadThroughput);
    }
  }
  auto breakdown = scorer.score(tensor, QualityLevel::kHigh);
  ASSERT_TRUE(breakdown.ok());
  EXPECT_DOUBLE_EQ(breakdown->use_case_scores.at(UseCase::kGaming), 1.0);
}

TEST(Scorer, MonotonicityFlippingCellUpNeverLowersScore) {
  util::Rng rng(71);
  for (int trial = 0; trial < 30; ++trial) {
    WeightTable weights = random_weights(rng);
    Scorer scorer(ThresholdTable::paper_defaults(), weights);
    BinaryScoreTensor tensor = random_tensor(rng, 0.8, 0.5);
    auto base = scorer.score(tensor, QualityLevel::kHigh);
    if (!base.ok()) continue;
    // Flip one random present-false cell to true.
    for (UseCase use_case : kAllUseCases) {
      for (Requirement requirement : kAllRequirements) {
        for (const std::string& dataset : kPanel) {
          auto met = tensor.get(use_case, requirement, dataset);
          if (met && !*met) {
            BinaryScoreTensor flipped = tensor;
            flipped.set(use_case, requirement, dataset, true);
            auto improved = scorer.score(flipped, QualityLevel::kHigh);
            ASSERT_TRUE(improved.ok());
            EXPECT_GE(improved->iqb_score, base->iqb_score - 1e-12);
          }
        }
      }
    }
  }
}

TEST(Scorer, ScoreAlwaysInUnitInterval) {
  util::Rng rng(72);
  for (int trial = 0; trial < 200; ++trial) {
    Scorer scorer(ThresholdTable::paper_defaults(), random_weights(rng));
    auto tensor = random_tensor(rng, 0.7, 0.5);
    auto breakdown = scorer.score(tensor, QualityLevel::kHigh);
    if (!breakdown.ok()) continue;
    EXPECT_GE(breakdown->iqb_score, 0.0);
    EXPECT_LE(breakdown->iqb_score, 1.0);
    for (const auto& [key, score] : breakdown->requirement_scores) {
      EXPECT_GE(score, 0.0);
      EXPECT_LE(score, 1.0);
    }
  }
}

/// The paper's central algebraic identity, eq. (5) == eqs. (1,2,4),
/// over random weights and tensors with and without missing cells.
class CollapsedEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(CollapsedEquivalenceTest, FactoredEqualsCollapsed) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const double p_present = GetParam() % 2 == 0 ? 1.0 : 0.7;
  Scorer scorer(ThresholdTable::paper_defaults(), random_weights(rng));
  auto tensor = random_tensor(rng, p_present, 0.5);
  auto factored = scorer.score(tensor, QualityLevel::kHigh);
  auto collapsed = scorer.score_collapsed(tensor);
  ASSERT_EQ(factored.ok(), collapsed.ok());
  if (factored.ok()) {
    EXPECT_NEAR(factored->iqb_score, collapsed.value(), 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTrials, CollapsedEquivalenceTest,
                         ::testing::Range(1, 41));

TEST(BinaryScoreTensor, SetOrderDoesNotChangeTheTensor) {
  // Names inside and outside the default panel, in no particular order.
  const std::vector<std::string> names{"ookla", "zeta_lab", "ndt", "alpha",
                                       "cloudflare", "m-lab 2"};
  struct Cell {
    UseCase use_case;
    Requirement requirement;
    std::string dataset;
    bool met;
  };
  util::Rng rng(5);
  std::vector<Cell> cells;
  for (const std::string& dataset : names) {
    if (dataset == "zeta_lab") continue;  // never set: absent everywhere
    for (UseCase use_case : kAllUseCases) {
      for (Requirement requirement : kAllRequirements) {
        if (rng.bernoulli(0.6)) {
          cells.push_back({use_case, requirement, dataset, rng.bernoulli(0.5)});
        }
      }
    }
  }
  BinaryScoreTensor forward, backward, shuffled;
  for (const Cell& cell : cells) {
    forward.set(cell.use_case, cell.requirement, cell.dataset, cell.met);
  }
  for (auto it = cells.rbegin(); it != cells.rend(); ++it) {
    backward.set(it->use_case, it->requirement, it->dataset, it->met);
  }
  std::vector<Cell> order = cells;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[static_cast<std::size_t>(rng.uniform_int(
                                0, static_cast<std::int64_t>(i) - 1))]);
  }
  for (const Cell& cell : order) {
    shuffled.set(cell.use_case, cell.requirement, cell.dataset, !cell.met);
    shuffled.set(cell.use_case, cell.requirement, cell.dataset, cell.met);
  }

  const std::vector<std::string> expected{"alpha", "cloudflare", "m-lab 2",
                                          "ndt", "ookla"};
  for (const BinaryScoreTensor* tensor : {&forward, &backward, &shuffled}) {
    EXPECT_EQ(tensor->datasets(), expected);
    EXPECT_EQ(tensor->size(), cells.size());
    for (const std::string& dataset : names) {
      for (UseCase use_case : kAllUseCases) {
        for (Requirement requirement : kAllRequirements) {
          EXPECT_EQ(tensor->get(use_case, requirement, dataset),
                    forward.get(use_case, requirement, dataset));
        }
      }
    }
  }
  for (const Cell& cell : cells) {
    EXPECT_EQ(forward.get(cell.use_case, cell.requirement, cell.dataset),
              std::optional<bool>(cell.met));
  }
}

TEST(Scorer, BinarizeAgainstAggregates) {
  datasets::AggregateTable aggregates;
  auto put = [&aggregates](const std::string& dataset, datasets::Metric metric,
                           double value) {
    datasets::AggregateCell cell;
    cell.region = "r";
    cell.dataset = dataset;
    cell.metric = metric;
    cell.value = value;
    cell.sample_count = 10;
    aggregates.put(cell);
  };
  // 120 Mb/s down, 30 up, 30 ms latency, 0.2% loss on ndt only.
  put("ndt", datasets::Metric::kDownload, 120.0);
  put("ndt", datasets::Metric::kUpload, 30.0);
  put("ndt", datasets::Metric::kLatency, 30.0);
  put("ndt", datasets::Metric::kLoss, 0.002);

  Scorer scorer = paper_scorer();
  auto tensor = scorer.binarize(aggregates, "r", kPanel, QualityLevel::kHigh);
  // Gaming high: down>=100 yes, up>=10 yes, latency<=50 yes, loss<=0.5% yes.
  EXPECT_TRUE(*tensor.get(UseCase::kGaming, Requirement::kDownloadThroughput, "ndt"));
  EXPECT_TRUE(*tensor.get(UseCase::kGaming, Requirement::kLatency, "ndt"));
  EXPECT_TRUE(*tensor.get(UseCase::kGaming, Requirement::kPacketLoss, "ndt"));
  // Video conferencing high: up >= 100 -> no.
  EXPECT_FALSE(*tensor.get(UseCase::kVideoConferencing,
                           Requirement::kUploadThroughput, "ndt"));
  // Online backup high: up >= 200 -> no; latency <= 100 -> yes.
  EXPECT_FALSE(
      *tensor.get(UseCase::kOnlineBackup, Requirement::kUploadThroughput, "ndt"));
  // Datasets without aggregates have no cells.
  EXPECT_FALSE(tensor
                   .get(UseCase::kGaming, Requirement::kDownloadThroughput,
                        "ookla")
                   .has_value());
}

TEST(Scorer, MinimumLevelIsEasierThanHigh) {
  datasets::AggregateTable aggregates;
  datasets::AggregateCell cell;
  cell.region = "r";
  cell.dataset = "ndt";
  cell.sample_count = 5;
  cell.metric = datasets::Metric::kDownload;
  cell.value = 30.0;  // meets min (10/25) but not high (50/100) mostly
  aggregates.put(cell);
  cell.metric = datasets::Metric::kUpload;
  cell.value = 12.0;
  aggregates.put(cell);
  cell.metric = datasets::Metric::kLatency;
  cell.value = 80.0;
  aggregates.put(cell);
  cell.metric = datasets::Metric::kLoss;
  cell.value = 0.008;
  aggregates.put(cell);

  Scorer scorer = paper_scorer();
  auto high = scorer.score_region(aggregates, "r", kPanel, QualityLevel::kHigh);
  auto minimum =
      scorer.score_region(aggregates, "r", kPanel, QualityLevel::kMinimum);
  ASSERT_TRUE(high.ok());
  ASSERT_TRUE(minimum.ok());
  EXPECT_GT(minimum->iqb_score, high->iqb_score);
}

}  // namespace
}  // namespace iqb::core
