#include <gtest/gtest.h>

#include <cstdint>

#include "iqb/core/taxonomy.hpp"
#include "iqb/core/thresholds.hpp"

namespace iqb::core {
namespace {

TEST(Taxonomy, SixUseCasesFourRequirements) {
  EXPECT_EQ(kAllUseCases.size(), 6u);
  EXPECT_EQ(kAllRequirements.size(), 4u);
  EXPECT_EQ(kAllQualityLevels.size(), 2u);
}

TEST(Taxonomy, NameRoundTrips) {
  for (UseCase use_case : kAllUseCases) {
    EXPECT_EQ(use_case_from_name(use_case_name(use_case)).value(), use_case);
  }
  for (Requirement requirement : kAllRequirements) {
    EXPECT_EQ(requirement_from_name(requirement_name(requirement)).value(),
              requirement);
  }
  for (QualityLevel level : kAllQualityLevels) {
    EXPECT_EQ(quality_level_from_name(quality_level_name(level)).value(), level);
  }
  EXPECT_FALSE(use_case_from_name("bogus").ok());
  EXPECT_FALSE(requirement_from_name("bogus").ok());
  EXPECT_FALSE(quality_level_from_name("bogus").ok());
}

TEST(Taxonomy, RequirementMetricMapping) {
  EXPECT_EQ(requirement_metric(Requirement::kDownloadThroughput),
            datasets::Metric::kDownload);
  EXPECT_EQ(requirement_metric(Requirement::kUploadThroughput),
            datasets::Metric::kUpload);
  EXPECT_EQ(requirement_metric(Requirement::kLatency),
            datasets::Metric::kLatency);
  EXPECT_EQ(requirement_metric(Requirement::kPacketLoss),
            datasets::Metric::kLoss);
}

TEST(Taxonomy, RequirementDirections) {
  EXPECT_TRUE(requirement_higher_is_better(Requirement::kDownloadThroughput));
  EXPECT_TRUE(requirement_higher_is_better(Requirement::kUploadThroughput));
  EXPECT_FALSE(requirement_higher_is_better(Requirement::kLatency));
  EXPECT_FALSE(requirement_higher_is_better(Requirement::kPacketLoss));
}

TEST(Threshold, MetByHonoursDirection) {
  Threshold throughput{25.0};
  EXPECT_TRUE(throughput.met_by(Requirement::kDownloadThroughput, 30.0));
  EXPECT_TRUE(throughput.met_by(Requirement::kDownloadThroughput, 25.0));
  EXPECT_FALSE(throughput.met_by(Requirement::kDownloadThroughput, 24.9));

  Threshold latency{50.0};
  EXPECT_TRUE(latency.met_by(Requirement::kLatency, 40.0));
  EXPECT_TRUE(latency.met_by(Requirement::kLatency, 50.0));
  EXPECT_FALSE(latency.met_by(Requirement::kLatency, 50.1));
}

// ---- Fig. 2 exact values --------------------------------------------

struct Fig2Row {
  UseCase use_case;
  // gtest prints a parameter that has no PrintTo as its raw bytes, and
  // ctest names each case after that print. Left as implicit padding
  // these four bytes hold whatever the stack held, so the case names
  // changed from build to build; spelled out and zeroed they are stable.
  std::uint32_t padding;
  double down_min, down_high, up_min, up_high;
  double lat_min, lat_high;
  double loss_min_pct, loss_high_pct;
};

class Fig2Test : public ::testing::TestWithParam<Fig2Row> {};

TEST_P(Fig2Test, PublishedCellValues) {
  const Fig2Row row = GetParam();
  const ThresholdTable table = ThresholdTable::paper_defaults();
  using R = Requirement;
  using L = QualityLevel;
  EXPECT_DOUBLE_EQ(table.get(row.use_case, R::kDownloadThroughput, L::kMinimum)->value,
                   row.down_min);
  EXPECT_DOUBLE_EQ(table.get(row.use_case, R::kDownloadThroughput, L::kHigh)->value,
                   row.down_high);
  EXPECT_DOUBLE_EQ(table.get(row.use_case, R::kUploadThroughput, L::kMinimum)->value,
                   row.up_min);
  EXPECT_DOUBLE_EQ(table.get(row.use_case, R::kUploadThroughput, L::kHigh)->value,
                   row.up_high);
  EXPECT_DOUBLE_EQ(table.get(row.use_case, R::kLatency, L::kMinimum)->value,
                   row.lat_min);
  EXPECT_DOUBLE_EQ(table.get(row.use_case, R::kLatency, L::kHigh)->value,
                   row.lat_high);
  EXPECT_DOUBLE_EQ(table.get(row.use_case, R::kPacketLoss, L::kMinimum)->value,
                   row.loss_min_pct / 100.0);
  EXPECT_DOUBLE_EQ(table.get(row.use_case, R::kPacketLoss, L::kHigh)->value,
                   row.loss_high_pct / 100.0);
}

INSTANTIATE_TEST_SUITE_P(
    PaperFig2, Fig2Test,
    ::testing::Values(
        // Upload-high "Other" encoded as the minimum value (10); video
        // streaming download-high "50-100" encoded as 100. See DESIGN.md.
        Fig2Row{UseCase::kWebBrowsing, 0, 10, 100, 10, 10, 100, 50, 1.0, 0.5},
        Fig2Row{UseCase::kVideoStreaming, 0, 25, 100, 10, 10, 100, 50, 1.0, 0.1},
        Fig2Row{UseCase::kVideoConferencing, 0, 10, 100, 25, 100, 50, 20, 0.5, 0.1},
        Fig2Row{UseCase::kAudioStreaming, 0, 10, 50, 10, 50, 100, 50, 1.0, 0.1},
        Fig2Row{UseCase::kOnlineBackup, 0, 10, 10, 25, 200, 100, 100, 1.0, 0.1},
        Fig2Row{UseCase::kGaming, 0, 10, 100, 10, 10, 100, 50, 1.0, 0.5}),
    [](const ::testing::TestParamInfo<Fig2Row>& info) {
      return std::string(use_case_name(info.param.use_case));
    });

TEST(ThresholdTable, PaperDefaultsCompleteAndConsistent) {
  const ThresholdTable table = ThresholdTable::paper_defaults();
  EXPECT_TRUE(table.is_complete());
  EXPECT_EQ(table.size(), 6u * 4u * 2u);
  EXPECT_TRUE(table.validate().ok());
}

TEST(ThresholdTable, EmptyTableLookupsFail) {
  const ThresholdTable table;
  EXPECT_FALSE(table.is_complete());
  EXPECT_FALSE(table
                   .get(UseCase::kGaming, Requirement::kLatency,
                        QualityLevel::kHigh)
                   .ok());
}

TEST(ThresholdTable, SetValidation) {
  ThresholdTable table;
  EXPECT_FALSE(table
                   .set(UseCase::kGaming, Requirement::kLatency,
                        QualityLevel::kHigh, -5.0)
                   .ok());
  EXPECT_FALSE(table
                   .set(UseCase::kGaming, Requirement::kPacketLoss,
                        QualityLevel::kHigh, 1.5)
                   .ok());
  EXPECT_TRUE(table
                  .set(UseCase::kGaming, Requirement::kPacketLoss,
                       QualityLevel::kHigh, 0.005)
                  .ok());
}

TEST(ThresholdTable, ValidateCatchesInvertedLevels) {
  ThresholdTable table;
  // High-quality latency *looser* than minimum: inconsistent.
  (void)table.set(UseCase::kGaming, Requirement::kLatency,
                  QualityLevel::kMinimum, 50.0);
  (void)table.set(UseCase::kGaming, Requirement::kLatency, QualityLevel::kHigh,
                  100.0);
  EXPECT_FALSE(table.validate().ok());
}

TEST(ThresholdTable, ValidateCatchesInvertedThroughput) {
  ThresholdTable table;
  (void)table.set(UseCase::kGaming, Requirement::kDownloadThroughput,
                  QualityLevel::kMinimum, 100.0);
  (void)table.set(UseCase::kGaming, Requirement::kDownloadThroughput,
                  QualityLevel::kHigh, 10.0);
  EXPECT_FALSE(table.validate().ok());
}

TEST(ThresholdTable, JsonRoundTrip) {
  const ThresholdTable original = ThresholdTable::paper_defaults();
  auto restored = ThresholdTable::from_json(original.to_json());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value(), original);
}

TEST(ThresholdTable, JsonRejectsUnknownNames) {
  auto bad_use_case =
      util::parse_json(R"({"flying": {"latency": {"high": 10}}})").value();
  EXPECT_FALSE(ThresholdTable::from_json(bad_use_case).ok());
  auto bad_requirement =
      util::parse_json(R"({"gaming": {"smell": {"high": 10}}})").value();
  EXPECT_FALSE(ThresholdTable::from_json(bad_requirement).ok());
  auto bad_level =
      util::parse_json(R"({"gaming": {"latency": {"superb": 10}}})").value();
  EXPECT_FALSE(ThresholdTable::from_json(bad_level).ok());
  auto bad_value =
      util::parse_json(R"({"gaming": {"latency": {"high": "fast"}}})").value();
  EXPECT_FALSE(ThresholdTable::from_json(bad_value).ok());
}

TEST(ThresholdTable, PartialTableAllowed) {
  auto json = util::parse_json(
      R"({"gaming": {"latency": {"minimum": 100, "high": 50}}})").value();
  auto table = ThresholdTable::from_json(json);
  ASSERT_TRUE(table.ok());
  EXPECT_FALSE(table->is_complete());
  EXPECT_TRUE(table->validate().ok());
  EXPECT_DOUBLE_EQ(
      table->get(UseCase::kGaming, Requirement::kLatency, QualityLevel::kHigh)
          ->value,
      50.0);
}

}  // namespace
}  // namespace iqb::core
