#include "iqb/datasets/importers.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "iqb/robust/quarantine.hpp"

namespace iqb::datasets {
namespace {

using robust::IngestPolicy;
using robust::Quarantine;

constexpr const char* kOoklaCsv =
    "quadkey,avg_d_kbps,avg_u_kbps,avg_lat_ms,tests,devices\n"
    "0231,100000,20000,15,80,12\n"
    "0232,50000,10000,25,20,5\n"
    "0233,0,0,0,0,0\n";  // empty tile, skipped

TEST(OoklaImport, PerTileRegions) {
  auto table = import_ookla_tiles_csv(kOoklaCsv);
  ASSERT_TRUE(table.ok());
  // Two non-empty tiles x three metrics.
  EXPECT_EQ(table->size(), 6u);
  auto down = table->get("0231", "ookla", Metric::kDownload);
  ASSERT_TRUE(down.ok());
  EXPECT_DOUBLE_EQ(down->value, 100.0);  // kbps -> Mb/s
  EXPECT_EQ(down->sample_count, 80u);
  EXPECT_DOUBLE_EQ(table->get("0232", "ookla", Metric::kLatency)->value, 25.0);
}

TEST(OoklaImport, RegionOverrideMergesWeighted) {
  auto table = import_ookla_tiles_csv(kOoklaCsv, "my_city");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->size(), 3u);
  auto down = table->get("my_city", "ookla", Metric::kDownload);
  ASSERT_TRUE(down.ok());
  // Test-weighted mean: (100000*80 + 50000*20) / 100 / 1000 = 90 Mb/s.
  EXPECT_DOUBLE_EQ(down->value, 90.0);
  EXPECT_EQ(down->sample_count, 100u);
  // Latency: (15*80 + 25*20)/100 = 17 ms.
  EXPECT_DOUBLE_EQ(table->get("my_city", "ookla", Metric::kLatency)->value,
                   17.0);
}

TEST(OoklaImport, NoLossCellsEver) {
  auto table = import_ookla_tiles_csv(kOoklaCsv, "r");
  ASSERT_TRUE(table.ok());
  EXPECT_FALSE(table->contains("r", "ookla", Metric::kLoss));
}

TEST(OoklaImport, Errors) {
  EXPECT_FALSE(import_ookla_tiles_csv("").ok());
  EXPECT_FALSE(import_ookla_tiles_csv("a,b\n1,2\n").ok());  // wrong columns
  EXPECT_FALSE(import_ookla_tiles_csv(
                   "quadkey,avg_d_kbps,avg_u_kbps,avg_lat_ms,tests\n"
                   "0,abc,1,1,1\n")
                   .ok());  // malformed number
  EXPECT_FALSE(import_ookla_tiles_csv(
                   "quadkey,avg_d_kbps,avg_u_kbps,avg_lat_ms,tests\n"
                   "0,-5,1,1,1\n")
                   .ok());  // negative value
  // All-empty tiles.
  EXPECT_FALSE(import_ookla_tiles_csv(
                   "quadkey,avg_d_kbps,avg_u_kbps,avg_lat_ms,tests\n"
                   "0,1,1,1,0\n")
                   .ok());
}

constexpr const char* kNdtCsv =
    "date,client_region,client_asn_name,direction,throughput_mbps,"
    "min_rtt_ms,loss_rate,extra\n"
    "2025-03-01,metro,AS1 FiberCo,download,250.5,12.5,0.001,x\n"
    "2025-03-01,metro,AS1 FiberCo,upload,180.0,,,x\n"
    "2025-03-02,rural,AS2 WispNet,download,8.2,45.0,0.02,x\n";

TEST(NdtImport, PerTestRecords) {
  auto records = import_ndt_unified_csv(kNdtCsv);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 3u);
  const MeasurementRecord& download = (*records)[0];
  EXPECT_EQ(download.dataset, "ndt");
  EXPECT_EQ(download.region, "metro");
  EXPECT_EQ(download.isp, "AS1 FiberCo");
  EXPECT_DOUBLE_EQ(download.download->value(), 250.5);
  EXPECT_DOUBLE_EQ(download.latency->value(), 12.5);
  EXPECT_DOUBLE_EQ(download.loss->fraction(), 0.001);
  EXPECT_FALSE(download.upload.has_value());

  const MeasurementRecord& upload = (*records)[1];
  EXPECT_DOUBLE_EQ(upload.upload->value(), 180.0);
  EXPECT_FALSE(upload.download.has_value());
  EXPECT_FALSE(upload.latency.has_value());
  EXPECT_FALSE(upload.loss.has_value());
}

TEST(NdtImport, FeedsThePipeline) {
  auto records = import_ndt_unified_csv(kNdtCsv);
  ASSERT_TRUE(records.ok());
  RecordStore store;
  EXPECT_EQ(store.add_all(std::move(records).value()), 0u);
  auto table = aggregate(store);
  EXPECT_TRUE(table.contains("metro", "ndt", Metric::kDownload));
  EXPECT_TRUE(table.contains("metro", "ndt", Metric::kUpload));
  EXPECT_TRUE(table.contains("rural", "ndt", Metric::kLoss));
}

TEST(NdtImport, Errors) {
  EXPECT_FALSE(import_ndt_unified_csv("").ok());
  EXPECT_FALSE(import_ndt_unified_csv("a,b\n1,2\n").ok());
  EXPECT_FALSE(import_ndt_unified_csv(
                   "date,client_region,client_asn_name,direction,"
                   "throughput_mbps,min_rtt_ms,loss_rate\n"
                   "2025-03-01,r,a,sideways,1,,\n")
                   .ok());  // bad direction
  EXPECT_FALSE(import_ndt_unified_csv(
                   "date,client_region,client_asn_name,direction,"
                   "throughput_mbps,min_rtt_ms,loss_rate\n"
                   "not-a-date,r,a,download,1,,\n")
                   .ok());
  EXPECT_FALSE(import_ndt_unified_csv(
                   "date,client_region,client_asn_name,direction,"
                   "throughput_mbps,min_rtt_ms,loss_rate\n"
                   "2025-03-01,r,a,download,1,,1.7\n")
                   .ok());  // loss out of range
}

// Table-driven corruption matrix: every corruption shape against both
// importers in both modes. Strict must reject the file; lenient must
// either import what is salvageable (quarantining the noise) or, when
// nothing is salvageable, still fail.
struct CorruptionCase {
  const char* name;
  const char* csv;
  /// Rows the lenient import should quarantine (0 means the failure is
  /// structural — header/empty — and lenient fails like strict).
  std::size_t want_quarantined;
  /// Usable rows surviving a lenient import (0 -> import still fails).
  std::size_t want_survivors;
};

// gtest prints a parameter that has no PrintTo as its raw bytes, and
// ctest names each case after that print, so CorruptionCase's two
// pointers put ASLR-randomised bits into its case names. Strict mode
// reads only the bytes, so its cases run as StrictCase, which prints as
// its name. The lenient cases still print CorruptionCase's bytes (see
// ROADMAP, "stable importer test names").
struct StrictCase {
  const char* name;
  const char* csv;
};

void PrintTo(const StrictCase& c, std::ostream* os) { *os << c.name; }

std::vector<StrictCase> strict_cases(std::span<const CorruptionCase> cases) {
  std::vector<StrictCase> out;
  for (const CorruptionCase& c : cases) out.push_back({c.name, c.csv});
  return out;
}

constexpr CorruptionCase kOoklaCases[] = {
    {"empty_file", "", 0, 0},
    {"truncated_header", "quadkey,avg_d_kbps,avg_u\n", 0, 0},
    {"non_numeric",
     "quadkey,avg_d_kbps,avg_u_kbps,avg_lat_ms,tests\n"
     "0,???,1,1,1\n"
     "0,1000,200,10,5\n",
     1, 1},
    {"nan_value",
     "quadkey,avg_d_kbps,avg_u_kbps,avg_lat_ms,tests\n"
     "0,NaN,1,1,1\n"
     "0,1000,200,10,5\n",
     1, 1},
    {"inf_value",
     "quadkey,avg_d_kbps,avg_u_kbps,avg_lat_ms,tests\n"
     "0,1000,Inf,10,5\n"
     "0,1000,200,10,5\n",
     1, 1},
    {"negative_value",
     "quadkey,avg_d_kbps,avg_u_kbps,avg_lat_ms,tests\n"
     "0,-5,1,1,1\n"
     "0,1000,200,10,5\n",
     1, 1},
    {"all_rows_bad",
     "quadkey,avg_d_kbps,avg_u_kbps,avg_lat_ms,tests\n"
     "0,???,1,1,1\n"
     "1,also bad,1,1,1\n",
     2, 0},
};

class OoklaStrictTest : public ::testing::TestWithParam<StrictCase> {};

TEST_P(OoklaStrictTest, Rejects) {
  EXPECT_FALSE(import_ookla_tiles_csv(GetParam().csv).ok());
}

INSTANTIATE_TEST_SUITE_P(
    Corruption, OoklaStrictTest, ::testing::ValuesIn(strict_cases(kOoklaCases)),
    [](const ::testing::TestParamInfo<StrictCase>& info) {
      return info.param.name;
    });

class OoklaCorruptionTest : public ::testing::TestWithParam<CorruptionCase> {};

TEST_P(OoklaCorruptionTest, LenientQuarantinesAndSalvages) {
  const CorruptionCase& c = GetParam();
  Quarantine quarantine;
  auto table = import_ookla_tiles_csv(c.csv, "r",
                                      IngestPolicy::lenient(/*max=*/0.9),
                                      &quarantine);
  EXPECT_EQ(quarantine.count(), c.want_quarantined) << c.name;
  if (c.want_survivors > 0) {
    ASSERT_TRUE(table.ok()) << c.name << ": " << table.error().to_string();
    EXPECT_TRUE(table->contains("r", "ookla", Metric::kDownload));
  } else {
    EXPECT_FALSE(table.ok()) << c.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corruption, OoklaCorruptionTest, ::testing::ValuesIn(kOoklaCases),
    [](const ::testing::TestParamInfo<CorruptionCase>& info) {
      return info.param.name;
    });

constexpr CorruptionCase kNdtCases[] = {
    {"empty_file", "", 0, 0},
    {"truncated_header", "date,client_region,client_a\n", 0, 0},
    {"non_numeric_throughput",
     "date,client_region,client_asn_name,direction,throughput_mbps,"
     "min_rtt_ms,loss_rate\n"
     "2025-03-01,r,a,download,???,,\n"
     "2025-03-01,r,a,download,100,10,0.01\n",
     1, 1},
    {"nan_min_rtt",
     "date,client_region,client_asn_name,direction,throughput_mbps,"
     "min_rtt_ms,loss_rate\n"
     "2025-03-01,r,a,download,100,nan,\n"
     "2025-03-01,r,a,download,100,10,0.01\n",
     1, 1},
    {"inf_throughput",
     "date,client_region,client_asn_name,direction,throughput_mbps,"
     "min_rtt_ms,loss_rate\n"
     "2025-03-01,r,a,upload,inf,,\n"
     "2025-03-01,r,a,upload,50,,\n",
     1, 1},
    {"bad_date_and_direction",
     "date,client_region,client_asn_name,direction,throughput_mbps,"
     "min_rtt_ms,loss_rate\n"
     "not-a-date,r,a,download,100,,\n"
     "2025-03-01,r,a,sideways,100,,\n"
     "2025-03-01,r,a,download,100,10,0.01\n",
     2, 1},
    {"loss_out_of_range",
     "date,client_region,client_asn_name,direction,throughput_mbps,"
     "min_rtt_ms,loss_rate\n"
     "2025-03-01,r,a,download,100,10,1.7\n"
     "2025-03-01,r,a,download,100,10,0.01\n",
     1, 1},
    {"all_rows_bad",
     "date,client_region,client_asn_name,direction,throughput_mbps,"
     "min_rtt_ms,loss_rate\n"
     "x,r,a,download,1,,\n",
     1, 0},
};

class NdtStrictTest : public ::testing::TestWithParam<StrictCase> {};

TEST_P(NdtStrictTest, Rejects) {
  EXPECT_FALSE(import_ndt_unified_csv(GetParam().csv).ok());
}

INSTANTIATE_TEST_SUITE_P(
    Corruption, NdtStrictTest, ::testing::ValuesIn(strict_cases(kNdtCases)),
    [](const ::testing::TestParamInfo<StrictCase>& info) {
      return info.param.name;
    });

class NdtCorruptionTest : public ::testing::TestWithParam<CorruptionCase> {};

TEST_P(NdtCorruptionTest, LenientQuarantinesAndSalvages) {
  const CorruptionCase& c = GetParam();
  Quarantine quarantine;
  auto records = import_ndt_unified_csv(c.csv, IngestPolicy::lenient(0.9),
                                        &quarantine);
  EXPECT_EQ(quarantine.count(), c.want_quarantined) << c.name;
  if (c.want_survivors > 0) {
    ASSERT_TRUE(records.ok()) << c.name << ": " << records.error().to_string();
    EXPECT_EQ(records->size(), c.want_survivors) << c.name;
  } else {
    EXPECT_FALSE(records.ok()) << c.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corruption, NdtCorruptionTest, ::testing::ValuesIn(kNdtCases),
    [](const ::testing::TestParamInfo<CorruptionCase>& info) {
      return info.param.name;
    });

TEST(LenientImport, RejectsWhenErrorRateExceedsPolicy) {
  // 2 of 3 rows bad = 66% error rate; a 25% ceiling must refuse.
  const char* csv =
      "quadkey,avg_d_kbps,avg_u_kbps,avg_lat_ms,tests\n"
      "0,???,1,1,1\n"
      "1,???,1,1,1\n"
      "2,1000,200,10,5\n";
  Quarantine quarantine;
  auto strict_rate = import_ookla_tiles_csv(csv, "r",
                                            IngestPolicy::lenient(0.25),
                                            &quarantine);
  EXPECT_FALSE(strict_rate.ok());
  EXPECT_EQ(quarantine.count(), 2u);
  // The same file passes under a permissive ceiling.
  EXPECT_TRUE(
      import_ookla_tiles_csv(csv, "r", IngestPolicy::lenient(0.9)).ok());
}

TEST(LenientImport, UnusedKnobKeepsStrictSemantics) {
  // A lenient-constructed policy flipped back to strict behaves
  // exactly like the plain overloads.
  IngestPolicy policy = IngestPolicy::lenient();
  policy.mode = robust::IngestMode::kStrict;
  EXPECT_FALSE(import_ndt_unified_csv(
                   "date,client_region,client_asn_name,direction,"
                   "throughput_mbps,min_rtt_ms,loss_rate\n"
                   "2025-03-01,r,a,download,bad,,\n",
                   policy)
                   .ok());
}

}  // namespace
}  // namespace iqb::datasets
