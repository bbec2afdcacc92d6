// The tentpole guarantee, tested end to end: the indexed and parallel
// execution paths produce byte-identical artifacts to the serial scan
// path — same AggregateTable, same RegionResults, same rendered
// reports — on synthetic stores, degraded (missing-dataset) stores,
// and the checked-in example CSV.
#include <gtest/gtest.h>

#include <sstream>

#include "iqb/cli/load.hpp"
#include "iqb/core/pipeline.hpp"
#include "iqb/datasets/aggregate.hpp"
#include "iqb/datasets/io.hpp"
#include "iqb/datasets/synthetic.hpp"
#include "iqb/report/render.hpp"

namespace iqb {
namespace {

datasets::RecordStore synthetic_store() {
  util::Rng rng(1234);
  datasets::SyntheticConfig config;
  config.records_per_dataset = 60;
  std::vector<datasets::MeasurementRecord> records;
  for (const auto& profile : datasets::example_region_profiles()) {
    auto region_records = datasets::generate_region_records(
        profile, datasets::default_dataset_panel(), config, rng);
    records.insert(records.end(), region_records.begin(),
                   region_records.end());
  }
  return datasets::RecordStore(std::move(records));
}

/// A store where one region is missing a panel dataset entirely and
/// another has only one dataset: the degraded-mode scoring inputs.
datasets::RecordStore degraded_store() {
  util::Rng rng(77);
  datasets::SyntheticConfig config;
  config.records_per_dataset = 30;
  const auto panel = datasets::default_dataset_panel();
  const auto profiles = datasets::example_region_profiles();
  std::vector<datasets::MeasurementRecord> records;
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    auto region_panel = panel;
    if (i == 1) region_panel.erase(region_panel.begin());  // drop one dataset
    if (i == 2) region_panel.resize(1);                    // keep only one
    auto region_records = datasets::generate_region_records(
        profiles[i], region_panel, config, rng);
    records.insert(records.end(), region_records.begin(),
                   region_records.end());
  }
  return datasets::RecordStore(std::move(records));
}

void expect_tables_identical(const datasets::RecordStore& store,
                             const datasets::AggregationPolicy& policy) {
  const auto scan = datasets::aggregate_scan(store, policy);
  auto serial_policy = policy;
  serial_policy.threads = 1;
  const auto serial = datasets::aggregate(store, serial_policy);
  auto parallel_policy = policy;
  parallel_policy.threads = 4;
  const auto parallel = datasets::aggregate(store, parallel_policy);

  const std::string scan_csv = datasets::aggregates_to_csv(scan);
  EXPECT_EQ(scan_csv, datasets::aggregates_to_csv(serial));
  EXPECT_EQ(scan_csv, datasets::aggregates_to_csv(parallel));

  // Field-level check too: CSV rendering could mask bit differences.
  ASSERT_EQ(scan.size(), parallel.size());
  for (const auto& cell : scan.cells()) {
    auto other = parallel.get(cell.region, cell.dataset, cell.metric);
    ASSERT_TRUE(other.ok());
    EXPECT_EQ(cell.value, other->value);
    EXPECT_EQ(cell.sample_count, other->sample_count);
    ASSERT_EQ(cell.ci.has_value(), other->ci.has_value());
    if (cell.ci) {
      EXPECT_EQ(cell.ci->lower, other->ci->lower);
      EXPECT_EQ(cell.ci->upper, other->ci->upper);
    }
  }
}

std::string run_report(const datasets::RecordStore& store,
                       std::size_t threads) {
  core::IqbConfig config = core::IqbConfig::paper_defaults();
  config.aggregation.threads = threads;
  core::Pipeline pipeline(std::move(config));
  auto output = pipeline.run(store);
  std::string rendered = report::to_json(output.results).dump(2);
  rendered.append("\n").append(report::comparison_table(output.results));
  for (const auto& result : output.results) {
    rendered.append("\n").append(report::scorecard(result));
  }
  for (const auto& skipped : output.skipped) {
    rendered += "\nskipped " + skipped.to_string();
  }
  return rendered;
}

TEST(ParallelEquivalence, AggregateTablesMatchOnSyntheticStore) {
  expect_tables_identical(synthetic_store(), {});
}

TEST(ParallelEquivalence, AggregateTablesMatchAcrossQuantileMethods) {
  const auto store = synthetic_store();
  for (auto method :
       {stats::QuantileMethod::kNearestRank, stats::QuantileMethod::kLinear,
        stats::QuantileMethod::kHazen,
        stats::QuantileMethod::kMedianUnbiased,
        stats::QuantileMethod::kNormalUnbiased}) {
    datasets::AggregationPolicy policy;
    policy.method = method;
    expect_tables_identical(store, policy);
  }
}

TEST(ParallelEquivalence, AggregateTablesMatchWithBootstrapCi) {
  // The bootstrap resamples by index, so it is sensitive to value
  // order: the indexed path must hand it the pristine store-order
  // column, not the selection-scrambled scratch copy.
  datasets::AggregationPolicy policy;
  policy.bootstrap_resamples = 50;
  expect_tables_identical(synthetic_store(), policy);
}

TEST(ParallelEquivalence, PipelineReportsMatchOnSyntheticStore) {
  const auto store = synthetic_store();
  const std::string serial = run_report(store, 1);
  EXPECT_EQ(serial, run_report(store, 2));
  EXPECT_EQ(serial, run_report(store, 4));
}

TEST(ParallelEquivalence, PipelineReportsMatchOnDegradedStore) {
  const auto store = degraded_store();
  expect_tables_identical(store, {});
  const std::string serial = run_report(store, 1);
  EXPECT_EQ(serial, run_report(store, 2));
  EXPECT_EQ(serial, run_report(store, 4));
}

TEST(ParallelEquivalence, ScanOracleAgreesWithPipelineAggregates) {
  const auto store = synthetic_store();
  core::IqbConfig config = core::IqbConfig::paper_defaults();
  const auto oracle =
      datasets::aggregate_scan(store, config.aggregation);
  config.aggregation.threads = 4;
  core::Pipeline pipeline(std::move(config));
  const auto output = pipeline.run(store);
  EXPECT_EQ(datasets::aggregates_to_csv(oracle),
            datasets::aggregates_to_csv(output.aggregates));
}

TEST(ParallelEquivalence, ExampleCsvScoresMatchAcrossWidths) {
  std::ostringstream errors;
  auto loaded = cli::load_store(std::string(IQB_EXAMPLES_DIR) +
                                    "/example_records.csv",
                                /*lenient=*/false, errors);
  ASSERT_TRUE(loaded.ok()) << errors.str();
  const datasets::RecordStore& store = loaded->store;
  expect_tables_identical(store, {});
  const std::string serial = run_report(store, 1);
  EXPECT_EQ(serial, run_report(store, 2));
  EXPECT_EQ(serial, run_report(store, 4));
}

TEST(ParallelEquivalence, AggregateCellLookupMatchesScanSemantics) {
  const auto store = synthetic_store();
  const auto table = datasets::aggregate_scan(store, {});
  for (const auto& cell : table.cells()) {
    auto via_index = datasets::aggregate_cell(store, cell.region,
                                              cell.dataset, cell.metric, {});
    ASSERT_TRUE(via_index.ok());
    EXPECT_EQ(via_index->value, cell.value);
    EXPECT_EQ(via_index->sample_count, cell.sample_count);
  }
  auto missing = datasets::aggregate_cell(store, "no_such_region", "ndt",
                                          datasets::Metric::kDownload, {});
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().message,
            "insufficient samples for region='no_such_region' dataset='ndt' "
            "metric='download'");
}

}  // namespace
}  // namespace iqb
