#include "iqb/datasets/aggregate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "iqb/datasets/synthetic.hpp"
#include "iqb/fleet/wire.hpp"
#include "iqb/util/json.hpp"

namespace iqb::datasets {
namespace {

MeasurementRecord record(const std::string& dataset, const std::string& region,
                         Metric metric, double value) {
  MeasurementRecord r;
  r.dataset = dataset;
  r.region = region;
  r.set_value(metric, value);
  return r;
}

RecordStore latency_store(const std::vector<double>& values) {
  RecordStore store;
  for (double v : values) {
    (void)store.add(record("ndt", "r", Metric::kLatency, v));
  }
  return store;
}

TEST(EffectivePercentile, OrientToWorstFlipsThroughputOnly) {
  AggregationPolicy policy;  // p95, orient_to_worst = true
  EXPECT_DOUBLE_EQ(effective_percentile(policy, Metric::kDownload), 5.0);
  EXPECT_DOUBLE_EQ(effective_percentile(policy, Metric::kUpload), 5.0);
  EXPECT_DOUBLE_EQ(effective_percentile(policy, Metric::kLatency), 95.0);
  EXPECT_DOUBLE_EQ(effective_percentile(policy, Metric::kLoss), 95.0);
  policy.orient_to_worst = false;
  EXPECT_DOUBLE_EQ(effective_percentile(policy, Metric::kDownload), 95.0);
}

TEST(AggregateCellFn, ComputesP95OfLatency) {
  std::vector<double> values;
  for (int i = 1; i <= 100; ++i) values.push_back(static_cast<double>(i));
  RecordStore store = latency_store(values);
  auto cell = aggregate_cell(store, "r", "ndt", Metric::kLatency);
  ASSERT_TRUE(cell.ok());
  // numpy-style linear p95 of 1..100 = 95.05.
  EXPECT_NEAR(cell->value, 95.05, 1e-9);
  EXPECT_EQ(cell->sample_count, 100u);
}

TEST(AggregateCellFn, ThroughputUsesLowTailWhenOriented) {
  RecordStore store;
  for (int i = 1; i <= 100; ++i) {
    (void)store.add(
        record("ndt", "r", Metric::kDownload, static_cast<double>(i)));
  }
  auto cell = aggregate_cell(store, "r", "ndt", Metric::kDownload);
  ASSERT_TRUE(cell.ok());
  // 5th percentile of 1..100 (linear) = 5.95: "all but the worst 5%
  // of tests see at least this much".
  EXPECT_NEAR(cell->value, 5.95, 1e-9);
}

TEST(AggregateCellFn, MissingCellIsError) {
  RecordStore store = latency_store({1, 2, 3});
  EXPECT_FALSE(aggregate_cell(store, "nope", "ndt", Metric::kLatency).ok());
  EXPECT_FALSE(aggregate_cell(store, "r", "nope", Metric::kLatency).ok());
  EXPECT_FALSE(aggregate_cell(store, "r", "ndt", Metric::kLoss).ok());
}

TEST(AggregateCellFn, MinSamplesEnforced) {
  RecordStore store = latency_store({1, 2, 3});
  AggregationPolicy policy;
  policy.min_samples = 5;
  EXPECT_FALSE(aggregate_cell(store, "r", "ndt", Metric::kLatency, policy).ok());
  policy.min_samples = 3;
  EXPECT_TRUE(aggregate_cell(store, "r", "ndt", Metric::kLatency, policy).ok());
}

TEST(AggregateCellFn, BootstrapCiAttached) {
  std::vector<double> values;
  for (int i = 0; i < 200; ++i) values.push_back(10.0 + (i % 37));
  RecordStore store = latency_store(values);
  AggregationPolicy policy;
  policy.bootstrap_resamples = 200;
  auto cell = aggregate_cell(store, "r", "ndt", Metric::kLatency, policy);
  ASSERT_TRUE(cell.ok());
  ASSERT_TRUE(cell->ci.has_value());
  EXPECT_LE(cell->ci->lower, cell->value);
  EXPECT_GE(cell->ci->upper, cell->value);
}

TEST(Aggregate, FullTableCoversPresentCellsOnly) {
  RecordStore store;
  (void)store.add(record("ndt", "metro", Metric::kDownload, 50));
  (void)store.add(record("ndt", "metro", Metric::kLatency, 20));
  (void)store.add(record("ookla", "rural", Metric::kDownload, 5));
  auto table = aggregate(store);
  EXPECT_TRUE(table.contains("metro", "ndt", Metric::kDownload));
  EXPECT_TRUE(table.contains("metro", "ndt", Metric::kLatency));
  EXPECT_TRUE(table.contains("rural", "ookla", Metric::kDownload));
  EXPECT_FALSE(table.contains("metro", "ookla", Metric::kDownload));
  EXPECT_FALSE(table.contains("metro", "ndt", Metric::kLoss));
  EXPECT_EQ(table.size(), 3u);
}

TEST(Aggregate, EmptyStoreYieldsEmptyTable) {
  RecordStore store;
  auto table = aggregate(store);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_TRUE(table.cells().empty());
}

TEST(AggregateTable, GetAndMerge) {
  AggregateTable a, b;
  AggregateCell cell;
  cell.region = "r";
  cell.dataset = "d";
  cell.metric = Metric::kDownload;
  cell.value = 42.0;
  a.put(cell);
  cell.value = 99.0;
  b.put(cell);
  EXPECT_DOUBLE_EQ(a.get("r", "d", Metric::kDownload)->value, 42.0);
  a.merge(b);  // collision: b wins
  EXPECT_DOUBLE_EQ(a.get("r", "d", Metric::kDownload)->value, 99.0);
  EXPECT_FALSE(a.get("r", "d", Metric::kLoss).ok());
}

TEST(AggregateTable, RegionsAndDatasets) {
  AggregateTable table;
  for (const char* region : {"b", "a"}) {
    for (const char* dataset : {"y", "x"}) {
      AggregateCell cell;
      cell.region = region;
      cell.dataset = dataset;
      cell.metric = Metric::kLatency;
      table.put(cell);
    }
  }
  EXPECT_EQ(table.regions(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(table.datasets(), (std::vector<std::string>{"x", "y"}));
}

// ---------------- flat table -----------------------------------------

AggregateCell table_cell(const std::string& region, const std::string& dataset,
                         Metric metric, double value) {
  AggregateCell cell;
  cell.region = region;
  cell.dataset = dataset;
  cell.metric = metric;
  cell.value = value;
  cell.sample_count = 7;
  return cell;
}

/// Every cell of `regions` x {cloudflare, ndt, ookla} x kAllMetrics, in
/// key order, each with a distinct value.
std::vector<AggregateCell> ordered_cells(std::size_t regions) {
  std::vector<AggregateCell> cells;
  for (std::size_t r = 0; r < regions; ++r) {
    char region[16];
    std::snprintf(region, sizeof region, "region_%04zu", r);
    for (const char* dataset : {"cloudflare", "ndt", "ookla"}) {
      for (Metric metric : kAllMetrics) {
        cells.push_back(table_cell(region, dataset, metric,
                                   static_cast<double>(cells.size())));
      }
    }
  }
  return cells;
}

void expect_same_cells(const AggregateTable& got, const AggregateTable& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const AggregateCell& a = got.cells()[i];
    const AggregateCell& b = want.cells()[i];
    EXPECT_EQ(a.region, b.region);
    EXPECT_EQ(a.dataset, b.dataset);
    EXPECT_EQ(a.metric, b.metric);
    EXPECT_EQ(a.value, b.value);
    EXPECT_EQ(a.sample_count, b.sample_count);
  }
}

TEST(AggregateTable, RandomOrderPutsEqualOrderedPuts) {
  const std::vector<AggregateCell> cells = ordered_cells(40);
  AggregateTable ordered;
  for (const AggregateCell& cell : cells) ordered.put(cell);

  std::vector<AggregateCell> shuffled = cells;
  util::Rng rng(11);
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1],
              shuffled[static_cast<std::size_t>(
                  rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
  }
  AggregateTable random;
  for (const AggregateCell& cell : shuffled) random.put(cell);

  expect_same_cells(random, ordered);
  EXPECT_EQ(random.regions(), ordered.regions());
  EXPECT_EQ(random.datasets(), ordered.datasets());
  // Copies and moves of a table that was filled out of order agree too.
  AggregateTable copy = random;
  AggregateTable moved = std::move(copy);
  expect_same_cells(moved, ordered);
}

TEST(AggregateTable, LastPutWinsOnKeyCollision) {
  AggregateTable table;
  table.put(table_cell("a", "ndt", Metric::kDownload, 1.0));
  table.put(table_cell("a", "ndt", Metric::kDownload, 2.0));  // in order
  table.put(table_cell("b", "ndt", Metric::kDownload, 3.0));
  table.put(table_cell("a", "ndt", Metric::kDownload, 4.0));  // out of order
  table.put(table_cell("a", "ndt", Metric::kDownload, 5.0));  // and again
  ASSERT_EQ(table.size(), 2u);
  EXPECT_EQ(table.find("a", "ndt", Metric::kDownload)->value, 5.0);
  EXPECT_EQ(table.find("b", "ndt", Metric::kDownload)->value, 3.0);
}

TEST(AggregateTable, MergeLetsTheOtherTableWinOverlappingKeys) {
  // a holds regions 0-3, b regions 2-5: interleaved keys, two overlaps.
  const std::vector<AggregateCell> cells = ordered_cells(6);
  const std::size_t per_region = cells.size() / 6;
  AggregateTable a, b;
  for (std::size_t i = 0; i < 4 * per_region; ++i) a.put(cells[i]);
  for (std::size_t i = 2 * per_region; i < cells.size(); ++i) {
    AggregateCell cell = cells[i];
    cell.value += 1000.0;
    b.put(cell);
  }
  a.merge(b);
  ASSERT_EQ(a.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const AggregateCell& merged = a.cells()[i];
    EXPECT_EQ(merged.region, cells[i].region);
    EXPECT_EQ(merged.dataset, cells[i].dataset);
    EXPECT_EQ(merged.metric, cells[i].metric);
    const double shift = i >= 2 * per_region ? 1000.0 : 0.0;
    EXPECT_EQ(merged.value, cells[i].value + shift);
  }
  EXPECT_EQ(b.size(), 4 * per_region);  // the other table is untouched

  AggregateTable empty;
  empty.merge(b);
  expect_same_cells(empty, b);
  const std::size_t before = a.size();
  a.merge(AggregateTable{});
  a.merge(a);
  EXPECT_EQ(a.size(), before);
}

TEST(AggregateTable, FindAndRegionCellsOnAbsentKeys) {
  AggregateTable table;
  EXPECT_EQ(table.find("a", "ndt", Metric::kLoss), nullptr);
  EXPECT_TRUE(table.region_cells("a").empty());

  table.put(table_cell("b", "ndt", Metric::kDownload, 1.0));
  table.put(table_cell("b", "ndt", Metric::kLatency, 2.0));
  table.put(table_cell("bb", "ndt", Metric::kDownload, 3.0));
  EXPECT_EQ(table.find("a", "ndt", Metric::kDownload), nullptr);
  EXPECT_EQ(table.find("b", "ndt", Metric::kLoss), nullptr);
  EXPECT_EQ(table.find("b", "ookla", Metric::kDownload), nullptr);
  EXPECT_EQ(table.find("c", "ndt", Metric::kDownload), nullptr);
  ASSERT_NE(table.find("b", "ndt", Metric::kLatency), nullptr);
  EXPECT_EQ(table.find("b", "ndt", Metric::kLatency)->value, 2.0);
  EXPECT_TRUE(table.region_cells("a").empty());
  EXPECT_TRUE(table.region_cells("c").empty());
  EXPECT_TRUE(table.region_cells("").empty());
  // A region is its own run, not a prefix match.
  EXPECT_EQ(table.region_cells("b").size(), 2u);
  EXPECT_EQ(table.region_cells("bb").size(), 1u);
  EXPECT_EQ(table.cells_for_region("b").size(), 2u);
}

TEST(AggregateTable, ReversedPayloadParsesToTheOrderedTable) {
  // 280 regions x 3 datasets x 5 metrics = 4,200 cells.
  fleet::ShardPayload payload;
  payload.cycle = 3;
  payload.trace_id = "t";
  for (const AggregateCell& cell : ordered_cells(280)) payload.table.put(cell);
  ASSERT_EQ(payload.table.size(), 4200u);
  const std::string ordered_wire = fleet::serialize_shard_payload(payload);

  auto tree = util::parse_json(ordered_wire);
  ASSERT_TRUE(tree.ok());
  util::JsonArray& cells = tree->as_object().at("cells").as_array();
  std::reverse(cells.begin(), cells.end());
  const std::string reversed_wire = tree->dump() + "\n";
  ASSERT_NE(reversed_wire, ordered_wire);

  auto ordered = fleet::parse_shard_payload(ordered_wire);
  auto reversed = fleet::parse_shard_payload(reversed_wire);
  ASSERT_TRUE(ordered.ok());
  ASSERT_TRUE(reversed.ok()) << reversed.error().to_string();
  expect_same_cells(reversed->table, ordered->table);
  expect_same_cells(reversed->table, payload.table);
  EXPECT_EQ(fleet::serialize_shard_payload(reversed.value()), ordered_wire);
}

// ---------------- synthetic generator --------------------------------

TEST(Synthetic, GeneratesRequestedVolume) {
  util::Rng rng(1);
  RegionProfile profile;
  profile.region = "r";
  SyntheticConfig config;
  config.records_per_dataset = 50;
  auto records =
      generate_region_records(profile, default_dataset_panel(), config, rng);
  EXPECT_EQ(records.size(), 150u);  // 3 datasets x 50
  for (const auto& r : records) {
    EXPECT_TRUE(r.is_valid());
    EXPECT_EQ(r.region, "r");
  }
}

TEST(Synthetic, OoklaRecordsLackLoss) {
  util::Rng rng(2);
  RegionProfile profile;
  profile.region = "r";
  SyntheticConfig config;
  auto records =
      generate_region_records(profile, default_dataset_panel(), config, rng);
  for (const auto& r : records) {
    if (r.dataset == "ookla") {
      EXPECT_FALSE(r.loss.has_value());
    } else {
      EXPECT_TRUE(r.loss.has_value());
    }
  }
}

TEST(Synthetic, DatasetBiasOrdering) {
  // With the default panel, ookla reads higher than ndt on the same
  // underlying population (in aggregate).
  util::Rng rng(3);
  RegionProfile profile;
  profile.region = "r";
  profile.median_download_mbps = 100.0;
  SyntheticConfig config;
  config.records_per_dataset = 2000;
  RecordStore store;
  store.add_all(
      generate_region_records(profile, default_dataset_panel(), config, rng));
  AggregationPolicy median_policy;
  median_policy.percentile = 50.0;
  auto ndt = aggregate_cell(store, "r", "ndt", Metric::kDownload, median_policy);
  auto ookla =
      aggregate_cell(store, "r", "ookla", Metric::kDownload, median_policy);
  ASSERT_TRUE(ndt.ok());
  ASSERT_TRUE(ookla.ok());
  EXPECT_GT(ookla->value, ndt->value);
}

TEST(Synthetic, ExampleProfilesSpanQualitySpectrum) {
  auto profiles = example_region_profiles();
  ASSERT_EQ(profiles.size(), 6u);
  // Fiber metro should have the highest median rate; satellite the
  // highest base latency.
  double max_rate = 0.0, max_latency = 0.0;
  std::string fastest, slowest_latency;
  for (const auto& profile : profiles) {
    if (profile.median_download_mbps > max_rate) {
      max_rate = profile.median_download_mbps;
      fastest = profile.region;
    }
    if (profile.base_latency_ms > max_latency) {
      max_latency = profile.base_latency_ms;
      slowest_latency = profile.region;
    }
  }
  EXPECT_EQ(fastest, "metro_fiber");
  EXPECT_EQ(slowest_latency, "remote_satellite");
}

TEST(Synthetic, DeterministicGivenRng) {
  RegionProfile profile;
  profile.region = "r";
  SyntheticConfig config;
  config.records_per_dataset = 10;
  util::Rng rng_a(9), rng_b(9);
  auto a = generate_region_records(profile, default_dataset_panel(), config, rng_a);
  auto b = generate_region_records(profile, default_dataset_panel(), config, rng_b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].download->value(), b[i].download->value());
  }
}

}  // namespace
}  // namespace iqb::datasets
