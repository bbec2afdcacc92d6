#include "iqb/datasets/store.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "iqb/datasets/io.hpp"

namespace iqb::datasets {
namespace {

MeasurementRecord record(const std::string& dataset, const std::string& region,
                         double download_mbps, const std::string& iso_time =
                             "2025-03-01T00:00:00Z") {
  MeasurementRecord r;
  r.dataset = dataset;
  r.region = region;
  r.isp = "isp";
  r.subscriber_id = "sub";
  r.timestamp = util::Timestamp::parse(iso_time).value();
  r.download = util::Mbps(download_mbps);
  return r;
}

TEST(MetricEnum, NameRoundTrip) {
  for (Metric metric : kAllMetrics) {
    auto parsed = metric_from_name(metric_name(metric));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), metric);
  }
  EXPECT_FALSE(metric_from_name("nope").ok());
}

TEST(MetricEnum, Directions) {
  EXPECT_TRUE(metric_higher_is_better(Metric::kDownload));
  EXPECT_TRUE(metric_higher_is_better(Metric::kUpload));
  EXPECT_FALSE(metric_higher_is_better(Metric::kLatency));
  EXPECT_FALSE(metric_higher_is_better(Metric::kLoadedLatency));
  EXPECT_FALSE(metric_higher_is_better(Metric::kLoss));
}

TEST(MeasurementRecord, ValueAndSetValueRoundTrip) {
  MeasurementRecord r;
  for (Metric metric : kAllMetrics) {
    EXPECT_FALSE(r.value(metric).has_value());
    r.set_value(metric, metric == Metric::kLoss ? 0.02 : 12.5);
  }
  EXPECT_DOUBLE_EQ(*r.value(Metric::kDownload), 12.5);
  EXPECT_DOUBLE_EQ(*r.value(Metric::kLoss), 0.02);
  EXPECT_TRUE(r.is_valid());
}

TEST(MeasurementRecord, InvalidValuesDetected) {
  MeasurementRecord r = record("d", "r", 10.0);
  r.loss = util::LossRate(1.5);
  EXPECT_FALSE(r.is_valid());
  r.loss.reset();
  r.download = util::Mbps(-3.0);
  EXPECT_FALSE(r.is_valid());
}

TEST(RecordStore, AddRejectsInvalid) {
  RecordStore store;
  MeasurementRecord bad = record("d", "r", -1.0);
  EXPECT_FALSE(store.add(bad).ok());
  EXPECT_TRUE(store.empty());
  EXPECT_TRUE(store.add(record("d", "r", 1.0)).ok());
  EXPECT_EQ(store.size(), 1u);
}

std::vector<MeasurementRecord> batch_of(const std::vector<double>& downloads) {
  std::vector<MeasurementRecord> batch;
  for (double download : downloads) batch.push_back(record("d", "r", download));
  return batch;
}

TEST(RecordStore, AddAllSkipsInvalidAndCounts) {
  // Negative downloads are invalid: first, in the middle, last, and
  // several at once. Each batch goes into an empty store (which adopts
  // it) and into a non-empty one (which appends it); both must agree
  // with appending the valid records one at a time.
  const std::vector<std::vector<double>> cases{
      {1.0, -5.0, 2.0},
      {-1.0, 1.0, 2.0},
      {1.0, 2.0, -3.0},
      {-1.0, 1.0, -2.0, 2.0, 3.0, -4.0},
      {1.0, 2.0, 3.0}};
  for (const std::vector<double>& downloads : cases) {
    const std::vector<MeasurementRecord> batch = batch_of(downloads);
    std::vector<MeasurementRecord> expected;
    std::size_t expected_skipped = 0;
    for (const MeasurementRecord& r : batch) {
      if (r.is_valid()) {
        expected.push_back(r);
      } else {
        ++expected_skipped;
      }
    }

    RecordStore adopted;
    EXPECT_EQ(adopted.add_all(batch), expected_skipped);
    EXPECT_EQ(records_to_csv(adopted.records()), records_to_csv(expected));

    RecordStore appended;
    ASSERT_TRUE(appended.add(record("d", "r", 9.0)).ok());
    EXPECT_EQ(appended.add_all(batch), expected_skipped);
    expected.insert(expected.begin(), record("d", "r", 9.0));
    EXPECT_EQ(records_to_csv(appended.records()), records_to_csv(expected));
  }

  RecordStore store;
  EXPECT_EQ(store.add_all(batch_of({-1.0, -2.0, -3.0})), 3u);
  EXPECT_TRUE(store.empty());
}

void expect_same_index(const StoreIndex& got, const StoreIndex& want) {
  EXPECT_EQ(got.record_count(), want.record_count());
  EXPECT_EQ(got.regions(), want.regions());
  EXPECT_EQ(got.datasets(), want.datasets());
  EXPECT_EQ(got.isps(), want.isps());
  ASSERT_EQ(got.groups().size(), want.groups().size());
  for (std::size_t i = 0; i < got.groups().size(); ++i) {
    const StoreIndex::Group& g = got.groups()[i];
    const StoreIndex::Group& w = want.groups()[i];
    EXPECT_EQ(got.region_symbols().name(g.region_id),
              want.region_symbols().name(w.region_id));
    EXPECT_EQ(got.dataset_symbols().name(g.dataset_id),
              want.dataset_symbols().name(w.dataset_id));
    EXPECT_EQ(g.rows, w.rows);
    EXPECT_EQ(g.columns, w.columns);
  }
}

TEST(RecordStore, AddAllDropsTheCachedIndex) {
  RecordStore store;
  store.index();
  store.add_all({record("ndt", "y", 2.0), record("ndt", "x", -1.0),
                 record("ookla", "x", 3.0)});
  EXPECT_FALSE(store.index_ready());
  expect_same_index(store.index(), StoreIndex::build(store.records()));

  store.add_all({record("ookla", "y", 4.0), record("ndt", "x", 5.0)});
  EXPECT_FALSE(store.index_ready());
  expect_same_index(store.index(), StoreIndex::build(store.records()));
  EXPECT_EQ(store.index().record_count(), 4u);
}

TEST(RecordStore, ReleaseHandsBackTheRowsAndEmptiesTheStore) {
  RecordStore store;
  store.add_all(batch_of({1.0, 2.0}));
  store.index();
  const std::vector<MeasurementRecord> released = std::move(store).release();
  EXPECT_EQ(records_to_csv(released), records_to_csv(batch_of({1.0, 2.0})));
  EXPECT_TRUE(store.empty());  // release() leaves the store empty
  EXPECT_FALSE(store.index_ready());
}

TEST(RecordFilter, MatchesAllDimensions) {
  MeasurementRecord r = record("ndt", "metro", 10.0, "2025-03-15T12:00:00Z");
  RecordFilter filter;
  EXPECT_TRUE(filter.matches(r));  // empty filter matches everything
  filter.dataset = "ndt";
  filter.region = "metro";
  filter.isp = "isp";
  EXPECT_TRUE(filter.matches(r));
  filter.isp = "other";
  EXPECT_FALSE(filter.matches(r));
}

TEST(RecordFilter, TimeWindowInclusiveExclusive) {
  MeasurementRecord r = record("d", "r", 1.0, "2025-03-15T00:00:00Z");
  RecordFilter filter;
  filter.from = util::Timestamp::parse("2025-03-15").value();
  filter.to = util::Timestamp::parse("2025-03-16").value();
  EXPECT_TRUE(filter.matches(r));  // from is inclusive
  filter.to = util::Timestamp::parse("2025-03-15").value();
  EXPECT_FALSE(filter.matches(r));  // to is exclusive
}

TEST(RecordStore, QueryFilters) {
  RecordStore store;
  (void)store.add(record("ndt", "metro", 10.0));
  (void)store.add(record("ndt", "rural", 2.0));
  (void)store.add(record("ookla", "metro", 12.0));
  RecordFilter filter;
  filter.region = "metro";
  EXPECT_EQ(store.query(filter).size(), 2u);
  filter.dataset = "ndt";
  EXPECT_EQ(store.query(filter).size(), 1u);
}

TEST(RecordStore, MetricValuesSkipsMissing) {
  RecordStore store;
  (void)store.add(record("d", "r", 10.0));
  MeasurementRecord no_download;
  no_download.dataset = "d";
  no_download.region = "r";
  no_download.latency = util::Millis(20);
  (void)store.add(no_download);
  EXPECT_EQ(store.metric_values(Metric::kDownload).size(), 1u);
  EXPECT_EQ(store.metric_values(Metric::kLatency).size(), 1u);
  EXPECT_TRUE(store.metric_values(Metric::kLoss).empty());
}

TEST(RecordStore, DistinctsSortedAndDeduplicated) {
  RecordStore store;
  (void)store.add(record("zeta", "b_region", 1.0));
  (void)store.add(record("alpha", "a_region", 1.0));
  (void)store.add(record("alpha", "b_region", 1.0));
  EXPECT_EQ(store.dataset_names(), (std::vector<std::string>{"alpha", "zeta"}));
  EXPECT_EQ(store.regions(),
            (std::vector<std::string>{"a_region", "b_region"}));
  EXPECT_EQ(store.isps(), (std::vector<std::string>{"isp"}));
}

TEST(RecordStore, ByRegionGroups) {
  RecordStore store;
  (void)store.add(record("d", "x", 1.0));
  (void)store.add(record("d", "x", 2.0));
  (void)store.add(record("d", "y", 3.0));
  auto groups = store.by_region();
  EXPECT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups["x"].size(), 2u);
  EXPECT_EQ(groups["y"].size(), 1u);
}

TEST(RecordStore, MergeCombines) {
  RecordStore a, b;
  (void)a.add(record("d", "x", 1.0));
  (void)b.add(record("d", "y", 2.0));
  a.merge(b);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(b.size(), 1u);  // source untouched
}

TEST(RecordStore, ClearEmpties) {
  RecordStore store;
  (void)store.add(record("d", "x", 1.0));
  store.clear();
  EXPECT_TRUE(store.empty());
}

TEST(RekeyByRegionIsp, SplitsRegionsPerProvider) {
  RecordStore store;
  MeasurementRecord a = record("ndt", "metro", 100.0);
  a.isp = "alpha_net";
  MeasurementRecord b = record("ndt", "metro", 5.0);
  b.isp = "beta_net";
  (void)store.add(a);
  (void)store.add(b);
  RecordStore rekeyed = rekey_by_region_isp(store);
  EXPECT_EQ(rekeyed.size(), 2u);
  EXPECT_EQ(rekeyed.regions(),
            (std::vector<std::string>{"metro/alpha_net", "metro/beta_net"}));
  // Original store untouched.
  EXPECT_EQ(store.regions(), (std::vector<std::string>{"metro"}));
  // Other fields preserved.
  RecordFilter filter;
  filter.region = "metro/alpha_net";
  auto alpha = rekeyed.query(filter);
  ASSERT_EQ(alpha.size(), 1u);
  EXPECT_DOUBLE_EQ(alpha[0].download->value(), 100.0);
  EXPECT_EQ(alpha[0].isp, "alpha_net");
}

TEST(RekeyByRegionIsp, RvalueRewritesInPlaceLikeTheLvalueCopy) {
  RecordStore store;
  std::vector<MeasurementRecord> want;
  const std::vector<std::pair<std::string, double>> rows{
      {"beta_net", 10.0}, {"alpha_net", 20.0}, {"beta_net", 30.0}};
  for (const auto& [isp, download] : rows) {
    MeasurementRecord r = record("ndt", "metro", download);
    r.isp = isp;
    (void)store.add(r);
    r.region = "metro/" + isp;
    want.push_back(r);
  }
  const std::string before = records_to_csv(store.records());

  RecordStore from_lvalue = rekey_by_region_isp(store);
  EXPECT_EQ(records_to_csv(store.records()), before);
  RecordStore from_rvalue = rekey_by_region_isp(std::move(store));
  EXPECT_EQ(records_to_csv(from_lvalue.records()), records_to_csv(want));
  EXPECT_EQ(records_to_csv(from_rvalue.records()), records_to_csv(want));
}

TEST(RekeyByRegionIsp, CustomSeparator) {
  RecordStore store;
  (void)store.add(record("ndt", "metro", 10.0));
  RecordStore rekeyed = rekey_by_region_isp(store, '|');
  EXPECT_EQ(rekeyed.regions(), (std::vector<std::string>{"metro|isp"}));
}

}  // namespace
}  // namespace iqb::datasets
