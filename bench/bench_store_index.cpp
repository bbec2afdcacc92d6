// Experiment — the columnar store index and the parallel scoring
// path, quantified.
//
// Workload: the 64-subscriber e2e scenario — every region of the
// six-region synthetic country carries 64 subscribers' measurement
// histories (default 30 tests per subscriber per dataset), drawn by
// the statistical generator (the documented fast path for benches
// that need many records in milliseconds; the packet-level campaign
// produces the same shape three orders of magnitude slower). The
// store is aggregated three ways:
//
//   scan     aggregate_scan(): per-cell full-store filtering plus a
//            sort-based percentile — the pre-index semantics, kept in
//            the library as the equivalence oracle.
//   indexed  aggregate() on a cold store at --threads 1: one O(N)
//            index build, then selection-based percentiles over the
//            prebuilt value columns.
//   indexed(T threads) the same with the cell fan-out on a pool.
//
// Prints records/sec for the index build and each path's wall time,
// asserts the three AggregateTables and the end-to-end pipeline
// reports are byte-identical, and snapshots everything into
// BENCH_aggregate.json via the obs JSON exporter. With --check the
// exit code enforces the regression gate: indexed must beat scan and
// every output must be byte-identical.
//
// usage: bench_store_index [subscribers] [tests_per_sub] [threads] [--check]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "iqb/core/pipeline.hpp"
#include "iqb/datasets/aggregate.hpp"
#include "iqb/datasets/io.hpp"
#include "iqb/datasets/synthetic.hpp"
#include "iqb/obs/export.hpp"
#include "iqb/obs/metrics.hpp"
#include "iqb/report/render.hpp"
#include "iqb/util/rng.hpp"

using namespace iqb;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Best-of-`reps` wall time of `body` (fresh state per rep is the
/// caller's job via the factory argument).
template <typename Body>
double best_of(int reps, Body&& body) {
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    auto start = Clock::now();
    body();
    best = std::min(best, seconds_since(start));
  }
  return best;
}

/// Best-of-`reps` wall time of body(store) where each rep gets its
/// own cold store (no cached index). The store construction — a deep
/// copy of every record — happens outside the timed region: the
/// comparison is about aggregation strategy, not allocator traffic.
template <typename Body>
double best_of_cold(int reps, const std::vector<datasets::MeasurementRecord>&
                                  records, Body&& body) {
  std::vector<datasets::RecordStore> stores;
  stores.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    stores.emplace_back(std::vector<datasets::MeasurementRecord>(records));
  }
  double best = 1e300;
  for (auto& store : stores) {
    auto start = Clock::now();
    body(store);
    best = std::min(best, seconds_since(start));
  }
  return best;
}

std::vector<datasets::MeasurementRecord> workload_records(
    std::size_t subscribers, std::size_t tests_per_sub) {
  util::Rng rng(1701);
  datasets::SyntheticConfig config;
  config.records_per_dataset = subscribers * tests_per_sub;
  config.base_time = util::Timestamp::parse("2025-03-01").value();
  std::vector<datasets::MeasurementRecord> records;
  for (const auto& profile : datasets::example_region_profiles()) {
    auto region_records = datasets::generate_region_records(
        profile, datasets::default_dataset_panel(), config, rng);
    records.insert(records.end(), region_records.begin(),
                   region_records.end());
  }
  return records;
}

std::string pipeline_report(const datasets::RecordStore& store,
                            core::IqbConfig config, std::size_t threads) {
  config.aggregation.threads = threads;
  core::Pipeline pipeline(std::move(config));
  auto output = pipeline.run(store);
  return report::scores_document(output.results);
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t subscribers = 64;
  std::size_t tests_per_sub = 30;
  std::size_t threads = 4;
  bool check = false;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else {
      positional.emplace_back(argv[i]);
    }
  }
  if (positional.size() > 0) subscribers = std::stoull(positional[0]);
  if (positional.size() > 1) tests_per_sub = std::stoull(positional[1]);
  if (positional.size() > 2) threads = std::stoull(positional[2]);

  const auto records = workload_records(subscribers, tests_per_sub);
  const double n = static_cast<double>(records.size());
  const core::IqbConfig config = core::IqbConfig::paper_defaults();
  const datasets::AggregationPolicy policy = config.aggregation;

  // --- index build throughput ---------------------------------------
  const double build_s =
      best_of_cold(5, records, [](datasets::RecordStore& cold) {
        cold.index();
      });
  const double build_rps = n / build_s;

  // --- scan vs indexed aggregation ----------------------------------
  datasets::RecordStore store{std::vector<datasets::MeasurementRecord>(records)};
  const double scan_s = best_of(3, [&] { datasets::aggregate_scan(store, policy); });
  const auto scan_table = datasets::aggregate_scan(store, policy);

  // Cold store per rep: aggregate() pays the index build every time,
  // so the comparison is honest about the one-pass cost.
  const double indexed_s =
      best_of_cold(3, records, [&](datasets::RecordStore& cold) {
        datasets::aggregate(cold, policy);
      });
  datasets::AggregationPolicy mt_policy = policy;
  mt_policy.threads = threads;
  const double indexed_mt_s =
      best_of_cold(3, records, [&](datasets::RecordStore& cold) {
        datasets::aggregate(cold, mt_policy);
      });
  const auto indexed_table = datasets::aggregate(store, policy);
  const auto indexed_mt_table = datasets::aggregate(store, mt_policy);

  const std::string scan_csv = datasets::aggregates_to_csv(scan_table);
  const bool tables_identical =
      scan_csv == datasets::aggregates_to_csv(indexed_table) &&
      scan_csv == datasets::aggregates_to_csv(indexed_mt_table);

  // --- end-to-end pipeline at 1 / 2 / N threads ---------------------
  const std::string report_1 = pipeline_report(store, config, 1);
  const bool reports_identical =
      report_1 == pipeline_report(store, config, 2) &&
      report_1 == pipeline_report(store, config, threads);

  const double speedup = scan_s / indexed_s;
  const double speedup_mt = scan_s / indexed_mt_s;

  std::printf("=== store index + parallel aggregation ===\n");
  std::printf("records:               %zu\n", records.size());
  std::printf("aggregate cells:       %zu\n", scan_table.size());
  std::printf("index build:           %10.6f s  (%12.0f records/s)\n",
              build_s, build_rps);
  std::printf("aggregate, scan:       %10.6f s\n", scan_s);
  std::printf("aggregate, indexed:    %10.6f s  (%6.2fx vs scan)\n",
              indexed_s, speedup);
  std::printf("aggregate, indexed x%zu:%10.6f s  (%6.2fx vs scan)\n",
              threads, indexed_mt_s, speedup_mt);
  std::printf("tables byte-identical: %s\n", tables_identical ? "yes" : "NO");
  std::printf("reports byte-identical (1/2/%zu threads): %s\n", threads,
              reports_identical ? "yes" : "NO");

  // Machine-readable snapshot, via the obs JSON exporter.
  obs::MetricsRegistry registry;
  auto path_gauge = [&registry](const char* path, double seconds) {
    registry
        .gauge("iqb_bench_aggregate_seconds",
               "Wall time of one aggregation pass", {{"path", path}})
        .set(seconds);
  };
  path_gauge("scan", scan_s);
  path_gauge("indexed", indexed_s);
  path_gauge("indexed_mt", indexed_mt_s);
  registry
      .gauge("iqb_bench_aggregate_speedup",
             "Aggregation speedup over the scan baseline",
             {{"path", "indexed"}})
      .set(speedup);
  registry
      .gauge("iqb_bench_aggregate_speedup",
             "Aggregation speedup over the scan baseline",
             {{"path", "indexed_mt"}})
      .set(speedup_mt);
  registry
      .gauge("iqb_bench_index_build_records_per_second",
             "Store index build throughput", {})
      .set(build_rps);
  registry
      .gauge("iqb_bench_outputs_byte_identical",
             "1 when scan/indexed/parallel outputs matched exactly", {})
      .set(tables_identical && reports_identical ? 1.0 : 0.0);
  auto count_gauge = [&registry](const char* what, double value) {
    registry
        .gauge("iqb_bench_items", "Item counts for the bench run",
               {{"what", what}})
        .set(value);
  };
  count_gauge("records", n);
  count_gauge("aggregate_cells", static_cast<double>(scan_table.size()));
  count_gauge("threads", static_cast<double>(threads));
  std::ofstream snapshot("BENCH_aggregate.json", std::ios::binary);
  snapshot << obs::metrics_to_json(registry).dump(2) << "\n";
  std::printf("wrote BENCH_aggregate.json\n");

  if (check) {
    if (!tables_identical || !reports_identical) {
      std::printf("CHECK FAILED: outputs are not byte-identical\n");
      return 1;
    }
    if (speedup <= 1.0) {
      std::printf("CHECK FAILED: indexed aggregation (%.6f s) is not faster "
                  "than the scan baseline (%.6f s)\n",
                  indexed_s, scan_s);
      return 1;
    }
    std::printf("check ok: indexed %.2fx faster, outputs byte-identical\n",
                speedup);
  }
  return 0;
}
