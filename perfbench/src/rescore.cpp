// Workload `rescore`: back-to-back WatchDaemon::run_cycle calls on one
// in-process daemon — records CSV in, /scores snapshot published.
//
// Input: the six datasets::example_region_profiles x the default
// three-dataset panel x 15k samples per cell (~270k records), drawn
// from the seed and written as one record CSV. Ingest (parse, store
// add, index) does most of a cycle's work; six regions keep scoring,
// render, wire encode and checkpoint small.
//
// The daemon runs with its defaults (auto width, telemetry on) plus a
// fresh state dir. Its loop is never started, so every cycle is one
// the benchmark started and timed. Each published /scores document must
// equal an oracle built without the daemon from the legacy CSV reader,
// datasets::aggregate_scan, score_region and report::to_json.
//
// The traced run replays a cycle's public calls in the cycle's order,
// each under a span, between real cycles; the part of the real cycle
// those calls do not account for is cli.cycle_other_ms. It also times
// the same cycle on a second daemon at width 1 (cli.cycle_serial_ms_p50).
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "iqb/cli/daemon.hpp"
#include "iqb/core/pipeline.hpp"
#include "iqb/datasets/aggregate.hpp"
#include "iqb/datasets/fast_csv.hpp"
#include "iqb/datasets/io.hpp"
#include "iqb/datasets/store.hpp"
#include "iqb/datasets/synthetic.hpp"
#include "iqb/fleet/wire.hpp"
#include "iqb/obs/metrics.hpp"
#include "iqb/obs/telemetry.hpp"
#include "iqb/report/render.hpp"
#include "iqb/robust/checkpoint.hpp"
#include "iqb/robust/circuit_breaker.hpp"
#include "iqb/robust/quarantine.hpp"
#include "iqb/util/thread_pool.hpp"

namespace perfbench {
namespace {

using iqb::obs::Tracer;

struct Shape {
  std::size_t samples_per_cell;
  std::size_t setups;
};
constexpr Shape kFull{15000, 20};
constexpr Shape kSmoke{200, 1};

std::vector<iqb::datasets::MeasurementRecord> make_records(
    std::uint64_t seed, const Shape& shape) {
  iqb::util::Rng rng(seed);
  iqb::datasets::SyntheticConfig config;
  config.records_per_dataset = shape.samples_per_cell;
  config.base_time = iqb::util::Timestamp::parse("2025-03-01").value();
  config.spacing_s = 60;
  std::vector<iqb::datasets::MeasurementRecord> records;
  for (const auto& profile : iqb::datasets::example_region_profiles()) {
    auto region = iqb::datasets::generate_region_records(
        profile, iqb::datasets::default_dataset_panel(), config, rng);
    records.insert(records.end(), std::make_move_iterator(region.begin()),
                   std::make_move_iterator(region.end()));
  }
  return records;
}

/// /scores exactly as a daemon renders it, built from the oracles.
std::string oracle_scores(const std::vector<iqb::datasets::MeasurementRecord>& records) {
  const iqb::datasets::RecordStore store(records);
  const iqb::core::IqbConfig config = iqb::core::IqbConfig::paper_defaults();
  const auto table = iqb::datasets::aggregate_scan(store, config.aggregation);
  const iqb::core::Pipeline pipeline(config);
  std::vector<iqb::core::RegionResult> results;
  for (const std::string& region : store.regions()) {
    auto scored = pipeline.score_region(table, region);
    if (scored.ok()) results.push_back(std::move(scored).value());
  }
  return iqb::report::to_json(results).dump(2) + "\n";
}

iqb::cli::DaemonOptions daemon_options(const std::string& records,
                                       const std::string& state_dir) {
  iqb::cli::DaemonOptions options;
  options.records_path = records;
  options.state_dir = state_dir;
  options.port = 0;
  options.watch_files = false;
  return options;
}

/// One cycle's public calls, in the daemon's order, each under a span.
class Replay {
 public:
  Replay(std::string records, const std::string& state_dir)
      : records_(std::move(records)), checkpoints_(state_dir) {
    config_.aggregation.threads = 0;  // the daemon's default width
    if (!checkpoints_.prepare().ok()) {
      throw std::runtime_error("cannot prepare " + state_dir);
    }
  }

  /// Returns the rendered /scores document. A null tracer records
  /// nothing, so the calls run exactly as they would untraced.
  std::string run(Tracer* tracer, std::uint64_t cycle) {
    const std::string trace_id = "replay-" + std::to_string(cycle);
    Spans spans(tracer, "cli.cycle_replay");
    auto span = [&](const char* name) { return spans.begin(name); };
    auto end_span = [&](std::size_t id) { spans.end(id); };
    iqb::obs::Telemetry telemetry{&metrics_, nullptr, nullptr, trace_id};

    iqb::datasets::LoadFileOptions load;
    load.telemetry = &telemetry;
    load.threads = 0;
    load.ingest = iqb::robust::IngestPolicy::strict();
    load.retry.max_attempts = 1;
    iqb::robust::CircuitBreaker breaker;
    iqb::robust::Quarantine quarantine;
    std::size_t id = span("datasets.parse");
    auto loaded =
        iqb::datasets::load_records_file(records_, load, &breaker, &quarantine);
    end_span(id);
    if (!loaded.ok()) return {};

    id = span("datasets.store_add");
    iqb::datasets::RecordStore store;
    store.add_all(std::move(loaded).value().records);
    end_span(id);

    id = span("datasets.index");
    store.index();
    end_span(id);

    iqb::util::ThreadPool pool(
        iqb::util::ThreadPool::resolve_threads(config_.aggregation.threads));
    id = span("datasets.aggregate");
    const auto table = iqb::datasets::aggregate(store, config_.aggregation,
                                                &telemetry, &pool);
    end_span(id);

    const iqb::core::Pipeline pipeline(config_);
    const auto regions = store.regions();
    std::vector<iqb::core::RegionResult> results;
    id = span("core.score");
    for (const std::string& region : regions) {
      auto scored = pipeline.score_region(table, region);
      if (scored.ok()) results.push_back(std::move(scored).value());
    }
    end_span(id);

    id = span("report.render");
    std::string scores = iqb::report::to_json(results).dump(2) + "\n";
    end_span(id);

    iqb::fleet::ShardPayload payload;
    payload.cycle = cycle;
    payload.trace_id = trace_id;
    payload.table = table;
    id = span("fleet.wire_encode");
    const std::string wire = iqb::fleet::serialize_shard_payload(payload);
    end_span(id);

    iqb::robust::Checkpoint checkpoint;
    checkpoint.cycle = cycle;
    checkpoint.cycles_attempted = cycle;
    checkpoint.trace_id = trace_id;
    checkpoint.scores_json = scores;
    id = span("robust.checkpoint_write");
    const auto saved = checkpoints_.save(checkpoint);
    end_span(id);
    return saved.ok() && !wire.empty() ? scores : std::string();
  }

 private:
  std::string records_;
  iqb::core::IqbConfig config_ = iqb::core::IqbConfig::paper_defaults();
  iqb::obs::MetricsRegistry metrics_;
  iqb::robust::CheckpointStore checkpoints_;
};

}  // namespace

Result run_rescore(const Options& options, std::ostream& err) {
  const Shape& shape = options.smoke ? kSmoke : kFull;
  const auto records = make_records(options.seed, shape);
  const std::string path = options.workdir + "/rescore.csv";
  const std::string csv = iqb::datasets::records_to_csv(records);
  write_file(path, csv);
  note("rescore: " + std::to_string(records.size()) +
       " records (6 regions x 3 datasets x " +
       std::to_string(shape.samples_per_cell) + " samples), CSV " +
       std::to_string(csv.size()) + " bytes");
  note("input digest " + digest(csv));

  Result result;
  // Untimed oracles: the legacy reader, and /scores built from it.
  const auto legacy = iqb::datasets::records_from_csv(csv);
  result.check(legacy.ok(), "legacy reader rejected the input");
  iqb::datasets::FastParseOptions fast_options;
  fast_options.threads = 0;
  const auto fast = iqb::datasets::records_from_csv_fast(csv, fast_options);
  result.check(fast.ok() && legacy.ok() &&
                   iqb::datasets::records_to_csv(*fast) ==
                       iqb::datasets::records_to_csv(*legacy),
               "fast-path records differ from the legacy reader's");
  const std::string oracle = oracle_scores(legacy.ok() ? *legacy : records);

  auto published_ok = [&](iqb::cli::WatchDaemon& daemon, bool ran) {
    const auto snapshot = daemon.server().latest();
    return ran && snapshot && snapshot->scores_json == oracle;
  };

  // Set-up: construct the daemon through its first cold cycle.
  std::vector<double> setups;
  std::unique_ptr<iqb::cli::WatchDaemon> daemon;
  for (std::size_t k = 0; k < shape.setups; ++k) {
    const std::string state = options.workdir + "/state-" + std::to_string(k);
    daemon.reset();
    const double t0 = now_s();
    daemon = std::make_unique<iqb::cli::WatchDaemon>(daemon_options(path, state));
    const bool recovered = daemon->recover(err).ok();
    const bool ran = daemon->run_cycle(err);
    setups.push_back(now_s() - t0);
    result.check(recovered && published_ok(*daemon, ran),
                 "set-up cycle did not publish the oracle's /scores");
  }

  auto timed_cycle = [&](iqb::cli::WatchDaemon& target,
                         std::vector<double>& samples) {
    const double t0 = now_s();
    const bool ran = target.run_cycle(err);
    const double ms = (now_s() - t0) * 1e3;
    const bool ok = published_ok(target, ran);
    ++result.attempted;
    if (!ok) ++result.failed;
    result.check(ok, "a cycle did not publish the oracle's /scores");
    samples.push_back(ok ? ms : INFINITY);
  };

  std::vector<double> cycle_ms;
  const double untraced_budget =
      options.trace ? options.seconds / 2 : options.seconds;
  const std::size_t min_cycles = options.smoke ? 1 : 20;
  for (double spent = 0.0;
       spent < untraced_budget || cycle_ms.size() < min_cycles;) {
    const double t0 = now_s();
    timed_cycle(*daemon, cycle_ms);
    spent += now_s() - t0;
  }
  const double cycle_p50 = median(cycle_ms);
  note_samples("cycles", cycle_ms);

  if (!options.trace) {
    double busy_s = 0.0;
    for (double ms : cycle_ms) busy_s += ms / 1e3;
    result.add("setup_s", median(setups), "s");
    result.add("op_ms_p50", cycle_p50, "ms");
    result.add("throughput_per_s",
               static_cast<double>(records.size()) *
                   static_cast<double>(cycle_ms.size() - result.failed) /
                   busy_s,
               "1/s");
    return result;
  }

  // Traced half, in two parts: cycle replays, alternately with spans
  // and with a null tracer (their difference is the tracing overhead),
  // then the same cycle on a second daemon at width 1.
  Replay replay(path, options.workdir + "/state-replay");
  Ledger ledger;
  std::vector<double> traced_ms, plain_ms;
  const double traced_budget = (options.seconds - untraced_budget) * 0.7;
  for (double spent = 0.0;
       spent < traced_budget || traced_ms.size() < min_cycles / 2;) {
    const bool traced = traced_ms.size() <= plain_ms.size();
    const std::size_t n = traced_ms.size() + plain_ms.size() + 1;
    Tracer* tracer =
        traced ? &ledger.begin_trace("rescore-replay-" + std::to_string(n))
               : nullptr;
    const double t0 = now_s();
    const std::string scores = replay.run(tracer, n);
    const double ms = (now_s() - t0) * 1e3;
    (traced ? traced_ms : plain_ms).push_back(ms);
    ++result.attempted;
    if (scores != oracle) ++result.failed;
    result.check(scores == oracle, "replayed cycle differs from the oracle");
    spent += ms / 1e3;
  }
  note("tracing overhead: replayed cycle p50 " + std::to_string(median(traced_ms)) +
       " ms with spans vs " + std::to_string(median(plain_ms)) + " ms without");

  iqb::cli::DaemonOptions serial_options =
      daemon_options(path, options.workdir + "/state-serial");
  serial_options.threads = 1;
  daemon.reset();
  iqb::cli::WatchDaemon serial(serial_options);
  result.check(serial.recover(err).ok() && published_ok(serial, serial.run_cycle(err)),
               "width-1 daemon did not publish the oracle's /scores");
  std::vector<double> serial_ms;
  for (double spent = 0.0; spent < options.seconds - untraced_budget - traced_budget ||
                           serial_ms.size() < 3;) {
    const double t0 = now_s();
    timed_cycle(serial, serial_ms);
    spent += now_s() - t0;
  }

  double layers_ms = 0.0;
  auto layer = [&](const char* metric, const char* span) {
    const double ms = ledger.median_per_trace(span);
    layers_ms += ms;
    result.add(metric, ms, "ms");
    return ms;
  };
  const double parse_ms = layer("datasets.parse_ms", "datasets.parse");
  layer("datasets.store_add_ms", "datasets.store_add");
  layer("datasets.index_ms", "datasets.index");
  layer("datasets.aggregate_ms", "datasets.aggregate");
  layer("core.score_ms", "core.score");
  layer("report.render_ms", "report.render");
  layer("fleet.wire_encode_ms", "fleet.wire_encode");
  layer("robust.checkpoint_write_ms", "robust.checkpoint_write");
  result.add("datasets.parse_records_per_s",
             static_cast<double>(records.size()) / (parse_ms / 1e3), "1/s");
  result.add("cli.cycle_other_ms", cycle_p50 - layers_ms, "ms");
  result.add("cli.cycle_serial_ms_p50", median(serial_ms), "ms");
  result.add("datasets.records", static_cast<double>(records.size()), "count");
  result.add("process.peak_rss_mb", peak_rss_mb(), "MiB");
  note("width 1 vs auto: cycle p50 " + std::to_string(median(serial_ms)) +
       " ms vs " + std::to_string(cycle_p50) + " ms");
  if (!options.trace_out.empty()) ledger.write_tracez(options.trace_out);
  return result;
}

}  // namespace perfbench
