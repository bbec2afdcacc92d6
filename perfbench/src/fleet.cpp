// Workload `fleet`: one coordinator in front of two region-partitioned
// shard daemons, all in-process on ephemeral loopback ports, driven by
// one closed-loop client that waits for every reply — a dashboard that
// refreshes the fleet, then reads it.
//
// Input: 300 regions (the six datasets::example_region_profiles, each
// perturbed per region by the seed) x the default three-dataset panel
// x 50 samples per cell (~45k records), written as one IQBREC file.
// The seed also splits the regions between the two shards. Both shards
// load the same file and keep their own regions; ingest happens only
// in set-up, so a step's work is scoring, render, wire encode and
// parse, checkpoint and HTTP, all of which scale with the 300 regions.
//
// A step is one CoordinatorDaemon::run_cycle (fetch both shards, parse,
// fuse, checkpoint, publish) followed by kReadsPerGather GET /scores on
// the coordinator through obs::HttpClient. Every daemon's loop stops
// after its first cycle (max_cycles 1), so each later gather is one the
// benchmark started and timed. The coordinator's /scores must be
// byte-identical to one WatchDaemon over the union file; every read
// body is checked by length and CRC-32C, and a read that fails either
// check, or is not a 200, counts as failed and infinitely slow.
//
// The traced run replays a gather's public calls between real gathers,
// and once more splits fleet::fuse into the calls it makes. The replay
// scatters as the coordinator does, one thread per shard fetching and
// then parsing its payload; the fetch and parse layers are reported
// for the slower shard, the gather's critical path.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "iqb/cli/coordinator.hpp"
#include "iqb/cli/daemon.hpp"
#include "iqb/core/pipeline.hpp"
#include "iqb/datasets/fast_csv.hpp"
#include "iqb/datasets/record_io.hpp"
#include "iqb/datasets/synthetic.hpp"
#include "iqb/fleet/coordinator.hpp"
#include "iqb/fleet/wire.hpp"
#include "iqb/obs/http_client.hpp"
#include "iqb/report/render.hpp"
#include "iqb/robust/checkpoint.hpp"

namespace perfbench {
namespace {

using iqb::obs::Tracer;

struct Shape {
  std::size_t regions;
  std::size_t samples_per_cell;
  std::size_t reads_per_gather;
  std::size_t setups;
};
constexpr Shape kFull{300, 50, 20, 20};
constexpr Shape kSmoke{12, 20, 4, 1};
constexpr const char* kHost = "127.0.0.1";
// Loops never start a cycle of their own after the first.
constexpr std::uint64_t kNeverMs = 24ull * 3600 * 1000;

struct Inputs {
  std::vector<iqb::datasets::MeasurementRecord> records;
  std::vector<std::string> shard_regions[2];
};

Inputs make_inputs(std::uint64_t seed, const Shape& shape) {
  iqb::util::Rng rng(seed);
  iqb::datasets::SyntheticConfig config;
  config.records_per_dataset = shape.samples_per_cell;
  config.base_time = iqb::util::Timestamp::parse("2025-03-01").value();
  Inputs inputs;
  std::vector<std::string> names;
  const auto profiles = iqb::datasets::example_region_profiles();
  for (std::size_t i = 0; i < shape.regions; ++i) {
    iqb::datasets::RegionProfile profile = profiles[i % profiles.size()];
    char suffix[32];
    std::snprintf(suffix, sizeof suffix, "_%03zu", i);
    profile.region += suffix;
    profile.median_download_mbps *= rng.uniform(0.7, 1.3);
    profile.base_latency_ms *= rng.uniform(0.8, 1.2);
    auto region = iqb::datasets::generate_region_records(
        profile, iqb::datasets::default_dataset_panel(), config, rng);
    inputs.records.insert(inputs.records.end(),
                          std::make_move_iterator(region.begin()),
                          std::make_move_iterator(region.end()));
    names.push_back(profile.region);
  }
  // Seeded even split: shuffle, then deal the first half to shard a.
  for (std::size_t i = names.size(); i > 1; --i) {
    std::swap(names[i - 1],
              names[static_cast<std::size_t>(rng.uniform_int(
                  0, static_cast<std::int64_t>(i) - 1))]);
  }
  for (std::size_t i = 0; i < names.size(); ++i) {
    inputs.shard_regions[i < names.size() / 2 ? 0 : 1].push_back(names[i]);
  }
  for (auto& list : inputs.shard_regions) std::sort(list.begin(), list.end());
  return inputs;
}

iqb::cli::DaemonOptions shard_options(const std::string& records,
                                      std::vector<std::string> regions) {
  iqb::cli::DaemonOptions options;
  options.records_path = records;
  options.regions = std::move(regions);
  options.port = 0;
  options.interval_ms = kNeverMs;
  options.watch_files = false;
  options.max_cycles = 1;
  return options;
}

bool wait_finished(const auto& daemon) {
  const double deadline = now_s() + 60.0;
  while (!daemon.finished()) {
    if (now_s() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

/// Two shards and the coordinator in front of them.
struct Fleet {
  std::unique_ptr<iqb::cli::WatchDaemon> shards[2];
  std::unique_ptr<iqb::cli::CoordinatorDaemon> coordinator;

  ~Fleet() {
    if (coordinator) coordinator->stop();
    for (auto& shard : shards) {
      if (shard) shard->stop();
    }
  }

  /// The shards' cold cycles and server starts, then the
  /// coordinator's first gather, checkpoint and server start.
  bool start(const std::string& records, const Inputs& inputs,
             const std::string& state_dir, std::ostream& err) {
    for (int i = 0; i < 2; ++i) {
      shards[i] = std::make_unique<iqb::cli::WatchDaemon>(
          shard_options(records, inputs.shard_regions[i]));
      if (!shards[i]->start(err).ok()) return false;
    }
    iqb::cli::CoordinatorOptions options;
    for (int i = 0; i < 2; ++i) {
      if (!wait_finished(*shards[i])) return false;
      options.shards.push_back({i == 0 ? "a" : "b", kHost, shards[i]->port()});
    }
    options.port = 0;
    options.state_dir = state_dir;
    options.interval_ms = kNeverMs;
    options.max_cycles = 1;
    coordinator = std::make_unique<iqb::cli::CoordinatorDaemon>(options);
    return coordinator->start(err).ok() && wait_finished(*coordinator) &&
           coordinator->cycles_failed() == 0;
  }
};

/// Sum of every sample of a counter family in Prometheus text.
double counter_total(const std::string& exposition, const std::string& name) {
  double total = 0.0;
  std::istringstream lines(exposition);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind(name, 0) != 0) continue;
    const char next = line.size() > name.size() ? line[name.size()] : ' ';
    if (next != ' ' && next != '{') continue;
    total += std::stod(line.substr(line.find_last_of(' ') + 1));
  }
  return total;
}

}  // namespace

Result run_fleet(const Options& options, std::ostream& err) {
  const Shape& shape = options.smoke ? kSmoke : kFull;
  const Inputs inputs = make_inputs(options.seed, shape);
  const std::string path = options.workdir + "/fleet.iqbr";
  if (!iqb::datasets::write_records_iqbr(path, inputs.records).ok()) {
    throw std::runtime_error("cannot write " + path);
  }
  std::string split;
  for (int i = 0; i < 2; ++i) {
    for (const auto& region : inputs.shard_regions[i]) {
      split += std::to_string(i) + ":" + region + "\n";
    }
  }
  note("fleet: " + std::to_string(inputs.records.size()) + " records (" +
       std::to_string(shape.regions) + " regions x 3 datasets x " +
       std::to_string(shape.samples_per_cell) + " samples), IQBREC, " +
       std::to_string(inputs.shard_regions[0].size()) + "/" +
       std::to_string(inputs.shard_regions[1].size()) + " regions per shard");
  note("input digest " + digest(read_file(path)) + " split " + digest(split));

  Result result;
  // Untimed oracle: one daemon over the union file.
  std::string oracle;
  {
    iqb::cli::DaemonOptions union_options = shard_options(path, {});
    iqb::cli::WatchDaemon single(union_options);
    if (single.run_cycle(err)) oracle = single.server().latest()->scores_json;
    result.check(!oracle.empty(), "the single daemon over the union failed");
  }
  const std::uint32_t oracle_crc = iqb::datasets::iqbr_crc32c(oracle);

  std::vector<double> setups;
  std::unique_ptr<Fleet> fleet;
  for (std::size_t k = 0; k < shape.setups; ++k) {
    fleet.reset();
    const std::string state = options.workdir + "/coordinator-" + std::to_string(k);
    const double t0 = now_s();
    auto started = std::make_unique<Fleet>();
    const bool ok = started->start(path, inputs, state, err);
    setups.push_back(now_s() - t0);
    result.check(ok, "fleet set-up failed");
    if (!ok) return result;
    fleet = std::move(started);
  }
  iqb::cli::CoordinatorDaemon& coordinator = *fleet->coordinator;
  const std::uint16_t port = coordinator.port();
  const iqb::obs::HttpClient client;

  std::vector<double> gather_ms, read_ms;
  auto step = [&](Tracer* tracer) {
    std::optional<Spans> spans;
    if (tracer) spans.emplace(tracer, "cli.gather");
    const double t0 = now_s();
    const bool ran = coordinator.run_cycle(err);
    const double ms = (now_s() - t0) * 1e3;
    spans.reset();
    const auto snapshot = coordinator.server().latest();
    const bool ok = ran && snapshot && snapshot->scores_json == oracle;
    ++result.attempted;
    if (!ok) ++result.failed;
    result.check(ok, "a gather did not publish the single daemon's /scores");
    gather_ms.push_back(ok ? ms : INFINITY);
    for (std::size_t r = 0; r < shape.reads_per_gather; ++r) {
      const double r0 = now_s();
      const auto response = client.get(kHost, port, "/scores");
      const double read_s = now_s() - r0;
      const bool read_ok = response.ok() && response->status == 200 &&
                           response->body.size() == oracle.size() &&
                           iqb::datasets::iqbr_crc32c(response->body) == oracle_crc;
      ++result.attempted;
      if (!read_ok) ++result.failed;
      result.check(read_ok, "a /scores read failed or differed");
      read_ms.push_back(read_ok ? read_s * 1e3 : INFINITY);
    }
  };

  const double untraced_budget =
      options.trace ? options.seconds / 2 : options.seconds;
  const std::size_t min_gathers = options.smoke ? 1 : 20;
  for (double spent = 0.0;
       spent < untraced_budget || gather_ms.size() < min_gathers;) {
    const double t0 = now_s();
    step(nullptr);
    spent += now_s() - t0;
  }
  const double gather_p50 = median(gather_ms);
  const double read_p50 = median(read_ms);
  const double read_p90 = percentile(read_ms, 0.9);
  note_samples("gathers", gather_ms);
  note_samples("reads", read_ms);

  if (!options.trace) {
    result.add("setup_s", median(setups), "s");
    result.add("op_ms_p50", gather_p50, "ms");
    // The single client's read rate at the median read latency.
    result.add("throughput_per_s", 1e3 / read_p50, "1/s");
    return result;
  }

  // Traced half: real gathers under a root span, each followed by a
  // replay of the gather's calls and a split of fleet::fuse.
  Ledger ledger;
  const iqb::core::IqbConfig config = iqb::core::IqbConfig::paper_defaults();
  const iqb::core::Pipeline pipeline(config);
  iqb::robust::CheckpointStore replay_store(options.workdir + "/replay");
  result.check(replay_store.prepare().ok(), "cannot prepare the replay store");
  std::vector<double> fetch_bytes;
  const std::size_t traced_from = gather_ms.size();
  for (double spent = 0.0; spent < options.seconds - untraced_budget ||
                           gather_ms.size() - traced_from < min_gathers / 2;) {
    const double t0 = now_s();
    const std::string n = std::to_string(gather_ms.size() - traced_from + 1);
    step(&ledger.begin_trace("fleet-gather-" + n));

    std::vector<iqb::fleet::ShardView> views(2);
    double bytes[2] = {0.0, 0.0};
    {
      Spans spans(&ledger.begin_trace("fleet-replay-" + n), "cli.gather_replay");
      // The scatter as the coordinator runs it: one thread per shard,
      // each fetching its payload and then parsing it.
      const std::size_t scatter = spans.begin("fleet.scatter");
      auto fetch_and_parse = [&](int i) {
        views[i].name = i == 0 ? "a" : "b";
        const std::size_t lane = spans.begin_under("fleet.shard", scatter);
        std::size_t id = spans.begin_under("obs.shard_fetch", lane);
        const auto fetched =
            client.get(kHost, fleet->shards[i]->port(), "/shard/aggregate");
        spans.end(id);
        if (fetched.ok() && fetched->status == 200) {
          bytes[i] = static_cast<double>(fetched->body.size());
          id = spans.begin_under("fleet.wire_parse", lane);
          auto payload = iqb::fleet::parse_shard_payload(fetched->body);
          spans.end(id);
          if (payload.ok()) views[i].payload = std::move(payload).value();
        }
        spans.end(lane);
      };
      std::thread shard_a(fetch_and_parse, 0), shard_b(fetch_and_parse, 1);
      shard_a.join();
      shard_b.join();
      spans.end(scatter);
      const bool fetched = views[0].payload && views[1].payload;
      std::size_t id = spans.begin("fleet.fuse");
      const auto fused = iqb::fleet::fuse(config, views, "fleet-replay-" + n);
      spans.end(id);
      iqb::robust::Checkpoint checkpoint;
      checkpoint.cycle = gather_ms.size();
      checkpoint.scores_json = fused.scores_json;
      id = spans.begin("robust.checkpoint_write");
      const bool saved = replay_store.save(checkpoint).ok();
      spans.end(id);
      result.check(fetched && saved && fused.scores_json == oracle,
                   "replayed gather differs from the single daemon");
    }
    fetch_bytes.push_back(bytes[0] + bytes[1]);
    {
      // fleet::fuse, call by call, on the same payloads.
      Spans spans(&ledger.begin_trace("fleet-split-" + n), "fleet.fuse_split");
      iqb::datasets::AggregateTable table;
      for (const auto& view : views) {
        if (!view.payload) continue;
        const std::size_t id = spans.begin("datasets.merge");
        table.merge(view.payload->table);
        spans.end(id);
      }
      const auto regions = table.regions();
      std::vector<iqb::core::RegionResult> results;
      std::size_t id = spans.begin("core.score");
      for (const std::string& region : regions) {
        auto scored = pipeline.score_region(table, region);
        if (scored.ok()) results.push_back(std::move(scored).value());
      }
      spans.end(id);
      id = spans.begin("report.render");
      const std::string scores = iqb::report::to_json(results).dump(2) + "\n";
      spans.end(id);
      iqb::fleet::ShardPayload payload;
      payload.table = table;
      id = spans.begin("fleet.wire_encode");
      const std::string wire = iqb::fleet::serialize_shard_payload(payload);
      spans.end(id);
      result.check(scores == oracle && !wire.empty(),
                   "split fuse differs from the single daemon");
    }
    spent += now_s() - t0;
  }
  std::vector<double> traced_gather_ms(gather_ms.begin() + static_cast<std::ptrdiff_t>(traced_from),
                                       gather_ms.end());
  note("tracing overhead: gather p50 " + std::to_string(median(traced_gather_ms)) +
       " ms traced vs " + std::to_string(gather_p50) + " ms untraced");

  // Ingest and recovery, once each per set-up's worth of work.
  for (int k = 0; k < 3; ++k) {
    Spans spans(&ledger.begin_trace("fleet-ingest-" + std::to_string(k)),
                "fleet.ingest");
    const std::size_t id = spans.begin("datasets.iqbr_decode");
    const auto loaded = iqb::datasets::load_records_file(path);
    spans.end(id);
    result.check(loaded.ok() && loaded->records.size() == inputs.records.size(),
                 "IQBREC reload failed");
  }
  {
    Spans spans(&ledger.begin_trace("fleet-recover"), "fleet.recover");
    iqb::robust::CheckpointStore store(options.workdir + "/coordinator-" +
                                       std::to_string(shape.setups - 1));
    const std::size_t id = spans.begin("robust.checkpoint_recover");
    const auto recovered = store.load_newest();
    spans.end(id);
    result.check(recovered.ok() && recovered->checkpoint &&
                     recovered->checkpoint->scores_json == oracle,
                 "coordinator checkpoint did not recover the served scores");
  }

  double gather_layers = 0.0;
  auto layer = [&](const char* metric, const char* span, bool in_gather) {
    const double ms = ledger.median_per_trace(span);
    if (in_gather) gather_layers += ms;
    result.add(metric, ms, "ms");
  };
  // The concurrent scatter counts once: its critical (slower) shard.
  for (const auto& [metric, span] :
       {std::pair{"obs.shard_fetch_ms", "obs.shard_fetch"},
        std::pair{"fleet.wire_parse_ms", "fleet.wire_parse"}}) {
    const double ms = ledger.median_critical("fleet.shard", span);
    gather_layers += ms;
    result.add(metric, ms, "ms");
  }
  layer("fleet.fuse_ms", "fleet.fuse", true);
  layer("robust.checkpoint_write_ms", "robust.checkpoint_write", true);
  layer("datasets.merge_ms", "datasets.merge", false);
  layer("core.score_ms", "core.score", false);
  layer("report.render_ms", "report.render", false);
  layer("fleet.wire_encode_ms", "fleet.wire_encode", false);
  layer("datasets.iqbr_decode_ms", "datasets.iqbr_decode", false);
  layer("robust.checkpoint_recover_ms", "robust.checkpoint_recover", false);
  result.add("cli.gather_other_ms", gather_p50 - gather_layers, "ms");
  result.add("obs.shard_fetch_bytes", median(fetch_bytes), "bytes");
  result.add("obs.scores_bytes", static_cast<double>(oracle.size()), "bytes");
  result.add("obs.read_ms_p50", read_p50, "ms");
  result.add("obs.read_ms_p90", read_p90, "ms");
  const auto metrics = client.get(kHost, port, "/metrics");
  result.check(metrics.ok() && metrics->status == 200, "/metrics unreadable");
  const std::string exposition = metrics.ok() ? metrics->body : std::string();
  result.add("fleet.fetch_retries",
             counter_total(exposition, "fleet_fetch_retries_total"), "count");
  result.add("fleet.hedges", counter_total(exposition, "fleet_hedges_total"),
             "count");
  result.add("process.peak_rss_mb", peak_rss_mb(), "MiB");
  if (!options.trace_out.empty()) ledger.write_tracez(options.trace_out);
  return result;
}

}  // namespace perfbench
