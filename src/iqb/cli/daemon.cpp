#include "iqb/cli/daemon.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <ostream>
#include <system_error>
#include <utility>

#include "iqb/cli/cli.hpp"
#include "iqb/cli/load.hpp"
#include "iqb/core/pipeline.hpp"
#include "iqb/datasets/record.hpp"
#include "iqb/fleet/wire.hpp"
#include "iqb/obs/clock.hpp"
#include "iqb/obs/history_routes.hpp"
#include "iqb/obs/telemetry.hpp"
#include "iqb/obs/trace.hpp"
#include "iqb/report/render.hpp"
#include "iqb/util/log.hpp"
#include "iqb/util/strings.hpp"
#include "iqb/util/version.hpp"

namespace iqb::cli {

namespace {

constexpr const char* kDaemonUsage =
    "usage: iqbd --records FILE.csv [--config FILE.json] [--port N]\n"
    "            [--bind ADDR] [--interval-ms N] [--poll-ms N]\n"
    "            [--watch true|false] [--lenient true] [--by-isp true]\n"
    "            [--max-cycles N] [--state-dir DIR]\n"
    "            [--cycle-deadline-ms N] [--telemetry true|false]\n"
    "            [--trace-prefix S] [--threads N] [--regions A,B,...]\n"
    "            [--slo-file FILE.json]\n"
    "            [--replicate-to host:port,...] [--node-id S]\n"
    "            [--recovery-lag N]\n"
    "serves /metrics /metrics.json /healthz /readyz /tracez /scores\n"
    "/historyz (windowed time-series history) /alertz (SLO alerts;\n"
    "--slo-file adds declarative burn-rate/threshold/anomaly specs)\n"
    "and /shard/aggregate (the cycle's aggregate table, for a fleet\n"
    "coordinator); --regions restricts scoring to the listed regions,\n"
    "turning this daemon into one shard of a region-partitioned fleet.\n"
    "--state-dir enables crash-safe checkpoints: on restart the newest\n"
    "valid checkpoint is served (flagged stale) until a fresh cycle.\n"
    "--replicate-to pushes each cycle's checkpoint to the listed peers\n"
    "(served on /checkpointz) and, on restart, bootstraps from the\n"
    "freshest peer copy when the local store is empty or trails by\n"
    "more than --recovery-lag cycles; --node-id names this daemon's\n"
    "replicas on its peers.\n"
    "exit codes: 0 ok, 1 usage error, 2 startup error\n";

constexpr const char* kCheckpointCorruptMetric =
    "iqbd_checkpoint_corrupt_total";
constexpr const char* kCheckpointCorruptHelp =
    "Checkpoint files rejected during recovery (torn, bad CRC, foreign "
    "version)";
constexpr const char* kCycleTimeoutsMetric = "iqbd_cycle_timeouts_total";
constexpr const char* kCycleTimeoutsHelp =
    "Scoring cycles cancelled by the watchdog deadline";
constexpr const char* kPeerRecoveryMetric = "iqbd_peer_recovery_total";
constexpr const char* kPeerRecoveryHelp =
    "Checkpoints adopted from a peer at startup (newest-valid-wins "
    "chose a remote copy)";

util::Result<std::uint64_t> parse_u64_option(const std::string& key,
                                             const std::string& text) {
  auto value = util::parse_int(text);
  if (!value.ok() || value.value() < 0) {
    return util::make_error(util::ErrorCode::kInvalidArgument,
                            "bad --" + key + " '" + text + "'");
  }
  return static_cast<std::uint64_t>(value.value());
}

}  // namespace

const char* daemon_usage() noexcept { return kDaemonUsage; }

util::Result<DaemonOptions> parse_daemon_args(
    const std::vector<std::string>& tokens) {
  DaemonOptions options;
  auto pairs = parse_options(tokens);
  if (!pairs.ok()) return pairs.error();
  for (const auto& [name, value] : pairs.value()) {
    if (name == "records") {
      options.records_path = value;
    } else if (name == "config") {
      options.config_path = value;
    } else if (name == "bind") {
      options.bind_address = value;
    } else if (name == "trace-prefix") {
      options.trace_prefix = value;
    } else if (name == "regions") {
      for (const std::string& region : util::split(value, ',')) {
        if (!region.empty()) options.regions.push_back(region);
      }
      if (options.regions.empty()) {
        return util::make_error(util::ErrorCode::kInvalidArgument,
                                "--regions needs at least one region name");
      }
    } else if (name == "state-dir") {
      options.state_dir = value;
    } else if (name == "replicate-to") {
      std::size_t index = 0;
      for (const std::string& token : util::split(value, ',')) {
        if (token.empty()) continue;
        auto endpoint = fleet::parse_shard_endpoint(token, index);
        if (!endpoint.ok()) return endpoint.error();
        // Unnamed peers read as peer<N> in logs and metrics instead of
        // parse_shard_endpoint's shard<N> default.
        if (token.find('=') == std::string::npos) {
          endpoint->name = "peer" + std::to_string(index);
        }
        options.replicate_to.push_back(std::move(endpoint).value());
        ++index;
      }
      if (options.replicate_to.empty()) {
        return util::make_error(util::ErrorCode::kInvalidArgument,
                                "--replicate-to needs at least one peer");
      }
    } else if (name == "node-id") {
      if (!fleet::valid_node_id(value)) {
        return util::make_error(
            util::ErrorCode::kInvalidArgument,
            "bad --node-id '" + value + "' (want 1-64 chars of [A-Za-z0-9_-])");
      }
      options.node_id = value;
    } else if (name == "recovery-lag") {
      auto parsed = parse_u64_option(name, value);
      if (!parsed.ok()) return parsed.error();
      options.recovery_lag = parsed.value();
    } else if (name == "slo-file") {
      options.slo_file = value;
    } else if (name == "lenient") {
      options.lenient = value == "true";
    } else if (name == "by-isp") {
      options.by_isp = value == "true";
    } else if (name == "watch") {
      options.watch_files = value == "true";
    } else if (name == "telemetry") {
      options.telemetry = value == "true";
    } else if (name == "port") {
      auto parsed = parse_u64_option(name, value);
      if (!parsed.ok()) return parsed.error();
      if (parsed.value() > 65535) {
        return util::make_error(util::ErrorCode::kInvalidArgument,
                                "--port out of range '" + value + "'");
      }
      options.port = static_cast<std::uint16_t>(parsed.value());
    } else if (name == "interval-ms") {
      auto parsed = parse_u64_option(name, value);
      if (!parsed.ok()) return parsed.error();
      options.interval_ms = parsed.value();
    } else if (name == "poll-ms") {
      auto parsed = parse_u64_option(name, value);
      if (!parsed.ok()) return parsed.error();
      options.poll_ms = parsed.value() == 0 ? 1 : parsed.value();
    } else if (name == "max-cycles") {
      auto parsed = parse_u64_option(name, value);
      if (!parsed.ok()) return parsed.error();
      options.max_cycles = parsed.value();
    } else if (name == "cycle-deadline-ms") {
      auto parsed = parse_u64_option(name, value);
      if (!parsed.ok()) return parsed.error();
      options.cycle_deadline_ms = parsed.value();
    } else if (name == "threads") {
      auto parsed = parse_u64_option(name, value);
      if (!parsed.ok()) return parsed.error();
      options.threads = static_cast<std::size_t>(parsed.value());
    } else {
      return util::make_error(util::ErrorCode::kInvalidArgument,
                              "unknown option --" + name);
    }
  }
  if (options.records_path.empty()) {
    return util::make_error(util::ErrorCode::kInvalidArgument,
                            "--records is required");
  }
  if (!options.replicate_to.empty() && !options.state_dir) {
    return util::make_error(util::ErrorCode::kInvalidArgument,
                            "--replicate-to requires --state-dir");
  }
  return options;
}

WatchDaemon::WatchDaemon(DaemonOptions options)
    : options_(std::move(options)),
      spans_(options_.span_buffer_capacity),
      request_stats_([this]() -> std::unique_ptr<obs::RequestStats> {
        if (!options_.telemetry) return nullptr;
        obs::RequestStats::Options stats;
        stats.metrics = &metrics_;
        stats.known_paths = obs::default_telemetry_paths();
        return std::make_unique<obs::RequestStats>(std::move(stats));
      }()),
      history_(options_.telemetry
                   ? std::make_unique<obs::TimeSeriesStore>(options_.history)
                   : nullptr),
      server_(
          [this] {
            obs::TelemetryServer::Options server_options;
            server_options.http.bind_address = options_.bind_address;
            server_options.http.port = options_.port;
            // Telemetry off keeps the HTTP layer byte-identical to the
            // untraced server: no sinks, no X-IQB-Trace header.
            server_options.http.request_stats = request_stats_.get();
            server_options.http.spans =
                options_.telemetry ? &spans_ : nullptr;
            server_options.route_override =
                [this](const obs::HttpRequest& request) {
                  return telemetry_route(request);
                };
            return server_options;
          }(),
          &metrics_, &spans_) {
  start_ms_ = now_ms();
  if (options_.telemetry) {
    metrics_
        .gauge("iqb_build_info",
               "Build identity; always 1, version rides in the labels",
               {{"git_sha", util::git_sha()}, {"version", util::version()}})
        .set(1.0);
    metrics_
        .gauge("iqbd_uptime_seconds", "Seconds since daemon construction")
        .set(0.0);
  }
  if (options_.state_dir) {
    checkpoints_.emplace(*options_.state_dir, options_.checkpoint_keep);
    fleet::CheckpointExchange::Options exchange_options;
    exchange_options.node_id = options_.node_id;
    exchange_options.state_dir = *options_.state_dir;
    exchange_options.keep = options_.checkpoint_keep;
    exchange_ = std::make_unique<fleet::CheckpointExchange>(
        std::move(exchange_options), &*checkpoints_);
  }
  if (!options_.replicate_to.empty() && checkpoints_) {
    fleet::Replicator::Options replicator_options;
    replicator_options.node_id = options_.node_id;
    replicator_options.peers = options_.replicate_to;
    replicator_options.http = options_.replication_http;
    replicator_options.retry_sleep_scale =
        options_.replication_retry_sleep_scale;
    replicator_ = std::make_unique<fleet::Replicator>(
        std::move(replicator_options), &*checkpoints_,
        options_.telemetry ? &metrics_ : nullptr);
    if (options_.telemetry) {
      // Eager family registration: visible at zero before any recovery.
      metrics_.counter(kPeerRecoveryMetric, kPeerRecoveryHelp);
    }
  }
  if (options_.cycle_deadline_ms != 0) {
    robust::CycleWatchdog::Options watchdog_options;
    watchdog_options.deadline_ms = options_.cycle_deadline_ms;
    watchdog_options.check_interval_ms =
        std::min<std::uint64_t>(options_.poll_ms, 50);
    watchdog_options.now_ms = options_.watchdog_now_ms;
    watchdog_options.on_timeout = [this](std::uint64_t cycle) {
      cancel_cycle_.store(true);
      cycle_timeouts_.fetch_add(1);
      if (options_.telemetry) {
        metrics_.counter(kCycleTimeoutsMetric, kCycleTimeoutsHelp).inc();
      }
      IQB_LOG(kError) << "watchdog: cycle " << cycle
                      << " exceeded its deadline ("
                      << options_.cycle_deadline_ms << " ms); cancelling";
    };
    watchdog_ = std::make_unique<robust::CycleWatchdog>(
        std::move(watchdog_options));
  }
}

WatchDaemon::~WatchDaemon() { stop(); }

util::Result<void> WatchDaemon::ensure_config() {
  if (config_) return {};
  if (options_.config_path) {
    auto loaded = core::IqbConfig::load(*options_.config_path);
    if (!loaded.ok()) return loaded.error();
    config_ = std::move(loaded).value();
  } else {
    config_ = core::IqbConfig::paper_defaults();
  }
  // Execution width is a deployment knob, not part of the scoring
  // config file; scores are byte-identical at every width.
  config_->aggregation.threads = options_.threads;
  return {};
}

std::uint64_t WatchDaemon::now_ms() const {
  obs::Clock* clock = options_.clock;
  const std::uint64_t now_ns =
      clock ? clock->now_ns() : obs::steady_clock().now_ns();
  return now_ns / 1'000'000;
}

util::Result<void> WatchDaemon::ensure_alerting(std::ostream& err) {
  if (alerting_ready_ || !options_.telemetry) return {};
  obs::SloEngine::Options slo_options;
  // Built-in score-quality rules: EWMA+MAD drift on per-region scores,
  // confidence-tier flapping, and a burn rate on failed cycles.
  {
    obs::SloSpec drift;
    drift.type = obs::SloSpec::Type::kAnomaly;
    drift.name = "score_drift";
    drift.metric = "iqb_region_score";
    slo_options.specs.push_back(std::move(drift));

    obs::SloSpec flap;
    flap.type = obs::SloSpec::Type::kFlap;
    flap.name = "tier_flap";
    flap.metric = "iqb_region_tier";
    slo_options.specs.push_back(std::move(flap));

    obs::SloSpec cycles;
    cycles.type = obs::SloSpec::Type::kBurnRate;
    cycles.name = "cycle_error_burn";
    cycles.metric = "iqb_daemon_cycles_total";
    cycles.bad_metric = "iqb_daemon_cycles_total";
    cycles.bad_labels = {{"result", "error"}};
    slo_options.specs.push_back(std::move(cycles));
  }
  for (const obs::SloSpec& spec : options_.slo_specs) {
    slo_options.specs.push_back(spec);
  }
  if (options_.slo_file) {
    auto loaded = obs::load_slo_file(*options_.slo_file);
    if (!loaded.ok()) {
      err << "slo config error: " << loaded.error().to_string() << "\n";
      return loaded.error();
    }
    for (obs::SloSpec& spec : *loaded) {
      slo_options.specs.push_back(std::move(spec));
    }
    IQB_LOG(kInfo) << "loaded " << loaded->size() << " SLO spec(s) from "
                   << *options_.slo_file;
  }
  slo_ = std::make_unique<obs::SloEngine>(std::move(slo_options),
                                          history_.get());
  alerting_ready_ = true;
  return {};
}

std::optional<obs::HttpResponse> WatchDaemon::telemetry_route(
    const obs::HttpRequest& request) const {
  if (exchange_) {
    if (auto response = exchange_->handle(request)) return response;
  }
  if (request.path == "/historyz") {
    return obs::serve_historyz(history_.get(), request, now_ms());
  }
  if (request.path == "/alertz") {
    return obs::serve_alertz(slo_.get(), options_.telemetry);
  }
  return std::nullopt;
}

bool WatchDaemon::serving_stale() const {
  const auto snapshot = server_.latest();
  return snapshot && snapshot->stale;
}

util::Result<void> WatchDaemon::recover(std::ostream& err) {
  recovered_ = true;
  if (!checkpoints_) return {};
  if (auto prepared = checkpoints_->prepare(); !prepared.ok()) {
    return prepared;
  }
  auto outcome = checkpoints_->load_newest();
  if (!outcome.ok()) return outcome.error();
  for (const auto& rejected : outcome->rejected) {
    checkpoints_rejected_.fetch_add(1);
    if (options_.telemetry) {
      metrics_.counter(kCheckpointCorruptMetric, kCheckpointCorruptHelp)
          .inc();
    }
    IQB_LOG(kWarn) << "skipping corrupt checkpoint " << rejected.file << ": "
                   << rejected.reason;
    err << "skipping corrupt checkpoint " << rejected.file << ": "
        << rejected.reason << "\n";
  }
  // Make the corrupt-counter family visible in exports even when the
  // recovery was clean, so dashboards can alert on its rate.
  if (options_.telemetry) {
    metrics_.counter(kCheckpointCorruptMetric, kCheckpointCorruptHelp);
  }

  // Newest-valid-wins across local + remote: with peers configured,
  // ask each for its replica of this node and adopt the freshest copy
  // that beats the local newest by more than recovery_lag — which also
  // covers the local store being empty or wholly corrupt (cycle 0).
  std::optional<robust::Checkpoint> best = std::move(outcome->checkpoint);
  std::string source = "local store";
  if (!options_.replicate_to.empty()) {
    const std::uint64_t local_cycle = best ? best->cycle : 0;
    auto remote = fleet::bootstrap_from_peers(
        *checkpoints_, local_cycle, options_.recovery_lag, options_.node_id,
        options_.replicate_to, options_.replication_http);
    for (const fleet::RejectedCandidate& candidate : remote.rejected) {
      IQB_LOG(kInfo) << "peer recovery: passed over " << candidate.candidate
                     << ": " << candidate.reason;
      err << "peer recovery: passed over " << candidate.candidate << ": "
          << candidate.reason << "\n";
    }
    if (remote.checkpoint) {
      best = std::move(remote.checkpoint);
      source = "peer " + remote.source;
      peer_recoveries_.fetch_add(1);
      if (options_.telemetry) {
        metrics_.counter(kPeerRecoveryMetric, kPeerRecoveryHelp).inc();
      }
    }
  }
  if (!best) return {};

  const robust::Checkpoint& checkpoint = *best;
  auto snapshot = std::make_shared<obs::ScoreSnapshot>();
  snapshot->cycle = checkpoint.cycle;
  snapshot->trace_id = checkpoint.trace_id;
  snapshot->scores_json = checkpoint.scores_json;
  snapshot->tier_c = checkpoint.tier_c;
  snapshot->tier_c_regions = checkpoint.tier_c_regions;
  snapshot->stale = true;
  server_.publish(std::move(snapshot));

  // Counters resume from the persisted loop state so cycle ordinals —
  // and the /readyz cycle field — are monotone across restarts.
  cycles_total_.store(
      std::max(checkpoint.cycles_attempted, checkpoint.cycle));
  cycles_failed_.store(checkpoint.cycles_failed);
  last_checkpoint_cycle_ = checkpoint.cycle;
  if (options_.telemetry) {
    metrics_
        .gauge("iqbd_serving_stale",
               "1 while serving a recovered checkpoint no fresh cycle has "
               "replaced")
        .set(1.0);
    metrics_
        .counter("iqbd_checkpoint_recovered_total",
                 "Successful checkpoint recoveries at startup")
        .inc();
  }
  IQB_LOG(kInfo) << "recovered checkpoint: cycle " << checkpoint.cycle
                 << " (trace " << checkpoint.trace_id << ", from " << source
                 << "); serving stale until the next fresh cycle";
  err << "recovered checkpoint: cycle " << checkpoint.cycle << " from "
      << source << "; serving stale until the next fresh cycle\n";
  return {};
}

util::Result<void> WatchDaemon::start(std::ostream& err) {
  if (running_) {
    return util::make_error(util::ErrorCode::kInvalidArgument,
                            "daemon already running");
  }
  if (auto config = ensure_config(); !config.ok()) {
    return config.error();
  }
  // Build the SLO engine before the server accepts /alertz traffic;
  // the loop thread only sees the ready engine afterwards.
  if (auto alerting = ensure_alerting(err); !alerting.ok()) {
    return alerting.error();
  }
  if (!recovered_) {
    if (auto recovery = recover(err); !recovery.ok()) {
      return recovery.error();
    }
  }
  if (auto started = server_.start(); !started.ok()) {
    return started.error();
  }
  if (watchdog_) watchdog_->start();
  finished_.store(false);
  stop_requested_ = false;
  running_ = true;
  loop_thread_ = std::thread([this, &err] { loop(err); });
  return {};
}

void WatchDaemon::stop() {
  if (!running_) return;
  {
    std::lock_guard<std::mutex> lock(loop_mutex_);
    stop_requested_ = true;
  }
  loop_cv_.notify_all();
  // The in-flight cycle completes (or is cancelled by the watchdog);
  // its snapshot and checkpoint land before the join returns.
  if (loop_thread_.joinable()) loop_thread_.join();
  if (watchdog_) watchdog_->stop();
  // Flush a final checkpoint in case the last published snapshot
  // never reached disk (per-cycle saves make this a no-op normally).
  if (checkpoints_) {
    const auto snapshot = server_.latest();
    if (snapshot && !snapshot->stale &&
        snapshot->cycle > last_checkpoint_cycle_) {
      robust::Checkpoint checkpoint;
      checkpoint.cycle = snapshot->cycle;
      checkpoint.cycles_attempted = cycles_total_.load();
      checkpoint.cycles_failed = cycles_failed_.load();
      checkpoint.trace_id = snapshot->trace_id;
      checkpoint.scores_json = snapshot->scores_json;
      checkpoint.tier_c = snapshot->tier_c;
      checkpoint.tier_c_regions = snapshot->tier_c_regions;
      if (auto saved = checkpoints_->save(checkpoint); !saved.ok()) {
        IQB_LOG(kWarn) << "final checkpoint flush failed: "
                       << saved.error().to_string();
      } else {
        last_checkpoint_cycle_ = snapshot->cycle;
      }
    }
  }
  // Drain, not stop: requests already accepted get their answers
  // before the worker threads join (SIGTERM grace).
  server_.drain();
  running_ = false;
}

bool WatchDaemon::poll_mtime() {
  std::error_code ec;
  const auto mtime = std::filesystem::last_write_time(options_.records_path, ec);
  if (ec) {
    // A writer replacing the records file via rename briefly unlinks
    // the name; ENOENT here is "no change yet", not an error — the
    // recreated file's mtime will differ and trigger the re-run. Other
    // stat failures also just let the interval drive the loop.
    if (ec != std::errc::no_such_file_or_directory) {
      IQB_LOG(kWarn) << "stat " << options_.records_path
                     << " failed: " << ec.message();
    }
    return false;
  }
  if (!last_mtime_) {
    last_mtime_ = mtime;
    return false;
  }
  if (mtime != *last_mtime_) {
    last_mtime_ = mtime;
    return true;
  }
  return false;
}

void WatchDaemon::save_checkpoint(const obs::ScoreSnapshot& snapshot,
                                  std::ostream& err) {
  if (!checkpoints_) return;
  robust::Checkpoint checkpoint;
  checkpoint.cycle = snapshot.cycle;
  checkpoint.cycles_attempted = cycles_total_.load();
  checkpoint.cycles_failed = cycles_failed_.load();
  checkpoint.trace_id = snapshot.trace_id;
  checkpoint.scores_json = snapshot.scores_json;
  checkpoint.tier_c = snapshot.tier_c;
  checkpoint.tier_c_regions = snapshot.tier_c_regions;
  auto saved = checkpoints_->save(checkpoint);
  if (!saved.ok()) {
    // A failed save degrades durability, never the serving path: the
    // snapshot is already published.
    if (options_.telemetry) {
      metrics_
          .counter("iqbd_checkpoint_write_errors_total",
                   "Checkpoint saves that failed (serving unaffected)")
          .inc();
    }
    IQB_LOG(kWarn) << "checkpoint save failed: " << saved.error().to_string();
    err << "checkpoint save failed: " << saved.error().to_string() << "\n";
    return;
  }
  last_checkpoint_cycle_ = snapshot.cycle;
  if (options_.telemetry) {
    metrics_
        .counter("iqbd_checkpoint_writes_total",
                 "Checkpoints persisted after completed cycles")
        .inc();
  }
}

bool WatchDaemon::cycle_cancelled(const char* stage, std::ostream& err) {
  if (!cancel_cycle_.load()) return false;
  err << "cycle cancelled by watchdog at stage '" << stage << "'\n";
  return true;
}

bool WatchDaemon::run_cycle(std::ostream& err) {
  if (auto config = ensure_config(); !config.ok()) {
    err << "config error: " << config.error().to_string() << "\n";
    cycles_total_.fetch_add(1);
    cycles_failed_.fetch_add(1);
    return false;
  }
  if (auto alerting = ensure_alerting(err); !alerting.ok()) {
    cycles_total_.fetch_add(1);
    cycles_failed_.fetch_add(1);
    return false;
  }
  const std::uint64_t cycle = cycles_total_.fetch_add(1) + 1;
  const std::string trace_id =
      options_.trace_prefix + "-" + std::to_string(cycle);
  // The whole cycle — ingest included — logs under the cycle's trace
  // id; Pipeline::run re-installs the same id from the telemetry
  // bundle for its own scope.
  util::ScopedLogTrace log_trace(trace_id);
  const std::uint64_t start_ns = obs::steady_clock().now_ns();

  cancel_cycle_.store(false);
  if (watchdog_) watchdog_->arm(cycle);
  // Every exit path below must disarm; a scope guard keeps the
  // watchdog from timing out the *next* idle period.
  struct Disarm {
    robust::CycleWatchdog* watchdog;
    ~Disarm() {
      if (watchdog) watchdog->disarm();
    }
  } disarm_guard{watchdog_.get()};

  // Per-cycle tracer (bounded by the ring buffer afterwards); the
  // registry is shared across cycles so counters accumulate.
  obs::Tracer tracer;
  tracer.set_trace_id(trace_id);
  obs::Telemetry handle{&metrics_, &tracer, nullptr, trace_id};
  obs::Telemetry* telemetry = options_.telemetry ? &handle : nullptr;

  // Remember the mtime the cycle consumed, so an edit racing the load
  // schedules a re-run instead of being swallowed.
  std::error_code ec;
  const auto mtime = std::filesystem::last_write_time(options_.records_path, ec);
  if (!ec) last_mtime_ = mtime;

  // Sample the registry into the history ring and run the SLO rules;
  // both the success and failure exits go through this so burn rates
  // see every cycle. Runs under the cycle's ScopedLogTrace, so alert
  // transition WARNs carry the cycle trace id.
  auto sample_and_evaluate = [&] {
    if (!history_ || telemetry == nullptr) return;
    const std::uint64_t now = now_ms();
    metrics_.gauge("iqbd_uptime_seconds", "Seconds since daemon construction")
        .set(static_cast<double>(now - start_ms_) / 1000.0);
    history_->sample_registry(metrics_, now);
    if (slo_) slo_->evaluate(now, cycle, trace_id);
  };

  auto fail_cycle = [&](const std::string& reason) {
    cycles_failed_.fetch_add(1);
    obs::add_counter(telemetry, "iqb_daemon_cycles_total",
                     "Watch-daemon scoring cycles by result",
                     {{"result", "error"}});
    IQB_LOG(kError) << "cycle " << cycle << " failed: " << reason;
    err << "cycle " << cycle << " failed: " << reason << "\n";
    sample_and_evaluate();
    return false;
  };

  LoadStoreOptions load_options;
  load_options.lenient = options_.lenient;
  load_options.threads = options_.threads;  // same knob as scoring width
  load_options.telemetry = telemetry;
  auto loaded = load_store(options_.records_path, load_options, err);
  if (!loaded.ok()) return fail_cycle(loaded.error().to_string());
  if (cycle_cancelled("ingest", err)) {
    return fail_cycle("cycle deadline exceeded (after ingest)");
  }
  if (options_.mid_cycle_hook) options_.mid_cycle_hook();
  if (cycle_cancelled("mid-cycle", err)) {
    return fail_cycle("cycle deadline exceeded (mid-cycle)");
  }
  const robust::IngestHealth health = loaded->health;
  if (!options_.regions.empty()) {
    // Shard mode: keep only this shard's regions. Filtering happens
    // before the optional by-isp rekey so --regions always names the
    // records' own region values.
    std::vector<datasets::MeasurementRecord> kept =
        std::move(loaded->store).release();
    std::erase_if(kept, [&](const datasets::MeasurementRecord& record) {
      return std::find(options_.regions.begin(), options_.regions.end(),
                       record.region) == options_.regions.end();
    });
    if (kept.empty()) {
      return fail_cycle("no records match --regions");
    }
    loaded->store = datasets::RecordStore(std::move(kept));
  }
  datasets::RecordStore store =
      options_.by_isp
          ? datasets::rekey_by_region_isp(std::move(loaded->store))
          : std::move(loaded).value().store;

  core::Pipeline pipeline(*config_);
  auto output = pipeline.run(store, health, telemetry);
  if (cycle_cancelled("score", err)) {
    return fail_cycle("cycle deadline exceeded (after scoring)");
  }
  for (const auto& skipped : output.skipped) {
    IQB_LOG(kWarn) << "skipped region " << skipped.to_string();
  }
  if (output.results.empty()) return fail_cycle("no region could be scored");

  auto snapshot = std::make_shared<obs::ScoreSnapshot>();
  snapshot->cycle = cycle;
  snapshot->trace_id = trace_id;
  snapshot->scores_json = report::scores_document(output.results);
  {
    // Publish the cycle's aggregate table on /shard/aggregate so a
    // fleet coordinator can scatter-gather this daemon as a shard.
    fleet::ShardPayload payload;
    payload.cycle = cycle;
    payload.trace_id = trace_id;
    payload.table = std::move(output.aggregates);
    payload.health = health;
    snapshot->aggregate_json = fleet::serialize_shard_payload(payload);
  }
  for (const auto& result : output.results) {
    if (result.degradation().tier == robust::ConfidenceTier::kC) {
      snapshot->tier_c = true;
      snapshot->tier_c_regions.push_back(result.region);
    }
  }
  const bool tier_c = snapshot->tier_c;
  save_checkpoint(*snapshot, err);
  server_.publish(std::move(snapshot));

  if (replicator_) {
    // Non-owning alias: replicate() is synchronous, so the stack tracer
    // outlives every use and replication spans fold into this cycle's
    // trace tree alongside the scoring spans.
    const auto outcomes =
        telemetry ? replicator_->replicate(
                        std::shared_ptr<obs::Tracer>(std::shared_ptr<void>(),
                                                     &tracer),
                        obs::Tracer::kNoSpan)
                  : replicator_->replicate();
    for (const auto& outcome : outcomes) {
      if (!outcome.error.empty()) {
        IQB_LOG(kWarn) << "replication to " << outcome.peer
                       << " failed: " << outcome.error;
        err << "replication to " << outcome.peer
            << " failed: " << outcome.error << "\n";
      }
    }
  }

  if (telemetry) {
    spans_.ingest(tracer, trace_id);
    const double elapsed_s =
        static_cast<double>(obs::steady_clock().now_ns() - start_ns) * 1e-9;
    metrics_
        .histogram("iqb_daemon_cycle_duration_seconds",
                   "Wall time of one watch-daemon scoring cycle",
                   obs::latency_buckets_s())
        .observe(elapsed_s);
    obs::add_counter(telemetry, "iqb_daemon_cycles_total",
                     "Watch-daemon scoring cycles by result",
                     {{"result", "ok"}});
    obs::set_gauge(telemetry, "iqb_daemon_ready",
                   "1 once the first cycle has completed", {}, 1.0);
    obs::set_gauge(telemetry, "iqb_daemon_tier_c",
                   "1 while the latest scores carry confidence tier C", {},
                   tier_c ? 1.0 : 0.0);
    obs::set_gauge(telemetry, "iqbd_serving_stale",
                   "1 while serving a recovered checkpoint no fresh cycle "
                   "has replaced",
                   {}, 0.0);
    // Per-region score gauges: the raw material for /historyz trends
    // and the built-in score_drift / tier_flap rules.
    for (const auto& result : output.results) {
      metrics_
          .gauge("iqb_region_score",
                 "Latest IQB score per region and quality level",
                 {{"level", "high"}, {"region", result.region}})
          .set(result.high.iqb_score);
      metrics_
          .gauge("iqb_region_score",
                 "Latest IQB score per region and quality level",
                 {{"level", "minimum"}, {"region", result.region}})
          .set(result.minimum.iqb_score);
      metrics_
          .gauge("iqb_region_tier",
                 "Confidence tier per region (0=A, 1=B, 2=C)",
                 {{"region", result.region}})
          .set(static_cast<double>(
              static_cast<int>(result.degradation().tier)));
      for (const auto& cell : result.aggregates) {
        metrics_
            .gauge("iqb_region_value",
                   "Aggregated requirement value per region/dataset/metric",
                   {{"dataset", cell.dataset},
                    {"metric", std::string(datasets::metric_name(cell.metric))},
                    {"region", cell.region}})
            .set(cell.value);
      }
    }
  }
  sample_and_evaluate();
  IQB_LOG(kInfo) << "cycle " << cycle << " scored "
                 << output.results.size() << " regions";
  return true;
}

void WatchDaemon::loop(std::ostream& err) {
  using std::chrono::milliseconds;
  using std::chrono::steady_clock;
  auto last_run = steady_clock::now();
  bool ran_once = false;
  // Failed or timed-out cycles back off with decorrelated jitter so a
  // persistently broken input doesn't spin the loop; success resets
  // the schedule.
  std::optional<robust::RetrySchedule> backoff;
  auto backoff_until = steady_clock::now();
  for (;;) {
    const bool backing_off = steady_clock::now() < backoff_until;
    const bool interval_due =
        !ran_once ||
        steady_clock::now() - last_run >= milliseconds(options_.interval_ms);
    const bool file_due = options_.watch_files && poll_mtime();
    if (!backing_off && (interval_due || file_due)) {
      const bool ok = run_cycle(err);
      last_run = steady_clock::now();
      ran_once = true;
      if (ok) {
        backoff.reset();
        backoff_until = last_run;
      } else {
        if (!backoff) backoff.emplace(options_.cycle_backoff);
        double delay_s = backoff->next_delay_s();
        if (delay_s < 0.0) {
          // Policy exhausted: restart the schedule rather than spin.
          backoff.emplace(options_.cycle_backoff);
          delay_s = backoff->next_delay_s();
          if (delay_s < 0.0) delay_s = options_.cycle_backoff.max_delay_s;
        }
        backoff_until =
            last_run + milliseconds(static_cast<std::uint64_t>(
                           delay_s * 1000.0));
        IQB_LOG(kWarn) << "backing off "
                       << static_cast<std::uint64_t>(delay_s * 1000.0)
                       << " ms before the next cycle";
      }
      if (options_.max_cycles != 0 &&
          cycles_total_.load() >= options_.max_cycles) {
        finished_.store(true);
        return;
      }
    }
    std::unique_lock<std::mutex> lock(loop_mutex_);
    if (loop_cv_.wait_for(lock, milliseconds(options_.poll_ms),
                          [this] { return stop_requested_; })) {
      return;
    }
  }
}

}  // namespace iqb::cli
