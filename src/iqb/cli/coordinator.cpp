#include "iqb/cli/coordinator.hpp"

#include <algorithm>
#include <chrono>
#include <ostream>
#include <thread>
#include <utility>

#include "iqb/cli/cli.hpp"
#include "iqb/fleet/stitch.hpp"
#include "iqb/obs/history_routes.hpp"
#include "iqb/obs/http_client.hpp"
#include "iqb/obs/trace.hpp"
#include "iqb/robust/circuit_breaker.hpp"
#include "iqb/util/json.hpp"
#include "iqb/util/log.hpp"
#include "iqb/util/strings.hpp"
#include "iqb/util/version.hpp"

namespace iqb::cli {

namespace {

constexpr const char* kCoordinatorUsage =
    "usage: iqbd --coordinator --shards [name=]host:port,... \n"
    "            [--config FILE.json] [--port N] [--bind ADDR]\n"
    "            [--interval-ms N] [--poll-ms N] [--max-cycles N]\n"
    "            [--hedge-ms N] [--connect-timeout-ms N]\n"
    "            [--io-timeout-ms N] [--total-deadline-ms N]\n"
    "            [--telemetry true|false] [--trace-prefix S]\n"
    "            [--slo-file FILE.json] [--state-dir DIR]\n"
    "            [--checkpoint-keep N] [--node-id S]\n"
    "gathers every shard's /shard/aggregate each cycle, fuses the\n"
    "tables and serves the fleet's /scores exactly like one daemon;\n"
    "failed shards are served from their last-good payload at\n"
    "confidence tier C (/readyz: \"degraded\"); /fleetz shows the\n"
    "per-shard fetch state; /fleet/alertz rolls up shard alerts (a\n"
    "built-in shard_unreachable rule fires after two dark intervals).\n"
    "with --state-dir the fused snapshot is checkpointed per cycle\n"
    "and served (stale) across restarts; /checkpointz exposes the\n"
    "retained generations and accepts shard replicas.\n"
    "exit codes: 0 ok, 1 usage error, 2 startup error\n";

constexpr const char* kPartialCyclesMetric = "fleet_partial_cycles_total";
constexpr const char* kPartialCyclesHelp =
    "Gather cycles where at least one shard was cached or missing";

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

const char* coordinator_usage() noexcept { return kCoordinatorUsage; }

util::Result<CoordinatorOptions> parse_coordinator_args(
    const std::vector<std::string>& tokens) {
  CoordinatorOptions options;
  auto pairs = parse_options(tokens);
  if (!pairs.ok()) return pairs.error();
  for (const auto& [name, value] : pairs.value()) {
    if (name == "shards") {
      for (const std::string& token : util::split(value, ',')) {
        if (token.empty()) continue;
        auto endpoint =
            fleet::parse_shard_endpoint(token, options.shards.size());
        if (!endpoint.ok()) return endpoint.error();
        options.shards.push_back(std::move(endpoint).value());
      }
    } else if (name == "config") {
      options.config_path = value;
    } else if (name == "slo-file") {
      options.slo_file = value;
    } else if (name == "bind") {
      options.bind_address = value;
    } else if (name == "trace-prefix") {
      options.trace_prefix = value;
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
    } else if (name == "hedge-ms") {
      auto parsed = parse_u64_option(name, value);
      if (!parsed.ok()) return parsed.error();
      options.hedge_delay_ms = parsed.value();
    } else if (name == "connect-timeout-ms") {
      auto parsed = parse_u64_option(name, value);
      if (!parsed.ok()) return parsed.error();
      options.connect_timeout_ms = parsed.value();
    } else if (name == "io-timeout-ms") {
      auto parsed = parse_u64_option(name, value);
      if (!parsed.ok()) return parsed.error();
      options.io_timeout_ms = parsed.value();
    } else if (name == "total-deadline-ms") {
      auto parsed = parse_u64_option(name, value);
      if (!parsed.ok()) return parsed.error();
      options.total_deadline_ms = parsed.value();
    } else if (name == "state-dir") {
      options.state_dir = value;
    } else if (name == "checkpoint-keep") {
      auto parsed = parse_u64_option(name, value);
      if (!parsed.ok()) return parsed.error();
      options.checkpoint_keep =
          parsed.value() == 0 ? 1 : static_cast<std::size_t>(parsed.value());
    } else if (name == "node-id") {
      if (!fleet::valid_node_id(value)) {
        return util::make_error(
            util::ErrorCode::kInvalidArgument,
            "--node-id '" + value + "' must match [A-Za-z0-9_-]{1,64}");
      }
      options.node_id = value;
    } else {
      return util::make_error(util::ErrorCode::kInvalidArgument,
                              "unknown option --" + name);
    }
  }
  if (options.shards.empty()) {
    return util::make_error(util::ErrorCode::kInvalidArgument,
                            "--shards is required");
  }
  return options;
}

CoordinatorDaemon::CoordinatorDaemon(CoordinatorOptions options)
    : options_(std::move(options)),
      fetcher_([this] {
        fleet::FleetFetcher::Options fetch;
        fetch.shards = options_.shards;
        fetch.http.connect_timeout_ms = options_.connect_timeout_ms;
        fetch.http.io_timeout_ms = options_.io_timeout_ms;
        fetch.http.total_deadline_ms = options_.total_deadline_ms;
        fetch.hedge_delay_ms = options_.hedge_delay_ms;
        fetch.retry_sleep_scale = options_.retry_sleep_scale;
        return std::make_unique<fleet::FleetFetcher>(
            std::move(fetch), options_.telemetry ? &metrics_ : nullptr);
      }()),
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
            server_options.http.spans = options_.telemetry ? &spans_ : nullptr;
            server_options.route_override =
                [this](const obs::HttpRequest& request) {
                  return route_override(request);
                };
            return server_options;
          }(),
          &metrics_, options_.telemetry ? &spans_ : nullptr) {
  start_ms_ = now_ms();
  if (options_.state_dir) {
    checkpoints_.emplace(*options_.state_dir, options_.checkpoint_keep);
    fleet::CheckpointExchange::Options exchange;
    exchange.node_id = options_.node_id;
    exchange.state_dir = *options_.state_dir;
    exchange.keep = options_.checkpoint_keep;
    exchange_ = std::make_unique<fleet::CheckpointExchange>(
        std::move(exchange), &*checkpoints_);
  }
  if (options_.telemetry) {
    metrics_.counter(kPartialCyclesMetric, kPartialCyclesHelp);
    metrics_
        .gauge("iqb_build_info",
               "Build identity; always 1, version rides in the labels",
               {{"git_sha", util::git_sha()}, {"version", util::version()}})
        .set(1.0);
    metrics_
        .gauge("iqbd_uptime_seconds", "Seconds since daemon construction")
        .set(0.0);
  }
}

std::uint64_t CoordinatorDaemon::now_ms() const {
  obs::Clock* clock = options_.clock;
  const std::uint64_t now_ns =
      clock ? clock->now_ns() : obs::steady_clock().now_ns();
  return now_ns / 1'000'000;
}

util::Result<void> CoordinatorDaemon::ensure_alerting(std::ostream& err) {
  if (alerting_ready_ || !options_.telemetry) return {};
  obs::SloEngine::Options slo_options;
  // Built-in fleet rules: a shard whose fleet_shard_up gauge stays 0
  // for two gather intervals is unreachable (and resolves after two
  // healthy intervals), plus a burn rate on failed gather cycles.
  {
    obs::SloSpec unreachable;
    unreachable.type = obs::SloSpec::Type::kThreshold;
    unreachable.name = "shard_unreachable";
    unreachable.metric = "fleet_shard_up";
    unreachable.op = obs::SloSpec::Op::kLt;
    unreachable.bound = 1.0;
    unreachable.for_ms = 2 * options_.interval_ms;
    unreachable.resolve_ms = 2 * options_.interval_ms;
    slo_options.specs.push_back(std::move(unreachable));

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

CoordinatorDaemon::~CoordinatorDaemon() { stop(); }

util::Result<void> CoordinatorDaemon::ensure_config() {
  if (config_) return {};
  if (options_.config_path) {
    auto loaded = core::IqbConfig::load(*options_.config_path);
    if (!loaded.ok()) return loaded.error();
    config_ = std::move(loaded).value();
  } else {
    config_ = core::IqbConfig::paper_defaults();
  }
  return {};
}

bool CoordinatorDaemon::serving_stale() const {
  const auto snapshot = server_.latest();
  return snapshot && snapshot->stale;
}

util::Result<void> CoordinatorDaemon::recover(std::ostream& err) {
  recovered_ = true;
  if (!checkpoints_) return {};
  if (auto prepared = checkpoints_->prepare(); !prepared.ok()) {
    return prepared;
  }
  auto outcome = checkpoints_->load_newest();
  if (!outcome.ok()) return outcome.error();
  for (const auto& rejected : outcome->rejected) {
    IQB_LOG(kWarn) << "skipping corrupt checkpoint " << rejected.file << ": "
                   << rejected.reason;
    err << "skipping corrupt checkpoint " << rejected.file << ": "
        << rejected.reason << "\n";
  }
  if (!outcome->checkpoint) return {};

  // Serve the last fused scores immediately, flagged stale, so a
  // restarted coordinator answers /scores before any shard does. The
  // first fresh gather replaces the snapshot and clears the flag.
  const robust::Checkpoint& checkpoint = *outcome->checkpoint;
  auto snapshot = std::make_shared<obs::ScoreSnapshot>();
  snapshot->cycle = checkpoint.cycle;
  snapshot->trace_id = checkpoint.trace_id;
  snapshot->scores_json = checkpoint.scores_json;
  snapshot->tier_c = checkpoint.tier_c;
  snapshot->tier_c_regions = checkpoint.tier_c_regions;
  snapshot->stale = true;
  server_.publish(std::move(snapshot));

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
  IQB_LOG(kInfo) << "recovered fused checkpoint: cycle " << checkpoint.cycle
                 << " (trace " << checkpoint.trace_id
                 << "); serving stale until the next gather";
  err << "recovered fused checkpoint: cycle " << checkpoint.cycle
      << "; serving stale until the next gather\n";
  return {};
}

void CoordinatorDaemon::save_checkpoint(const obs::ScoreSnapshot& snapshot,
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
    // Durability degrades, serving does not: the snapshot publishes
    // regardless.
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

util::Result<void> CoordinatorDaemon::start(std::ostream& err) {
  if (running_) {
    return util::make_error(util::ErrorCode::kInvalidArgument,
                            "coordinator already running");
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
  finished_.store(false);
  stop_requested_ = false;
  running_ = true;
  loop_thread_ = std::thread([this, &err] { loop(err); });
  return {};
}

void CoordinatorDaemon::stop() {
  if (!running_) return;
  {
    std::lock_guard<std::mutex> lock(loop_mutex_);
    stop_requested_ = true;
  }
  loop_cv_.notify_all();
  if (loop_thread_.joinable()) loop_thread_.join();
  server_.drain();
  running_ = false;
}

bool CoordinatorDaemon::run_cycle(std::ostream& err) {
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
  util::ScopedLogTrace log_trace(trace_id);

  // Both the publish and the no-shard exits run this: history and
  // burn rates must see failed gathers too. Runs under the cycle's
  // ScopedLogTrace so alert-transition WARNs carry the trace id.
  auto sample_and_evaluate = [&] {
    if (!history_ || !options_.telemetry) return;
    const std::uint64_t now = now_ms();
    metrics_.gauge("iqbd_uptime_seconds", "Seconds since daemon construction")
        .set(static_cast<double>(now - start_ms_) / 1000.0);
    history_->sample_registry(metrics_, now);
    if (slo_) slo_->evaluate(now, cycle, trace_id);
  };

  // The cycle tracer is shared with the fetcher because losing hedge
  // threads may still be closing their attempt spans after this cycle
  // returns; those stragglers simply miss the ingest below.
  std::shared_ptr<obs::Tracer> tracer;
  if (options_.telemetry) {
    tracer = std::make_shared<obs::Tracer>();
    tracer->set_trace_id(trace_id);
  }
  obs::ScopedSpan cycle_span(tracer.get(), "fleet.cycle");
  cycle_span.set_attribute("cycle", std::to_string(cycle));

  std::vector<fleet::ShardView> views =
      fetcher_->fetch_all(tracer, cycle_span.id());
  fleet::FuseOutput output = [&] {
    obs::ScopedSpan fuse_span(tracer.get(), "fleet.fuse");
    return fleet::fuse(*config_, views, trace_id);
  }();
  // The documents move into the snapshot below; /fleetz reads only
  // last_fuse_'s counters and region lists.
  std::string scores_json = std::move(output.scores_json);
  std::string aggregate_json = std::move(output.aggregate_json);
  {
    std::lock_guard<std::mutex> lock(fuse_mutex_);
    last_fuse_ = output;
    fused_once_ = true;
  }
  cycle_span.set_attribute("shards_fresh",
                           std::to_string(output.shards_fresh));
  cycle_span.set_attribute("shards_cached",
                           std::to_string(output.shards_cached));
  cycle_span.set_attribute("shards_missing",
                           std::to_string(output.shards_missing));
  cycle_span.end();
  if (tracer) spans_.ingest(*tracer);
  if (options_.telemetry) {
    metrics_
        .gauge("fleet_shards_fresh", "Shards that answered this cycle")
        .set(static_cast<double>(output.shards_fresh));
    metrics_
        .gauge("fleet_shards_cached",
               "Shards served from their last-good payload this cycle")
        .set(static_cast<double>(output.shards_cached));
    metrics_
        .gauge("fleet_shards_missing",
               "Shards with no payload at all this cycle")
        .set(static_cast<double>(output.shards_missing));
  }
  if (output.partial()) {
    partial_cycles_.fetch_add(1);
    if (options_.telemetry) {
      metrics_.counter(kPartialCyclesMetric, kPartialCyclesHelp).inc();
    }
  }
  if (!output.any_payload()) {
    // Nothing to fuse — keep serving the previous snapshot (if any)
    // rather than publishing an empty document.
    cycles_failed_.fetch_add(1);
    if (options_.telemetry) {
      metrics_
          .counter("iqb_daemon_cycles_total",
                   "Watch-daemon scoring cycles by result",
                   {{"result", "error"}})
          .inc();
    }
    IQB_LOG(kError) << "gather cycle " << cycle << ": no shard answered";
    err << "gather cycle " << cycle << ": no shard answered\n";
    sample_and_evaluate();
    return false;
  }

  auto snapshot = std::make_shared<obs::ScoreSnapshot>();
  snapshot->cycle = cycle;
  snapshot->trace_id = trace_id;
  snapshot->scores_json = std::move(scores_json);
  snapshot->tier_c = output.tier_c;
  snapshot->tier_c_regions = output.tier_c_regions;
  snapshot->aggregate_json = std::move(aggregate_json);
  const bool tier_c = snapshot->tier_c;
  save_checkpoint(*snapshot, err);
  server_.publish(std::move(snapshot));

  if (options_.telemetry) {
    metrics_
        .counter("iqb_daemon_cycles_total",
                 "Watch-daemon scoring cycles by result",
                 {{"result", "ok"}})
        .inc();
    metrics_
        .gauge("iqb_daemon_ready", "1 once the first cycle has completed")
        .set(1.0);
    metrics_
        .gauge("iqbd_serving_stale",
               "1 while serving a recovered checkpoint no fresh cycle has "
               "replaced")
        .set(0.0);
    metrics_
        .gauge("iqb_daemon_tier_c",
               "1 while the latest scores carry confidence tier C")
        .set(tier_c ? 1.0 : 0.0);
  }
  sample_and_evaluate();
  IQB_LOG(kInfo) << "gather cycle " << cycle << ": " << output.shards_fresh
                 << " fresh / " << output.shards_cached << " cached / "
                 << output.shards_missing << " missing shards";
  return true;
}

void CoordinatorDaemon::loop(std::ostream& err) {
  using std::chrono::milliseconds;
  using std::chrono::steady_clock;
  auto last_run = steady_clock::now();
  bool ran_once = false;
  for (;;) {
    const bool due =
        !ran_once ||
        steady_clock::now() - last_run >= milliseconds(options_.interval_ms);
    if (due) {
      run_cycle(err);
      last_run = steady_clock::now();
      ran_once = true;
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

std::optional<obs::HttpResponse> CoordinatorDaemon::route_override(
    const obs::HttpRequest& request) {
  if (exchange_) {
    if (auto response = exchange_->handle(request)) return response;
  }
  if (request.path == "/readyz") return readyz_response();
  if (request.path == "/fleetz") return fleetz_response();
  if (request.path == "/fleet/tracez") return fleet_tracez_response(request);
  if (request.path == "/historyz") {
    return obs::serve_historyz(history_.get(), request, now_ms());
  }
  if (request.path == "/alertz") {
    return obs::serve_alertz(slo_.get(), options_.telemetry);
  }
  if (request.path == "/fleet/alertz") return fleet_alertz_response();
  return std::nullopt;
}

namespace {

util::JsonArray shard_status_json(
    const std::vector<fleet::ShardStatus>& statuses) {
  util::JsonArray shards;
  for (const fleet::ShardStatus& status : statuses) {
    util::JsonObject entry;
    entry.emplace("name", status.name);
    entry.emplace("address", status.address);
    entry.emplace("up", status.up);
    entry.emplace("breaker",
                  std::string(robust::breaker_state_name(status.breaker)));
    entry.emplace("last_cycle",
                  static_cast<std::int64_t>(status.last_cycle));
    entry.emplace("consecutive_failures",
                  static_cast<std::int64_t>(status.consecutive_failures));
    if (!status.last_error.empty()) {
      entry.emplace("last_error", status.last_error);
    }
    shards.emplace_back(std::move(entry));
  }
  return shards;
}

}  // namespace

obs::HttpResponse CoordinatorDaemon::readyz_response() {
  const auto snapshot = server_.latest();
  util::JsonObject out;
  out.emplace("role", "coordinator");
  out.emplace("shards", shard_status_json(fetcher_->status()));
  if (!snapshot) {
    out.emplace("status", "unready");
    out.emplace("reason", "no completed gather cycle yet");
    return {503, "application/json",
            util::JsonValue(std::move(out)).dump() + "\n"};
  }
  out.emplace("cycle", static_cast<std::int64_t>(snapshot->cycle));
  out.emplace("trace", snapshot->trace_id);
  if (snapshot->stale) {
    // Recovered-checkpoint serving: answer 200 like a single daemon's
    // /readyz does — restored-last-good is serveable — but say so, so
    // orchestration can tell it from freshly fused scores.
    out.emplace("status", "recovered");
    out.emplace("stale", true);
    return {200, "application/json",
            util::JsonValue(std::move(out)).dump() + "\n"};
  }
  if (snapshot->tier_c) {
    // Same contract as a single daemon: tier C means "serving, but
    // what you read cannot be fully trusted this cycle" — degraded,
    // not down.
    std::string regions;
    for (const std::string& region : snapshot->tier_c_regions) {
      if (!regions.empty()) regions += ", ";
      regions += region;
    }
    out.emplace("status", "degraded");
    out.emplace("reason",
                "confidence tier C (single-source or worse): " + regions);
    return {503, "application/json",
            util::JsonValue(std::move(out)).dump() + "\n"};
  }
  out.emplace("status", "ready");
  out.emplace("stale", false);
  return {200, "application/json",
          util::JsonValue(std::move(out)).dump() + "\n"};
}

obs::HttpResponse CoordinatorDaemon::fleet_tracez_response(
    const obs::HttpRequest& request) {
  std::string trace = obs::query_param(request.query, "trace");
  if (trace.empty()) {
    // Default to the latest published cycle — "show me the last
    // gather" is the common interactive ask.
    const auto snapshot = server_.latest();
    if (snapshot) trace = snapshot->trace_id;
  }
  if (trace.empty()) {
    return {503, "application/json",
            "{\"error\":\"no completed cycle yet; pass ?trace=<id>\"}\n"};
  }

  // Start from our own spans for the trace, then scatter-gather every
  // shard's /tracez?trace= dump for the same id.
  std::vector<fleet::SourcedSpan> spans;
  for (auto& span : fleet::from_completed(spans_.recent(), "coordinator")) {
    if (span.trace_id == trace) spans.push_back(std::move(span));
  }

  obs::HttpClient::Options http;
  http.connect_timeout_ms = static_cast<int>(options_.connect_timeout_ms);
  http.io_timeout_ms = static_cast<int>(options_.io_timeout_ms);
  http.total_deadline_ms = static_cast<int>(options_.total_deadline_ms);
  const obs::HttpClient client(http);

  std::mutex merge_mutex;
  const auto fetch_dump = [&](const fleet::ShardEndpoint& endpoint,
                              const std::string& id) {
    auto fetched = client.get(endpoint.host, endpoint.port,
                              "/tracez?trace=" + id);
    if (!fetched.ok() || fetched.value().status != 200) return;
    auto document = util::parse_json(fetched.value().body);
    if (!document.ok()) return;
    auto parsed = fleet::parse_tracez_dump(document.value(), endpoint.name);
    if (!parsed.ok()) return;
    std::lock_guard<std::mutex> lock(merge_mutex);
    for (auto& span : parsed.value()) spans.push_back(std::move(span));
  };

  {
    std::vector<std::thread> scatter;
    scatter.reserve(options_.shards.size());
    for (const fleet::ShardEndpoint& endpoint : options_.shards) {
      scatter.emplace_back([&, endpoint] { fetch_dump(endpoint, trace); });
    }
    for (std::thread& thread : scatter) thread.join();
  }

  // Second hop: shard server spans carry shard_trace=<local cycle id>
  // links to the cycle that produced the payload they served. Fetch
  // those traces (bounded — a hostile dump can't make us crawl) from
  // the shard that declared each link, then graft them under the
  // linking spans.
  constexpr std::size_t kMaxLinkedTraces = 4;
  std::vector<std::pair<std::string, std::string>> wanted;  // source, id
  for (const fleet::SourcedSpan& span : spans) {
    const std::string linked = span.attribute("shard_trace");
    if (linked.empty() || linked == span.trace_id) continue;
    // Distinct (source, id): every shard numbers its local cycles from
    // the same prefix, so two shards' links to "iqbd-1" name two
    // different traces that both must be fetched.
    const auto pair = std::make_pair(span.source, linked);
    if (std::find(wanted.begin(), wanted.end(), pair) != wanted.end()) {
      continue;
    }
    if (wanted.size() >= kMaxLinkedTraces) break;
    wanted.push_back(pair);
  }
  for (const auto& [source, id] : wanted) {
    for (const fleet::ShardEndpoint& endpoint : options_.shards) {
      if (endpoint.name == source) {
        fetch_dump(endpoint, id);
        break;
      }
    }
  }
  fleet::graft_linked_traces(spans);

  return {200, "application/json",
          fleet::stitched_to_json(trace, spans).dump(2) + "\n"};
}

obs::HttpResponse CoordinatorDaemon::fleet_alertz_response() {
  if (!options_.telemetry) {
    return {503, "application/json",
            "{\"reason\":\"telemetry disabled\",\"status\":\"disabled\"}\n"};
  }
  // Scatter-gather every shard's /alertz with the same per-shard
  // deadlines the payload fetches use. A shard that cannot answer is
  // reported as unreachable here — its alerts are exactly what the
  // coordinator's own shard_unreachable rule covers.
  obs::HttpClient::Options http;
  http.connect_timeout_ms = static_cast<int>(options_.connect_timeout_ms);
  http.io_timeout_ms = static_cast<int>(options_.io_timeout_ms);
  http.total_deadline_ms = static_cast<int>(options_.total_deadline_ms);
  const obs::HttpClient client(http);

  struct ShardAlerts {
    std::string name;
    std::string error;  ///< Empty when the fetch parsed cleanly.
    util::JsonValue document;
  };
  std::vector<ShardAlerts> gathered(options_.shards.size());
  {
    std::vector<std::thread> scatter;
    scatter.reserve(options_.shards.size());
    for (std::size_t i = 0; i < options_.shards.size(); ++i) {
      scatter.emplace_back([&, i] {
        const fleet::ShardEndpoint& endpoint = options_.shards[i];
        gathered[i].name = endpoint.name;
        auto fetched = client.get(endpoint.host, endpoint.port, "/alertz");
        if (!fetched.ok()) {
          gathered[i].error = fetched.error().message;
          return;
        }
        if (fetched.value().status != 200) {
          gathered[i].error =
              "status " + std::to_string(fetched.value().status);
          return;
        }
        auto document = util::parse_json(fetched.value().body);
        if (!document.ok()) {
          gathered[i].error = document.error().message;
          return;
        }
        gathered[i].document = std::move(document).value();
      });
    }
    for (std::thread& thread : scatter) thread.join();
  }

  // Roll active alerts up per region: alerts carrying a region label
  // group under it, fleet-level alerts (shard_unreachable, burn
  // rates) under "fleet". std::map keys keep the bytes stable.
  std::map<std::string, util::JsonArray> regions;
  std::size_t active_total = 0;
  const auto roll_up = [&](const util::JsonValue& document,
                           const std::string& source) {
    auto active = document.get_array("active");
    if (!active.ok()) return;
    for (const util::JsonValue& alert : *active) {
      if (!alert.is_object()) continue;
      std::string region = "fleet";
      if (auto labels = alert.get_object("labels"); labels.ok()) {
        const auto it = labels->find("region");
        if (it != labels->end() && it->second.is_string()) {
          region = it->second.as_string();
        }
      }
      util::JsonObject entry;
      entry.emplace("name", alert.get_string("name").value_or(""));
      entry.emplace("source", source);
      entry.emplace("state", alert.get_string("state").value_or(""));
      regions[region].emplace_back(std::move(entry));
      ++active_total;
    }
  };

  const util::JsonValue own =
      slo_ ? slo_->to_json() : util::JsonValue(util::JsonObject{});
  roll_up(own, "coordinator");

  util::JsonArray shards_json;
  for (const ShardAlerts& shard : gathered) {
    util::JsonObject entry;
    entry.emplace("name", shard.name);
    if (!shard.error.empty()) {
      entry.emplace("error", shard.error);
      entry.emplace("status", "unreachable");
    } else {
      roll_up(shard.document, shard.name);
      entry.emplace("alerts", shard.document);
      entry.emplace("status", "ok");
    }
    shards_json.emplace_back(std::move(entry));
  }

  util::JsonObject regions_json;
  for (auto& [region, alerts] : regions) {
    regions_json.emplace(region, std::move(alerts));
  }
  util::JsonObject out;
  out.emplace("active_total", static_cast<std::int64_t>(active_total));
  out.emplace("coordinator", own);
  out.emplace("regions", std::move(regions_json));
  out.emplace("shards", std::move(shards_json));
  return {200, "application/json",
          util::JsonValue(std::move(out)).dump(2) + "\n"};
}

obs::HttpResponse CoordinatorDaemon::fleetz_response() {
  util::JsonObject out;
  out.emplace("shards", shard_status_json(fetcher_->status()));
  {
    std::lock_guard<std::mutex> lock(fuse_mutex_);
    if (fused_once_) {
      util::JsonObject fuse;
      fuse.emplace("shards_fresh",
                   static_cast<std::int64_t>(last_fuse_.shards_fresh));
      fuse.emplace("shards_cached",
                   static_cast<std::int64_t>(last_fuse_.shards_cached));
      fuse.emplace("shards_missing",
                   static_cast<std::int64_t>(last_fuse_.shards_missing));
      fuse.emplace("max_shard_cycle",
                   static_cast<std::int64_t>(last_fuse_.max_shard_cycle));
      util::JsonArray stale;
      for (const std::string& region : last_fuse_.stale_regions) {
        stale.emplace_back(region);
      }
      fuse.emplace("stale_regions", std::move(stale));
      util::JsonArray tier_c;
      for (const std::string& region : last_fuse_.tier_c_regions) {
        tier_c.emplace_back(region);
      }
      fuse.emplace("tier_c_regions", std::move(tier_c));
      out.emplace("last_cycle", std::move(fuse));
    }
  }
  out.emplace("hedges_total",
              static_cast<std::int64_t>(fetcher_->hedges_total()));
  out.emplace("hedge_losses_total",
              static_cast<std::int64_t>(fetcher_->hedge_losses_total()));
  out.emplace("retries_total",
              static_cast<std::int64_t>(fetcher_->retries_total()));
  out.emplace("breaker_denials_total",
              static_cast<std::int64_t>(fetcher_->breaker_denials_total()));
  out.emplace("partial_cycles_total",
              static_cast<std::int64_t>(partial_cycles_.load()));
  return {200, "application/json",
          util::JsonValue(std::move(out)).dump(2) + "\n"};
}

}  // namespace iqb::cli
