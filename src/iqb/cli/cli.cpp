#include "iqb/cli/cli.hpp"

#include <cmath>

#include "iqb/cli/load.hpp"
#include <memory>
#include <ostream>

#include "iqb/core/pipeline.hpp"
#include "iqb/core/sensitivity.hpp"
#include "iqb/core/trend.hpp"
#include "iqb/datasets/fast_csv.hpp"
#include "iqb/datasets/io.hpp"
#include "iqb/datasets/record_io.hpp"
#include "iqb/measurement/adapters.hpp"
#include "iqb/measurement/campaign.hpp"
#include "iqb/measurement/cloudflare_style.hpp"
#include "iqb/measurement/ndt.hpp"
#include "iqb/measurement/ookla_style.hpp"
#include "iqb/measurement/population.hpp"
#include "iqb/obs/export.hpp"
#include "iqb/obs/telemetry.hpp"
#include "iqb/report/html.hpp"
#include "iqb/report/render.hpp"
#include "iqb/robust/degradation.hpp"
#include "iqb/robust/quarantine.hpp"
#include "iqb/util/fs.hpp"
#include "iqb/util/strings.hpp"

namespace iqb::cli {

namespace {

constexpr const char* kUsage =
    "usage:\n"
    "  iqbctl score       --records FILE.csv [--config FILE.json]"
    " [--by-isp true] [--lenient true] [--threads N]"
    " [--format text|json|csv|markdown|html] [--out FILE]"
    " [--metrics-out FILE.prom|.json] [--trace-out FILE.json]\n"
    "  iqbctl aggregate   --records FILE.csv [--config FILE.json]"
    " [--percentile P] [--lenient true] [--threads N]"
    " [--metrics-out FILE.prom|.json] [--trace-out FILE.json]\n"
    "  iqbctl convert     --records FILE --out FILE.iqbr|FILE.csv"
    " [--lenient true] [--threads N]\n"
    "  iqbctl config      [--out FILE.json]\n"
    "  iqbctl sensitivity --records FILE.csv --region NAME"
    " [--config FILE.json]\n"
    "  iqbctl trend       --records FILE.csv [--config FILE.json]"
    " [--window-days N]\n"
    "  iqbctl simulate    [--subscribers N] [--tests N] [--seed S]"
    " [--out FILE.csv]\n"
    "exit codes: 0 ok, 1 usage error, 2 data/config error,"
    " 3 scored in degraded mode\n";

util::Result<core::IqbConfig> load_config(const Args& args) {
  if (auto path = args.get("config")) {
    return core::IqbConfig::load(*path);
  }
  return core::IqbConfig::paper_defaults();
}

/// --threads N: execution width for ingestion, aggregation and
/// scoring. The CLI defaults to 0 (auto-size to the machine); 1
/// forces the serial path. Results are byte-identical at every width.
/// Returns a usage exit code on a bad value, 0 otherwise.
int parse_threads_flag(const Args& args, std::size_t& threads,
                       std::ostream& err) {
  threads = 0;
  if (auto value_text = args.get("threads")) {
    auto value = util::parse_int(*value_text);
    if (!value.ok() || value.value() < 0) {
      err << "bad --threads '" << *value_text << "'\n";
      return 1;
    }
    threads = static_cast<std::size_t>(value.value());
  }
  return 0;
}

int apply_threads(const Args& args, datasets::AggregationPolicy& policy,
                  std::ostream& err) {
  return parse_threads_flag(args, policy.threads, err);
}

/// Telemetry for one command invocation: live only when the user gave
/// --metrics-out/--trace-out, so plain runs build no registry, record
/// no spans, and stay bit-identical to an uninstrumented run.
struct TelemetrySession {
  std::optional<std::string> metrics_path;
  std::optional<std::string> trace_path;
  obs::MetricsRegistry metrics;
  obs::Tracer tracer;  // process steady clock
  obs::Telemetry handle{&metrics, &tracer, nullptr, {}};

  bool enabled() const { return metrics_path || trace_path; }
  obs::Telemetry* get() { return enabled() ? &handle : nullptr; }
};

/// Validate telemetry flags up front: a bad extension is a usage error
/// and should fail before the pipeline runs. Returns 0 when ok.
int init_telemetry(const Args& args, TelemetrySession& session,
                   std::ostream& err) {
  session.metrics_path = args.get("metrics-out");
  session.trace_path = args.get("trace-out");
  if (session.metrics_path &&
      !util::ends_with(*session.metrics_path, ".prom") &&
      !util::ends_with(*session.metrics_path, ".json")) {
    err << "--metrics-out must end in .prom or .json, got '"
        << *session.metrics_path << "'\n";
    return 1;
  }
  return 0;
}

/// Write collected telemetry (format chosen by file extension). Runs
/// after the report was emitted so a telemetry write failure never
/// truncates the report stream.
int write_telemetry(const TelemetrySession& session, std::ostream& err) {
  // Atomic: a crash (or concurrent scrape) never observes a
  // half-written metrics/trace file.
  auto write_file = [&err](const std::string& path, const std::string& text) {
    if (auto written = util::fs::atomic_write(path, text); !written.ok()) {
      err << "cannot write '" << path << "': " << written.error().message
          << "\n";
      return 2;
    }
    return 0;
  };
  if (session.metrics_path) {
    const std::string text =
        util::ends_with(*session.metrics_path, ".prom")
            ? obs::to_prometheus(session.metrics)
            : obs::metrics_to_json(session.metrics).dump(2) + "\n";
    if (int code = write_file(*session.metrics_path, text)) return code;
  }
  if (session.trace_path) {
    if (int code = write_file(*session.trace_path,
                              obs::trace_to_json(session.tracer).dump(2) +
                                  "\n")) {
      return code;
    }
  }
  return 0;
}

util::Result<LoadedStore> load_records(const Args& args, std::ostream& err,
                                       obs::Telemetry* telemetry = nullptr) {
  auto path = args.get("records");
  if (!path) {
    return util::make_error(util::ErrorCode::kInvalidArgument,
                            "--records is required");
  }
  LoadStoreOptions options;
  options.lenient = args.get("lenient").value_or("") == "true";
  options.telemetry = telemetry;
  // Same flag as aggregation/scoring width; a bad value is reported
  // (and rejected) by the command's apply_threads, so fall back to
  // serial parsing here instead of erroring twice.
  std::ostream null_sink(nullptr);
  if (parse_threads_flag(args, options.threads, null_sink) != 0) {
    options.threads = 1;
  }
  return load_store(*path, options, err);
}

/// Send `text` to --out FILE if given, else to `out`. File output is
/// atomic (write-temp + rename): a watcher tailing the report — or a
/// crash mid-write — never observes a half-written file.
int emit(const Args& args, const std::string& text, std::ostream& out,
         std::ostream& err) {
  if (auto path = args.get("out")) {
    if (auto written = util::fs::atomic_write(*path, text); !written.ok()) {
      err << "cannot write '" << *path << "': " << written.error().message
          << "\n";
      return 2;
    }
    out << "wrote " << *path << "\n";
    return 0;
  }
  out << text;
  return 0;
}

int cmd_score(const Args& args, std::ostream& out, std::ostream& err) {
  TelemetrySession telemetry;
  if (int code = init_telemetry(args, telemetry, err)) return code;
  auto config = load_config(args);
  if (!config.ok()) {
    err << "config error: " << config.error().to_string() << "\n";
    return 2;
  }
  if (int code = apply_threads(args, config.value().aggregation, err)) {
    return code;
  }
  auto loaded = load_records(args, err, telemetry.get());
  if (!loaded.ok()) {
    err << "records error: " << loaded.error().to_string() << "\n";
    return 2;
  }
  const robust::IngestHealth health = loaded->health;
  datasets::RecordStore scored_store =
      args.get("by-isp").value_or("") == "true"
          ? datasets::rekey_by_region_isp(std::move(loaded->store))
          : std::move(loaded).value().store;

  core::Pipeline pipeline(std::move(config).value());
  auto output = pipeline.run(scored_store, health, telemetry.get());
  for (const auto& skipped : output.skipped) {
    err << "skipped region " << skipped.to_string() << "\n";
  }
  if (output.results.empty()) {
    err << "no region could be scored\n";
    return 2;
  }

  const std::string format = args.get("format").value_or("text");
  std::string rendered;
  if (format == "json") {
    rendered = report::scores_document(output.results);
  } else if (format == "csv") {
    rendered = report::to_csv(output.results);
  } else if (format == "markdown") {
    rendered = report::comparison_table(output.results);
  } else if (format == "html") {
    rendered = report::to_html(output.results);
  } else if (format == "text") {
    for (const auto& result : output.results) {
      rendered += report::scorecard(result) + "\n";
    }
  } else {
    err << "unknown format '" << format << "'\n";
    return 1;
  }
  const int code = emit(args, rendered, out, err);
  const int telemetry_code = write_telemetry(telemetry, err);
  if (code != 0) return code;
  if (telemetry_code != 0) return telemetry_code;
  if (output.degraded()) {
    err << "note: scored in degraded mode (see per-region confidence tiers)\n";
    return 3;
  }
  return 0;
}

int cmd_aggregate(const Args& args, std::ostream& out, std::ostream& err) {
  TelemetrySession telemetry;
  if (int code = init_telemetry(args, telemetry, err)) return code;
  auto config = load_config(args);
  if (!config.ok()) {
    err << "config error: " << config.error().to_string() << "\n";
    return 2;
  }
  auto loaded = load_records(args, err, telemetry.get());
  if (!loaded.ok()) {
    err << "records error: " << loaded.error().to_string() << "\n";
    return 2;
  }
  datasets::AggregationPolicy policy = config->aggregation;
  if (int code = apply_threads(args, policy, err)) return code;
  if (auto percentile = args.get("percentile")) {
    auto value = util::parse_double(*percentile);
    if (!value.ok() || value.value() < 0.0 || value.value() > 100.0) {
      err << "bad --percentile '" << *percentile << "'\n";
      return 1;
    }
    policy.percentile = value.value();
  }
  auto table = datasets::aggregate(loaded->store, policy, telemetry.get());
  if (table.size() == 0) {
    err << "no aggregable cells\n";
    return 2;
  }
  const int code = emit(args, datasets::aggregates_to_csv(table), out, err);
  const int telemetry_code = write_telemetry(telemetry, err);
  return code != 0 ? code : telemetry_code;
}

/// convert: re-encode a records file between CSV and the IQBREC
/// binary format. The input format is sniffed from its leading bytes
/// (a .iqbr renamed to .csv still converts correctly); the output
/// format follows the --out extension.
int cmd_convert(const Args& args, std::ostream& out, std::ostream& err) {
  auto records_path = args.get("records");
  auto out_path = args.get("out");
  if (!records_path || !out_path) {
    err << "--records and --out are required\n";
    return 1;
  }
  const bool to_iqbr =
      util::ends_with(*out_path, datasets::kRecordBinaryExtension);
  if (!to_iqbr && !util::ends_with(*out_path, ".csv")) {
    err << "--out must end in .iqbr or .csv, got '" << *out_path << "'\n";
    return 1;
  }
  datasets::LoadFileOptions load;
  if (args.get("lenient").value_or("") != "true") {
    load.ingest = robust::IngestPolicy::strict();
    load.retry.max_attempts = 1;
  }
  std::size_t threads = 0;
  if (int code = parse_threads_flag(args, threads, err)) return code;
  load.threads = threads;
  robust::Quarantine quarantine;
  auto outcome =
      datasets::load_records_file(*records_path, load, nullptr, &quarantine);
  if (!outcome.ok()) {
    err << "records error: " << outcome.error().to_string() << "\n";
    return 2;
  }
  if (!quarantine.empty()) {
    err << "warning: " << quarantine.summary() << "\n";
  }
  const auto& records = outcome->records;
  auto written =
      to_iqbr ? datasets::write_records_iqbr(*out_path, records)
              : util::fs::atomic_write(*out_path,
                                       datasets::records_to_csv(records));
  if (!written.ok()) {
    err << "cannot write '" << *out_path
        << "': " << written.error().message << "\n";
    return 2;
  }
  out << "wrote " << *out_path << " (" << records.size() << " records)\n";
  return 0;
}

int cmd_config(const Args& args, std::ostream& out, std::ostream& err) {
  const core::IqbConfig config = core::IqbConfig::paper_defaults();
  if (auto path = args.get("out")) {
    auto saved = config.save(*path);
    if (!saved.ok()) {
      err << "save error: " << saved.error().to_string() << "\n";
      return 2;
    }
    out << "wrote " << *path << "\n";
    return 0;
  }
  out << config.to_json().dump(2) << "\n";
  return 0;
}

int cmd_sensitivity(const Args& args, std::ostream& out, std::ostream& err) {
  auto region = args.get("region");
  if (!region) {
    err << "--region is required\n";
    return 1;
  }
  auto config = load_config(args);
  if (!config.ok()) {
    err << "config error: " << config.error().to_string() << "\n";
    return 2;
  }
  auto loaded = load_records(args, err);
  if (!loaded.ok()) {
    err << "records error: " << loaded.error().to_string() << "\n";
    return 2;
  }
  core::SensitivityAnalyzer analyzer(std::move(config).value(),
                                     std::move(loaded).value().store);
  auto report = analyzer.analyze(*region);
  if (!report.ok()) {
    err << "analysis error: " << report.error().to_string() << "\n";
    return 2;
  }
  out << "region " << report->region << " baseline "
      << util::format_fixed(report->baseline_score, 4) << "\n";
  out << "\nleave-one-dataset-out:\n";
  for (const auto& ablation : report->dataset_ablations) {
    out << "  -" << ablation.removed_dataset << "  "
        << util::format_fixed(ablation.score, 4) << " ("
        << (ablation.shift >= 0 ? "+" : "")
        << util::format_fixed(ablation.shift, 4) << ")\n";
  }
  out << "\npercentile sweep:\n";
  for (const auto& point : report->percentile_sweep) {
    out << "  p" << util::format_fixed(point.percentile, 0) << "  "
        << util::format_fixed(point.score, 4) << "\n";
  }
  out << "\nweight perturbations (|shift| > 0.001):\n";
  for (const auto& perturbation : report->weight_perturbations) {
    if (std::abs(perturbation.shift) <= 0.001) continue;
    out << "  " << core::use_case_name(perturbation.use_case) << "/"
        << core::requirement_name(perturbation.requirement) << " "
        << (perturbation.delta >= 0 ? "+" : "") << perturbation.delta << "  "
        << util::format_fixed(perturbation.score, 4) << " ("
        << (perturbation.shift >= 0 ? "+" : "")
        << util::format_fixed(perturbation.shift, 4) << ")\n";
  }
  return 0;
}

int cmd_trend(const Args& args, std::ostream& out, std::ostream& err) {
  auto config = load_config(args);
  if (!config.ok()) {
    err << "config error: " << config.error().to_string() << "\n";
    return 2;
  }
  auto loaded = load_records(args, err);
  if (!loaded.ok()) {
    err << "records error: " << loaded.error().to_string() << "\n";
    return 2;
  }
  core::TrendConfig trend_config;
  if (auto days = args.get("window-days")) {
    auto value = util::parse_int(*days);
    if (!value.ok() || value.value() < 1) {
      err << "bad --window-days '" << *days << "'\n";
      return 1;
    }
    trend_config.window_seconds = value.value() * 86400;
  }
  auto trends =
      core::analyze_trends(loaded->store, config.value(), trend_config);
  if (!trends.ok()) {
    err << "trend error: " << trends.error().to_string() << "\n";
    return 2;
  }
  out << "region,windows,first,last,slope_per_day,direction\n";
  for (const auto& trend : *trends) {
    out << trend.region << ',' << trend.windows.size() << ','
        << util::format_fixed(trend.first_score, 4) << ','
        << util::format_fixed(trend.last_score, 4) << ','
        << util::format_fixed(trend.slope_per_day, 6) << ','
        << core::trend_direction_name(trend.direction) << "\n";
  }
  return 0;
}

int cmd_simulate(const Args& args, std::ostream& out, std::ostream& err) {
  const auto subscribers = args.get("subscribers").value_or("4");
  const auto tests = args.get("tests").value_or("2");
  const auto seed = args.get("seed").value_or("1");
  auto n_subs = util::parse_int(subscribers);
  auto n_tests = util::parse_int(tests);
  auto n_seed = util::parse_int(seed);
  if (!n_subs.ok() || !n_tests.ok() || !n_seed.ok() || n_subs.value() < 1 ||
      n_tests.value() < 1) {
    err << "bad --subscribers/--tests/--seed\n";
    return 1;
  }

  measurement::CampaignConfig config;
  config.seed = static_cast<std::uint64_t>(n_seed.value());
  config.tests_per_tool = static_cast<std::size_t>(n_tests.value());
  config.base_time = util::Timestamp::parse("2025-03-01").value();
  measurement::Campaign campaign(config);
  campaign.add_client(std::make_shared<measurement::NdtClient>());
  campaign.add_client(std::make_shared<measurement::OoklaStyleClient>());
  campaign.add_client(std::make_shared<measurement::CloudflareStyleClient>());
  util::Rng rng(config.seed);
  for (const auto& plan : measurement::example_region_plans(
           static_cast<std::size_t>(n_subs.value()))) {
    for (auto& subscriber : measurement::generate_population(plan, rng)) {
      campaign.add_subscriber(std::move(subscriber));
    }
  }
  err << "simulating " << n_subs.value()
      << " subscribers x 3 regions x 3 tools x " << n_tests.value()
      << " tests...\n";
  const auto sessions = campaign.run();
  const auto records = measurement::convert_sessions_default(sessions);
  err << sessions.size() << " sessions -> " << records.size() << " records ("
      << campaign.failed_sessions() << " failed)\n";
  return emit(args, datasets::records_to_csv(records), out, err);
}

}  // namespace

std::optional<std::string> Args::get(const std::string& key) const {
  auto it = options.find(key);
  if (it == options.end()) return std::nullopt;
  return it->second;
}

util::Result<std::vector<Option>> parse_options(
    std::span<const std::string> tokens) {
  std::vector<Option> options;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string& key = tokens[i];
    if (!util::starts_with(key, "--")) {
      return util::make_error(util::ErrorCode::kInvalidArgument,
                              "expected --option, got '" + key + "'");
    }
    if (i + 1 >= tokens.size() || util::starts_with(tokens[i + 1], "--")) {
      return util::make_error(util::ErrorCode::kInvalidArgument,
                              "missing value for " + key);
    }
    options.push_back({key.substr(2), tokens[++i]});
  }
  return options;
}

ParsedOrError parse_args(const std::vector<std::string>& tokens) {
  if (tokens.empty()) return {std::nullopt, "no command given"};
  auto options = parse_options(std::span(tokens).subspan(1));
  if (!options.ok()) return {std::nullopt, options.error().message};
  Args args;
  args.command = tokens[0];
  for (Option& option : options.value()) {
    args.options[option.key] = std::move(option.value);
  }
  return {args, ""};
}

int run_command(const std::vector<std::string>& tokens, std::ostream& out,
                std::ostream& err) {
  auto parsed = parse_args(tokens);
  if (!parsed.args) {
    err << parsed.error << "\n" << kUsage;
    return 1;
  }
  const Args& args = *parsed.args;
  if (args.command == "score") return cmd_score(args, out, err);
  if (args.command == "aggregate") return cmd_aggregate(args, out, err);
  if (args.command == "convert") return cmd_convert(args, out, err);
  if (args.command == "config") return cmd_config(args, out, err);
  if (args.command == "sensitivity") return cmd_sensitivity(args, out, err);
  if (args.command == "trend") return cmd_trend(args, out, err);
  if (args.command == "simulate") return cmd_simulate(args, out, err);
  err << "unknown command '" << args.command << "'\n" << kUsage;
  return 1;
}

}  // namespace iqb::cli
