#include "iqb/cli/cli.hpp"

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "iqb/datasets/io.hpp"
#include "iqb/datasets/synthetic.hpp"
#include "iqb/util/json.hpp"

namespace iqb::cli {
namespace {

/// Temp records CSV built from the synthetic generator.
class CliTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // ctest runs each case in its own process with this fixture's
    // SetUp/TearDownTestSuite; the path must be per-process or one
    // process's teardown would delete the file under another.
    records_path_ =
        (std::filesystem::temp_directory_path() /
         ("iqb_cli_test_records_" + std::to_string(getpid()) + ".csv"))
            .string();
    util::Rng rng(77);
    datasets::RecordStore store;
    datasets::SyntheticConfig config;
    config.records_per_dataset = 60;
    config.base_time = util::Timestamp::parse("2025-02-01").value();
    config.spacing_s = 3600;
    for (const auto& profile : datasets::example_region_profiles()) {
      store.add_all(datasets::generate_region_records(
          profile, datasets::default_dataset_panel(), config, rng));
    }
    ASSERT_TRUE(datasets::write_records_csv(records_path_, store.records()).ok());
  }

  static void TearDownTestSuite() { std::remove(records_path_.c_str()); }

  static int run(const std::vector<std::string>& tokens, std::string* out_text,
                 std::string* err_text = nullptr) {
    std::ostringstream out, err;
    const int code = run_command(tokens, out, err);
    if (out_text) *out_text = out.str();
    if (err_text) *err_text = err.str();
    return code;
  }

  static std::string records_path_;
};

std::string CliTest::records_path_;

TEST_F(CliTest, ParseArgsBasics) {
  auto parsed = parse_args({"score", "--records", "x.csv", "--format", "json"});
  ASSERT_TRUE(parsed.args.has_value());
  EXPECT_EQ(parsed.args->command, "score");
  EXPECT_EQ(parsed.args->get("records").value(), "x.csv");
  EXPECT_EQ(parsed.args->get("format").value(), "json");
  EXPECT_FALSE(parsed.args->get("missing").has_value());
}

TEST_F(CliTest, ParseArgsErrors) {
  EXPECT_FALSE(parse_args({}).args.has_value());
  EXPECT_FALSE(parse_args({"score", "oops"}).args.has_value());
  EXPECT_FALSE(parse_args({"score", "--records"}).args.has_value());
}

TEST_F(CliTest, ParseOptionsRejectsAFlagInPlaceOfAValue) {
  const std::vector<std::string> ok{"--a", "1", "--b", "-2"};
  auto parsed = parse_options(ok);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[1].key, "b");
  EXPECT_EQ((*parsed)[1].value, "-2");  // one dash is a value

  const std::vector<std::string> flag_as_value{"--a", "--b", "1"};
  auto rejected = parse_options(flag_as_value);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error().message, "missing value for --a");
}

TEST_F(CliTest, ScoreNamesTheFlagWhoseValueIsAnotherFlag) {
  std::string out, err;
  EXPECT_EQ(run({"score", "--records", records_path_, "--by-isp", "--lenient",
                 "true"},
                &out, &err),
            1);
  EXPECT_NE(err.find("missing value for --by-isp"), std::string::npos) << err;
  EXPECT_TRUE(out.empty());
}

/// Run the iqbd binary with `args`: its exit status, stderr in `err`.
int run_iqbd(const std::string& args, std::string& err) {
  const std::string log =
      (std::filesystem::temp_directory_path() /
       ("iqb_cli_test_iqbd_" + std::to_string(getpid()) + ".log"))
          .string();
  const int status = std::system(
      (std::string(IQBD_BINARY) + " " + args + " >/dev/null 2>" + log).c_str());
  std::ifstream in(log);
  std::stringstream text;
  text << in.rdbuf();
  err = text.str();
  std::remove(log.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(IqbdCommandLine, DaemonNamesTheFlagWhoseValueIsAnotherFlag) {
  std::string err;
  EXPECT_EQ(run_iqbd("--records R --by-isp --port 1", err), 1);
  EXPECT_NE(err.find("missing value for --by-isp"), std::string::npos) << err;
}

TEST(IqbdCommandLine, CoordinatorNamesTheFlagWhoseValueIsAnotherFlag) {
  std::string err;
  EXPECT_EQ(
      run_iqbd("--coordinator --shards a=127.0.0.1:1 --hedge-ms --port 2", err),
      1);
  EXPECT_NE(err.find("missing value for --hedge-ms"), std::string::npos)
      << err;
}

TEST_F(CliTest, UnknownCommandFails) {
  std::string out, err;
  EXPECT_EQ(run({"frobnicate"}, &out, &err), 1);
  EXPECT_NE(err.find("unknown command"), std::string::npos);
  EXPECT_NE(err.find("usage:"), std::string::npos);
}

TEST_F(CliTest, ConfigPrintsPaperDefaults) {
  std::string out;
  EXPECT_EQ(run({"config"}, &out), 0);
  EXPECT_NE(out.find("\"percentile\": 95"), std::string::npos);
  EXPECT_NE(out.find("gaming.latency"), std::string::npos);
  EXPECT_TRUE(util::parse_json(out).ok());
}

TEST_F(CliTest, ConfigWritesFile) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "iqb_cli_config.json").string();
  std::string out;
  EXPECT_EQ(run({"config", "--out", path}, &out), 0);
  EXPECT_NE(out.find("wrote"), std::string::npos);
  EXPECT_TRUE(std::filesystem::exists(path));
  std::remove(path.c_str());
}

TEST_F(CliTest, ScoreMarkdown) {
  std::string out;
  EXPECT_EQ(run({"score", "--records", records_path_, "--format", "markdown"},
                &out),
            0);
  EXPECT_NE(out.find("| Region |"), std::string::npos);
  EXPECT_NE(out.find("metro_fiber"), std::string::npos);
}

TEST_F(CliTest, ScoreJsonParses) {
  std::string out;
  EXPECT_EQ(run({"score", "--records", records_path_, "--format", "json"},
                &out),
            0);
  auto json = util::parse_json(out);
  ASSERT_TRUE(json.ok());
  EXPECT_EQ(json->get_array("regions")->size(), 6u);
}

TEST_F(CliTest, ScoreHtml) {
  std::string out;
  EXPECT_EQ(run({"score", "--records", records_path_, "--format", "html"},
                &out),
            0);
  EXPECT_NE(out.find("<!DOCTYPE html>"), std::string::npos);
}

TEST_F(CliTest, ScoreByIspSplitsRegions) {
  std::string out;
  EXPECT_EQ(run({"score", "--records", records_path_, "--format", "markdown",
                 "--by-isp", "true"},
                &out),
            0);
  EXPECT_NE(out.find("metro_fiber/cityfiber"), std::string::npos);
}

TEST_F(CliTest, ScoreUnknownFormatFails) {
  std::string out, err;
  EXPECT_EQ(run({"score", "--records", records_path_, "--format", "yaml"},
                &out, &err),
            1);
}

TEST_F(CliTest, ScoreMissingRecordsFails) {
  std::string out, err;
  EXPECT_EQ(run({"score"}, &out, &err), 2);
  EXPECT_NE(err.find("--records is required"), std::string::npos);
}

TEST_F(CliTest, ScoreNonexistentFileFails) {
  std::string out, err;
  EXPECT_EQ(run({"score", "--records", "/no/such/file.csv"}, &out, &err), 2);
}

TEST_F(CliTest, ScoreOutFileWritten) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "iqb_cli_report.html").string();
  std::string out;
  EXPECT_EQ(run({"score", "--records", records_path_, "--format", "html",
                 "--out", path},
                &out),
            0);
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("</html>"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(CliTest, ScoreOutIsAtomicNoTempLeftoverAndOldFileSurvivesFailure) {
  // --out goes through util::fs::atomic_write: on success the
  // directory holds only the target (the temp file was renamed over
  // it); an unwritable destination reports an error without having
  // touched anything.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("iqb_cli_atomic_" + std::to_string(getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "scores.json").string();
  std::string out;
  EXPECT_EQ(run({"score", "--records", records_path_, "--format", "json",
                 "--out", path},
                &out),
            0);
  std::size_t entries = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);

  std::string err;
  EXPECT_NE(run({"score", "--records", records_path_, "--format", "json",
                 "--out", (dir / "no" / "such" / "dir.json").string()},
                &out, &err),
            0);
  EXPECT_NE(err.find("cannot write"), std::string::npos) << err;
  std::filesystem::remove_all(dir);
}

TEST_F(CliTest, AggregateCsvShape) {
  std::string out;
  EXPECT_EQ(run({"aggregate", "--records", records_path_}, &out), 0);
  EXPECT_NE(out.find("region,dataset,metric,value,samples"), std::string::npos);
  EXPECT_NE(out.find("metro_fiber,ndt,download"), std::string::npos);
}

TEST_F(CliTest, AggregateBadPercentileFails) {
  std::string out, err;
  EXPECT_EQ(run({"aggregate", "--records", records_path_, "--percentile",
                 "150"},
                &out, &err),
            1);
}

TEST_F(CliTest, SensitivityRequiresRegion) {
  std::string out, err;
  EXPECT_EQ(run({"sensitivity", "--records", records_path_}, &out, &err), 1);
  EXPECT_NE(err.find("--region is required"), std::string::npos);
}

TEST_F(CliTest, SensitivityRuns) {
  std::string out;
  EXPECT_EQ(run({"sensitivity", "--records", records_path_, "--region",
                 "suburban_cable"},
                &out),
            0);
  EXPECT_NE(out.find("baseline"), std::string::npos);
  EXPECT_NE(out.find("leave-one-dataset-out"), std::string::npos);
  EXPECT_NE(out.find("-ookla"), std::string::npos);
}

TEST_F(CliTest, TrendRuns) {
  std::string out;
  EXPECT_EQ(run({"trend", "--records", records_path_, "--window-days", "3"},
                &out),
            0);
  EXPECT_NE(out.find("region,windows,first,last,slope_per_day,direction"),
            std::string::npos);
  EXPECT_NE(out.find("metro_fiber"), std::string::npos);
}

TEST_F(CliTest, TrendBadWindowFails) {
  std::string out, err;
  EXPECT_EQ(run({"trend", "--records", records_path_, "--window-days", "0"},
                &out, &err),
            1);
}

TEST_F(CliTest, SimulateBadArgsFail) {
  std::string out, err;
  EXPECT_EQ(run({"simulate", "--subscribers", "zero"}, &out, &err), 1);
  EXPECT_EQ(run({"simulate", "--tests", "0"}, &out, &err), 1);
}

/// records_path_'s content plus a handful of corrupt rows, on disk.
class CliLenientTest : public CliTest {
 protected:
  void SetUp() override {
    dirty_path_ =
        (std::filesystem::temp_directory_path() /
         ("iqb_cli_test_dirty_" + std::to_string(getpid()) + ".csv"))
            .string();
    std::ifstream in(records_path_, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::ofstream out(dirty_path_, std::ios::binary);
    out << buffer.str();
    out << "ndt,metro_fiber,isp,s1,not-a-timestamp,100,,,,\n";
    out << "ndt,metro_fiber,isp,s2,2025-02-01T00:00:00Z,???,,,,\n";
  }

  void TearDown() override { std::remove(dirty_path_.c_str()); }

  std::string dirty_path_;
};

TEST_F(CliLenientTest, StrictModeRejectsDirtyFile) {
  std::string out, err;
  EXPECT_EQ(run({"score", "--records", dirty_path_}, &out, &err), 2);
  EXPECT_NE(err.find("records error"), std::string::npos);
}

TEST_F(CliLenientTest, LenientModeScoresDegradedWithExitCode3) {
  std::string out, err;
  EXPECT_EQ(run({"score", "--records", dirty_path_, "--lenient", "true"},
                &out, &err),
            3);
  EXPECT_NE(err.find("rows quarantined"), std::string::npos);
  EXPECT_NE(err.find("degraded mode"), std::string::npos);
  // Regions are still scored, and the scorecard says why to distrust.
  EXPECT_NE(out.find("IQB Scorecard"), std::string::npos);
  EXPECT_NE(out.find("DEGRADED MODE"), std::string::npos);
  EXPECT_NE(out.find("confidence tier B"), std::string::npos);
}

TEST_F(CliLenientTest, CleanFileWithLenientStaysExitZero) {
  std::string strict_out, lenient_out, err;
  EXPECT_EQ(run({"score", "--records", records_path_}, &strict_out, &err), 0);
  EXPECT_EQ(run({"score", "--records", records_path_, "--lenient", "true"},
                &lenient_out, &err),
            0);
  // Healthy data: lenient mode is bit-identical to strict.
  EXPECT_EQ(strict_out, lenient_out);
  EXPECT_EQ(lenient_out.find("DEGRADED MODE"), std::string::npos);
}

// ---------------- telemetry flags ------------------------------------

std::string temp_path(const std::string& stem, const std::string& ext) {
  return (std::filesystem::temp_directory_path() /
          ("iqb_cli_test_" + stem + "_" + std::to_string(getpid()) + ext))
      .string();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST_F(CliTest, MetricsOutPromCoversTheRunPath) {
  const std::string metrics_path = temp_path("metrics", ".prom");
  std::string plain_out, plain_err, out, err;
  ASSERT_EQ(run({"score", "--records", records_path_}, &plain_out,
                &plain_err),
            0);
  ASSERT_EQ(run({"score", "--records", records_path_, "--metrics-out",
                 metrics_path},
                &out, &err),
            0);
  // Telemetry is strictly additive: same report bytes, same stderr.
  EXPECT_EQ(out, plain_out);
  EXPECT_EQ(err, plain_err);

  const std::string prom = slurp(metrics_path);
  std::remove(metrics_path.c_str());
  for (const char* needle :
       {"# TYPE iqb_pipeline_stage_duration_seconds histogram",
        "stage=\"aggregate\"", "stage=\"score\"",
        "iqb_pipeline_stage_duration_seconds_bucket",
        "iqb_pipeline_regions_scored_total", "iqb_ingest_rows_read_total",
        "iqb_ingest_fetch_attempts_total", "iqb_aggregate_cells_total",
        "iqb_robust_breaker_state", "iqb_robust_breaker_transitions_total",
        "iqb_robust_breaker_denied_total", "iqb_robust_quarantine_rows"}) {
    EXPECT_NE(prom.find(needle), std::string::npos) << needle;
  }
}

TEST_F(CliTest, MetricsOutJsonParsesAndTraceOutHasTheRunTree) {
  const std::string metrics_path = temp_path("metrics", ".json");
  const std::string trace_path = temp_path("trace", ".json");
  std::string out, err;
  ASSERT_EQ(run({"score", "--records", records_path_, "--metrics-out",
                 metrics_path, "--trace-out", trace_path},
                &out, &err),
            0);

  auto metrics = util::parse_json(slurp(metrics_path));
  std::remove(metrics_path.c_str());
  ASSERT_TRUE(metrics.ok()) << metrics.error().to_string();
  auto families = metrics->get_array("metrics");
  ASSERT_TRUE(families.ok());
  EXPECT_FALSE(families->empty());

  const std::string trace_text = slurp(trace_path);
  std::remove(trace_path.c_str());
  auto trace = util::parse_json(trace_text);
  ASSERT_TRUE(trace.ok()) << trace.error().to_string();
  ASSERT_TRUE(trace->get_array("trace").ok());
  // Roots: the ingest load and the pipeline run, with stage children.
  EXPECT_NE(trace_text.find("\"ingest.load\""), std::string::npos);
  EXPECT_NE(trace_text.find("\"pipeline.run\""), std::string::npos);
  EXPECT_NE(trace_text.find("\"score.region\""), std::string::npos);
}

TEST_F(CliTest, MetricsOutBadExtensionIsAUsageError) {
  std::string out, err;
  EXPECT_EQ(run({"score", "--records", records_path_, "--metrics-out",
                 "metrics.txt"},
                &out, &err),
            1);
  EXPECT_NE(err.find("--metrics-out"), std::string::npos);
  EXPECT_TRUE(out.empty());
}

TEST_F(CliTest, AggregateMetricsOutWorks) {
  const std::string metrics_path = temp_path("agg", ".prom");
  std::string out, err;
  ASSERT_EQ(run({"aggregate", "--records", records_path_, "--metrics-out",
                 metrics_path},
                &out, &err),
            0);
  const std::string prom = slurp(metrics_path);
  std::remove(metrics_path.c_str());
  EXPECT_NE(prom.find("iqb_aggregate_cells_total"), std::string::npos);
  EXPECT_NE(prom.find("iqb_aggregate_cell_samples_bucket"),
            std::string::npos);
}

TEST_F(CliLenientTest, LenientTelemetryCountsQuarantinedRows) {
  const std::string metrics_path = temp_path("lenient", ".prom");
  std::string out, err;
  EXPECT_EQ(run({"score", "--records", dirty_path_, "--lenient", "true",
                 "--metrics-out", metrics_path},
                &out, &err),
            3);  // telemetry must not mask the degraded exit code
  const std::string prom = slurp(metrics_path);
  std::remove(metrics_path.c_str());
  // The fixture appends exactly two corrupt rows.
  EXPECT_NE(prom.find("iqb_ingest_rows_quarantined_total{source=\"" +
                      dirty_path_ + "\"} 2\n"),
            std::string::npos);
  EXPECT_NE(prom.find("iqb_robust_quarantine_rows{source=\"" + dirty_path_ +
                      "\"} 2\n"),
            std::string::npos);
}

}  // namespace
}  // namespace iqb::cli
