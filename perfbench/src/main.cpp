// iqb_perfbench — one benchmark for the whole IQB chain.
//
//   iqb_perfbench --workload campaign|rescore|fleet --seed N --seconds S
//                 --trace 0|1 --workdir DIR [--trace-out FILE]
//                 [--expect-digest D] [--smoke 1]
//
// Usually launched by perfbench/run.py, which builds this binary from
// the checkout first. Informational lines start with "# "; the last
// line of stdout is one JSON object:
//   {"correct": true, "attempted": N, "failed": N,
//    "metrics": {"<name>": {"value": V, "unit": "U"}, ...}}
// holding the metrics the workload measures; run.py completes a traced
// result with the per-layer metrics of BENCHMARK.json it never calls.
// Exit code 0 whenever a result line was printed (correct or not),
// 2 on a usage or set-up error.
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include "bench.hpp"

namespace {

std::string json_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

void print_result(const perfbench::Result& result) {
  std::string line = "{\"correct\": ";
  line += result.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& metric : result.metrics) {
    if (!first) line += ", ";
    first = false;
    line += "\"" + metric.name + "\": {\"value\": " +
            json_number(metric.value) + ", \"unit\": \"" + metric.unit + "\"}";
  }
  line += "}}";
  std::cout << line << "\n" << std::flush;
}

int usage(const std::string& why) {
  std::cerr << "iqb_perfbench: " << why << "\n"
            << "usage: iqb_perfbench --workload campaign|rescore|fleet "
               "--seed N --seconds S --trace 0|1 --workdir DIR "
               "[--trace-out FILE] [--expect-digest D] [--smoke 1]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  if (argc % 2 == 0) return usage("every flag takes one value");
  try {
    options.workload = args.at("--workload");
    options.seed = std::stoull(args.at("--seed"));
    options.seconds = std::stod(args.at("--seconds"));
    options.trace = args.at("--trace") == "1";
    options.workdir = args.at("--workdir");
  } catch (const std::exception&) {
    return usage("missing or malformed flag");
  }
  if (args.count("--trace-out")) options.trace_out = args["--trace-out"];
  if (args.count("--expect-digest")) options.expect_digest = args["--expect-digest"];
  options.smoke = args.count("--smoke") && args["--smoke"] == "1";
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");

  std::error_code ec;
  std::filesystem::create_directories(options.workdir, ec);
  if (ec) return usage("cannot create workdir " + options.workdir);
  // Program logs and daemon diagnostics stay off the terminal.
  perfbench::redirect_logs(options.workdir + "/program.log");
  std::ofstream err(options.workdir + "/daemon.err", std::ios::app);

  perfbench::Result result;
  try {
    if (options.workload == "campaign") {
      result = perfbench::run_campaign(options, err);
    } else if (options.workload == "rescore") {
      result = perfbench::run_rescore(options, err);
    } else if (options.workload == "fleet") {
      result = perfbench::run_fleet(options, err);
    } else {
      return usage("unknown workload '" + options.workload + "'");
    }
  } catch (const std::exception& error) {
    std::cerr << "iqb_perfbench: " << error.what() << "\n";
    return 2;
  }

  for (auto& metric : result.metrics) {
    // JSON has no infinity: a failed operation already marks the run
    // incorrect, and the value is printed as 0.
    if (!std::isfinite(metric.value)) {
      result.check(false, metric.name + " is not finite");
      metric.value = 0.0;
    }
  }
  print_result(result);
  return 0;
}
