// Command implementations behind the iqbctl binary.
//
// Kept as a library so the commands are unit-testable: run_command
// takes argv-style tokens and writes to caller-supplied streams.
//
//   iqbctl score       --records F.csv [--config F.json] [--by-isp true]
//                      [--lenient true]
//                      [--format text|json|csv|markdown|html] [--out F]
//                      [--metrics-out F.prom|.json] [--trace-out F.json]
//   iqbctl aggregate   --records F.csv [--config F.json] [--percentile P]
//                      [--lenient true]
//                      [--metrics-out F.prom|.json] [--trace-out F.json]
//   iqbctl config      [--out F.json]
//   iqbctl sensitivity --records F.csv --region NAME [--config F.json]
//   iqbctl trend       --records F.csv [--config F.json] [--window-days N]
//   iqbctl simulate    [--subscribers N] [--tests N] [--seed S] [--out F.csv]
//
// Exit codes: 0 success, 1 usage error, 2 data/config error,
// 3 scored but in degraded mode (missing datasets, quarantined rows,
// or open circuit breakers — see the per-region confidence tiers).
//
// --metrics-out collects run telemetry (iqb::obs) and writes it in
// Prometheus text (.prom) or JSON (.json) form; --trace-out writes the
// span tree of the run as JSON. Both are strictly additive: without
// the flags no telemetry is collected and output is bit-identical.
#pragma once

#include <iosfwd>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "iqb/util/result.hpp"

namespace iqb::cli {

/// One `--key value` pair, the key without its dashes.
struct Option {
  std::string key;
  std::string value;
};

/// The `--key value` grammar every IQB command line shares: iqbctl
/// after its subcommand, iqbd, and iqbd --coordinator. A token that is
/// not `--key` is an error ("expected --option, got 'x'"), and so is a
/// key without a value ("missing value for --key"): the tokens end, or
/// the next token is itself a `--flag`.
util::Result<std::vector<Option>> parse_options(
    std::span<const std::string> tokens);

/// Parsed command line: the subcommand plus --key value options.
struct Args {
  std::string command;
  std::map<std::string, std::string> options;

  std::optional<std::string> get(const std::string& key) const;
};

/// Parse tokens (argv[1..]); error text explains usage problems.
/// Exposed for tests.
struct ParsedOrError {
  std::optional<Args> args;
  std::string error;
};
ParsedOrError parse_args(const std::vector<std::string>& tokens);

/// Execute a full command line (argv[1..] tokens). Output goes to
/// `out`, diagnostics to `err`. Returns the process exit code.
int run_command(const std::vector<std::string>& tokens, std::ostream& out,
                std::ostream& err);

}  // namespace iqb::cli
