// iqb_faultsim — deterministic CSV fault simulator.
//
// Reads a records CSV, pushes it through robust::FaultInjector with a
// seeded spec, and writes the perturbed text. Useful for producing
// reproducible "dirty" fixtures to exercise `iqbctl score --lenient
// true` and the quarantine/degraded-mode machinery end to end:
//
//   iqb_faultsim --records clean.csv --out dirty.csv --seed 7
//                --corrupt-rate 0.2 --truncate-rate 0.1  (one command)
//
// Exit codes: 0 wrote output, 1 usage error, 2 IO failure (including
// an injected one, when --io-error-rate fires).
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>

#include "iqb/robust/fault_injection.hpp"
#include "iqb/util/strings.hpp"

namespace {

constexpr const char* kUsage =
    "usage: iqb_faultsim --records FILE.csv [--out FILE.csv] [--seed S]\n"
    "                    [--corrupt-rate R] [--truncate-rate R]\n"
    "                    [--io-error-rate R]\n"
    "Perturbs a CSV with seeded faults (row corruption, truncation,\n"
    "injected IO errors) and writes the result to --out (default:\n"
    "stdout). Same inputs + same seed -> byte-identical output.\n";

std::optional<double> parse_rate(const std::string& text) {
  auto value = iqb::util::parse_double(text);
  if (!value.ok() || value.value() < 0.0 || value.value() > 1.0) {
    return std::nullopt;
  }
  return value.value();
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> options;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      std::fputs(kUsage, stderr);
      return 1;
    }
    options[key.substr(2)] = argv[++i];
  }
  auto records_it = options.find("records");
  if (records_it == options.end()) {
    std::fputs(kUsage, stderr);
    return 1;
  }
  const std::string& path = records_it->second;

  iqb::robust::FaultSpec spec;
  std::uint64_t seed = 1;
  if (auto it = options.find("seed"); it != options.end()) {
    auto value = iqb::util::parse_int(it->second);
    if (!value.ok() || value.value() < 0) {
      std::fprintf(stderr, "bad --seed '%s'\n", it->second.c_str());
      return 1;
    }
    seed = static_cast<std::uint64_t>(value.value());
  }
  struct RateFlag {
    const char* name;
    double* target;
  };
  const RateFlag rate_flags[] = {
      {"corrupt-rate", &spec.row_corruption_rate},
      {"truncate-rate", &spec.truncation_rate},
      {"io-error-rate", &spec.io_error_rate},
  };
  for (const RateFlag& flag : rate_flags) {
    if (auto it = options.find(flag.name); it != options.end()) {
      auto rate = parse_rate(it->second);
      if (!rate) {
        std::fprintf(stderr, "bad --%s '%s' (want 0..1)\n", flag.name,
                     it->second.c_str());
        return 1;
      }
      *flag.target = *rate;
    }
  }

  iqb::robust::FaultInjector injector(spec, seed);
  auto perturbed = injector.fetch(path, [&path]() {
    std::ifstream file(path, std::ios::binary);
    if (!file) {
      return iqb::util::Result<std::string>(iqb::util::make_error(
          iqb::util::ErrorCode::kIoError, "cannot open '" + path + "'"));
    }
    std::ostringstream buffer;
    buffer << file.rdbuf();
    return iqb::util::Result<std::string>(buffer.str());
  });
  if (!perturbed.ok()) {
    std::fprintf(stderr, "%s\n", perturbed.error().to_string().c_str());
    return 2;
  }
  const std::string text = injector.corrupt_csv(perturbed.value());

  if (auto it = options.find("out"); it != options.end()) {
    std::ofstream out(it->second, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot open '%s' for writing\n",
                   it->second.c_str());
      return 2;
    }
    out << text;
  } else {
    std::fwrite(text.data(), 1, text.size(), stdout);
  }

  const auto& counters = injector.counters();
  std::fprintf(stderr,
               "faultsim: %zu rows corrupted, %zu truncations, "
               "%zu io errors (seed %llu)\n",
               counters.corrupted_rows, counters.truncations,
               counters.io_errors, static_cast<unsigned long long>(seed));
  return 0;
}
