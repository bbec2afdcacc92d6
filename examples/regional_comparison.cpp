// Regional comparison: generate a six-region synthetic country with
// the fast statistical generator, score every region with the
// published IQB configuration, and print a comparison table plus a
// scorecard per region.
//
//   $ ./regional_comparison [records_per_dataset] [seed]
#include <cstdio>
#include <cstdlib>

#include "iqb/core/pipeline.hpp"
#include "iqb/datasets/io.hpp"
#include "iqb/datasets/synthetic.hpp"
#include "iqb/report/render.hpp"

using namespace iqb;

int main(int argc, char** argv) {
  const std::size_t records_per_dataset =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 400;
  const std::uint64_t seed =
      argc > 2 ? static_cast<std::uint64_t>(std::atoll(argv[2])) : 2025;

  // Build the synthetic country: six regions from urban fiber to GEO
  // satellite, three datasets each with its own measurement bias.
  util::Rng rng(seed);
  datasets::RecordStore store;
  datasets::SyntheticConfig config;
  config.records_per_dataset = records_per_dataset;
  config.base_time = util::Timestamp::parse("2025-03-01").value();
  const auto panel = datasets::default_dataset_panel();
  for (const auto& profile : datasets::example_region_profiles()) {
    store.add_all(
        datasets::generate_region_records(profile, panel, config, rng));
  }
  std::printf("Generated %zu records across %zu regions x %zu datasets\n\n",
              store.size(), store.regions().size(), panel.size());

  core::Pipeline pipeline(core::IqbConfig::paper_defaults());
  auto output = pipeline.run(store);

  std::printf("%s\n", report::comparison_table(output.results).c_str());
  for (const auto& result : output.results) {
    std::printf("%s\n", report::scorecard(result).c_str());
  }
  for (const auto& skipped : output.skipped) {
    std::printf("skipped: %s\n", skipped.to_string().c_str());
  }

  // Machine-readable exports alongside the console report.
  std::printf("JSON results:\n%s",
              report::scores_document(output.results).c_str());
  return 0;
}
