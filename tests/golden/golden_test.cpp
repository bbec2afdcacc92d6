// Byte goldens for the three documents the program serves or stores,
// recorded from the build before they were streamed through
// util::JsonWriter:
//   scores.json         `iqbctl score --records examples/example_records.csv
//                       --format json` (the /scores document);
//   shard_payload.json  the /shard/aggregate payload of the same records,
//                       bootstrap CIs on, cycle 42, trace "golden-42";
//   checkpoint.ckpt     a checkpoint frame holding scores.json.
// A writer-versus-dump test cannot see drift in a formatting primitive
// the two share; these files can. The frame must also keep decoding, so
// checkpoints written by older builds keep loading.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "iqb/cli/cli.hpp"
#include "iqb/datasets/aggregate.hpp"
#include "iqb/datasets/fast_csv.hpp"
#include "iqb/fleet/wire.hpp"
#include "iqb/robust/checkpoint.hpp"

namespace iqb {
namespace {

const std::string kRecords =
    std::string(IQB_EXAMPLES_DIR) + "/example_records.csv";

std::string golden(const std::string& name) {
  std::ifstream in(std::string(IQB_GOLDEN_DIR) + "/" + name, std::ios::binary);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

robust::Checkpoint golden_checkpoint() {
  robust::Checkpoint checkpoint;
  checkpoint.cycle = 42;
  checkpoint.cycles_attempted = 45;
  checkpoint.cycles_failed = 3;
  checkpoint.trace_id = "golden-42";
  checkpoint.scores_json = golden("scores.json");
  checkpoint.tier_c = true;
  checkpoint.tier_c_regions = {"rural \"east\"", "suburb\tnorth"};
  return checkpoint;
}

TEST(Golden, ScoresDocumentIsByteIdentical) {
  std::ostringstream out, err;
  const int code = cli::run_command(
      {"score", "--records", kRecords, "--format", "json"}, out, err);
  EXPECT_EQ(code, 0) << err.str();
  const std::string expected = golden("scores.json");
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(out.str(), expected);
}

TEST(Golden, ShardPayloadIsByteIdenticalAndRoundTrips) {
  auto loaded = datasets::load_records_file(kRecords);
  ASSERT_TRUE(loaded.ok()) << loaded.error().to_string();
  datasets::RecordStore store(std::move(loaded->records));
  datasets::AggregationPolicy policy;
  policy.bootstrap_resamples = 200;
  fleet::ShardPayload payload;
  payload.cycle = 42;
  payload.trace_id = "golden-42";
  payload.table = datasets::aggregate(store, policy);
  payload.health.rows_quarantined = 2;
  payload.health.sources_retried = 1;
  payload.health.open_breakers = {"feed:ookla"};

  const std::string expected = golden("shard_payload.json");
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(fleet::serialize_shard_payload(payload), expected);

  auto parsed = fleet::parse_shard_payload(expected);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(fleet::serialize_shard_payload(parsed.value()), expected);
}

TEST(Golden, CheckpointFrameIsByteIdenticalAndStillDecodes) {
  const robust::Checkpoint checkpoint = golden_checkpoint();
  const std::string expected = golden("checkpoint.ckpt");
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(checkpoint.encode(), expected);

  auto decoded = robust::Checkpoint::decode(expected);
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  EXPECT_EQ(decoded->cycle, checkpoint.cycle);
  EXPECT_EQ(decoded->cycles_attempted, checkpoint.cycles_attempted);
  EXPECT_EQ(decoded->cycles_failed, checkpoint.cycles_failed);
  EXPECT_EQ(decoded->trace_id, checkpoint.trace_id);
  EXPECT_EQ(decoded->scores_json, checkpoint.scores_json);
  EXPECT_EQ(decoded->tier_c, checkpoint.tier_c);
  EXPECT_EQ(decoded->tier_c_regions, checkpoint.tier_c_regions);
}

}  // namespace
}  // namespace iqb
