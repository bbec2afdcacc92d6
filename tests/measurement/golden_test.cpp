// Golden pin for the packet-level simulator's output.
//
// One small seeded campaign drives every tool over lines that use
// both loss models, cross traffic in both directions, RED and PIE
// queues and a token-bucket shaper. Every SessionRecord field is
// printed at full precision and the CRC-32 of that text is pinned: a
// change to the simulated event order, to a tie-break or to any
// arithmetic on the way to a record changes the checksum.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>

#include "iqb/measurement/campaign.hpp"
#include "iqb/measurement/cloudflare_style.hpp"
#include "iqb/measurement/ndt.hpp"
#include "iqb/measurement/ookla_style.hpp"
#include "iqb/measurement/rpm_style.hpp"
#include "iqb/util/fs.hpp"

namespace iqb::measurement {
namespace {

using netsim::LossSpec;
using netsim::QueueSpec;

SubscriberSpec red_bernoulli_line() {
  SubscriberSpec s;
  s.subscriber_id = "red-bernoulli";
  s.region = "golden";
  s.isp = "isp_a";
  s.access_down.rate = util::Mbps(20);
  s.access_down.propagation_delay = util::Seconds(0.006);
  netsim::RedQueue::Config red;
  red.capacity_bytes = 128 * 1024;
  red.min_threshold_bytes = 16 * 1024;
  red.max_threshold_bytes = 64 * 1024;
  s.access_down.queue = QueueSpec::red(red);
  s.access_down.loss = LossSpec::bernoulli(0.002);
  s.access_up.rate = util::Mbps(5);
  s.access_up.propagation_delay = util::Seconds(0.006);
  netsim::PieQueue::Config pie;
  pie.capacity_bytes = 96 * 1024;
  s.access_up.queue = QueueSpec::pie(pie);
  s.background_utilization = 0.3;
  return s;
}

SubscriberSpec shaped_gilbert_elliott_line() {
  SubscriberSpec s;
  s.subscriber_id = "shaped-ge";
  s.region = "golden";
  s.isp = "isp_b";
  s.access_down.rate = util::Mbps(30);
  s.access_down.propagation_delay = util::Seconds(0.011);
  s.access_down.queue = QueueSpec::pie(netsim::PieQueue::Config{});
  s.access_down.loss = LossSpec::gilbert_elliott(0.002, 0.2, 0.0005, 0.08);
  s.access_down.shaper.enabled = true;
  s.access_down.shaper.sustained_rate = util::Mbps(15);
  s.access_down.shaper.burst_bytes = 256 * 1024;
  s.access_up.rate = util::Mbps(4);
  s.access_up.propagation_delay = util::Seconds(0.011);
  s.access_up.queue = QueueSpec::drop_tail(64 * 1024);
  s.access_up.loss = LossSpec::bernoulli(0.001);
  s.background_utilization = 0.25;
  return s;
}

std::string field(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

template <typename Unit>
std::string field(const std::optional<Unit>& value) {
  if (!value) return "-";
  if constexpr (std::is_same_v<Unit, util::LossRate>) {
    return field(value->fraction());
  } else {
    return field(value->value());
  }
}

/// Every field of every record, one record per line.
std::string dump(const std::vector<SessionRecord>& records) {
  std::string out;
  for (const SessionRecord& r : records) {
    const TestObservation& o = r.observation;
    out += r.subscriber_id + ',' + r.region + ',' + r.isp + ',' +
           std::to_string(r.timestamp.unix_seconds()) + ',' + o.tool + ',' +
           field(o.started_at) + ',' + field(o.finished_at) + ',' +
           field(o.download) + ',' + field(o.upload) + ',' +
           field(o.idle_latency) + ',' + field(o.loaded_latency) + ',' +
           field(o.loss) + '\n';
  }
  return out;
}

TEST(CampaignGolden, EveryToolAndLineFeaturePinned) {
  CampaignConfig config;
  config.seed = 424242;
  config.tests_per_tool = 2;
  config.base_time = util::Timestamp::parse("2025-03-01").value();
  config.session_time_limit_s = 60.0;
  Campaign campaign(config);

  NdtConfig ndt;
  ndt.duration_s = 2.0;
  campaign.add_client(std::make_shared<NdtClient>(ndt));
  OoklaStyleConfig ookla;
  ookla.parallel_connections = 2;
  ookla.duration_s = 2.0;
  ookla.ramp_discard_s = 0.5;
  ookla.ping_count = 5;
  campaign.add_client(std::make_shared<OoklaStyleClient>(ookla));
  CloudflareStyleConfig cloudflare;
  cloudflare.download_ladder_bytes = {100'000, 500'000};
  cloudflare.upload_ladder_bytes = {100'000, 200'000};
  cloudflare.ping_count = 5;
  cloudflare.loss_probe_count = 20;
  campaign.add_client(std::make_shared<CloudflareStyleClient>(cloudflare));
  RpmStyleConfig rpm;
  rpm.parallel_connections = 2;
  rpm.duration_s = 2.0;
  rpm.idle_ping_count = 5;
  rpm.algo = netsim::CongestionAlgo::kReno;
  campaign.add_client(std::make_shared<RpmStyleClient>(rpm));

  campaign.add_subscriber(red_bernoulli_line());
  campaign.add_subscriber(shaped_gilbert_elliott_line());

  const auto records = campaign.run();
  ASSERT_EQ(campaign.failed_sessions(), 0u);
  ASSERT_EQ(records.size(), 16u);
  const std::string text = dump(records);
  EXPECT_EQ(util::fs::crc32(text), 0xfbc3c796u) << text;
}

}  // namespace
}  // namespace iqb::measurement
