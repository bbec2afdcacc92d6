#include "iqb/measurement/campaign.hpp"

#include <gtest/gtest.h>

#include "iqb/measurement/adapters.hpp"
#include "iqb/measurement/cloudflare_style.hpp"
#include "iqb/measurement/ndt.hpp"
#include "iqb/measurement/ookla_style.hpp"
#include "iqb/measurement/population.hpp"

namespace iqb::measurement {
namespace {

SubscriberSpec fast_subscriber(const std::string& id = "s1") {
  SubscriberSpec subscriber;
  subscriber.subscriber_id = id;
  subscriber.region = "testville";
  subscriber.isp = "test_isp";
  subscriber.access_down.rate = util::Mbps(100);
  subscriber.access_down.propagation_delay = util::Seconds(0.008);
  subscriber.access_up.rate = util::Mbps(20);
  subscriber.access_up.propagation_delay = util::Seconds(0.008);
  return subscriber;
}

CampaignConfig quick_config() {
  CampaignConfig config;
  config.seed = 7;
  config.tests_per_tool = 1;
  config.base_time = util::Timestamp::parse("2025-03-01").value();
  return config;
}

TEST(Campaign, RunsEveryToolPerSubscriber) {
  Campaign campaign(quick_config());
  campaign.add_client(std::make_shared<NdtClient>());
  campaign.add_client(std::make_shared<OoklaStyleClient>());
  campaign.add_subscriber(fast_subscriber());
  auto records = campaign.run();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(campaign.failed_sessions(), 0u);
  EXPECT_EQ(records[0].observation.tool, "ndt");
  EXPECT_EQ(records[1].observation.tool, "ookla_style");
  EXPECT_EQ(records[0].region, "testville");
}

TEST(Campaign, RepetitionsProduceDistinctTimestamps) {
  CampaignConfig config = quick_config();
  config.tests_per_tool = 3;
  config.session_spacing_s = 3600;
  Campaign campaign(config);
  campaign.add_client(std::make_shared<NdtClient>());
  campaign.add_subscriber(fast_subscriber());
  auto records = campaign.run();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[1].timestamp - records[0].timestamp, 3600);
  EXPECT_EQ(records[2].timestamp - records[1].timestamp, 3600);
}

TEST(Campaign, DeterministicForSameSeed) {
  auto run_once = [] {
    Campaign campaign(quick_config());
    campaign.add_client(std::make_shared<NdtClient>());
    SubscriberSpec subscriber = fast_subscriber();
    subscriber.access_down.loss = netsim::LossSpec::bernoulli(0.003);
    subscriber.background_utilization = 0.3;
    campaign.add_subscriber(subscriber);
    return campaign.run();
  };
  auto a = run_once();
  auto b = run_once();
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  EXPECT_DOUBLE_EQ(a[0].observation.download->value(),
                   b[0].observation.download->value());
}

TEST(Campaign, SessionsVaryAcrossRepetitions) {
  CampaignConfig config = quick_config();
  config.tests_per_tool = 3;
  Campaign campaign(config);
  campaign.add_client(std::make_shared<NdtClient>());
  SubscriberSpec subscriber = fast_subscriber();
  subscriber.access_down.loss = netsim::LossSpec::bernoulli(0.004);
  subscriber.background_utilization = 0.4;
  campaign.add_subscriber(subscriber);
  auto records = campaign.run();
  ASSERT_EQ(records.size(), 3u);
  // Stochastic loss + cross traffic: downloads should not all match.
  const double d0 = records[0].observation.download->value();
  const double d1 = records[1].observation.download->value();
  const double d2 = records[2].observation.download->value();
  EXPECT_TRUE(d0 != d1 || d1 != d2);
}

/// Stub tool: reports its result either at once, before the simulator
/// runs, or from an event at `result_at_s`. It also schedules a
/// sentinel due at that instant and queued after the result, so the
/// sentinel must never run: a session ends at its result.
class SentinelTool final : public MeasurementClient {
 public:
  explicit SentinelTool(bool fail_at_once, netsim::SimTime result_at_s = 0.0)
      : fail_at_once_(fail_at_once), result_at_s_(result_at_s) {}

  std::string_view name() const noexcept override { return "sentinel"; }

  void run(const TestEnvironment& env, ObservationFn done) override {
    netsim::Simulator* sim = env.sim;
    if (!fail_at_once_) {
      sim->schedule_at(result_at_s_, [sim, done] {
        TestObservation observation;
        observation.tool = "sentinel";
        observation.finished_at = sim->now();
        done(observation);
      });
    }
    sim->schedule_at(result_at_s_, [this] { ++sentinel_fired; });
    if (fail_at_once_) {
      done(util::make_error(util::ErrorCode::kNotFound, "no server"));
    }
  }

  int sentinel_fired = 0;

 private:
  bool fail_at_once_;
  netsim::SimTime result_at_s_;
};

TEST(Campaign, SynchronousFailureRunsNoEvent) {
  auto tool = std::make_shared<SentinelTool>(/*fail_at_once=*/true);
  Campaign campaign(quick_config());
  campaign.add_client(tool);
  SubscriberSpec subscriber = fast_subscriber();
  subscriber.background_utilization = 0.3;  // cross traffic is queued too
  campaign.add_subscriber(subscriber);
  const auto records = campaign.run();
  EXPECT_TRUE(records.empty());
  EXPECT_EQ(campaign.failed_sessions(), 1u);
  EXPECT_EQ(tool->sentinel_fired, 0);
}

TEST(Campaign, SessionStopsAtItsResult) {
  auto tool = std::make_shared<SentinelTool>(/*fail_at_once=*/false, 2.0);
  Campaign campaign(quick_config());
  campaign.add_client(tool);
  SubscriberSpec subscriber = fast_subscriber();
  subscriber.background_utilization = 0.3;
  campaign.add_subscriber(subscriber);
  const auto records = campaign.run();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_DOUBLE_EQ(records[0].observation.finished_at, 2.0);
  EXPECT_EQ(tool->sentinel_fired, 0);
}

TEST(Campaign, ResultPastTheTimeLimitFailsTheSession) {
  CampaignConfig config = quick_config();
  config.session_time_limit_s = 5.0;
  auto tool = std::make_shared<SentinelTool>(/*fail_at_once=*/false, 6.0);
  Campaign campaign(config);
  campaign.add_client(tool);
  campaign.add_subscriber(fast_subscriber());
  EXPECT_TRUE(campaign.run().empty());
  EXPECT_EQ(campaign.failed_sessions(), 1u);
  EXPECT_EQ(tool->sentinel_fired, 0);
}

// ---------------- adapters -------------------------------------------

TEST(Adapters, RouteSessionsByTool) {
  SessionRecord ndt_session;
  ndt_session.region = "r";
  ndt_session.observation.tool = "ndt";
  ndt_session.observation.download = util::Mbps(50);
  ndt_session.observation.loss = util::LossRate(0.01);
  SessionRecord ookla_session = ndt_session;
  ookla_session.observation.tool = "ookla_style";

  const std::vector<SessionRecord> sessions{ndt_session, ookla_session};
  NdtDatasetAdapter ndt_adapter;
  auto ndt_records = ndt_adapter.convert(sessions);
  ASSERT_EQ(ndt_records.size(), 1u);
  EXPECT_EQ(ndt_records[0].dataset, "ndt");
  EXPECT_TRUE(ndt_records[0].loss.has_value());
}

TEST(Adapters, OoklaWithholdsLoss) {
  SessionRecord session;
  session.observation.tool = "ookla_style";
  session.observation.download = util::Mbps(50);
  session.observation.loss = util::LossRate(0.01);  // even if present
  OoklaDatasetAdapter adapter;
  auto records = adapter.convert(std::vector<SessionRecord>{session});
  ASSERT_EQ(records.size(), 1u);
  EXPECT_FALSE(records[0].loss.has_value());
}

TEST(Adapters, DefaultPanelCoversAllTools) {
  std::vector<SessionRecord> sessions;
  for (const char* tool : {"ndt", "ookla_style", "cloudflare_style"}) {
    SessionRecord session;
    session.region = "r";
    session.observation.tool = tool;
    session.observation.download = util::Mbps(10);
    sessions.push_back(session);
  }
  auto records = convert_sessions_default(sessions);
  ASSERT_EQ(records.size(), 3u);
  std::set<std::string> datasets;
  for (const auto& record : records) datasets.insert(record.dataset);
  EXPECT_EQ(datasets, (std::set<std::string>{"ndt", "cloudflare", "ookla"}));
}

TEST(Adapters, IdleLatencyMapsToLatencyMetric) {
  SessionRecord session;
  session.observation.tool = "ndt";
  session.observation.idle_latency = util::Millis(42);
  session.observation.loaded_latency = util::Millis(99);
  NdtDatasetAdapter adapter;
  auto records = adapter.convert(std::vector<SessionRecord>{session});
  ASSERT_EQ(records.size(), 1u);
  EXPECT_DOUBLE_EQ(records[0].latency->value(), 42.0);
  EXPECT_DOUBLE_EQ(records[0].loaded_latency->value(), 99.0);
}

// ---------------- population -----------------------------------------

TEST(Population, GeneratesRequestedCount) {
  RegionPlan plan;
  plan.region = "r";
  plan.subscribers = 25;
  plan.mix = {{AccessTechnology::kFiber, 1.0, 100.0, 500.0}};
  util::Rng rng(1);
  auto population = generate_population(plan, rng);
  EXPECT_EQ(population.size(), 25u);
  for (const auto& subscriber : population) {
    EXPECT_EQ(subscriber.region, "r");
    EXPECT_GE(subscriber.access_down.rate.value(), 100.0);
    EXPECT_LE(subscriber.access_down.rate.value(), 500.0);
    EXPECT_GE(subscriber.background_utilization, 0.0);
    EXPECT_LE(subscriber.background_utilization, 0.8);
  }
}

TEST(Population, TechnologyMixRespected) {
  RegionPlan plan;
  plan.region = "r";
  plan.subscribers = 400;
  plan.mix = {{AccessTechnology::kFiber, 0.75, 100.0, 200.0},
              {AccessTechnology::kSatellite, 0.25, 20.0, 50.0}};
  util::Rng rng(2);
  auto population = generate_population(plan, rng);
  int fiber = 0;
  for (const auto& subscriber : population) {
    if (subscriber.subscriber_id.find("fiber") != std::string::npos) ++fiber;
  }
  EXPECT_NEAR(static_cast<double>(fiber) / 400.0, 0.75, 0.08);
}

TEST(Population, SatelliteHasGeoLatency) {
  const TechnologyTraits traits =
      technology_traits(AccessTechnology::kSatellite);
  EXPECT_GE(traits.one_way_delay_s, 0.2);
  const TechnologyTraits fiber = technology_traits(AccessTechnology::kFiber);
  EXPECT_LT(fiber.one_way_delay_s, 0.01);
}

TEST(Population, UploadRatioFollowsTechnology) {
  RegionPlan plan;
  plan.region = "r";
  plan.subscribers = 10;
  plan.mix = {{AccessTechnology::kCable, 1.0, 100.0, 100.0}};
  util::Rng rng(3);
  auto population = generate_population(plan, rng);
  for (const auto& subscriber : population) {
    EXPECT_LT(subscriber.access_up.rate.value(),
              subscriber.access_down.rate.value() * 0.2);
  }
}

TEST(Population, ExamplePlansAreWellFormed) {
  auto plans = example_region_plans(5);
  ASSERT_EQ(plans.size(), 3u);
  for (const auto& plan : plans) {
    EXPECT_FALSE(plan.region.empty());
    EXPECT_FALSE(plan.mix.empty());
    EXPECT_EQ(plan.subscribers, 5u);
    double total_share = 0.0;
    for (const auto& share : plan.mix) total_share += share.share;
    EXPECT_NEAR(total_share, 1.0, 1e-9);
  }
}

}  // namespace
}  // namespace iqb::measurement
