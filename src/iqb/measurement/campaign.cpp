#include "iqb/measurement/campaign.hpp"

#include <utility>

#include "iqb/util/log.hpp"

namespace iqb::measurement {

using netsim::CrossTrafficConfig;
using netsim::CrossTrafficFlow;
using netsim::Network;
using netsim::Simulator;

namespace {

/// One isolated session in a fresh world. Errors cover both tool
/// failures (no route, ...) and the session time limit.
util::Result<TestObservation> run_one_session(
    const CampaignConfig& config, const SubscriberSpec& subscriber,
    MeasurementClient& client, util::Rng session_rng) {
  Simulator sim;
  Network net(sim, session_rng.next_u64());
  const auto server = net.add_node("server");
  const auto router = net.add_node("isp_router");
  const auto client_node = net.add_node("client");
  net.add_duplex_link(server, router, config.core, config.core);
  net.add_duplex_link(router, client_node, subscriber.access_down,
                      subscriber.access_up);

  // Optional background load on both access directions.
  std::unique_ptr<CrossTrafficFlow> bg_down;
  std::unique_ptr<CrossTrafficFlow> bg_up;
  if (subscriber.background_utilization > 0.0) {
    auto down_path = net.path(router, client_node);
    auto up_path = net.path(client_node, router);
    CrossTrafficConfig bg;
    bg.mean_on_s = 2.0;
    bg.mean_off_s = 2.0;
    if (down_path.ok()) {
      bg.rate = subscriber.access_down.rate *
                subscriber.background_utilization;
      bg_down = std::make_unique<CrossTrafficFlow>(
          sim, down_path.value(), bg, session_rng.fork(101), 1000001);
      bg_down->start();
    }
    if (up_path.ok()) {
      // Upload background load is typically lighter.
      bg.rate = subscriber.access_up.rate *
                subscriber.background_utilization * 0.5;
      bg_up = std::make_unique<CrossTrafficFlow>(
          sim, up_path.value(), bg, session_rng.fork(102), 1000002);
      bg_up->start();
    }
  }

  std::uint64_t next_flow_id = 1;
  std::vector<std::shared_ptr<void>> graveyard;
  TestEnvironment env;
  env.sim = &sim;
  env.network = &net;
  env.client_node = client_node;
  env.server_node = server;
  env.next_flow_id = &next_flow_id;
  env.retain = [&graveyard](std::shared_ptr<void> state) {
    graveyard.push_back(std::move(state));
  };
  env.rng = session_rng.fork(103);

  // The session ends at the tool's result: the callback stops the
  // simulator, so cross traffic is not simulated past the answer. A
  // tool that fails before run() starts makes run() return at once.
  // The world is then torn down with events and packets still pending,
  // which is safe because the simulator never runs again.
  bool completed = false;
  util::Result<TestObservation> outcome =
      util::make_error(util::ErrorCode::kInternal, "session never ran");
  client.run(env, [&completed, &outcome, &sim](
                      util::Result<TestObservation> result) {
    completed = true;
    outcome = std::move(result);
    sim.stop();
  });
  sim.run(config.session_time_limit_s);

  if (!completed) {
    return util::make_error(util::ErrorCode::kInternal,
                            "time limit exceeded");
  }
  return outcome;
}

}  // namespace

void Campaign::add_client(std::shared_ptr<MeasurementClient> client) {
  clients_.push_back(std::move(client));
}

void Campaign::add_subscriber(SubscriberSpec subscriber) {
  subscribers_.push_back(std::move(subscriber));
}

std::vector<SessionRecord> Campaign::run() {
  std::vector<SessionRecord> records;
  failed_sessions_ = 0;
  retried_sessions_ = 0;
  breaker_skipped_ = 0;
  breaker_states_.clear();
  std::map<std::string, robust::CircuitBreaker> breakers;
  util::Rng campaign_rng(config_.seed);
  std::int64_t session_index = 0;

  for (const SubscriberSpec& subscriber : subscribers_) {
    for (const auto& client : clients_) {
      robust::CircuitBreaker* breaker = nullptr;
      if (config_.breaker_enabled) {
        auto [it, inserted] = breakers.try_emplace(
            std::string(client->name()), config_.breaker);
        breaker = &it->second;
      }
      for (std::size_t rep = 0; rep < config_.tests_per_tool; ++rep) {
        const auto this_session = static_cast<std::uint64_t>(session_index);
        ++session_index;
        if (breaker && !breaker->allow_request()) {
          ++breaker_skipped_;
          continue;
        }

        // Fresh, isolated world per session; retries get their own
        // stream forked off the session's so attempt 0 is identical
        // to a retry-free campaign.
        util::Rng session_rng = campaign_rng.fork(this_session + 1);
        auto outcome =
            run_one_session(config_, subscriber, *client, session_rng);
        for (std::size_t attempt = 1;
             !outcome.ok() && attempt <= config_.session_retries; ++attempt) {
          ++retried_sessions_;
          outcome = run_one_session(config_, subscriber, *client,
                                    session_rng.fork(900 + attempt));
        }

        if (outcome.ok()) {
          if (breaker) breaker->record_success();
          SessionRecord record;
          record.subscriber_id = subscriber.subscriber_id;
          record.region = subscriber.region;
          record.isp = subscriber.isp;
          record.timestamp =
              config_.base_time +
              static_cast<std::int64_t>(this_session) * config_.session_spacing_s;
          record.observation = std::move(outcome).value();
          records.push_back(std::move(record));
        } else {
          if (breaker) breaker->record_failure();
          ++failed_sessions_;
          IQB_LOG(kWarn) << "session failed: subscriber="
                         << subscriber.subscriber_id << " tool="
                         << client->name() << " rep=" << rep << " reason="
                         << outcome.error().to_string();
        }
      }
    }
  }
  for (const auto& [tool, breaker] : breakers) {
    breaker_states_[tool] = breaker.state();
  }
  IQB_LOG(kInfo) << "campaign complete: " << records.size()
                 << " sessions ok, " << failed_sessions_ << " failed, "
                 << retried_sessions_ << " retried, " << breaker_skipped_
                 << " breaker-skipped";
  return records;
}

}  // namespace iqb::measurement
