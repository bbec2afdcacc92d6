// Workload `campaign`: the packet-level measurement campaign, then
// adapters, store, Pipeline::run and render — a batch job on one
// thread.
//
// Population: the three regions of measurement::example_region_plans
// at their own rates, Shape::per_region subscribers each. Each
// region's technology composition is fixed (largest-remainder shares)
// so the cost mix does not depend on the seed; the seed draws every
// subscriber's rate inside its stratum of the tier's band, its delays,
// buffers and background load, and every session's random stream.
//
// The timed unit is one measurement session: one Campaign::run over
// one subscriber and one tool. A pass runs every (subscriber, tool)
// unit once, then converts the pass's sessions to records, stores,
// scores and renders them; passes repeat until the run's seconds are
// spent. Sessions differ in cost by line rate, so every pass runs the
// same mix and only whole passes are measured. Every pass does
// identical work (each unit is deterministic in its seed), so the
// records CSV digest must repeat exactly and match the digest recorded
// for the seed, when there is one.
//
// A traced run spends its second half on the same units built over
// forwarding MeasurementClients: a span per session around
// Campaign::run, and inside it the tool's run() up to its result, with
// the simulator's event count and the thread's CPU time at that
// instant.
#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "iqb/core/pipeline.hpp"
#include "iqb/datasets/io.hpp"
#include "iqb/datasets/store.hpp"
#include "iqb/measurement/adapters.hpp"
#include "iqb/measurement/campaign.hpp"
#include "iqb/measurement/cloudflare_style.hpp"
#include "iqb/measurement/ndt.hpp"
#include "iqb/measurement/ookla_style.hpp"
#include "iqb/measurement/population.hpp"
#include "iqb/report/render.hpp"
#include "iqb/util/timestamp.hpp"

namespace perfbench {
namespace {

using iqb::measurement::Campaign;
using iqb::measurement::MeasurementClient;
using iqb::measurement::ObservationFn;
using iqb::measurement::SubscriberSpec;
using iqb::measurement::TestEnvironment;
using iqb::measurement::TestObservation;
using iqb::obs::Tracer;

struct Shape {
  std::size_t per_region;  ///< Subscribers per region.
  std::size_t setups;      ///< Set-ups per run (median reported).
};
constexpr Shape kFull{1, 20};
constexpr Shape kSmoke{1, 1};
constexpr std::size_t kTools = 3;

// Largest-remainder split of n subscribers over the mix shares; ties
// go to the earlier mix entry.
std::vector<std::size_t> allocate(
    const std::vector<iqb::measurement::TechnologyShare>& mix, std::size_t n) {
  double total = 0.0;
  for (const auto& share : mix) total += share.share;
  std::vector<std::size_t> counts(mix.size(), 0);
  std::vector<std::pair<double, std::size_t>> remainders;
  std::size_t given = 0;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    const double exact = static_cast<double>(n) * mix[i].share / total;
    counts[i] = static_cast<std::size_t>(std::floor(exact));
    given += counts[i];
    remainders.emplace_back(-(exact - std::floor(exact)), i);
  }
  std::stable_sort(remainders.begin(), remainders.end());
  for (std::size_t k = 0; given < n; ++k, ++given) {
    ++counts[remainders[k % remainders.size()].second];
  }
  return counts;
}

std::vector<SubscriberSpec> make_population(std::uint64_t seed,
                                            const Shape& shape) {
  iqb::util::Rng rng(seed);
  std::vector<SubscriberSpec> population;
  for (const auto& plan :
       iqb::measurement::example_region_plans(shape.per_region)) {
    const auto counts = allocate(plan.mix, shape.per_region);
    for (std::size_t t = 0; t < plan.mix.size(); ++t) {
      const auto& tier = plan.mix[t];
      for (std::size_t i = 0; i < counts[t]; ++i) {
        // The i-th of counts[t] equal log-bands of the tier, with the
        // seed placing the rate inside the middle fiftieth of its band:
        // a session's cost grows with its rate, and seeds are replicates.
        const double u = (static_cast<double>(i) + rng.uniform(0.49, 0.51)) /
                         static_cast<double>(counts[t]);
        const double log_lo = std::log(tier.min_download_mbps);
        const double log_hi = std::log(tier.max_download_mbps);
        const double rate = std::exp(log_lo + u * (log_hi - log_lo));
        iqb::measurement::RegionPlan one = plan;
        one.subscribers = 1;
        one.mix = {{tier.technology, 1.0, rate, rate}};
        SubscriberSpec subscriber =
            iqb::measurement::generate_population(one, rng).front();
        subscriber.subscriber_id =
            plan.region + "-" +
            std::string(iqb::measurement::access_technology_name(
                tier.technology)) +
            "-" + std::to_string(i);
        subscriber.background_utilization =
            plan.mean_background_utilization * rng.uniform(0.95, 1.05);
        population.push_back(std::move(subscriber));
      }
    }
  }
  return population;
}

std::string describe(const std::vector<SubscriberSpec>& population) {
  std::ostringstream out;
  out.precision(17);
  for (const auto& s : population) {
    out << s.subscriber_id << ',' << s.region << ',' << s.isp << ','
        << s.access_down.rate.value() << ',' << s.access_up.rate.value()
        << ',' << s.access_down.propagation_delay.value() << ','
        << s.access_up.propagation_delay.value() << ','
        << s.background_utilization << '\n';
  }
  return out.str();
}

/// Spans and counts for the sessions of traced passes: the benchmark
/// opens and closes each session around Campaign::run, and the
/// forwarding tool marks when its result arrives.
class SessionTracer {
 public:
  struct Session {
    double start_cpu = 0.0;
    double result_cpu = -1.0;  ///< < 0: no result (failed session).
    double end_cpu = 0.0;
    std::uint64_t events = 0;  ///< Simulator events when the result came.
    Tracer* tracer = nullptr;
    std::size_t root = Tracer::kNoSpan;
    std::size_t result_span = Tracer::kNoSpan;
  };

  explicit SessionTracer(Ledger& ledger) : ledger_(ledger) {}

  void begin(const std::string& trace_id) {
    Session session;
    session.tracer = &ledger_.begin_trace(trace_id);
    session.root =
        session.tracer->begin_span_at("measurement.session", Tracer::kNoSpan);
    session.start_cpu = thread_cpu_s();
    sessions_.push_back(session);
  }

  /// The tool was handed its world.
  void run_started(std::string_view tool) {
    Session& session = sessions_.back();
    session.tracer->set_attribute(session.root, "tool", std::string(tool));
    session.result_span = session.tracer->begin_span_at(
        "measurement." + std::string(tool) + ".result", session.root);
  }

  void result(bool ok, std::uint64_t events) {
    Session& session = sessions_.back();
    if (ok) session.result_cpu = thread_cpu_s();
    session.events = events;
    session.tracer->end_span(session.result_span);
    session.tracer->set_attribute(session.result_span, "events",
                                  std::to_string(events));
  }

  void end() {
    Session& session = sessions_.back();
    session.end_cpu = thread_cpu_s();
    session.tracer->end_span(session.root);
  }

  const std::vector<Session>& sessions() const { return sessions_; }

 private:
  Ledger& ledger_;
  std::vector<Session> sessions_;
};

/// Forwarding MeasurementClient: notes when the tool is handed its
/// world and when its result arrives, then defers to the real tool.
class TracedClient final : public MeasurementClient {
 public:
  TracedClient(std::shared_ptr<MeasurementClient> inner, SessionTracer& sessions)
      : inner_(std::move(inner)), sessions_(sessions) {}

  std::string_view name() const noexcept override { return inner_->name(); }

  void run(const TestEnvironment& env, ObservationFn done) override {
    sessions_.run_started(inner_->name());
    SessionTracer* sessions = &sessions_;
    iqb::netsim::Simulator* sim = env.sim;
    inner_->run(env, [sessions, sim, done = std::move(done)](
                         iqb::util::Result<TestObservation> result) {
      sessions->result(result.ok(), sim->executed());
      done(std::move(result));
    });
  }

 private:
  std::shared_ptr<MeasurementClient> inner_;
  SessionTracer& sessions_;
};

std::shared_ptr<MeasurementClient> make_tool(std::size_t t) {
  switch (t) {
    case 0: return std::make_shared<iqb::measurement::NdtClient>();
    case 1: return std::make_shared<iqb::measurement::OoklaStyleClient>();
    default: return std::make_shared<iqb::measurement::CloudflareStyleClient>();
  }
}

/// One session's campaign: subscriber `index / kTools` measured once by
/// tool `index % kTools`, an hour after the previous unit.
std::unique_ptr<Campaign> make_unit(const SubscriberSpec& subscriber,
                                    std::uint64_t seed, std::size_t index,
                                    SessionTracer* sessions) {
  iqb::measurement::CampaignConfig config;
  config.seed = seed * 1000 + index;
  config.tests_per_tool = 1;
  config.base_time = iqb::util::Timestamp::parse("2025-03-01").value() +
                     static_cast<std::int64_t>(index) * 3600;
  auto campaign = std::make_unique<Campaign>(config);
  auto tool = make_tool(index % kTools);
  if (sessions) tool = std::make_shared<TracedClient>(tool, *sessions);
  campaign->add_client(std::move(tool));
  campaign->add_subscriber(subscriber);
  return campaign;
}

/// Every (subscriber, tool) unit of the population, in order.
std::vector<std::unique_ptr<Campaign>> make_units(
    const std::vector<SubscriberSpec>& population, std::uint64_t seed,
    SessionTracer* sessions) {
  std::vector<std::unique_ptr<Campaign>> units;
  for (std::size_t index = 0; index < population.size() * kTools; ++index) {
    units.push_back(
        make_unit(population[index / kTools], seed, index, sessions));
  }
  return units;
}

/// Everything one pass produces, and what it cost.
struct Pass {
  std::vector<double> session_ms;  ///< Wall time of each Campaign::run.
  std::size_t sessions = 0, failed = 0, retried = 0;
  std::string records_digest;
  std::string scores_digest;
  std::size_t regions_scored = 0;
};

/// One pass over the units; traced when `ledger` and `tracer` are given.
Pass run_pass(std::vector<std::unique_ptr<Campaign>>& units, Ledger* ledger,
              SessionTracer* tracer, const std::string& trace_id) {
  Pass pass;
  std::vector<iqb::measurement::SessionRecord> sessions;
  for (std::size_t k = 0; k < units.size(); ++k) {
    Campaign& unit = *units[k];
    if (tracer) tracer->begin(trace_id + "-s" + std::to_string(k));
    const double t0 = now_s();
    auto produced = unit.run();
    pass.session_ms.push_back((now_s() - t0) * 1e3);
    if (tracer) tracer->end();
    pass.sessions += produced.size();
    pass.failed += unit.failed_sessions();
    pass.retried += unit.retried_sessions();
    sessions.insert(sessions.end(), std::make_move_iterator(produced.begin()),
                    std::make_move_iterator(produced.end()));
  }

  Spans spans(ledger ? &ledger->begin_trace(trace_id) : nullptr,
              "campaign.pass");
  std::size_t id = spans.begin("measurement.adapters");
  auto records = iqb::measurement::convert_sessions_default(sessions);
  spans.end(id);
  pass.records_digest = digest(iqb::datasets::records_to_csv(records));

  id = spans.begin("datasets.store_add");
  iqb::datasets::RecordStore store;
  store.add_all(std::move(records));
  spans.end(id);

  id = spans.begin("core.pipeline");
  const iqb::core::Pipeline pipeline(iqb::core::IqbConfig::paper_defaults());
  const auto output = pipeline.run(store);
  spans.end(id);

  id = spans.begin("report.render");
  const std::string scores = iqb::report::to_json(output.results).dump(2);
  spans.end(id);
  pass.scores_digest = digest(scores);
  pass.regions_scored = output.results.size();
  return pass;
}

std::vector<double> all_session_ms(const std::vector<Pass>& passes) {
  std::vector<double> out;
  for (const Pass& pass : passes) {
    out.insert(out.end(), pass.session_ms.begin(), pass.session_ms.end());
  }
  return out;
}

/// A pass's Campaign::run time with each session at its median over
/// the passes: sessions differ in cost by line rate, so their times
/// are compared only with the same session's times.
double pass_ms_p50(const std::vector<Pass>& passes) {
  double sum = 0.0;
  for (std::size_t k = 0; k < passes.front().session_ms.size(); ++k) {
    std::vector<double> same;
    for (const Pass& pass : passes) same.push_back(pass.session_ms[k]);
    sum += median(same);
  }
  return sum;
}

/// The population's slowest line: its sessions are the cheapest, so
/// set-up warms every tool on it.
std::size_t warm_up_subscriber(const std::vector<SubscriberSpec>& population) {
  std::size_t slowest = 0;
  for (std::size_t i = 1; i < population.size(); ++i) {
    if (population[i].access_down.rate.value() <
        population[slowest].access_down.rate.value()) {
      slowest = i;
    }
  }
  return slowest;
}

}  // namespace

Result run_campaign(const Options& options, std::ostream&) {
  const Shape& shape = options.smoke ? kSmoke : kFull;
  const auto population = make_population(options.seed, shape);
  const std::size_t expected_sessions = population.size() * kTools;
  note("campaign: " + std::to_string(population.size()) +
       " subscribers x 3 tools = " + std::to_string(expected_sessions) +
       " sessions per pass, one Campaign::run each");
  note("input digest " + digest(describe(population)));

  Result result;

  // Set-up: build every unit's Campaign from the population, then one
  // untimed warm-up session per tool on the population's slowest line.
  std::vector<double> setups;
  std::vector<std::unique_ptr<Campaign>> units;
  const std::size_t warm = warm_up_subscriber(population);
  for (std::size_t k = 0; k < shape.setups; ++k) {
    units.clear();
    const double t0 = now_s();
    units = make_units(population, options.seed, nullptr);
    std::size_t warm_sessions = 0;
    for (std::size_t t = 0; t < kTools; ++t) {
      warm_sessions +=
          make_unit(population[warm], options.seed, warm * kTools + t, nullptr)
              ->run()
              .size();
    }
    setups.push_back(now_s() - t0);
    result.check(warm_sessions == kTools, "a warm-up session failed");
  }

  // Whole passes until the run's seconds are spent. A traced run spends
  // its first half on the plain units and its second half on the same
  // units built over forwarding tools.
  Ledger ledger;
  SessionTracer session_tracer(ledger);
  std::vector<std::unique_ptr<Campaign>> traced_units;
  if (options.trace) {
    traced_units = make_units(population, options.seed, &session_tracer);
  }
  std::vector<Pass> passes, traced_passes;
  const double untraced_budget =
      options.trace ? options.seconds / 2 : options.seconds;
  double spent = 0.0;
  for (;;) {
    const bool traced = options.trace && spent >= untraced_budget;
    const std::string trace_id =
        "campaign-p" + std::to_string(passes.size() + traced_passes.size());
    const double t0 = now_s();
    Pass pass = traced ? run_pass(traced_units, &ledger, &session_tracer, trace_id)
                       : run_pass(units, nullptr, nullptr, trace_id);
    spent += now_s() - t0;
    result.attempted += pass.sessions + pass.failed;
    result.failed += pass.failed;
    (traced ? traced_passes : passes).push_back(std::move(pass));
    const bool enough = !options.trace || !traced_passes.empty();
    if (spent >= options.seconds && enough) break;
  }

  // Output checks: every pass identical, no failed session, every
  // region scored, and the records digest as recorded for this seed.
  std::vector<Pass> all = passes;
  all.insert(all.end(), traced_passes.begin(), traced_passes.end());
  for (const Pass& pass : all) {
    result.check(pass.failed == 0, "a session failed");
    result.check(pass.sessions == expected_sessions,
                 "pass produced " + std::to_string(pass.sessions) + " sessions");
    result.check(pass.records_digest == all.front().records_digest,
                 "records CSV differs between passes");
    result.check(pass.scores_digest == all.front().scores_digest,
                 "rendered scores differ between passes");
    result.check(pass.regions_scored == 3, "not every region was scored");
  }
  note("records digest " + all.front().records_digest);
  if (!options.expect_digest.empty()) {
    result.check(all.front().records_digest == options.expect_digest,
                 "records digest differs from the one recorded for seed " +
                     std::to_string(options.seed));
  } else {
    note("no records digest recorded for seed " + std::to_string(options.seed));
  }

  const std::vector<double> session_ms = all_session_ms(passes);
  double busy_ms = 0.0;
  for (double ms : session_ms) busy_ms += ms;
  note_samples(std::to_string(passes.size()) + " passes, sessions", session_ms);

  if (!options.trace) {
    result.add("setup_s", median(setups), "s");
    result.add("op_ms_p50", pass_ms_p50(passes), "ms");
    result.add("throughput_per_s",
               static_cast<double>(session_ms.size()) / (busy_ms / 1e3),
               "1/s");
    return result;
  }

  note("tracing overhead: pass p50 " + std::to_string(pass_ms_p50(traced_passes)) +
       " ms traced vs " + std::to_string(pass_ms_p50(passes)) + " ms untraced");
  for (const char* tool : {"ndt", "ookla_style", "cloudflare_style"}) {
    result.add(std::string("measurement.") + tool + ".result_ms_p50",
               median(ledger.self_ms(std::string("measurement.") + tool +
                                     ".result")),
               "ms");
  }
  double events = 0.0, result_cpu = 0.0, session_cpu = 0.0;
  for (const auto& session : session_tracer.sessions()) {
    session_cpu += session.end_cpu - session.start_cpu;
    if (session.result_cpu < 0.0) continue;
    events += static_cast<double>(session.events);
    result_cpu += session.result_cpu - session.start_cpu;
  }
  const Pass& last = traced_passes.back();
  result.add("netsim.events_to_result",
             events / static_cast<double>(traced_passes.size()), "count");
  result.add("netsim.events_per_cpu_s", events / result_cpu, "1/s");
  result.add("measurement.result_cpu_share", result_cpu / session_cpu,
             "ratio");
  result.add("measurement.sessions", static_cast<double>(last.sessions),
             "count");
  result.add("measurement.sessions_failed", static_cast<double>(last.failed),
             "count");
  result.add("measurement.sessions_retried", static_cast<double>(last.retried),
             "count");
  result.add("measurement.adapters_ms",
             ledger.median_per_trace("measurement.adapters"), "ms");
  result.add("core.pipeline_ms", ledger.median_per_trace("core.pipeline"),
             "ms");
  result.add("datasets.store_add_ms",
             ledger.median_per_trace("datasets.store_add"), "ms");
  result.add("report.render_ms", ledger.median_per_trace("report.render"),
             "ms");
  result.add("process.peak_rss_mb", peak_rss_mb(), "MiB");
  if (!options.trace_out.empty()) ledger.write_tracez(options.trace_out);
  return result;
}

}  // namespace perfbench
