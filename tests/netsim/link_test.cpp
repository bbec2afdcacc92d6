#include "iqb/netsim/link.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "iqb/netsim/loss.hpp"
#include "iqb/netsim/queue.hpp"

namespace iqb::netsim {
namespace {

Packet make_packet(std::uint32_t bytes, std::uint64_t seq = 0) {
  Packet p;
  p.seq = seq;
  p.size_bytes = bytes;
  return p;
}

Link::Config basic_config(double mbps, double delay_s,
                          std::uint64_t queue_bytes = 256 * 1024) {
  Link::Config config;
  config.rate = util::Mbps(mbps);
  config.propagation_delay = util::Seconds(delay_s);
  config.queue = std::make_unique<DropTailQueue>(queue_bytes);
  return config;
}

TEST(Link, DeliveryTimeIsSerializationPlusPropagation) {
  Simulator sim;
  Link link(sim, basic_config(8.0, 0.01), util::Rng(1));
  double delivered_at = -1.0;
  // 1000 bytes at 8 Mb/s -> 1 ms serialization; +10 ms propagation.
  link.send(make_packet(1000), [&](const Packet&) { delivered_at = sim.now(); });
  sim.run();
  EXPECT_NEAR(delivered_at, 0.011, 1e-9);
}

TEST(Link, BackToBackPacketsQueueBehindEachOther) {
  Simulator sim;
  Link link(sim, basic_config(8.0, 0.0), util::Rng(1));
  std::vector<double> deliveries;
  for (int i = 0; i < 3; ++i) {
    link.send(make_packet(1000, static_cast<std::uint64_t>(i)),
              [&](const Packet&) { deliveries.push_back(sim.now()); });
  }
  sim.run();
  ASSERT_EQ(deliveries.size(), 3u);
  EXPECT_NEAR(deliveries[0], 0.001, 1e-9);
  EXPECT_NEAR(deliveries[1], 0.002, 1e-9);
  EXPECT_NEAR(deliveries[2], 0.003, 1e-9);
}

TEST(Link, InOrderDelivery) {
  Simulator sim;
  Link link(sim, basic_config(100.0, 0.002), util::Rng(1));
  std::vector<std::uint64_t> order;
  for (std::uint64_t i = 0; i < 50; ++i) {
    link.send(make_packet(500, i),
              [&](const Packet& p) { order.push_back(p.seq); });
  }
  sim.run();
  ASSERT_EQ(order.size(), 50u);
  for (std::uint64_t i = 0; i < 50; ++i) EXPECT_EQ(order[i], i);
}

TEST(Link, QueueOverflowDrops) {
  Simulator sim;
  // Queue of 2500 bytes: holds two 1000-byte packets plus part of a
  // third -> the third is dropped.
  Link link(sim, basic_config(1.0, 0.0, 2500), util::Rng(1));
  int delivered = 0, dropped = 0;
  for (int i = 0; i < 3; ++i) {
    link.send(make_packet(1000), [&](const Packet&) { ++delivered; },
              [&](const Packet&) { ++dropped; });
  }
  sim.run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(dropped, 1);
  EXPECT_EQ(link.counters().dropped_queue_packets, 1u);
}

TEST(Link, ConservationInvariant) {
  Simulator sim;
  Link link(sim, basic_config(10.0, 0.001, 8 * 1024), util::Rng(7));
  link.set_loss_model(std::make_unique<BernoulliLoss>(0.1));
  std::uint64_t delivered = 0, dropped = 0;
  for (int i = 0; i < 2000; ++i) {
    link.send(make_packet(1000), [&](const Packet&) { ++delivered; },
              [&](const Packet&) { ++dropped; });
  }
  sim.run();
  const LinkCounters& counters = link.counters();
  EXPECT_EQ(counters.offered_packets, 2000u);
  EXPECT_EQ(counters.offered_packets,
            counters.delivered_packets + counters.dropped_loss_packets +
                counters.dropped_queue_packets);
  EXPECT_EQ(delivered, counters.delivered_packets);
  EXPECT_EQ(dropped,
            counters.dropped_loss_packets + counters.dropped_queue_packets);
  EXPECT_GT(counters.dropped_loss_packets, 100u);  // ~10% of 2000
}

TEST(Link, QueueDrainsToZero) {
  Simulator sim;
  Link link(sim, basic_config(10.0, 0.001), util::Rng(1));
  for (int i = 0; i < 10; ++i) {
    link.send(make_packet(1000), [](const Packet&) {});
  }
  EXPECT_GT(link.queued_bytes(), 0u);
  sim.run();
  EXPECT_EQ(link.queued_bytes(), 0u);
}

TEST(Link, ThroughputMatchesRate) {
  Simulator sim;
  Link link(sim, basic_config(10.0, 0.0), util::Rng(1));
  // Offer 10 Mb of data (1250 kB) on a 10 Mb/s link with an infinite
  // queue: the last packet exits at ~1 s.
  Link::Config config = basic_config(10.0, 0.0, 1ull << 40);
  Link big_queue_link(sim, std::move(config), util::Rng(1));
  double last_delivery = 0.0;
  const int packets = 1250;
  for (int i = 0; i < packets; ++i) {
    big_queue_link.send(make_packet(1000),
                        [&](const Packet&) { last_delivery = sim.now(); });
  }
  sim.run();
  EXPECT_NEAR(last_delivery, 1.0, 0.01);
}

TEST(Link, InFlightFifoDeliversInOrderAndCountsAsPending) {
  // 1000 B at 8 Mb/s serializes in 1 ms; 10 ms of propagation keeps
  // several packets in flight, and the second burst grows the link's
  // ring while its oldest entry sits mid-buffer.
  Simulator sim;
  Link link(sim, basic_config(8.0, 0.01), util::Rng(1));
  std::vector<std::pair<std::uint64_t, double>> arrivals;
  auto send = [&](std::uint64_t seq) {
    link.send(make_packet(1000, seq), [&](const Packet& p) {
      arrivals.emplace_back(p.seq, sim.now());
    });
  };
  for (std::uint64_t seq = 0; seq < 6; ++seq) send(seq);
  sim.run(0.0125);
  ASSERT_EQ(arrivals.size(), 2u);
  // Packets 2-5 are propagating: their arrivals are pending events
  // even though only the oldest is queued in the simulator.
  EXPECT_EQ(sim.pending(), 4u);
  for (std::uint64_t seq = 6; seq < 16; ++seq) send(seq);
  EXPECT_EQ(sim.pending(), 5u);  // plus packet 6's serialization
  sim.run();
  ASSERT_EQ(arrivals.size(), 16u);
  for (std::uint64_t seq = 0; seq < 16; ++seq) {
    const double expected = seq < 6 ? 0.011 + 0.001 * static_cast<double>(seq)
                                    : 0.0235 + 0.001 * static_cast<double>(seq - 6);
    EXPECT_EQ(arrivals[seq].first, seq);
    EXPECT_NEAR(arrivals[seq].second, expected, 1e-12);
  }
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(link.counters().delivered_packets, 16u);
}

TEST(LossModels, BernoulliRate) {
  util::Rng rng(8);
  BernoulliLoss loss(0.3);
  int drops = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (loss.should_drop(rng)) ++drops;
  }
  EXPECT_NEAR(static_cast<double>(drops) / n, 0.3, 0.01);
}

TEST(LossModels, NoLossNeverDrops) {
  util::Rng rng(9);
  NoLoss loss;
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(loss.should_drop(rng));
}

TEST(LossModels, GilbertElliottMeanRate) {
  util::Rng rng(10);
  GilbertElliottLoss loss(0.01, 0.2, 0.001, 0.5);
  int drops = 0;
  const int n = 400000;
  for (int i = 0; i < n; ++i) {
    if (loss.should_drop(rng)) ++drops;
  }
  EXPECT_NEAR(static_cast<double>(drops) / n, loss.mean_loss_rate(), 0.01);
}

TEST(LossModels, GilbertElliottBurstiness) {
  // Bursty loss produces longer loss runs than Bernoulli at the same
  // mean rate.
  auto mean_run_length = [](LossModel& model, util::Rng& rng) {
    int runs = 0, losses = 0;
    bool in_run = false;
    for (int i = 0; i < 300000; ++i) {
      if (model.should_drop(rng)) {
        ++losses;
        if (!in_run) {
          ++runs;
          in_run = true;
        }
      } else {
        in_run = false;
      }
    }
    return runs == 0 ? 0.0 : static_cast<double>(losses) / runs;
  };
  util::Rng rng_a(11), rng_b(12);
  GilbertElliottLoss bursty(0.005, 0.25, 0.0, 0.6);
  BernoulliLoss uniform(bursty.mean_loss_rate());
  EXPECT_GT(mean_run_length(bursty, rng_a), mean_run_length(uniform, rng_b));
}

QueueContext ctx(std::uint64_t queued, std::uint32_t packet,
                 SimTime now = 0.0, double rate_bps = 10e6) {
  QueueContext context;
  context.queued_bytes = queued;
  context.packet_bytes = packet;
  context.now = now;
  context.drain_rate_bps = rate_bps;
  return context;
}

TEST(Queues, DropTailRespectsCapacity) {
  DropTailQueue queue(1500);
  util::Rng rng(13);
  EXPECT_TRUE(queue.admit(ctx(0, 1000), rng));
  EXPECT_TRUE(queue.admit(ctx(500, 1000), rng));
  EXPECT_FALSE(queue.admit(ctx(501, 1000), rng));
  EXPECT_EQ(queue.capacity_bytes(), 1500u);
}

TEST(Queues, RedAdmitsBelowMinThreshold) {
  RedQueue::Config config;
  config.capacity_bytes = 100000;
  config.min_threshold_bytes = 50000;
  config.max_threshold_bytes = 80000;
  RedQueue queue(config);
  util::Rng rng(14);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(queue.admit(ctx(1000, 1000), rng));
  }
}

TEST(Queues, RedHardCapacityEnforced) {
  RedQueue::Config config;
  config.capacity_bytes = 10000;
  RedQueue queue(config);
  util::Rng rng(15);
  EXPECT_FALSE(queue.admit(ctx(9500, 1000), rng));
}

TEST(Queues, RedDropsProbabilisticallyInBand) {
  RedQueue::Config config;
  config.capacity_bytes = 1000000;
  config.min_threshold_bytes = 1000;
  config.max_threshold_bytes = 100000;
  config.max_drop_probability = 0.5;
  config.ewma_weight = 1.0;  // track instantaneous queue exactly
  RedQueue queue(config);
  util::Rng rng(16);
  int admitted = 0, dropped = 0;
  for (int i = 0; i < 10000; ++i) {
    if (queue.admit(ctx(60000, 1000), rng)) {
      ++admitted;
    } else {
      ++dropped;
    }
  }
  EXPECT_GT(dropped, 1000);
  EXPECT_GT(admitted, 1000);
}

TEST(Queues, PieHardCapacityEnforced) {
  PieQueue::Config config;
  config.capacity_bytes = 10000;
  PieQueue queue(config);
  util::Rng rng(17);
  EXPECT_FALSE(queue.admit(ctx(9500, 1000), rng));
}

TEST(Queues, PieNeverDropsNearEmptyQueue) {
  PieQueue queue(PieQueue::Config{});
  util::Rng rng(18);
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(queue.admit(ctx(0, 1000, i * 0.016), rng));
  }
}

TEST(Queues, PieDropProbabilityRisesWithStandingDelay) {
  // Standing queue of 60 kB at 10 Mb/s = 48 ms >> 15 ms target: the PI
  // controller must push the drop probability up.
  PieQueue queue(PieQueue::Config{});
  util::Rng rng(19);
  for (int i = 0; i < 500; ++i) {
    (void)queue.admit(ctx(60000, 1000, i * 0.016), rng);
  }
  EXPECT_GT(queue.drop_probability(), 0.01);
}

TEST(Queues, PieProbabilityFallsWhenDelayClears) {
  PieQueue queue(PieQueue::Config{});
  util::Rng rng(20);
  for (int i = 0; i < 500; ++i) {
    (void)queue.admit(ctx(60000, 1000, i * 0.016), rng);
  }
  const double loaded = queue.drop_probability();
  for (int i = 500; i < 1500; ++i) {
    (void)queue.admit(ctx(0, 1000, i * 0.016), rng);
  }
  EXPECT_LT(queue.drop_probability(), loaded / 2.0);
}

TEST(Queues, PieKeepsLoadedLatencyNearTarget) {
  // End-to-end: a TCP-style standing queue against PIE vs DropTail on
  // the same 20 Mb/s link. PIE should keep the queue (and thus the
  // queueing delay) bounded near its target.
  Simulator sim;
  PieQueue::Config pie;
  pie.capacity_bytes = 1024 * 1024;
  Link::Config config;
  config.rate = util::Mbps(20);
  config.propagation_delay = util::Seconds(0.0);
  config.queue = std::make_unique<PieQueue>(pie);
  Link link(sim, std::move(config), util::Rng(21));
  // Offer 2x the line rate for 8 seconds; judge the controller on its
  // steady state (after 4 s), not the cold-start transient the RFC's
  // gain auto-scaling deliberately ramps through.
  const double interval = 1000.0 * 8.0 / 40e6;
  std::uint64_t steady_peak = 0;
  for (int i = 0; i < static_cast<int>(8.0 / interval); ++i) {
    const double at = i * interval;
    sim.schedule_at(at, [&, at] {
      link.send(make_packet(1000), [](const Packet&) {});
      if (at > 4.0) steady_peak = std::max(steady_peak, link.queued_bytes());
    });
  }
  sim.run();
  // 15 ms at 20 Mb/s = 37.5 kB; allow controller oscillation headroom.
  EXPECT_LT(steady_peak, 150000u);
  EXPECT_GT(link.counters().dropped_queue_packets, 0u);
}

}  // namespace
}  // namespace iqb::netsim
