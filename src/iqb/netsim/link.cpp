#include "iqb/netsim/link.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace iqb::netsim {

Link::Link(Simulator& sim, Config config, util::Rng rng)
    : sim_(sim), config_(std::move(config)), rng_(rng) {
  if (!config_.queue) {
    config_.queue = std::make_unique<DropTailQueue>(256 * 1024);
  }
  if (!config_.loss) {
    config_.loss = std::make_unique<NoLoss>();
  }
  assert(config_.rate.value() > 0.0 && "link rate must be positive");
  if (config_.shaper.enabled) {
    assert(config_.shaper.sustained_rate.value() > 0.0);
    shaper_tokens_ = static_cast<double>(config_.shaper.burst_bytes);
  }
}

SimTime Link::take_shaper_tokens(std::uint32_t packet_bytes) noexcept {
  if (!config_.shaper.enabled) return 0.0;
  // Refill credit accrued since the last take, capped at the bucket.
  const double refill_rate =
      config_.shaper.sustained_rate.bytes_per_second();
  shaper_tokens_ = std::min(
      static_cast<double>(config_.shaper.burst_bytes),
      shaper_tokens_ + (sim_.now() - shaper_refilled_at_) * refill_rate);
  shaper_refilled_at_ = sim_.now();
  if (shaper_tokens_ >= packet_bytes) {
    shaper_tokens_ -= packet_bytes;
    return 0.0;
  }
  // Wait until enough credit accrues, then spend it all.
  const double deficit = static_cast<double>(packet_bytes) - shaper_tokens_;
  shaper_tokens_ = 0.0;
  const double wait = deficit / refill_rate;
  shaper_refilled_at_ = sim_.now() + wait;
  return wait;
}

void Link::set_loss_model(std::unique_ptr<LossModel> loss) {
  config_.loss = loss ? std::move(loss) : std::make_unique<NoLoss>();
}

void Link::send(Packet packet, DeliverFn on_deliver, DropFn on_drop) {
  accept(Pending{std::move(packet), nullptr, 0, std::move(on_deliver),
                 std::move(on_drop)});
}

void Link::send(Packet packet, const Path& route, std::size_t hop,
                DeliverFn on_deliver, DropFn on_drop) {
  assert(hop < route.size() && route[hop] == this);
  accept(Pending{std::move(packet), &route, hop, std::move(on_deliver),
                 std::move(on_drop)});
}

void Link::accept(Pending&& entry) {
  ++counters_.offered_packets;
  counters_.offered_bytes += entry.packet.size_bytes;

  if (config_.loss->should_drop(rng_)) {
    ++counters_.dropped_loss_packets;
    if (entry.on_drop) entry.on_drop(entry.packet);
    return;
  }
  QueueContext context;
  context.queued_bytes = queued_bytes_;
  context.packet_bytes = entry.packet.size_bytes;
  context.now = sim_.now();
  context.drain_rate_bps = config_.rate.bits_per_second();
  if (!config_.queue->admit(context, rng_)) {
    ++counters_.dropped_queue_packets;
    if (entry.on_drop) entry.on_drop(entry.packet);
    return;
  }
  queued_bytes_ += entry.packet.size_bytes;
  if (count_ == ring_.size()) {
    std::vector<Pending> grown(ring_.empty() ? 8 : 2 * ring_.size());
    for (std::size_t i = 0; i < count_; ++i) grown[i] = std::move(at(i));
    ring_ = std::move(grown);
    head_ = 0;
  }
  at(count_++) = std::move(entry);
  if (!transmitting_) start_transmission();
}

void Link::start_transmission() {
  assert(count_ > in_flight_);
  transmitting_ = true;
  // Serialization: the head packet occupies the transmitter for
  // size/rate seconds; afterwards it propagates independently while
  // the next packet starts serializing (pipelining). A shaper, if
  // configured, may hold the packet first until tokens accrue.
  const std::uint32_t bytes = at(in_flight_).packet.size_bytes;
  const double shaper_wait_s = take_shaper_tokens(bytes);
  const double serialize_s =
      static_cast<double>(bytes) * 8.0 / config_.rate.bits_per_second();
  sim_.schedule_in(shaper_wait_s + serialize_s,
                   [this] { finish_transmission(); });
}

void Link::finish_transmission() {
  Pending& done = at(in_flight_);
  queued_bytes_ -= done.packet.size_bytes;
  ++counters_.delivered_packets;
  counters_.delivered_bytes += done.packet.size_bytes;
  // Propagation happens off the transmitter. The arrival takes its
  // time and tie-break now, exactly as an event scheduled here would;
  // arrivals are in FIFO order, so only the oldest needs to be queued.
  done.arrives_at = sim_.now() + config_.propagation_delay.value();
  done.seq = sim_.reserve_seq();
  if (in_flight_++ == 0) schedule_arrival();
  if (count_ > in_flight_) {
    start_transmission();
  } else {
    transmitting_ = false;
  }
}

void Link::schedule_arrival() {
  const Pending& oldest = at(0);
  sim_.schedule_reserved(oldest.arrives_at, oldest.seq, [this] { arrive(); });
}

void Link::arrive() {
  Pending done = std::move(at(0));
  head_ = (head_ + 1) & (ring_.size() - 1);
  --count_;
  if (--in_flight_ > 0) schedule_arrival();
  if (done.route && done.hop + 1 < done.route->size()) {
    ++done.hop;
    (*done.route)[done.hop]->accept(std::move(done));
  } else if (done.on_deliver) {
    done.on_deliver(done.packet);
  }
}

}  // namespace iqb::netsim
