// A unidirectional link: rate limiter + FIFO buffer + delay + loss.
//
// The link is the unit of transmission in the simulator. It models,
// in order: stochastic ingress loss (LossModel), buffer admission
// (QueueDiscipline), store-and-forward serialization at the link rate,
// then propagation delay. Queueing delay emerges naturally from the
// serialization of packets ahead in the buffer — this is what makes
// loaded latency ("bufferbloat") appear in the measurement clients
// without being programmed in explicitly.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "iqb/netsim/loss.hpp"
#include "iqb/netsim/packet.hpp"
#include "iqb/netsim/queue.hpp"
#include "iqb/netsim/sim.hpp"
#include "iqb/util/units.hpp"

namespace iqb::netsim {

class Link;

/// A unidirectional route: the links to traverse in order.
using Path = std::vector<Link*>;

/// Counters exposed per link for invariant tests (conservation:
/// offered == delivered + dropped_loss + dropped_queue + in flight).
struct LinkCounters {
  std::uint64_t offered_packets = 0;
  std::uint64_t delivered_packets = 0;
  std::uint64_t dropped_loss_packets = 0;   ///< Stochastic loss model.
  std::uint64_t dropped_queue_packets = 0;  ///< Buffer overflow / AQM.
  std::uint64_t offered_bytes = 0;
  std::uint64_t delivered_bytes = 0;
};

/// Token-bucket traffic shaping (ISP provisioning with burst credit,
/// "speed boost"): packets serialize at the full line rate while
/// tokens last, then drain at the sustained rate. A shaped 100 Mb/s
/// tier on a 1 Gb/s line reads very differently to a short-transfer
/// test than to a sustained one — a real-world measurement artifact
/// the simulated dataset panel can now reproduce.
struct ShaperConfig {
  bool enabled = false;
  util::Mbps sustained_rate{100.0};
  std::uint64_t burst_bytes = 2 * 1024 * 1024;
};

class Link {
 public:
  struct Config {
    util::Mbps rate{100.0};
    util::Seconds propagation_delay{0.005};
    std::unique_ptr<QueueDiscipline> queue;  ///< Defaults to 256 KiB DropTail.
    std::unique_ptr<LossModel> loss;         ///< Defaults to NoLoss.
    ShaperConfig shaper{};                   ///< Off by default.
    std::string name;                        ///< For traces/debugging.
  };

  /// Called when a packet exits the far end of the link.
  using DeliverFn = std::function<void(const Packet&)>;
  /// Called when a packet is dropped (loss or queue). Optional.
  using DropFn = std::function<void(const Packet&)>;

  Link(Simulator& sim, Config config, util::Rng rng);

  /// Offer a packet. Delivery (or drop) is reported asynchronously
  /// via the callbacks, in simulated time.
  void send(Packet packet, DeliverFn on_deliver, DropFn on_drop = nullptr);

  /// Offer a packet at hop `hop` of `route`, of which this link is
  /// route[hop]. When it exits, the packet is offered to the next hop;
  /// on_deliver fires when it exits the last one, and on_drop at
  /// whichever hop drops it. Packets hold a pointer to `route`, so the
  /// route must outlive them (see send_along).
  void send(Packet packet, const Path& route, std::size_t hop,
            DeliverFn on_deliver, DropFn on_drop);

  const LinkCounters& counters() const noexcept { return counters_; }
  util::Mbps rate() const noexcept { return config_.rate; }
  util::Seconds propagation_delay() const noexcept {
    return config_.propagation_delay;
  }
  const std::string& name() const noexcept { return config_.name; }
  std::uint64_t queued_bytes() const noexcept { return queued_bytes_; }

  /// Replace the stochastic loss model mid-simulation (failure
  /// injection in tests).
  void set_loss_model(std::unique_ptr<LossModel> loss);

 private:
  /// A packet from admission to delivery. The link is FIFO end to
  /// end: packets leave the buffer in admission order and, with one
  /// propagation delay per link, arrive in that order too.
  struct Pending {
    Packet packet;
    const Path* route = nullptr;  ///< Null for the single-link send().
    std::size_t hop = 0;
    DeliverFn on_deliver;
    DropFn on_drop;
    SimTime arrives_at = 0.0;  ///< Set when serialization ends ...
    std::uint64_t seq = 0;     ///< ... with the tie-break reserved then.
  };

  void accept(Pending&& entry);
  void start_transmission();
  void finish_transmission();
  /// Queue the arrival of the oldest packet in flight.
  void schedule_arrival();
  void arrive();
  Pending& at(std::size_t i) noexcept {
    return ring_[(head_ + i) & (ring_.size() - 1)];
  }
  /// Seconds the head packet must wait for shaper tokens (0 when
  /// shaping is off or credit suffices); consumes the tokens.
  SimTime take_shaper_tokens(std::uint32_t packet_bytes) noexcept;

  Simulator& sim_;
  Config config_;
  util::Rng rng_;
  // Ring buffer (power-of-two size, grown but never shrunk, so a
  // packet hop allocates nothing) of every packet on the link: the
  // first in_flight_ are propagating, each with its arrival reserved
  // in the simulator and only the oldest queued there; the rest wait
  // in the buffer, the first of them on the transmitter.
  std::vector<Pending> ring_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::size_t in_flight_ = 0;
  std::uint64_t queued_bytes_ = 0;
  bool transmitting_ = false;
  LinkCounters counters_;

  // Shaper token bucket (bytes of credit).
  double shaper_tokens_ = 0.0;
  SimTime shaper_refilled_at_ = 0.0;
};

}  // namespace iqb::netsim
