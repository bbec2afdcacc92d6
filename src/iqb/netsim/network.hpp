// Topology: named nodes joined by duplex links, with hop-count
// routing. Measurement clients ask the network for the forward and
// reverse paths between a client node and a test-server node and then
// drive flows over those paths.
//
// Link parameters are described by copyable *specs* (LossSpec,
// QueueSpec, LinkSpec) so topologies can be built from config tables;
// each spec is instantiated into the polymorphic runtime objects when
// the link is created.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "iqb/netsim/link.hpp"
#include "iqb/util/result.hpp"

namespace iqb::netsim {

/// Copyable description of a stochastic loss model.
struct LossSpec {
  enum class Kind { kNone, kBernoulli, kGilbertElliott };
  Kind kind = Kind::kNone;
  double p = 0.0;          // Bernoulli
  double p_gb = 0.0;       // Gilbert-Elliott transition good->bad
  double p_bg = 0.0;       //                      bad->good
  double loss_good = 0.0;  //                      loss in good state
  double loss_bad = 0.0;   //                      loss in bad state

  static LossSpec none() noexcept { return {}; }
  static LossSpec bernoulli(double probability) noexcept {
    LossSpec s;
    s.kind = Kind::kBernoulli;
    s.p = probability;
    return s;
  }
  static LossSpec gilbert_elliott(double p_gb, double p_bg, double loss_good,
                                  double loss_bad) noexcept {
    LossSpec s;
    s.kind = Kind::kGilbertElliott;
    s.p_gb = p_gb;
    s.p_bg = p_bg;
    s.loss_good = loss_good;
    s.loss_bad = loss_bad;
    return s;
  }

  /// Expected long-run loss rate of the described model.
  double mean_loss_rate() const noexcept;

  std::unique_ptr<LossModel> instantiate() const;
};

/// Copyable description of a queue discipline.
struct QueueSpec {
  enum class Kind { kDropTail, kRed, kPie };
  Kind kind = Kind::kDropTail;
  std::uint64_t capacity_bytes = 256 * 1024;
  RedQueue::Config red_config{};
  PieQueue::Config pie_config{};

  static QueueSpec drop_tail(std::uint64_t capacity_bytes) noexcept {
    QueueSpec s;
    s.capacity_bytes = capacity_bytes;
    return s;
  }
  static QueueSpec red(RedQueue::Config config) noexcept {
    QueueSpec s;
    s.kind = Kind::kRed;
    s.red_config = config;
    s.capacity_bytes = config.capacity_bytes;
    return s;
  }
  static QueueSpec pie(PieQueue::Config config) noexcept {
    QueueSpec s;
    s.kind = Kind::kPie;
    s.pie_config = config;
    s.capacity_bytes = config.capacity_bytes;
    return s;
  }

  std::unique_ptr<QueueDiscipline> instantiate() const;
};

/// Copyable description of one unidirectional link.
struct LinkSpec {
  util::Mbps rate{100.0};
  util::Seconds propagation_delay{0.005};
  QueueSpec queue{};
  LossSpec loss{};
  ShaperConfig shaper{};  ///< Token-bucket provisioning; off by default.
  std::string name;
};

using NodeId = std::uint32_t;

/// Send a packet across every link of a path in sequence. on_deliver
/// fires when it exits the last hop; on_drop fires at most once, at
/// whichever hop dropped it.
///
/// Route lifetime: the packet carries a pointer to `path`, not a copy,
/// so `path` must outlive the packet's last hop. Keep it in storage
/// that lives as long as the Network, or in the flow whose `this` the
/// delivery callback captures (every netsim flow keeps its own copy of
/// its paths and already outlives its packets). A temporary dangles.
/// The rule binds only while the simulator can still run: a world
/// whose simulator never runs again may be torn down with packets in
/// flight.
void send_along(const Path& path, Packet packet, Link::DeliverFn on_deliver,
                Link::DropFn on_drop = nullptr);

/// Sum of propagation delays plus per-hop serialization of a packet of
/// `bytes` — the unloaded one-way delay of the path.
util::Seconds base_one_way_delay(const Path& path, std::uint32_t bytes) noexcept;

/// Rate of the slowest link on the path.
util::Mbps bottleneck_rate(const Path& path) noexcept;

class Network {
 public:
  /// All stochastic elements (loss models) fork streams from `seed`,
  /// so identical topologies + seeds replay identically.
  Network(Simulator& sim, std::uint64_t seed);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  NodeId add_node(std::string name);
  util::Result<NodeId> find_node(std::string_view name) const;
  std::size_t node_count() const noexcept { return node_names_.size(); }
  const std::string& node_name(NodeId id) const { return node_names_.at(id); }

  /// Create a duplex link: forward spec applies a->b, reverse b->a.
  /// Returns the pair of created links (owned by the network).
  std::pair<Link*, Link*> add_duplex_link(NodeId a, NodeId b,
                                          const LinkSpec& a_to_b,
                                          const LinkSpec& b_to_a);

  /// Shortest path (hop count; deterministic tie-break by insertion
  /// order). Error if no route exists or a node id is invalid.
  util::Result<Path> path(NodeId from, NodeId to) const;

  /// All links, for invariant sweeps in tests.
  std::vector<const Link*> links() const;

 private:
  struct Edge {
    NodeId to;
    std::size_t link_index;  // into links_
  };

  Simulator& sim_;
  util::Rng rng_;
  std::vector<std::string> node_names_;
  std::vector<std::vector<Edge>> adjacency_;
  std::vector<std::unique_ptr<Link>> links_;
};

}  // namespace iqb::netsim
