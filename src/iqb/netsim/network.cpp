#include "iqb/netsim/network.hpp"

#include <algorithm>
#include <cassert>
#include <deque>
#include <limits>

namespace iqb::netsim {

using util::ErrorCode;
using util::make_error;
using util::Result;

double LossSpec::mean_loss_rate() const noexcept {
  switch (kind) {
    case Kind::kNone: return 0.0;
    case Kind::kBernoulli: return p;
    case Kind::kGilbertElliott: {
      const double denom = p_gb + p_bg;
      if (denom <= 0.0) return loss_good;
      const double pi_bad = p_gb / denom;
      return pi_bad * loss_bad + (1.0 - pi_bad) * loss_good;
    }
  }
  return 0.0;
}

std::unique_ptr<LossModel> LossSpec::instantiate() const {
  switch (kind) {
    case Kind::kNone: return std::make_unique<NoLoss>();
    case Kind::kBernoulli: return std::make_unique<BernoulliLoss>(p);
    case Kind::kGilbertElliott:
      return std::make_unique<GilbertElliottLoss>(p_gb, p_bg, loss_good, loss_bad);
  }
  return std::make_unique<NoLoss>();
}

std::unique_ptr<QueueDiscipline> QueueSpec::instantiate() const {
  switch (kind) {
    case Kind::kDropTail: return std::make_unique<DropTailQueue>(capacity_bytes);
    case Kind::kRed: return std::make_unique<RedQueue>(red_config);
    case Kind::kPie: return std::make_unique<PieQueue>(pie_config);
  }
  return std::make_unique<DropTailQueue>(capacity_bytes);
}

void send_along(const Path& path, Packet packet, Link::DeliverFn on_deliver,
                Link::DropFn on_drop) {
  assert(!path.empty() && "send_along on empty path");
  path.front()->send(std::move(packet), path, 0, std::move(on_deliver),
                     std::move(on_drop));
}

util::Seconds base_one_way_delay(const Path& path, std::uint32_t bytes) noexcept {
  double total = 0.0;
  for (const Link* link : path) {
    total += link->propagation_delay().value();
    total += static_cast<double>(bytes) * 8.0 / link->rate().bits_per_second();
  }
  return util::Seconds(total);
}

util::Mbps bottleneck_rate(const Path& path) noexcept {
  double rate = std::numeric_limits<double>::infinity();
  for (const Link* link : path) rate = std::min(rate, link->rate().value());
  return util::Mbps(rate);
}

Network::Network(Simulator& sim, std::uint64_t seed) : sim_(sim), rng_(seed) {}

NodeId Network::add_node(std::string name) {
  node_names_.push_back(std::move(name));
  adjacency_.emplace_back();
  return static_cast<NodeId>(node_names_.size() - 1);
}

Result<NodeId> Network::find_node(std::string_view name) const {
  for (std::size_t i = 0; i < node_names_.size(); ++i) {
    if (node_names_[i] == name) return static_cast<NodeId>(i);
  }
  return make_error(ErrorCode::kNotFound,
                    "no node named '" + std::string(name) + "'");
}

std::pair<Link*, Link*> Network::add_duplex_link(NodeId a, NodeId b,
                                                 const LinkSpec& a_to_b,
                                                 const LinkSpec& b_to_a) {
  assert(a < node_names_.size() && b < node_names_.size());
  auto make_link = [this](const LinkSpec& spec, NodeId from, NodeId to) {
    Link::Config config;
    config.rate = spec.rate;
    config.propagation_delay = spec.propagation_delay;
    config.queue = spec.queue.instantiate();
    config.loss = spec.loss.instantiate();
    config.shaper = spec.shaper;
    config.name = !spec.name.empty()
                      ? spec.name
                      : node_names_[from] + "->" + node_names_[to];
    return std::make_unique<Link>(
        sim_, std::move(config), rng_.fork(links_.size() + 1));
  };

  links_.push_back(make_link(a_to_b, a, b));
  Link* forward = links_.back().get();
  adjacency_[a].push_back(Edge{b, links_.size() - 1});

  links_.push_back(make_link(b_to_a, b, a));
  Link* reverse = links_.back().get();
  adjacency_[b].push_back(Edge{a, links_.size() - 1});

  return {forward, reverse};
}

Result<Path> Network::path(NodeId from, NodeId to) const {
  if (from >= node_names_.size() || to >= node_names_.size()) {
    return make_error(ErrorCode::kInvalidArgument, "invalid node id");
  }
  if (from == to) {
    return make_error(ErrorCode::kInvalidArgument,
                      "path from a node to itself");
  }
  // BFS by hop count; predecessor edges reconstruct the route.
  constexpr std::size_t kUnvisited = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> via_edge(node_names_.size(), kUnvisited);
  std::vector<NodeId> via_node(node_names_.size(), 0);
  std::deque<NodeId> frontier{from};
  std::vector<bool> visited(node_names_.size(), false);
  visited[from] = true;
  while (!frontier.empty()) {
    NodeId current = frontier.front();
    frontier.pop_front();
    if (current == to) break;
    for (const Edge& edge : adjacency_[current]) {
      if (visited[edge.to]) continue;
      visited[edge.to] = true;
      via_edge[edge.to] = edge.link_index;
      via_node[edge.to] = current;
      frontier.push_back(edge.to);
    }
  }
  if (!visited[to]) {
    return make_error(ErrorCode::kNotFound,
                      "no route from '" + node_names_[from] + "' to '" +
                          node_names_[to] + "'");
  }
  Path path;
  for (NodeId at = to; at != from; at = via_node[at]) {
    path.push_back(links_[via_edge[at]].get());
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<const Link*> Network::links() const {
  std::vector<const Link*> out;
  out.reserve(links_.size());
  for (const auto& link : links_) out.push_back(link.get());
  return out;
}

}  // namespace iqb::netsim
