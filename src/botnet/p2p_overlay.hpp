// A live Mozi-style P2P overlay: bot nodes that answer DHT pings and peer
// exchange. The paper filters P2P families out of the C2 study (§2.3a) and
// names P2P coverage as future work; this module plus core/p2p_crawl.hpp
// implements that extension — enumerating a P2P botnet's membership from
// one captured bootstrap list.
#pragma once

#include <memory>
#include <vector>

#include "sim/network.hpp"
#include "util/rng.hpp"

namespace malnet::botnet {

/// One overlay bot: answers ping and get_peers with a slice of its routing
/// table. Availability models churn (nodes answer only a fraction of the
/// time, like real residential bots).
class P2pNode : public sim::Host {
 public:
  P2pNode(sim::Network& net, net::Ipv4 addr, net::Port port, std::string node_id,
          double availability, util::Rng rng);

  void add_peer(net::Endpoint peer) { peers_.push_back(peer); }
  [[nodiscard]] const std::vector<net::Endpoint>& peers() const { return peers_; }
  [[nodiscard]] net::Endpoint endpoint() const { return {addr(), port_}; }
  [[nodiscard]] const std::string& node_id() const { return id_; }

 private:
  net::Port port_;
  std::string id_;
  double availability_;
  util::Rng rng_;
  std::vector<net::Endpoint> peers_;
};

struct OverlayConfig {
  std::uint64_t seed = 13;
  int node_count = 60;
  int peers_per_node = 6;   // routing-table out-degree
  double availability = 0.85;
  net::Port port = 6881;
};

struct Overlay {
  std::vector<std::unique_ptr<P2pNode>> nodes;
  /// The bootstrap endpoints a captured sample would embed.
  std::vector<net::Endpoint> bootstrap;
};

/// Builds a randomly-wired connected overlay (ring + random chords).
[[nodiscard]] Overlay build_overlay(sim::Network& net, const OverlayConfig& cfg = {});

}  // namespace malnet::botnet
