#include "botnet/p2p_overlay.hpp"

#include "proto/p2p.hpp"

namespace malnet::botnet {

P2pNode::P2pNode(sim::Network& net, net::Ipv4 addr, net::Port port,
                 std::string node_id, double availability, util::Rng rng)
    : sim::Host(net, addr, "p2p-node"),
      port_(port),
      id_(std::move(node_id)),
      availability_(availability),
      rng_(std::move(rng)) {
  udp_bind(port_, [this](const net::Packet& p) {
    if (!rng_.chance(availability_)) return;  // churn: sometimes silent
    if (const auto ping = proto::p2p::decode_ping(p.payload)) {
      udp_send({p.src, p.src_port}, proto::p2p::encode_pong({id_, ping->txn}), port_);
      return;
    }
    if (const auto query = proto::p2p::decode_get_peers(p.payload)) {
      proto::p2p::PeersReply reply;
      reply.node_id = id_;
      reply.txn = query->txn;
      // Hand out up to 8 routing-table entries.
      for (std::size_t i = 0; i < peers_.size() && reply.peers.size() < 8; ++i) {
        reply.peers.push_back(peers_[i]);
      }
      udp_send({p.src, p.src_port}, proto::p2p::encode_peers_reply(reply), port_);
    }
  });
}

Overlay build_overlay(sim::Network& net, const OverlayConfig& cfg) {
  if (cfg.node_count < 2) throw std::invalid_argument("build_overlay: too few nodes");
  Overlay overlay;
  util::Rng rng(cfg.seed, util::fnv1a64("overlay"));

  // Residential-looking space, one node per address.
  for (int i = 0; i < cfg.node_count; ++i) {
    const net::Ipv4 addr{100, 70, static_cast<std::uint8_t>(i / 250),
                         static_cast<std::uint8_t>(i % 250 + 1)};
    std::string id;
    for (int k = 0; k < 20; ++k) {
      id.push_back(static_cast<char>(rng.uniform(33, 126)));
    }
    // Appended rather than "n" + ...: GCC 12 at -O3 reports a false
    // -Wrestrict inside operator+(const char*, std::string&&).
    overlay.nodes.push_back(
        std::make_unique<P2pNode>(net, addr, cfg.port, id, cfg.availability,
                                  rng.fork(std::string("n").append(std::to_string(i)))));
  }

  // Ring edges guarantee connectivity; random chords add realism.
  const auto n = overlay.nodes.size();
  for (std::size_t i = 0; i < n; ++i) {
    overlay.nodes[i]->add_peer(overlay.nodes[(i + 1) % n]->endpoint());
    for (int c = 1; c < cfg.peers_per_node; ++c) {
      const auto j = static_cast<std::size_t>(rng.uniform(0, n - 1));
      if (j != i) overlay.nodes[i]->add_peer(overlay.nodes[j]->endpoint());
    }
  }

  // A captured sample typically embeds a handful of bootstrap peers.
  for (int b = 0; b < 4; ++b) {
    overlay.bootstrap.push_back(
        overlay.nodes[static_cast<std::size_t>(rng.uniform(0, n - 1))]->endpoint());
  }
  return overlay;
}

}  // namespace malnet::botnet
