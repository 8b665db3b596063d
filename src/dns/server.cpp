#include "dns/server.hpp"

#include <stdexcept>

#include "util/str.hpp"

namespace malnet::dns {

DnsServer::DnsServer(sim::Network& net, net::Ipv4 addr, std::string name)
    : sim::Host(net, addr, std::move(name)) {
  udp_bind(53, [this](const net::Packet& p) { handle_query(p); });
}

void DnsServer::add_record(const std::string& name, net::Ipv4 address) {
  zone_[util::to_lower(name)] = address;
}

void DnsServer::remove_record(const std::string& name) {
  zone_.erase(util::to_lower(name));
}

void DnsServer::reply(const net::Packet& query, const Message& response) {
  util::Bytes wire;
  try {
    wire = encode(response);
  } catch (const std::invalid_argument&) {
    // decode() accepts any label bytes, so a corrupted query can carry a
    // name the encoder rejects (a label byte flipped to '.' leaves an empty
    // label). Such a query is malformed: drop it, and the client sees a
    // timeout.
    return;
  }
  udp_send({query.src, query.src_port}, wire, /*src_port=*/53);
}

void DnsServer::handle_query(const net::Packet& p) {
  const auto query = decode(p.payload);
  if (!query || query->is_response || query->questions.empty()) return;
  ++queries_;
  if (fault_hook_) {
    switch (fault_hook_()) {
      case QueryFault::kDrop:
        return;  // the client sees a timeout
      case QueryFault::kServfail: {
        Message fail = make_response(*query, std::nullopt);
        fail.rcode = Rcode::kServFail;
        reply(p, fail);
        return;
      }
      case QueryFault::kNone:
        break;
    }
  }
  std::optional<net::Ipv4> answer;
  const auto it = zone_.find(util::to_lower(query->questions.front().name));
  if (it != zone_.end()) {
    answer = it->second;
  } else if (wildcard_) {
    answer = *wildcard_;
  }
  reply(p, make_response(*query, answer));
}

}  // namespace malnet::dns
