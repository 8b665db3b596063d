#include "core/c2detect.hpp"

#include <algorithm>

#include "dns/message.hpp"

namespace malnet::core {

std::vector<C2Candidate> detect_c2(const emu::SandboxReport& report,
                                   net::Ipv4 martian, const C2DetectOptions& opts) {
  (void)martian;  // addresses are resolved from observed DNS answers, not hints

  // Pass 1: DNS resolution events (inbound answers), in time order.
  struct Resolution {
    util::SimTime time;
    std::string name;
    net::Ipv4 answer;
  };
  std::vector<Resolution> resolutions;
  for (const auto& p : report.capture) {
    if (p.proto != net::Protocol::kUdp || p.src_port != 53) continue;
    auto msg = dns::decode(p.payload);
    if (!msg || !msg->is_response || msg->answers.empty()) continue;
    auto& answer = msg->answers.front();
    resolutions.push_back({p.time, std::move(answer.name), answer.address});
  }

  // Pass 2: outbound TCP connection attempts, sorted so each endpoint's
  // SYNs form one run.
  struct Syn {
    net::Endpoint dst;
    util::SimTime time;
  };
  std::vector<Syn> syns;
  std::vector<net::Endpoint> http_flows;
  for (const auto& p : report.capture) {
    if (p.proto == net::Protocol::kTcp && !p.payload.empty()) {
      // First guest payload of a flow that reads like an HTTP request.
      const std::string head = util::to_string(
          util::BytesView{p.payload.data(), std::min<std::size_t>(5, p.payload.size())});
      if (head.rfind("GET ", 0) == 0 || head.rfind("POST ", 0) == 0 ||
          head.rfind("HEAD ", 0) == 0) {
        http_flows.push_back(p.destination());
      }
    }
    if (p.proto != net::Protocol::kTcp || !p.flags.syn || p.flags.ack) continue;
    // Outbound = sourced by the guest; the guest is whoever sends SYNs that
    // also appear as the src of non-SYN traffic. Simpler and sufficient:
    // SYN packets in a guest-side capture are always outbound.
    syns.push_back({p.destination(), p.time});
  }
  std::sort(syns.begin(), syns.end(), [](const Syn& a, const Syn& b) {
    return a.dst < b.dst;
  });
  std::sort(http_flows.begin(), http_flows.end());

  // One entry per endpoint, in endpoint order.
  struct Flow {
    net::Endpoint ep;
    int attempts = 0;
    util::SimTime first_syn{INT64_MAX};
  };
  std::vector<Flow> flows;
  for (const auto& syn : syns) {
    if (flows.empty() || flows.back().ep != syn.dst) flows.push_back({syn.dst});
    auto& fs = flows.back();
    ++fs.attempts;
    fs.first_syn = std::min(fs.first_syn, syn.time);
  }
  // Distinct destination addresses per port = endpoints on that port.
  std::vector<net::Port> flow_ports;
  flow_ports.reserve(flows.size());
  for (const auto& f : flows) flow_ports.push_back(f.ep.port);
  std::sort(flow_ports.begin(), flow_ports.end());
  const auto distinct_dsts = [&](net::Port port) {
    const auto [lo, hi] = std::equal_range(flow_ports.begin(), flow_ports.end(), port);
    return static_cast<std::size_t>(hi - lo);
  };

  std::vector<C2Candidate> out;
  for (const auto& [ep, attempts, first] : flows) {
    if (attempts < opts.min_attempts) continue;
    if (opts.filter_http_flows &&
        std::binary_search(http_flows.begin(), http_flows.end(), ep)) {
      continue;
    }
    // Scan-port suppression: sweeps touch each address once, so repeated
    // attempts to one endpoint are C2 retries even on a swept port (C2s on
    // 23/tcp coexist with telnet sweeps in the same binary).
    if (attempts <= opts.min_attempts &&
        distinct_dsts(ep.port) >= static_cast<std::size_t>(opts.scan_port_distinct_ips)) {
      continue;  // scanning traffic
    }
    C2Candidate cand;
    cand.resolved_ip = ep.ip;
    cand.port = ep.port;
    cand.connection_attempts = attempts;
    // Attribute to the latest DNS resolution answering with this address
    // before the first connection attempt.
    const Resolution* best = nullptr;
    for (const auto& r : resolutions) {
      if (r.answer == ep.ip && r.time <= first) best = &r;
    }
    if (best != nullptr) {
      cand.address = best->name;
      cand.is_dns = true;
    } else {
      cand.address = net::to_string(ep.ip);
    }
    out.push_back(std::move(cand));
  }
  // Strongest beacon first; ties broken by contact order (malware tries its
  // primary C2 before any fallback).
  const auto first_syn = [&flows](const C2Candidate& c) {
    return std::lower_bound(flows.begin(), flows.end(), c.endpoint(),
                            [](const Flow& f, const net::Endpoint& e) { return f.ep < e; })
        ->first_syn;
  };
  std::sort(out.begin(), out.end(), [&](const C2Candidate& a, const C2Candidate& b) {
    if (a.connection_attempts != b.connection_attempts) {
      return a.connection_attempts > b.connection_attempts;
    }
    return first_syn(a) < first_syn(b);
  });
  return out;
}

}  // namespace malnet::core
