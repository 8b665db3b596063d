#include "sim/network.hpp"

#include <new>
#include <stdexcept>
#include <utility>

#include "util/log.hpp"

namespace malnet::sim {

Network::Network(EventScheduler& sched, NetworkConfig cfg)
    : sched_(sched), cfg_(cfg), rng_(cfg.seed, util::fnv1a64("network")) {
  if (cfg_.min_latency > cfg_.max_latency) {
    throw std::invalid_argument("NetworkConfig: min_latency > max_latency");
  }
  if (cfg_.loss < 0.0 || cfg_.loss >= 1.0) {
    throw std::invalid_argument("NetworkConfig: loss out of [0, 1)");
  }
}

void Network::attach(Host& h) {
  const auto [it, inserted] = hosts_.emplace(h.addr(), &h);
  if (!inserted) {
    throw std::logic_error("Network::attach: duplicate address " +
                           net::to_string(h.addr()));
  }
}

void Network::detach(Host& h) { hosts_.erase(h.addr()); }

Host* Network::host_at(net::Ipv4 addr) const {
  const auto it = hosts_.find(addr);
  return it == hosts_.end() ? nullptr : it->second;
}

Duration Network::latency(net::Ipv4 a, net::Ipv4 b) const {
  // Deterministic hash of the ordered pair -> [min, max] latency. Stable
  // across runs and independent of traffic history.
  std::uint64_t h = (static_cast<std::uint64_t>(a.value) << 32) | b.value;
  std::uint64_t s = h;
  h = util::splitmix64(s);
  const auto span =
      static_cast<std::uint64_t>(cfg_.max_latency.us - cfg_.min_latency.us + 1);
  return Duration{cfg_.min_latency.us + static_cast<std::int64_t>(h % span)};
}

void Network::transmit(net::Packet p) {
  p.time = now();
  ++tx_count_;
  if (p.proto == net::Protocol::kUdp && p.dst_port == 53) ++dns_count_;
  if (tap_) tap_(p);

  if (cfg_.loss > 0.0 && rng_.chance(cfg_.loss)) {
    ++loss_count_;
    return;  // congestion: dropped in flight
  }

  // The fault hook draws from its own RNG stream, so installing one never
  // perturbs the network's congestion-loss stream.
  FaultVerdict verdict;
  if (fault_hook_) verdict = fault_hook_(p);
  if (verdict.drop) {
    ++loss_count_;
    return;
  }

  Host* dst = host_at(p.dst);
  if (dst == nullptr) {
    ++dark_count_;
    return;  // dark address space: the packet vanishes
  }

  const std::uint64_t pair_key =
      (static_cast<std::uint64_t>(p.src.value) << 32) | p.dst.value;
  SimTime deliver_at = now() + latency(p.src, p.dst) + verdict.extra_latency;
  if (!verdict.reorder) {
    auto& last = last_delivery_[pair_key];
    if (deliver_at <= last) deliver_at = last + Duration::micros(1);
    last = deliver_at;
  }

  // Duplicates trail the original by a whisker; they deliberately bypass
  // the FIFO clamp update so they model duplicated deliveries of the same
  // send, not new sends.
  for (int i = 0; i < verdict.duplicates; ++i) {
    schedule_delivery(deliver_at + Duration::micros(i + 1), p);
  }
  schedule_delivery(deliver_at, std::move(p));
}

void Network::schedule_delivery(SimTime at, net::Packet p) {
  const net::Ipv4 dst_addr = p.dst;
  auto deliver = [this, dst_addr, pkt = std::move(p)]() mutable {
    // Re-resolve: the host may have detached while the packet was in flight.
    Host* h = host_at(dst_addr);
    if (h == nullptr) return;
    ++rx_count_;
    h->deliver(pkt);
  };
  static_assert(EventScheduler::stores_inline<decltype(deliver)>,
                "packet delivery must not allocate a scheduler callback");
  sched_.at(at, std::move(deliver));
}

// ---------------------------------------------------------------------------
// Host

Host::Host(Network& net, net::Ipv4 addr, std::string name)
    : net_(net), addr_(addr), name_(std::move(name)) {
  if (addr.is_unspecified()) throw std::invalid_argument("Host: unspecified address");
  net_.attach(*this);
}

Host::~Host() { net_.detach(*this); }

Host::NodeRecycler::~NodeRecycler() {
  while (free_ != nullptr) {
    Free* next = free_->next;
    ::operator delete(free_, bytes_, std::align_val_t{align_});
    free_ = next;
  }
}

void* Host::NodeRecycler::do_allocate(std::size_t bytes, std::size_t align) {
  if (free_ == nullptr) return ::operator new(bytes, std::align_val_t{align});
  Free* node = free_;
  free_ = node->next;
  return node;
}

void Host::NodeRecycler::do_deallocate(void* p, std::size_t bytes, std::size_t align) {
  bytes_ = bytes;
  align_ = align;
  free_ = ::new (p) Free{free_};
}

net::Port Host::alloc_ephemeral_port() { return alloc_ephemeral_port_and_hint().first; }

std::pair<net::Port, Host::ConnMap::iterator> Host::alloc_ephemeral_port_and_hint() {
  for (int attempts = 0; attempts < 16384; ++attempts) {
    const net::Port p = next_ephemeral_;
    next_ephemeral_ = (next_ephemeral_ >= 65535) ? 49152 : next_ephemeral_ + 1;
    // Skip ports with live connection state or bindings.
    if (udp_handlers_.count(p) > 0 || tcp_listeners_.count(p) > 0) continue;
    const auto lo = conns_.lower_bound({p, net::Endpoint{}});
    if (lo == conns_.end() || lo->first.first != p) return {p, lo};
  }
  throw std::runtime_error("Host: ephemeral port space exhausted");
}

void Host::send_out(net::Packet p) {
  p.time = net_.now();  // captures get real timestamps even if dropped below
  if (tap_) tap_(p, /*outbound=*/true);
  if (filter_ && !filter_(p)) return;  // dropped by containment / rewritten
  net_.transmit(std::move(p));
}

void Host::send_raw(net::Packet p) {
  p.src = addr_;
  send_out(std::move(p));
}

// --- TCP --------------------------------------------------------------------

void Host::tcp_listen(net::Port port, AcceptHandler on_accept) {
  if (!on_accept) throw std::invalid_argument("tcp_listen: null handler");
  tcp_listeners_[port] = std::move(on_accept);
}

void Host::tcp_unlisten(net::Port port) { tcp_listeners_.erase(port); }

bool Host::tcp_listening(net::Port port) const { return tcp_listeners_.count(port) > 0; }

void Host::tcp_connect(net::Endpoint remote, ConnectHandler cb, Duration timeout) {
  if (!cb) throw std::invalid_argument("tcp_connect: null handler");
  const auto [local_port, hint] = alloc_ephemeral_port_and_hint();
  const std::uint32_t iss = net_.rng()();
  // No key with this port exists, so (port, remote) sorts right before hint.
  const auto it = emplace_conn(hint, {local_port, remote}, /*inbound=*/false, iss);
  TcpConn& conn = it->second;

  conn.on_connect_ = std::move(cb);
  // Only this timer erases a connection whose outcome is pending (the reaper
  // skips it, and a SYN-ACK or RST cancels the timer), so the node outlives
  // it unless the host itself is destroyed first.
  auto on_timeout = [this, it, w = std::weak_ptr<const bool>(lifetime_)]() {
    if (w.expired() || !it->second.on_connect_) return;
    const ConnectHandler handler = std::move(it->second.on_connect_);
    conns_.erase(it);  // abandon the half-open connection silently
    handler(ConnectOutcome::kTimeout, nullptr);
  };
  static_assert(EventScheduler::stores_inline<decltype(on_timeout)>,
                "connect timeout must not allocate a scheduler callback");
  conn.connect_timeout_ = scheduler().after(timeout, std::move(on_timeout));

  conn.emit(net::TcpFlags{.syn = true, .ack = false, .fin = false, .rst = false,
                          .psh = false});
}

void Host::close_all_connections() {
  for (auto& [key, conn] : conns_) {
    if (conn.established()) conn.close();
  }
}

void Host::abort_all_connections() {
  // reset() only schedules the map erase, so iterating while resetting is
  // safe.
  for (auto& [key, conn] : conns_) {
    if (conn.state() != TcpConn::State::kClosed) conn.reset();
  }
}

Host::ConnMap::iterator Host::emplace_conn(ConnMap::const_iterator hint,
                                           const ConnKey& key, bool inbound,
                                           std::uint32_t iss) {
  return conns_.emplace_hint(
      hint, std::piecewise_construct, std::forward_as_tuple(key),
      std::forward_as_tuple(TcpConn::Token{}, *this, net::Endpoint{addr_, key.first},
                            key.second, inbound, iss));
}

void Host::schedule_conn_erase(const ConnKey& key) {
  schedule_safe(Duration::seconds(60), [this, key]() {
    const auto it = conns_.find(key);
    // A closed active open still awaiting its timeout stays: the timeout
    // reports its outcome and erases it.
    if (it != conns_.end() && it->second.state() == TcpConn::State::kClosed &&
        !it->second.on_connect_) {
      conns_.erase(it);
    }
  });
}

void Host::handle_tcp(const net::Packet& p) {
  const ConnKey key{p.dst_port, {p.src, p.src_port}};
  // One tree walk: the lower bound is the lookup and, for a passive open,
  // the insert hint.
  const auto it = conns_.lower_bound(key);

  if (it == conns_.end() || conns_.key_comp()(key, it->first)) {
    if (p.flags.rst) return;  // RST to nothing: ignore
    if (p.flags.syn && !p.flags.ack) {
      const auto lit = tcp_listeners_.find(p.dst_port);
      if (lit == tcp_listeners_.end()) {
        // Closed port: refuse with RST.
        net::Packet rst;
        rst.src = addr_;
        rst.dst = p.src;
        rst.proto = net::Protocol::kTcp;
        rst.src_port = p.dst_port;
        rst.dst_port = p.src_port;
        rst.flags.rst = true;
        rst.flags.ack = true;
        rst.ack_num = p.seq + 1;
        send_out(std::move(rst));
        return;
      }
      // Passive open.
      const std::uint32_t iss = net_.rng()();
      TcpConn& nc =
          emplace_conn(it, key, /*inbound=*/true, iss)->second;
      nc.rcv_next_ = p.seq + 1;
      nc.emit(net::TcpFlags{.syn = true, .ack = true, .fin = false, .rst = false,
                              .psh = false});
      return;
    }
    return;  // stray non-SYN segment: ignore
  }

  TcpConn* const conn = &it->second;
  const TcpConn::State before = conn->state();
  conn->handle(p);
  const TcpConn::State after = conn->state();

  if (before == TcpConn::State::kSynSent && conn->on_connect_ &&
      after != TcpConn::State::kSynSent) {
    const ConnectHandler handler = std::exchange(conn->on_connect_, nullptr);
    scheduler().cancel(std::exchange(conn->connect_timeout_, 0));
    if (after == TcpConn::State::kEstablished) {
      handler(ConnectOutcome::kConnected, conn);
    } else {
      handler(ConnectOutcome::kRefused, nullptr);
    }
  } else if (before == TcpConn::State::kSynRcvd &&
             after == TcpConn::State::kEstablished) {
    const auto lit = tcp_listeners_.find(p.dst_port);
    if (lit != tcp_listeners_.end()) {
      lit->second(*conn);
    } else {
      // The service closed between SYN-ACK and the final ACK; refuse the
      // half-accepted connection so the peer sees a clean RST instead of a
      // silent, handler-less session.
      conn->reset();
    }
  }
}

// --- UDP / ICMP ---------------------------------------------------------------

void Host::udp_bind(net::Port port, UdpHandler h) {
  if (!h) throw std::invalid_argument("udp_bind: null handler");
  udp_handlers_[port] = std::move(h);
}

void Host::udp_unbind(net::Port port) { udp_handlers_.erase(port); }

void Host::udp_send(net::Endpoint remote, util::BytesView payload, net::Port src_port) {
  net::Packet p;
  p.src = addr_;
  p.dst = remote.ip;
  p.proto = net::Protocol::kUdp;
  p.src_port = src_port == 0 ? alloc_ephemeral_port() : src_port;
  p.dst_port = remote.port;
  p.payload.assign(payload.begin(), payload.end());
  send_out(std::move(p));
}

void Host::icmp_send(net::Ipv4 dst, std::uint8_t type, std::uint8_t code,
                     util::BytesView payload) {
  net::Packet p;
  p.src = addr_;
  p.dst = dst;
  p.proto = net::Protocol::kIcmp;
  p.icmp = {type, code};
  p.payload.assign(payload.begin(), payload.end());
  send_out(std::move(p));
}

void Host::deliver(net::Packet p) {
  if (rewriter_) rewriter_(p);
  if (tap_) tap_(p, /*outbound=*/false);
  switch (p.proto) {
    case net::Protocol::kTcp:
      handle_tcp(p);
      break;
    case net::Protocol::kUdp: {
      const auto it = udp_handlers_.find(p.dst_port);
      if (it != udp_handlers_.end()) {
        // Copy before invoking: handlers may unbind themselves (one-shot
        // transactions like DNS queries or DHT crawls), which would
        // otherwise destroy the callable mid-execution.
        const UdpHandler handler = it->second;
        handler(p);
      }
      break;  // unbound UDP port: silently dropped
    }
    case net::Protocol::kIcmp:
      if (icmp_handler_) icmp_handler_(p);
      break;
  }
}

}  // namespace malnet::sim
