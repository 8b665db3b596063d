// The simulated Internet: a registry of hosts, a latency model, and packet
// delivery through the event scheduler. This substitutes for the real
// Internet in the paper's pipeline (see DESIGN.md §1): everything above the
// packet boundary — sandbox capture, MITM redirection, probing, IDS — runs
// unchanged against it.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <memory_resource>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/ipv4.hpp"
#include "net/packet.hpp"
#include "sim/scheduler.hpp"
#include "sim/tcp.hpp"
#include "util/rng.hpp"

namespace malnet::sim {

class Host;

struct NetworkConfig {
  Duration min_latency = Duration::millis(5);
  Duration max_latency = Duration::millis(120);
  /// Independent per-packet drop probability. Zero by default: the study's
  /// findings are driven by application-level elusiveness, and lossless
  /// transport keeps protocol flows deterministic.
  double loss = 0.0;
  std::uint64_t seed = 0x6d616c6e6574ULL;  // "malnet"
};

/// Observes every packet the network accepts for transmission.
using GlobalTap = std::function<void(const net::Packet&)>;

/// Routing directives a fault hook returns for one packet in flight.
/// Default-constructed, the verdict is a no-op and delivery proceeds as if
/// no hook were installed.
struct FaultVerdict {
  /// Drop the packet in flight (counted as lost, like congestion loss).
  bool drop = false;
  /// Deliver this many extra copies shortly after the original.
  int duplicates = 0;
  /// Exempt this delivery from the per-pair FIFO clamp, letting it overtake
  /// packets already in flight on the same (src, dst) pair.
  bool reorder = false;
  /// Added to the pair latency (a transient latency spike).
  Duration extra_latency{};
};

/// Installed by the fault-injection layer (malnet::faultsim). Consulted for
/// every packet that survived the congestion-loss roll; may mutate the
/// packet (truncation, bit corruption) before returning its verdict. The
/// hook must be deterministic for the delivery schedule to stay a pure
/// function of the seed.
using FaultHook = std::function<FaultVerdict(net::Packet&)>;

class Network {
 public:
  Network(EventScheduler& sched, NetworkConfig cfg = {});
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  [[nodiscard]] EventScheduler& scheduler() { return sched_; }
  [[nodiscard]] SimTime now() const { return sched_.now(); }
  [[nodiscard]] util::Rng& rng() { return rng_; }

  /// Host registration (called from Host's constructor/destructor).
  void attach(Host& h);
  void detach(Host& h);
  [[nodiscard]] Host* host_at(net::Ipv4 addr) const;
  [[nodiscard]] std::size_t host_count() const { return hosts_.size(); }

  /// Accepts a packet for transmission: stamps the send time, applies the
  /// deterministic pair latency, and schedules delivery. Packets to
  /// unregistered addresses vanish (dark IPv4 space).
  void transmit(net::Packet p);

  /// Deterministic one-way latency for the ordered pair (a, b).
  [[nodiscard]] Duration latency(net::Ipv4 a, net::Ipv4 b) const;

  void set_global_tap(GlobalTap tap) { tap_ = std::move(tap); }
  void set_fault_hook(FaultHook h) { fault_hook_ = std::move(h); }
  void clear_fault_hook() { fault_hook_ = nullptr; }

  [[nodiscard]] std::uint64_t packets_transmitted() const { return tx_count_; }
  [[nodiscard]] std::uint64_t packets_delivered() const { return rx_count_; }
  [[nodiscard]] std::uint64_t packets_lost() const { return loss_count_; }
  /// Packets sent to unregistered (dark) address space.
  [[nodiscard]] std::uint64_t packets_dark() const { return dark_count_; }
  /// Network-level DNS query count (UDP datagrams to port 53).
  [[nodiscard]] std::uint64_t dns_queries() const { return dns_count_; }

 private:
  void schedule_delivery(SimTime at, net::Packet p);

  EventScheduler& sched_;
  NetworkConfig cfg_;
  util::Rng rng_;
  FaultHook fault_hook_;
  std::unordered_map<net::Ipv4, Host*> hosts_;
  // FIFO guarantee per ordered (src,dst) pair: the next delivery may never
  // precede the previous one.
  std::unordered_map<std::uint64_t, SimTime> last_delivery_;
  GlobalTap tap_;
  std::uint64_t tx_count_ = 0;
  std::uint64_t rx_count_ = 0;
  std::uint64_t loss_count_ = 0;
  std::uint64_t dark_count_ = 0;
  std::uint64_t dns_count_ = 0;
};

/// Observes all packets entering or leaving one host (sandbox capture tap).
using HostTap = std::function<void(const net::Packet&, bool outbound)>;

/// May rewrite an outbound packet (DNAT-style redirection — CnCHunter's MITM
/// trick) or drop it (IDS containment). Return false to drop. Runs *after*
/// the host tap, so captures record what the host attempted to send.
using OutboundFilter = std::function<bool(net::Packet&)>;

/// May rewrite an inbound packet before connection dispatch — the reverse
/// half of the sandbox NAT (restores original peer addresses so the guest's
/// TCP state machine matches its own view of the flow).
using InboundRewriter = std::function<void(net::Packet&)>;

using UdpHandler = std::function<void(const net::Packet&)>;
using IcmpHandler = std::function<void(const net::Packet&)>;
using AcceptHandler = std::function<void(TcpConn&)>;

/// A network endpoint actor: owns its TCP connections, UDP bindings and the
/// interposition hooks the sandbox uses. Subclass or compose freely.
class Host {
 public:
  Host(Network& net, net::Ipv4 addr, std::string name = {});
  virtual ~Host();
  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  [[nodiscard]] net::Ipv4 addr() const { return addr_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Network& network() { return net_; }
  [[nodiscard]] EventScheduler& scheduler() { return net_.scheduler(); }
  [[nodiscard]] SimTime now() const { return net_.now(); }

  // --- TCP ---------------------------------------------------------------
  void tcp_listen(net::Port port, AcceptHandler on_accept);
  void tcp_unlisten(net::Port port);
  [[nodiscard]] bool tcp_listening(net::Port port) const;
  /// Active open. The handler fires exactly once with the outcome; on
  /// kConnected the TcpConn pointer is valid until its on_close fires.
  void tcp_connect(net::Endpoint remote, ConnectHandler cb,
                   Duration timeout = Duration::seconds(5));
  [[nodiscard]] std::size_t open_connections() const { return conns_.size(); }
  /// Gracefully closes every established connection (used at sandbox-run
  /// teardown so peers see a FIN rather than a vanished host).
  void close_all_connections();
  /// Abortive teardown: RSTs every non-closed connection at once. Models a
  /// process crash — peers see a hard reset instead of a polite FIN.
  void abort_all_connections();

  // --- UDP ---------------------------------------------------------------
  void udp_bind(net::Port port, UdpHandler h);
  void udp_unbind(net::Port port);
  void udp_send(net::Endpoint remote, util::BytesView payload, net::Port src_port = 0);

  // --- ICMP --------------------------------------------------------------
  void icmp_send(net::Ipv4 dst, std::uint8_t type, std::uint8_t code,
                 util::BytesView payload = {});
  void set_icmp_handler(IcmpHandler h) { icmp_handler_ = std::move(h); }

  // --- Raw (scan-style traffic: SYN probes with no connection state) ------
  void send_raw(net::Packet p);

  // --- Interposition (sandbox) --------------------------------------------
  void set_outbound_filter(OutboundFilter f) { filter_ = std::move(f); }
  void clear_outbound_filter() { filter_ = nullptr; }
  void set_inbound_rewriter(InboundRewriter f) { rewriter_ = std::move(f); }
  void clear_inbound_rewriter() { rewriter_ = nullptr; }
  void set_tap(HostTap t) { tap_ = std::move(t); }
  void clear_tap() { tap_ = nullptr; }

  [[nodiscard]] net::Port alloc_ephemeral_port();

  /// Called by Network when a packet arrives for this host.
  void deliver(net::Packet p);

  /// Schedules `fn` after `d`, silently skipping it if this host has been
  /// destroyed by then. All actor-internal timers must use this (a plain
  /// scheduler().after() would capture a dangling `this` across host
  /// lifecycle boundaries, e.g. C2 server death).
  template <typename F>
  void schedule_safe(Duration d, F fn) {
    scheduler().after(d, [w = std::weak_ptr<const bool>(lifetime_),
                          fn = std::move(fn)]() mutable {
      if (w.expired()) return;
      fn();
    });
  }

  /// Expires when this host is destroyed. Lets code outside the host (e.g.
  /// the DNS stub resolver's retry timers) guard scheduler events that
  /// capture the host, the same way schedule_safe does internally.
  [[nodiscard]] std::weak_ptr<const bool> lifetime_guard() const { return lifetime_; }

 private:
  friend class TcpConn;

  using ConnKey = std::pair<net::Port, net::Endpoint>;  // (local port, remote)
  using ConnMap = std::pmr::map<ConnKey, TcpConn>;

  /// Free list of conns_ nodes: a freed node serves the next connect, so
  /// steady-state connects do not allocate, and a host keeps at most its
  /// peak number of nodes. Every block is one map node, so all share one
  /// size and alignment.
  class NodeRecycler final : public std::pmr::memory_resource {
   public:
    NodeRecycler() = default;
    NodeRecycler(const NodeRecycler&) = delete;
    NodeRecycler& operator=(const NodeRecycler&) = delete;
    ~NodeRecycler() override;

   private:
    struct Free {
      Free* next;
    };
    void* do_allocate(std::size_t bytes, std::size_t align) override;
    void do_deallocate(void* p, std::size_t bytes, std::size_t align) override;
    bool do_is_equal(const memory_resource& o) const noexcept override {
      return this == &o;
    }
    Free* free_ = nullptr;
    std::size_t bytes_ = 0;  // of the nodes on the free list
    std::size_t align_ = 0;
  };

  /// alloc_ephemeral_port() plus the conns_ position before which the new
  /// port's keys sort: tcp_connect's insert hint, so it walks the tree once.
  std::pair<net::Port, ConnMap::iterator> alloc_ephemeral_port_and_hint();
  void send_out(net::Packet p);  // filter -> tap -> network
  void handle_tcp(const net::Packet& p);
  void schedule_conn_erase(const ConnKey& key);
  /// Builds a connection in place in a new conns_ node; `hint` is where the
  /// key sorts (see std::map::emplace_hint).
  ConnMap::iterator emplace_conn(ConnMap::const_iterator hint, const ConnKey& key,
                                 bool inbound, std::uint32_t iss);

  Network& net_;
  net::Ipv4 addr_;
  std::string name_;
  std::map<net::Port, AcceptHandler> tcp_listeners_;
  // Declared before conns_, which returns its nodes here on destruction.
  NodeRecycler conn_nodes_;
  // Every connection, including half-open active opens, each stored inside
  // its map node. A SYN_SENT TcpConn carries its own pending ConnectHandler
  // and timeout EventId, so one lookup here resolves a connect's SYN-ACK or
  // RST. The map is ordered: close_all/abort_all emit in key order.
  ConnMap conns_{&conn_nodes_};
  std::map<net::Port, UdpHandler> udp_handlers_;
  IcmpHandler icmp_handler_;
  OutboundFilter filter_;
  InboundRewriter rewriter_;
  HostTap tap_;
  net::Port next_ephemeral_ = 49152;
  std::shared_ptr<const bool> lifetime_ = std::make_shared<const bool>(true);
};

}  // namespace malnet::sim
