// Simplified-but-stateful TCP connection machine.
//
// Models what a network-level malware study observes: the three-way
// handshake (the "handshaker" trick of §2.4 hinges on completing it),
// PSH/ACK data segments, FIN teardown and RST refusal. Retransmission and
// windowing are out of scope; the default network delivers in order and
// does not drop packets (server elusiveness is modelled at the application
// layer, where the paper observed it). Under fault injection
// (malnet::faultsim) segments can be duplicated or reordered, so receive
// processing validates sequence numbers: stale duplicates are dropped and
// a one-deep buffer absorbs single-segment reordering.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "net/packet.hpp"
#include "sim/scheduler.hpp"
#include "util/bytes.hpp"
#include "util/simtime.hpp"

namespace malnet::sim {

class Host;

/// Result of a connect attempt, surfaced to the ConnectHandler.
enum class ConnectOutcome {
  kConnected,  // three-way handshake completed
  kRefused,    // peer answered RST (port closed / service declined)
  kTimeout,    // no answer at all (dark address or dead host)
};

[[nodiscard]] std::string to_string(ConnectOutcome o);

class TcpConn;
using ConnectHandler = std::function<void(ConnectOutcome, TcpConn*)>;

/// One TCP connection endpoint. Owned by its Host, which builds it in place
/// inside its connection-map node; user code holds a non-owning pointer
/// which stays valid until shortly after on_close fires.
class TcpConn {
 public:
  enum class State { kSynSent, kSynRcvd, kEstablished, kClosed };

  /// Only Host can make one, so only Host constructs connections (the map
  /// node's allocator needs a public constructor to call).
  class Token {
    friend class Host;
    Token() = default;
  };
  TcpConn(Token, Host& host, net::Endpoint local, net::Endpoint remote, bool inbound,
          std::uint32_t iss);

  using DataHandler = std::function<void(TcpConn&, util::BytesView)>;
  using CloseHandler = std::function<void(TcpConn&)>;

  TcpConn(const TcpConn&) = delete;
  TcpConn& operator=(const TcpConn&) = delete;

  /// Sends application data (PSH/ACK segment). No-op if not established.
  void send(util::BytesView data);
  void send(std::string_view data);

  /// Polite close: sends FIN. The peer's on_close fires when it arrives.
  void close();

  /// Abortive close: sends RST.
  void reset();

  void on_data(DataHandler h) { on_data_ = std::move(h); }
  void on_close(CloseHandler h) { on_close_ = std::move(h); }

  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] bool established() const { return state_ == State::kEstablished; }
  [[nodiscard]] net::Endpoint local() const { return local_; }
  [[nodiscard]] net::Endpoint remote() const { return remote_; }
  /// True if this side accepted the connection (passive open).
  [[nodiscard]] bool inbound() const { return inbound_; }
  /// Total application bytes received on this connection.
  [[nodiscard]] std::uint64_t bytes_received() const { return bytes_rx_; }
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_tx_; }

 private:
  friend class Host;

  void handle(const net::Packet& p);  // driven by Host::deliver
  void emit(net::TcpFlags flags, util::BytesView payload = {});
  void become_closed(bool notify);

  Host& host_;
  net::Endpoint local_;
  net::Endpoint remote_;
  bool inbound_;
  State state_;
  std::uint32_t snd_next_;
  std::uint32_t rcv_next_ = 0;
  /// One-deep reorder buffer: a sequence-consuming segment that arrived
  /// ahead of rcv_next_ waits here until the gap closes. Stale duplicates
  /// (seq behind rcv_next_) are dropped outright — see handle().
  std::optional<net::Packet> ooo_buffer_;
  bool fin_sent_ = false;
  std::uint64_t bytes_rx_ = 0;
  std::uint64_t bytes_tx_ = 0;
  DataHandler on_data_;
  CloseHandler on_close_;
  /// Pending active open (SYN_SENT): the handler that has not fired yet
  /// and the timeout that fires it with kTimeout. A SYN-ACK or RST resolves
  /// both through Host's conns_ lookup, the timeout through the map iterator
  /// it holds; the handler is empty once the outcome is reported.
  /// A handler capturing at most two pointers' worth of trivially copyable
  /// state is stored inside the std::function, without a heap block.
  ConnectHandler on_connect_;
  EventId connect_timeout_ = 0;
};

}  // namespace malnet::sim
