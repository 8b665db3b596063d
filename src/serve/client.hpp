// malnet::serve client — the library side of the wire protocol.
//
// Blocking, single-connection, pipelining-capable. Connection establishment
// follows the dns::Resolver retry discipline: a bounded per-attempt timeout
// plus `max_retries` re-attempts with exponential backoff, so transient
// listen-queue overflow under a 1024-client stampede is retried instead of
// surfaced. Every read and write after that is poll()-bounded by
// `io_timeout_ms` — a hung server costs the caller a timeout, never a hang.
//
// Two usage shapes:
//   * query(text)          — send one request, wait for its answer
//     (request/response, what `malnetctl query --connect` uses);
//   * send(text) ... recv()— explicit pipelining: write any number of
//     requests, then collect responses in order (the bench load generator).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "serve/wire.hpp"
#include "util/socket.hpp"

namespace malnet::serve {

struct ClientOptions {
  int connect_timeout_ms = 2'000;
  /// Bound on each send/recv wait (not on a whole pipelined burst).
  int io_timeout_ms = 10'000;
  /// Connect re-attempts after the first failure (0 = single shot).
  int max_retries = 2;
  /// First retry waits this long; each further retry doubles it.
  int backoff_ms = 100;
};

/// Opens a TCP connection with `opts`' per-attempt timeout, retries and
/// doubling backoff. Invalid when every attempt failed.
[[nodiscard]] util::Fd connect_with_backoff(const std::string& host, std::uint16_t port,
                                            const ClientOptions& opts);

class Client {
 public:
  Client() = default;

  /// Connects (with retry/backoff per `opts`). False when every attempt
  /// failed; the client stays unconnected and is safe to reuse.
  [[nodiscard]] bool connect(const std::string& host, std::uint16_t port,
                             ClientOptions opts = {});

  [[nodiscard]] bool connected() const { return fd_.valid(); }
  void close();

  /// Writes one request frame; returns its id (0 on I/O failure — ids
  /// start at 1). Does not wait for the answer: callers may pipeline.
  [[nodiscard]] std::uint64_t send(std::string_view query);

  /// Next response in pipeline order. Nullopt on timeout, peer close, or a
  /// malformed frame (the connection is closed in every failure case).
  [[nodiscard]] std::optional<Response> recv();

  /// send + recv, checking the echoed id. Nullopt on any failure.
  [[nodiscard]] std::optional<std::string> query(std::string_view q);

  /// Stamps every subsequent request with this trace id and a fresh span
  /// id (MQR2 framing, DESIGN.md §15). 0 reverts to untraced MQR1 frames.
  void set_trace(std::uint64_t trace_id) { trace_id_ = trace_id; }
  [[nodiscard]] std::uint64_t trace_id() const { return trace_id_; }
  /// Span id stamped on the most recent send().
  [[nodiscard]] std::uint64_t last_span_id() const { return last_span_id_; }

 private:
  util::Fd fd_;
  ClientOptions opts_;
  FrameReader reader_;
  std::uint64_t next_id_ = 1;
  std::uint64_t trace_id_ = 0;
  std::uint64_t last_span_id_ = 0;
};

}  // namespace malnet::serve
