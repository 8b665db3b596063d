// sim: scheduler semantics, network delivery, host hooks, TCP machine.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <stdexcept>

#include "sim/network.hpp"
#include "sim/scheduler.hpp"
#include "testkit/alloc_count.hpp"
#include "util/rng.hpp"

using namespace malnet;
using namespace malnet::sim;

// --- scheduler ---------------------------------------------------------------

TEST(Scheduler, ExecutesInTimeOrder) {
  EventScheduler s;
  std::vector<int> order;
  s.after(Duration::seconds(3), [&] { order.push_back(3); });
  s.after(Duration::seconds(1), [&] { order.push_back(1); });
  s.after(Duration::seconds(2), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), SimTime{} + Duration::seconds(3));
}

TEST(Scheduler, EqualTimesFireInInsertionOrder) {
  EventScheduler s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    s.at(SimTime{1000}, [&order, i] { order.push_back(i); });
  }
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, CancelPreventsExecution) {
  EventScheduler s;
  bool fired = false;
  const auto id = s.after(Duration::seconds(1), [&] { fired = true; });
  s.cancel(id);
  s.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Scheduler, CancelIsIdempotentAndIgnoresBogusIds) {
  EventScheduler s;
  const auto id = s.after(Duration::seconds(1), [] {});
  s.cancel(id);
  s.cancel(id);
  s.cancel(9999);
  s.cancel(0);
  EXPECT_EQ(s.run(), 0u);
}

TEST(Scheduler, RunUntilStopsAtBoundary) {
  EventScheduler s;
  int count = 0;
  s.after(Duration::seconds(1), [&] { ++count; });
  s.after(Duration::seconds(5), [&] { ++count; });
  s.run_until(SimTime{} + Duration::seconds(2));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(s.now(), SimTime{} + Duration::seconds(2));
  s.run();
  EXPECT_EQ(count, 2);
}

TEST(Scheduler, RunUntilSkipsCancelledHead) {
  EventScheduler s;
  bool late_fired = false;
  const auto early = s.after(Duration::seconds(1), [] { FAIL(); });
  s.after(Duration::seconds(10), [&] { late_fired = true; });
  s.cancel(early);
  s.run_until(SimTime{} + Duration::seconds(5));
  EXPECT_FALSE(late_fired);
  s.run_until(SimTime{} + Duration::seconds(20));
  EXPECT_TRUE(late_fired);
}

TEST(Scheduler, EventsScheduledDuringExecutionRun) {
  EventScheduler s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) s.after(Duration::seconds(1), recurse);
  };
  s.after(Duration::seconds(1), recurse);
  s.run();
  EXPECT_EQ(depth, 5);
}

TEST(Scheduler, PastTimesClampToNow) {
  EventScheduler s;
  s.run_until(SimTime{} + Duration::seconds(10));
  bool fired = false;
  s.at(SimTime{} + Duration::seconds(1), [&] { fired = true; });
  s.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(s.now(), SimTime{} + Duration::seconds(10));
}

TEST(Scheduler, CancelAfterFireIsNoOp) {
  // Regression: cancelling a fired event used to leave a permanent tombstone
  // and uncount a still-pending event.
  EventScheduler s;
  const auto a = s.after(Duration::seconds(1), [] {});
  EXPECT_EQ(s.run(), 1u);
  bool b_fired = false;
  s.after(Duration::seconds(1), [&] { b_fired = true; });
  s.cancel(a);
  EXPECT_EQ(s.pending(), 1u);
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s.run(), 1u);
  EXPECT_TRUE(b_fired);
}

TEST(Scheduler, RandomScheduleAndCancelMatchesReferenceOrder) {
  // Slot reuse and stale heap keys must not perturb (time, insertion) order.
  EventScheduler s;
  util::Rng rng(7);
  std::vector<std::pair<std::int64_t, int>> expected;  // (time, tag)
  std::vector<std::pair<EventId, int>> live;           // (id, tag)
  std::vector<bool> cancelled(2000);
  std::vector<int> fired;
  for (int i = 0; i < 2000; ++i) {
    if (!live.empty() && rng.chance(0.3)) {
      const auto pick = rng.uniform(0, live.size() - 1);
      s.cancel(live[pick].first);
      cancelled[static_cast<std::size_t>(live[pick].second)] = true;
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      continue;
    }
    const auto t = static_cast<std::int64_t>(rng.uniform(0, 50));
    const auto id = s.at(SimTime{t}, [&fired, i] { fired.push_back(i); });
    live.emplace_back(id, i);
    expected.emplace_back(t, i);
  }
  std::vector<int> want;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& x, const auto& y) { return x.first < y.first; });
  for (const auto& [t, i] : expected) {
    if (!cancelled[static_cast<std::size_t>(i)]) want.push_back(i);
  }
  EXPECT_EQ(s.pending(), want.size());
  EXPECT_EQ(s.run(), want.size());
  EXPECT_EQ(fired, want);
}

namespace {

/// Drives an EventScheduler and a reference model of it, a map ordered by
/// (t, seq), with the same random schedule/cancel stream, and checks every
/// firing against the model's head.
class LaneOrderHarness {
 public:
  EventScheduler s;

  void add() {
    const auto ev = static_cast<int>(ids_.size());
    const auto cb = [this, ev] { fire(ev); };
    std::int64_t t = 0;
    EventId id = 0;
    const double roll = rng_.uniform01();
    if (roll < 0.6) {
      const Duration d = pick_delay();
      t = s.now().us + d.us;
      id = s.after(d, cb);
    } else if (roll < 0.9) {
      t = s.now().us + static_cast<std::int64_t>(rng_.uniform(0, 3'000'000));
      id = s.at(SimTime{t}, cb);
    } else {
      t = s.now().us;  // a negative delay clamps to now
      id = s.after(Duration::micros(-5), cb);
    }
    keys_.emplace_back(t, seq_++);
    model_.emplace(keys_.back(), ev);
    ids_.push_back(id);
    done_.push_back(false);
  }

  /// Cancels a random event ever scheduled: pending, fired or cancelled.
  void cancel_random() {
    if (ids_.empty()) return;
    const auto ev = static_cast<std::size_t>(rng_.uniform(0, ids_.size() - 1));
    s.cancel(ids_[ev]);
    if (!done_[ev]) {
      model_.erase(keys_[ev]);
      done_[ev] = true;
    }
  }

  util::Rng& rng() { return rng_; }
  [[nodiscard]] std::size_t model_pending() const { return model_.size(); }
  [[nodiscard]] std::int64_t model_head_time() const {
    return model_.empty() ? INT64_MAX : model_.begin()->first.first;
  }
  [[nodiscard]] int fired() const { return fired_; }

 private:
  Duration pick_delay() {
    // Three hot delays, then a tail of 12 distinct ones: more than lanes.
    static constexpr std::array<std::int64_t, 3> kHot{0, 100'000, 2'000'000};
    if (rng_.chance(0.7)) return Duration{kHot[rng_.uniform(0, kHot.size() - 1)]};
    return Duration{static_cast<std::int64_t>(rng_.uniform(0, 11)) * 37'000 + 1};
  }

  void fire(int ev) {
    ASSERT_FALSE(model_.empty());
    const auto head = model_.begin();
    ASSERT_EQ(head->second, ev) << "fired out of (t, seq) order";
    EXPECT_EQ(s.now().us, head->first.first);
    model_.erase(head);
    done_[static_cast<std::size_t>(ev)] = true;
    ++fired_;
    // From inside the callback: schedule more, and cancel (maybe itself).
    if (ids_.size() < 6000) {
      for (auto n = rng_.uniform(0, 2); n > 0; --n) add();
    }
    if (rng_.chance(0.25)) cancel_random();
  }

  util::Rng rng_{41};
  std::map<std::pair<std::int64_t, std::uint64_t>, int> model_;  // (t, seq) -> ev
  std::vector<std::pair<std::int64_t, std::uint64_t>> keys_;      // ev -> (t, seq)
  std::vector<EventId> ids_;
  std::vector<bool> done_;  // fired or cancelled
  std::uint64_t seq_ = 0;
  int fired_ = 0;
};

}  // namespace

TEST(Scheduler, FixedDelayLanesKeepReferenceOrder) {
  // Repeated after() delays ride FIFO lanes, the rest (and every at()) the
  // heap. Whichever path a key takes, events fire in exact (t, seq) order,
  // through cancels from outside and inside callbacks and run_until jumps.
  LaneOrderHarness h;
  for (int round = 0; round < 300; ++round) {
    for (auto n = h.rng().uniform(0, 30); n > 0; --n) h.add();
    for (auto n = h.rng().uniform(0, 5); n > 0; --n) h.cancel_random();
    if (h.rng().chance(0.5)) {
      const SimTime until =
          h.s.now() + Duration{static_cast<std::int64_t>(h.rng().uniform(0, 2'500'000))};
      h.s.run_until(until);
      EXPECT_EQ(h.s.now(), until);
      EXPECT_GT(h.model_head_time(), until.us);
    } else {
      h.s.run(static_cast<std::size_t>(h.rng().uniform(0, 40)));
    }
    ASSERT_EQ(h.s.pending(), h.model_pending()) << "round " << round;
  }
  h.s.run();
  EXPECT_EQ(h.model_pending(), 0u);
  EXPECT_EQ(h.s.pending(), 0u);
  EXPECT_GT(h.fired(), 3000);
}

// --- scheduler: callback lifetime ---------------------------------------------

namespace {

/// Counts live copies of itself, so a test can see every construction
/// matched by exactly one destruction. `Pad` pushes it past the inline
/// buffer to exercise the heap-stored path.
template <std::size_t Pad>
struct Counted {
  explicit Counted(int& live) : live_(&live) { ++*live_; }
  Counted(const Counted& o) : live_(o.live_) { ++*live_; }
  Counted(Counted&& o) noexcept : live_(o.live_) { ++*live_; }
  Counted& operator=(const Counted&) = delete;
  ~Counted() { --*live_; }
  void operator()() const {}
  int* live_;
  std::array<char, Pad> pad_{};
};

template <typename F>
void expect_destroyed_once_per_path() {
  {  // fired
    int live = 0;
    EventScheduler s;
    s.after(Duration::seconds(1), F(live));
    EXPECT_EQ(live, 1);
    s.run();
    EXPECT_EQ(live, 0);
  }
  {  // cancelled: captures go at cancel time, not when the key surfaces
    int live = 0;
    EventScheduler s;
    const auto id = s.after(Duration::seconds(1), F(live));
    s.cancel(id);
    EXPECT_EQ(live, 0);
    s.cancel(id);
    s.run();
    EXPECT_EQ(live, 0);
  }
  {  // still pending when the scheduler dies
    int live = 0;
    {
      EventScheduler s;
      s.after(Duration::seconds(1), F(live));
      s.after(Duration::seconds(2), F(live));
      EXPECT_EQ(live, 2);
    }
    EXPECT_EQ(live, 0);
  }
}

}  // namespace

TEST(Scheduler, InlineCallbackDestroyedExactlyOnce) {
  static_assert(EventScheduler::stores_inline<Counted<8>>);
  expect_destroyed_once_per_path<Counted<8>>();
}

TEST(Scheduler, OversizedCallbackDestroyedExactlyOnce) {
  static_assert(!EventScheduler::stores_inline<Counted<256>>);
  expect_destroyed_once_per_path<Counted<256>>();
}

TEST(Scheduler, MoveOnlyAndOversizedCapturesRun) {
  EventScheduler s;
  int got = 0;
  s.after(Duration::seconds(1),
          [p = std::make_unique<int>(7), &got] { got += *p; });
  std::array<std::uint64_t, 32> big{};
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = i;
  auto sum_big = [big, &got] {
    for (const auto v : big) got += static_cast<int>(v);
  };
  static_assert(!EventScheduler::stores_inline<decltype(sum_big)>);
  s.after(Duration::seconds(2), sum_big);
  std::function<void()> wrapped = [&got] { got += 1000; };
  s.after(Duration::seconds(3), wrapped);
  s.run();
  EXPECT_EQ(got, 7 + 31 * 32 / 2 + 1000);
}

TEST(Scheduler, SelfCancelInsideCallbackIsNoOp) {
  EventScheduler s;
  EventId self = 0;
  std::string seen;
  int later = 0;
  self = s.after(Duration::seconds(1), [&, capture = std::string("alive")] {
    s.cancel(self);
    EXPECT_EQ(s.pending(), 1u);
    seen = capture;  // the running closure survives its own cancel
  });
  s.after(Duration::seconds(2), [&] { ++later; });
  EXPECT_EQ(s.run(), 2u);
  EXPECT_EQ(seen, "alive");
  EXPECT_EQ(later, 1);
}

TEST(Scheduler, ThrowingCallbackLeavesSchedulerUsable) {
  EventScheduler s;
  int live = 0;
  bool next_fired = false;
  s.after(Duration::seconds(1), [c = Counted<8>(live)] {
    c();
    throw std::runtime_error("sample failed");
  });
  s.after(Duration::seconds(2), [&] { next_fired = true; });
  EXPECT_THROW(s.run(), std::runtime_error);
  EXPECT_EQ(live, 0);
  EXPECT_EQ(s.pending(), 1u);
  EXPECT_EQ(s.run(), 1u);
  EXPECT_TRUE(next_fired);
}

// --- network -----------------------------------------------------------------

namespace {
struct TestWorld {
  EventScheduler sched;
  Network net{sched};
};
}  // namespace

TEST(Network, DuplicateAddressThrows) {
  TestWorld w;
  Host a(w.net, net::Ipv4{10, 0, 0, 1});
  EXPECT_THROW(Host(w.net, net::Ipv4{10, 0, 0, 1}), std::logic_error);
}

TEST(Network, DetachOnDestruction) {
  TestWorld w;
  {
    Host a(w.net, net::Ipv4{10, 0, 0, 1});
    EXPECT_EQ(w.net.host_count(), 1u);
  }
  EXPECT_EQ(w.net.host_count(), 0u);
  Host b(w.net, net::Ipv4{10, 0, 0, 1});  // address is reusable
  EXPECT_EQ(w.net.host_count(), 1u);
}

TEST(Network, LatencyIsDeterministicAndBounded) {
  TestWorld w;
  const net::Ipv4 a{1, 1, 1, 1}, b{2, 2, 2, 2};
  const auto l1 = w.net.latency(a, b);
  const auto l2 = w.net.latency(a, b);
  EXPECT_EQ(l1.us, l2.us);
  EXPECT_GE(l1.us, Duration::millis(5).us);
  EXPECT_LE(l1.us, Duration::millis(120).us);
}

TEST(Network, UdpDelivery) {
  TestWorld w;
  Host a(w.net, net::Ipv4{10, 0, 0, 1});
  Host b(w.net, net::Ipv4{10, 0, 0, 2});
  std::string got;
  b.udp_bind(5000, [&](const net::Packet& p) { got = util::to_string(p.payload); });
  a.udp_send({b.addr(), 5000}, util::to_bytes("ping"));
  w.sched.run();
  EXPECT_EQ(got, "ping");
}

TEST(Network, UdpToUnboundPortIsDropped) {
  TestWorld w;
  Host a(w.net, net::Ipv4{10, 0, 0, 1});
  Host b(w.net, net::Ipv4{10, 0, 0, 2});
  a.udp_send({b.addr(), 1234}, util::to_bytes("x"));
  w.sched.run();
  EXPECT_EQ(w.net.packets_delivered(), 1u);  // delivered to host, then dropped
}

TEST(Network, DarkAddressSwallowsPackets) {
  TestWorld w;
  Host a(w.net, net::Ipv4{10, 0, 0, 1});
  a.udp_send({net::Ipv4{99, 99, 99, 99}, 1}, util::to_bytes("x"));
  w.sched.run();
  EXPECT_EQ(w.net.packets_transmitted(), 1u);
  EXPECT_EQ(w.net.packets_delivered(), 0u);
}

TEST(Network, FifoPerPair) {
  TestWorld w;
  Host a(w.net, net::Ipv4{10, 0, 0, 1});
  Host b(w.net, net::Ipv4{10, 0, 0, 2});
  std::vector<int> got;
  b.udp_bind(1, [&](const net::Packet& p) { got.push_back(p.payload[0]); });
  for (int i = 0; i < 10; ++i) {
    a.udp_send({b.addr(), 1}, util::Bytes{static_cast<std::uint8_t>(i)});
  }
  w.sched.run();
  ASSERT_EQ(got.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
}

TEST(Network, IcmpHandler) {
  TestWorld w;
  Host a(w.net, net::Ipv4{10, 0, 0, 1});
  Host b(w.net, net::Ipv4{10, 0, 0, 2});
  int type = -1;
  b.set_icmp_handler([&](const net::Packet& p) { type = p.icmp.type; });
  a.icmp_send(b.addr(), 3, 3);
  w.sched.run();
  EXPECT_EQ(type, 3);
}

TEST(Network, GlobalTapSeesTransmits) {
  TestWorld w;
  int tapped = 0;
  w.net.set_global_tap([&](const net::Packet&) { ++tapped; });
  Host a(w.net, net::Ipv4{10, 0, 0, 1});
  a.udp_send({net::Ipv4{99, 0, 0, 1}, 1}, util::to_bytes("x"));
  w.sched.run();
  EXPECT_EQ(tapped, 1);
}

TEST(Host, TapSeesDroppedOutbound) {
  TestWorld w;
  Host a(w.net, net::Ipv4{10, 0, 0, 1});
  int taps = 0;
  a.set_tap([&](const net::Packet&, bool outbound) { taps += outbound ? 1 : 0; });
  a.set_outbound_filter([](net::Packet&) { return false; });  // drop all
  a.udp_send({net::Ipv4{99, 0, 0, 1}, 1}, util::to_bytes("x"));
  w.sched.run();
  EXPECT_EQ(taps, 1);
  EXPECT_EQ(w.net.packets_transmitted(), 0u);
}

TEST(Host, OutboundFilterCanRewriteDestination) {
  TestWorld w;
  Host a(w.net, net::Ipv4{10, 0, 0, 1});
  Host b(w.net, net::Ipv4{10, 0, 0, 2});
  bool got = false;
  b.udp_bind(7, [&](const net::Packet&) { got = true; });
  a.set_outbound_filter([&](net::Packet& p) {
    p.dst = b.addr();  // DNAT
    return true;
  });
  a.udp_send({net::Ipv4{99, 0, 0, 1}, 7}, util::to_bytes("x"));
  w.sched.run();
  EXPECT_TRUE(got);
}

TEST(Host, EphemeralPortsSkipBoundOnes) {
  TestWorld w;
  Host a(w.net, net::Ipv4{10, 0, 0, 1});
  a.udp_bind(49152, [](const net::Packet&) {});
  const auto p = a.alloc_ephemeral_port();
  EXPECT_NE(p, 49152);
  EXPECT_GE(p, 49152);
}

// --- TCP ---------------------------------------------------------------------

TEST(Tcp, HandshakeAndData) {
  TestWorld w;
  Host server(w.net, net::Ipv4{10, 0, 0, 1});
  Host client(w.net, net::Ipv4{10, 0, 0, 2});

  std::string server_got, client_got;
  server.tcp_listen(80, [&](TcpConn& conn) {
    conn.on_data([&](TcpConn& c, util::BytesView d) {
      server_got = util::to_string(d);
      c.send(std::string_view("pong"));
    });
  });
  TcpConn* client_conn = nullptr;
  client.tcp_connect({server.addr(), 80}, [&](ConnectOutcome o, TcpConn* c) {
    ASSERT_EQ(o, ConnectOutcome::kConnected);
    client_conn = c;
    c->on_data([&](TcpConn&, util::BytesView d) { client_got = util::to_string(d); });
    c->send(std::string_view("ping"));
  });
  w.sched.run();
  EXPECT_EQ(server_got, "ping");
  EXPECT_EQ(client_got, "pong");
  ASSERT_NE(client_conn, nullptr);
  EXPECT_TRUE(client_conn->established());
  EXPECT_EQ(client_conn->bytes_sent(), 4u);
  EXPECT_EQ(client_conn->bytes_received(), 4u);
}

TEST(Tcp, RefusedWhenNotListening) {
  TestWorld w;
  Host server(w.net, net::Ipv4{10, 0, 0, 1});
  Host client(w.net, net::Ipv4{10, 0, 0, 2});
  ConnectOutcome outcome{};
  client.tcp_connect({server.addr(), 81},
                     [&](ConnectOutcome o, TcpConn*) { outcome = o; });
  w.sched.run();
  EXPECT_EQ(outcome, ConnectOutcome::kRefused);
}

TEST(Tcp, TimeoutOnDarkAddress) {
  TestWorld w;
  Host client(w.net, net::Ipv4{10, 0, 0, 2});
  ConnectOutcome outcome{};
  client.tcp_connect({net::Ipv4{66, 0, 0, 1}, 80},
                     [&](ConnectOutcome o, TcpConn*) { outcome = o; },
                     Duration::seconds(2));
  w.sched.run();
  EXPECT_EQ(outcome, ConnectOutcome::kTimeout);
  EXPECT_EQ(client.open_connections(), 0u);
}

TEST(Tcp, ConnectOutcomeFiresExactlyOnce) {
  TestWorld w;
  Host server(w.net, net::Ipv4{10, 0, 0, 1});
  Host client(w.net, net::Ipv4{10, 0, 0, 2});
  Host aborter(w.net, net::Ipv4{10, 0, 0, 3});
  server.tcp_listen(80, [](TcpConn&) {});
  using Calls = std::vector<std::pair<ConnectOutcome, SimTime>>;
  const auto record = [&w](Calls& calls) {
    return [&w, &calls](ConnectOutcome o, TcpConn*) {
      calls.emplace_back(o, w.sched.now());
    };
  };
  const SimTime deadline = SimTime{} + Duration::seconds(2);
  Calls connected, refused, dark, aborted, aborted_slow;
  client.tcp_connect({server.addr(), 80}, record(connected), Duration::seconds(2));
  client.tcp_connect({server.addr(), 81}, record(refused), Duration::seconds(2));
  client.tcp_connect({net::Ipv4{66, 0, 0, 1}, 80}, record(dark), Duration::seconds(2));
  // Aborted in SYN_SENT: the late SYN-ACK must not report kConnected, and
  // the outcome is still the timeout, at the timeout.
  aborter.tcp_connect({server.addr(), 80}, record(aborted), Duration::seconds(2));
  // A timeout beyond the 60 s reaping of closed connections still reports.
  aborter.tcp_connect({server.addr(), 80}, record(aborted_slow),
                      Duration::seconds(90));
  aborter.abort_all_connections();
  w.sched.run();  // past every timeout and deferred connection erase

  ASSERT_EQ(connected.size(), 1u);
  EXPECT_EQ(connected[0].first, ConnectOutcome::kConnected);
  EXPECT_LT(connected[0].second, deadline);
  ASSERT_EQ(refused.size(), 1u);
  EXPECT_EQ(refused[0].first, ConnectOutcome::kRefused);
  EXPECT_LT(refused[0].second, deadline);
  ASSERT_EQ(dark.size(), 1u);
  EXPECT_EQ(dark[0], std::make_pair(ConnectOutcome::kTimeout, deadline));
  ASSERT_EQ(aborted.size(), 1u);
  EXPECT_EQ(aborted[0], std::make_pair(ConnectOutcome::kTimeout, deadline));
  ASSERT_EQ(aborted_slow.size(), 1u);
  EXPECT_EQ(aborted_slow[0], std::make_pair(ConnectOutcome::kTimeout,
                                            SimTime{} + Duration::seconds(90)));
  // The connected session outlived its cancelled timeout; the refused one
  // was reaped after close, the dark and aborted ones at their timeouts.
  EXPECT_EQ(client.open_connections(), 1u);
  EXPECT_EQ(aborter.open_connections(), 0u);
}

TEST(Tcp, HostDestroyedWithPendingDarkConnectsFiresNoHandler) {
  TestWorld w;
  int fired = 0;
  const auto token = std::make_shared<int>(0);
  {
    Host scout(w.net, net::Ipv4{10, 0, 0, 9});
    for (std::uint32_t i = 0; i < 300; ++i) {
      scout.tcp_connect({net::Ipv4{0x42000000u + i}, 23},
                        [&fired, token](ConnectOutcome, TcpConn*) { ++fired; },
                        Duration::seconds(2));
    }
    EXPECT_EQ(scout.open_connections(), 300u);
    EXPECT_EQ(token.use_count(), 301);
    w.sched.run_until(SimTime{} + Duration::seconds(1));
  }
  // The handlers and their captures went with the host. The timeouts still
  // fire as events, but find the host gone.
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(w.sched.run(), 300u);
  EXPECT_EQ(fired, 0);
}

TEST(Tcp, DarkConnectsRecycleConnectionNodes) {
  // The first wave's timeouts return its 600 connection nodes to the
  // host's free list, and the second wave reuses them without one heap
  // allocation. Ports and outcomes are as without recycling.
  TestWorld w;
  Host scout(w.net, net::Ipv4{10, 0, 0, 9});
  std::vector<net::Port> ports;
  ports.reserve(2000);
  w.net.set_global_tap([&ports](const net::Packet& p) { ports.push_back(p.src_port); });
  int timeouts = 0;
  const auto wave = [&](std::uint32_t first_dark) {
    for (std::uint32_t i = 0; i < 600; ++i) {
      scout.tcp_connect({net::Ipv4{first_dark + i}, 23},
                        [&timeouts](ConnectOutcome o, TcpConn* c) {
                          timeouts += o == ConnectOutcome::kTimeout && c == nullptr;
                        },
                        Duration::seconds(2));
    }
    EXPECT_EQ(scout.open_connections(), 600u);
    w.sched.run();
  };
  wave(0x42000000u);
  EXPECT_EQ(timeouts, 600);
  const auto allocations_before = testkit::allocations();
  wave(0x43000000u);
  EXPECT_EQ(testkit::allocations() - allocations_before, 0u);
  EXPECT_EQ(timeouts, 1200);
  EXPECT_EQ(scout.open_connections(), 0u);
  ASSERT_EQ(ports.size(), 1200u);
  for (std::size_t i = 0; i < ports.size(); ++i) {
    ASSERT_EQ(ports[i], 49152 + i) << "SYN " << i;
  }
}

TEST(Tcp, CloseNotifiesPeer) {
  TestWorld w;
  Host server(w.net, net::Ipv4{10, 0, 0, 1});
  Host client(w.net, net::Ipv4{10, 0, 0, 2});
  bool server_closed = false;
  server.tcp_listen(80, [&](TcpConn& conn) {
    conn.on_close([&](TcpConn&) { server_closed = true; });
  });
  client.tcp_connect({server.addr(), 80}, [&](ConnectOutcome o, TcpConn* c) {
    ASSERT_EQ(o, ConnectOutcome::kConnected);
    c->close();
  });
  w.sched.run();
  EXPECT_TRUE(server_closed);
}

TEST(Tcp, ResetNotifiesPeer) {
  TestWorld w;
  Host server(w.net, net::Ipv4{10, 0, 0, 1});
  Host client(w.net, net::Ipv4{10, 0, 0, 2});
  bool server_closed = false;
  server.tcp_listen(80, [&](TcpConn& conn) {
    conn.on_close([&](TcpConn&) { server_closed = true; });
  });
  client.tcp_connect({server.addr(), 80}, [&](ConnectOutcome o, TcpConn* c) {
    ASSERT_EQ(o, ConnectOutcome::kConnected);
    c->reset();
  });
  w.sched.run();
  EXPECT_TRUE(server_closed);
}

TEST(Tcp, ListenerRemovedBetweenSynAckAndAckRefuses) {
  // Regression: a C2 toggling its listener off mid-handshake must RST the
  // half-accepted connection, not leave a silent handler-less session.
  TestWorld w;
  Host server(w.net, net::Ipv4{10, 0, 0, 1});
  Host client(w.net, net::Ipv4{10, 0, 0, 2});
  server.tcp_listen(80, [&](TcpConn&) { FAIL() << "accept must not fire"; });

  bool client_saw_close = false;
  client.tcp_connect({server.addr(), 80}, [&](ConnectOutcome o, TcpConn* c) {
    // The client completes the handshake first...
    ASSERT_EQ(o, ConnectOutcome::kConnected);
    c->on_close([&](TcpConn&) { client_saw_close = true; });
  });
  // Unlisten exactly after the SYN-ACK leaves but before the ACK arrives:
  // run only until the SYN has been delivered to the server.
  w.sched.run(2);  // SYN transmit event + server delivery (sends SYN-ACK)
  server.tcp_unlisten(80);
  w.sched.run();
  EXPECT_TRUE(client_saw_close);
}

TEST(Tcp, InboundFlagAndEndpoints) {
  TestWorld w;
  Host server(w.net, net::Ipv4{10, 0, 0, 1});
  Host client(w.net, net::Ipv4{10, 0, 0, 2});
  server.tcp_listen(80, [&](TcpConn& conn) {
    EXPECT_TRUE(conn.inbound());
    EXPECT_EQ(conn.local().ip, server.addr());
    EXPECT_EQ(conn.remote().ip, client.addr());
  });
  client.tcp_connect({server.addr(), 80}, [&](ConnectOutcome, TcpConn* c) {
    ASSERT_NE(c, nullptr);
    EXPECT_FALSE(c->inbound());
  });
  w.sched.run();
}

TEST(Tcp, CloseAllConnections) {
  TestWorld w;
  Host server(w.net, net::Ipv4{10, 0, 0, 1});
  Host client(w.net, net::Ipv4{10, 0, 0, 2});
  int server_closes = 0;
  server.tcp_listen(80, [&](TcpConn& conn) {
    conn.on_close([&](TcpConn&) { ++server_closes; });
  });
  for (int i = 0; i < 3; ++i) {
    client.tcp_connect({server.addr(), 80}, [](ConnectOutcome, TcpConn*) {});
  }
  w.sched.run();
  client.close_all_connections();
  w.sched.run();
  EXPECT_EQ(server_closes, 3);
}

TEST(Tcp, InboundRewriterRestoresAddresses) {
  // Simulate the sandbox NAT: client sends to X, filter rewrites to B, the
  // inbound rewriter restores B's replies to X so the client's TCP state
  // machine matches.
  TestWorld w;
  Host server(w.net, net::Ipv4{10, 0, 0, 2});
  Host client(w.net, net::Ipv4{10, 0, 0, 3});
  const net::Ipv4 phantom{99, 0, 0, 9};
  server.tcp_listen(23, [](TcpConn& conn) { conn.send(std::string_view("hi")); });
  client.set_outbound_filter([&](net::Packet& p) {
    if (p.dst == phantom) p.dst = server.addr();
    return true;
  });
  client.set_inbound_rewriter([&](net::Packet& p) {
    if (p.src == server.addr()) p.src = phantom;
  });
  std::string got;
  client.tcp_connect({phantom, 23}, [&](ConnectOutcome o, TcpConn* c) {
    ASSERT_EQ(o, ConnectOutcome::kConnected);
    c->on_data([&](TcpConn&, util::BytesView d) { got = util::to_string(d); });
  });
  w.sched.run();
  EXPECT_EQ(got, "hi");
}

TEST(Network, PacketLossDropsConfiguredFraction) {
  EventScheduler sched;
  NetworkConfig cfg;
  cfg.loss = 0.3;
  Network net(sched, cfg);
  Host a(net, net::Ipv4{10, 0, 0, 1});
  Host b(net, net::Ipv4{10, 0, 0, 2});
  int got = 0;
  b.udp_bind(9, [&](const net::Packet&) { ++got; });
  for (int i = 0; i < 2000; ++i) {
    a.udp_send({b.addr(), 9}, util::to_bytes("x"));
  }
  sched.run();
  EXPECT_NEAR(static_cast<double>(got) / 2000.0, 0.7, 0.05);
  EXPECT_EQ(net.packets_lost() + static_cast<std::uint64_t>(got), 2000u);
}

TEST(Network, RejectsInvalidLoss) {
  EventScheduler sched;
  NetworkConfig cfg;
  cfg.loss = 1.0;
  EXPECT_THROW(Network(sched, cfg), std::invalid_argument);
}
