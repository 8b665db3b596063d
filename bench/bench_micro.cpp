// google-benchmark microbenchmarks for the substrate hot paths: the event
// scheduler, packet wire serialization, protocol codecs, the sandbox's
// contained flood path and the RNG. Links malnet_alloc_count, so heap
// allocations can be counted per item.
#include <benchmark/benchmark.h>

#include "botnet/c2server.hpp"
#include "emu/sandbox.hpp"
#include "mal/binary.hpp"
#include "net/packet.hpp"
#include "profile/wire.hpp"
#include "sim/network.hpp"
#include "sim/scheduler.hpp"
#include "testkit/alloc_count.hpp"
#include "util/rng.hpp"

using namespace malnet;

static void BM_SchedulerChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventScheduler sched;
    const auto n = state.range(0);
    for (std::int64_t i = 0; i < n; ++i) {
      sched.after(sim::Duration::micros(i % 1000), [] {});
    }
    benchmark::DoNotOptimize(sched.run());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SchedulerChurn)->Arg(1000)->Arg(10000);

static void BM_DarkConnectTimeout(benchmark::State& state) {
  // The probe campaign's common case as a layer number: a SYN into dark
  // address space whose only event is the 2 s connect timeout.
  const auto n = state.range(0);
  for (auto _ : state) {
    sim::EventScheduler sched;
    sim::Network net(sched);
    sim::Host scout(net, net::Ipv4{10, 0, 0, 1});
    std::int64_t timeouts = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      const net::Ipv4 dark{0x42000000u + static_cast<std::uint32_t>(i)};
      scout.tcp_connect(
          {dark, 23},
          [&timeouts](sim::ConnectOutcome o, sim::TcpConn*) {
            timeouts += o == sim::ConnectOutcome::kTimeout ? 1 : 0;
          },
          sim::Duration::seconds(2));
    }
    benchmark::DoNotOptimize(sched.run());
    benchmark::DoNotOptimize(timeouts);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DarkConnectTimeout)->Arg(1000)->Arg(10000);

static void BM_DarkProbeSweep(benchmark::State& state) {
  // The D-PC2 scout's cadence: 13 connects into dark space every 100 ms,
  // each with a 2 s timeout, so about 260 are pending at once. One
  // iteration is one batch plus 100 ms of simulated time. After a warm-up
  // past the first timeouts, a probe should not touch the heap.
  constexpr int kBatch = 13;
  sim::EventScheduler sched;
  sim::Network net(sched);
  sim::Host scout(net, net::Ipv4{192, 0, 2, 9});
  std::uint32_t next_dark = 0x42000000u;
  std::int64_t timeouts = 0;
  const auto sweep = [&] {
    for (int i = 0; i < kBatch; ++i) {
      scout.tcp_connect(
          {net::Ipv4{next_dark++}, 23},
          [&timeouts](sim::ConnectOutcome o, sim::TcpConn*) {
            timeouts += o == sim::ConnectOutcome::kTimeout ? 1 : 0;
          },
          sim::Duration::seconds(2));
    }
    sched.run_until(sched.now() + sim::Duration::millis(100));
  };
  for (int i = 0; i < 40; ++i) sweep();
  const auto allocations = testkit::allocations();
  for (auto _ : state) sweep();
  const auto probes = state.iterations() * kBatch;
  state.counters["allocs_per_probe"] =
      static_cast<double>(testkit::allocations() - allocations) /
      static_cast<double>(probes);
  state.SetItemsProcessed(probes);
  benchmark::DoNotOptimize(timeouts);
}
BENCHMARK(BM_DarkProbeSweep);

static void BM_SandboxLiveFlood(benchmark::State& state) {
  // The 2 h DDoS watch's common case: a bot in a live-mode sandbox run
  // floods a victim, and every packet is tapped into the capture and
  // dropped by the containment policy. One iteration is one 100 ms burst,
  // 20 packets at the sandbox's default 200 pps. The payload and the
  // capture copy are a packet's only allocations.
  constexpr int kPacketsPerBurst = 20;
  sim::EventScheduler sched;
  sim::Network net(sched);
  emu::Sandbox sandbox(net);
  botnet::C2ServerConfig cfg;
  cfg.family = proto::Family::kMirai;
  cfg.ip = net::Ipv4{60, 1, 1, 1};
  cfg.port = 23;
  cfg.accept_prob = 1.0;
  proto::AttackCommand flood;
  flood.type = proto::AttackType::kVse;
  flood.target = {net::Ipv4{7, 7, 7, 7}, 27015};
  flood.duration_s = 3600;
  cfg.attack_plan = {flood};
  botnet::C2Server server(net, cfg, util::Rng(10));

  mal::MbfBinary bin;
  bin.behavior.family = proto::Family::kMirai;
  bin.behavior.c2_ip = cfg.ip;
  bin.behavior.c2_port = cfg.port;
  bin.behavior.bot_id = "bench";
  util::Rng rng(11);
  emu::SandboxOptions opts;
  opts.mode = emu::SandboxMode::kLive;
  opts.duration = sim::Duration::hours(2);
  opts.allowed_c2 = net::Endpoint{cfg.ip, cfg.port};
  opts.attack_cap = sim::Duration::hours(1);
  sandbox.start(mal::forge(bin, rng), opts, [](const emu::SandboxReport&) {});
  while (server.commands_issued() == 0) sched.run_until(sched.now() + sim::Duration::seconds(1));
  sched.run_until(sched.now() + sim::Duration::seconds(2));  // flood under way

  const auto allocations = testkit::allocations();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched.run_until(sched.now() + sim::Duration::millis(100)));
  }
  const auto packets = state.iterations() * kPacketsPerBurst;
  state.counters["allocs_per_packet"] =
      static_cast<double>(testkit::allocations() - allocations) /
      static_cast<double>(packets);
  state.SetItemsProcessed(packets);
}
// Fixed, so the capture stays below its cap and every packet is recorded.
BENCHMARK(BM_SandboxLiveFlood)->Iterations(2000);

static void BM_PacketWireRoundTrip(benchmark::State& state) {
  net::Packet p;
  p.src = net::Ipv4{10, 0, 0, 1};
  p.dst = net::Ipv4{10, 0, 0, 2};
  p.proto = net::Protocol::kTcp;
  p.src_port = 49152;
  p.dst_port = 23;
  p.payload = util::Bytes(static_cast<std::size_t>(state.range(0)), 0x41);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::from_wire(net::to_wire(p)));
  }
  state.SetBytesProcessed(state.iterations() * (20 + 20 + state.range(0)));
}
BENCHMARK(BM_PacketWireRoundTrip)->Arg(1)->Arg(128)->Arg(1400);

static void BM_MiraiAttackCodec(benchmark::State& state) {
  proto::AttackCommand cmd;
  cmd.type = proto::AttackType::kSynFlood;
  cmd.target = {net::Ipv4{203, 0, 113, 9}, 443};
  cmd.duration_s = 60;
  const auto p = profile::builtin_profile(proto::Family::kMirai);
  for (auto _ : state) {
    benchmark::DoNotOptimize(profile::wire::decode_binary_attack(
        p, profile::wire::encode_binary_attack(p, cmd)));
  }
}
BENCHMARK(BM_MiraiAttackCodec);

static void BM_GafgytAttackCodec(benchmark::State& state) {
  proto::AttackCommand cmd;
  cmd.type = proto::AttackType::kUdpFlood;
  cmd.target = {net::Ipv4{203, 0, 113, 9}, 80};
  cmd.duration_s = 60;
  const auto p = profile::builtin_profile(proto::Family::kGafgyt);
  for (auto _ : state) {
    benchmark::DoNotOptimize(profile::wire::decode_text_attack(
        p, profile::wire::encode_text_attack(p, cmd)));
  }
}
BENCHMARK(BM_GafgytAttackCodec);

static void BM_TcpEcho(benchmark::State& state) {
  // Full simulated TCP session: connect, one request/response, close.
  for (auto _ : state) {
    sim::EventScheduler sched;
    sim::Network net(sched);
    sim::Host server(net, net::Ipv4{10, 0, 0, 1});
    sim::Host client(net, net::Ipv4{10, 0, 0, 2});
    server.tcp_listen(80, [](sim::TcpConn& c) {
      c.on_data([](sim::TcpConn& conn, util::BytesView d) {
        conn.send(d);
        conn.close();
      });
    });
    client.tcp_connect({server.addr(), 80}, [](sim::ConnectOutcome, sim::TcpConn* c) {
      if (c != nullptr) c->send(std::string_view("ping"));
    });
    benchmark::DoNotOptimize(sched.run());
  }
}
BENCHMARK(BM_TcpEcho);

static void BM_RngZipf(benchmark::State& state) {
  util::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.zipf(static_cast<std::uint64_t>(state.range(0)), 0.85));
  }
}
BENCHMARK(BM_RngZipf)->Arg(64)->Arg(1024);

static void BM_RngZipfTable(benchmark::State& state) {
  // The draw World's planner makes: weights cached once per (n, s).
  util::Rng rng(1);
  const util::ZipfTable table(static_cast<std::uint64_t>(state.range(0)), 0.85);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.zipf(table));
  }
}
BENCHMARK(BM_RngZipfTable)->Arg(64)->Arg(1024);

BENCHMARK_MAIN();
