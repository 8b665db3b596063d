// Sandbox behaviour: activation, capture, handshaker, InetSim interplay,
// MITM probing and live-mode containment.
#include <gtest/gtest.h>

#include <set>

#include "botnet/c2server.hpp"
#include "emu/attackgen.hpp"
#include "proto/p2p.hpp"
#include "emu/sandbox.hpp"
#include "mal/binary.hpp"
#include "net/pcap.hpp"
#include "testkit/alloc_count.hpp"
#include "testkit/tempdir.hpp"

using namespace malnet;
using namespace malnet::emu;

namespace {
struct Bench {
  sim::EventScheduler sched;
  sim::Network net{sched};
  Sandbox sandbox{net};
};

mal::MbfBinary scanning_bot(std::optional<vulndb::VulnId> vuln = vulndb::VulnId::kMvpowerDvr) {
  mal::MbfBinary bin;
  bin.behavior.family = proto::Family::kMirai;
  bin.behavior.c2_ip = net::Ipv4{60, 1, 1, 1};
  bin.behavior.c2_port = 23;
  bin.behavior.bot_id = "bot";
  if (vuln) {
    mal::ScanTask task;
    task.port = 60001;
    task.vuln = vuln;
    task.target_count = 60;
    task.pps = 20.0;
    bin.behavior.scans.push_back(task);
  }
  bin.behavior.loader_name = "jaws.sh";
  bin.behavior.downloader_host = "60.1.1.1";
  return bin;
}

SandboxReport run_observe(Bench& b, const util::Bytes& binary, SandboxOptions opts = {}) {
  SandboxReport out;
  bool done = false;
  b.sandbox.start(binary, opts, [&](const SandboxReport& r) {
    out = r;
    done = true;
  });
  b.sched.run_until(b.sched.now() + opts.duration + sim::Duration::minutes(1));
  EXPECT_TRUE(done);
  return out;
}
}  // namespace

TEST(Sandbox, UnparseableBinaryReportsFailure) {
  Bench b;
  const auto report = run_observe(b, util::to_bytes("not a binary"));
  EXPECT_FALSE(report.parsed);
  EXPECT_FALSE(report.activated);
  EXPECT_TRUE(report.capture.empty());
  EXPECT_EQ(b.sandbox.active_runs(), 0u);
}

TEST(Sandbox, ObserveCapturesC2Beaconing) {
  Bench b;
  util::Rng rng(1);
  const auto report = run_observe(b, mal::forge(scanning_bot(std::nullopt), rng));
  EXPECT_TRUE(report.parsed);
  EXPECT_TRUE(report.activated);
  // The C2 SYN retries are visible at the original destination.
  int c2_syns = 0;
  for (const auto& p : report.capture) {
    if (p.proto == net::Protocol::kTcp && p.flags.syn && !p.flags.ack &&
        p.dst == net::Ipv4{60, 1, 1, 1} && p.dst_port == 23) {
      ++c2_syns;
    }
  }
  EXPECT_GE(c2_syns, 2);
  EXPECT_GT(report.packets_dropped, 0u);  // nothing real was reachable
}

TEST(Sandbox, HandshakerHarvestsExploits) {
  Bench b;
  util::Rng rng(2);
  const auto report = run_observe(b, mal::forge(scanning_bot(), rng));
  ASSERT_FALSE(report.exploits.empty());
  const auto& vdb = vulndb::VulnDatabase::instance();
  bool attributed = false;
  for (const auto& cap : report.exploits) {
    EXPECT_EQ(cap.port, 60001);
    EXPECT_FALSE(cap.original_dst.is_unspecified());
    if (const auto* v = vdb.match_payload(cap.payload)) {
      EXPECT_EQ(v->id, vulndb::VulnId::kMvpowerDvr);
      attributed = true;
    }
  }
  EXPECT_TRUE(attributed);
}

TEST(Sandbox, HandshakerThresholdGovernsHarvest) {
  // With a threshold above the sweep size, no redirect ever happens and no
  // payloads are collected — the §2.4 knob works.
  Bench b;
  util::Rng rng(3);
  SandboxOptions opts;
  opts.handshaker_threshold = 1000;
  const auto report = run_observe(b, mal::forge(scanning_bot(), rng), opts);
  EXPECT_TRUE(report.exploits.empty());
}

TEST(Sandbox, DnsQueriesAreRecordedAndConnectivitySatisfied) {
  Bench b;
  auto bin = scanning_bot(std::nullopt);
  bin.behavior.check_internet = true;
  bin.behavior.anti_sandbox = true;  // would abort without InetSim
  util::Rng rng(4);
  const auto report = run_observe(b, mal::forge(bin, rng));
  EXPECT_FALSE(report.evasion_abort) << "InetSim must satisfy the check (§2.6a)";
  ASSERT_FALSE(report.dns_queries.empty());
  EXPECT_EQ(report.dns_queries.front(), "update.busybox-cdn.com");
}

TEST(Sandbox, DomainC2ResolvedThroughFakeDns) {
  Bench b;
  mal::MbfBinary bin;
  bin.behavior.family = proto::Family::kGafgyt;
  bin.behavior.c2_domain = "cnc.bot-net1.com";
  bin.behavior.c2_port = 666;
  util::Rng rng(5);
  const auto report = run_observe(b, mal::forge(bin, rng));
  // The domain resolves (to the martian) and the bot beacons at it.
  bool queried = false;
  for (const auto& q : report.dns_queries) queried |= q == "cnc.bot-net1.com";
  EXPECT_TRUE(queried);
  int syns_to_martian = 0;
  for (const auto& p : report.capture) {
    if (p.proto == net::Protocol::kTcp && p.flags.syn && !p.flags.ack &&
        p.dst == b.sandbox.martian() && p.dst_port == 666) {
      ++syns_to_martian;
    }
  }
  EXPECT_GE(syns_to_martian, 2);
}

TEST(Sandbox, P2pSamplesEmitDhtTraffic) {
  Bench b;
  mal::MbfBinary bin;
  bin.behavior.family = proto::Family::kMozi;
  bin.behavior.node_id = std::string(20, 'M');
  bin.behavior.p2p_peers = {{net::Ipv4{61, 0, 0, 1}, 6881}};
  util::Rng rng(6);
  const auto report = run_observe(b, mal::forge(bin, rng));
  bool dht_seen = false;
  for (const auto& p : report.capture) {
    if (p.proto == net::Protocol::kUdp && p.dst_port == 6881) {
      dht_seen |= proto::p2p::looks_like_dht(p.payload);
    }
  }
  EXPECT_TRUE(dht_seen);
  EXPECT_GT(report.packets_dropped, 0u);  // P2P gossip never leaves observe mode
}

TEST(Sandbox, WeaponizedEngagesMatchingC2) {
  Bench b;
  botnet::C2ServerConfig cfg;
  cfg.family = proto::Family::kMirai;
  cfg.ip = net::Ipv4{60, 1, 1, 1};
  cfg.port = 23;
  cfg.accept_prob = 1.0;
  botnet::C2Server server(b.net, cfg, util::Rng(7));

  util::Rng rng(8);
  SandboxOptions opts;
  opts.mode = SandboxMode::kWeaponized;
  opts.duration = sim::Duration::seconds(90);
  opts.c2_hint = net::Endpoint{{60, 1, 1, 1}, 23};
  opts.mitm_target = net::Endpoint{{60, 1, 1, 1}, 23};
  const auto report = run_observe(b, mal::forge(scanning_bot(std::nullopt), rng), opts);
  EXPECT_TRUE(report.mitm_engaged);
  EXPECT_FALSE(report.mitm_first_data.empty());
}

TEST(Sandbox, WeaponizedReportsDeadTargets) {
  Bench b;
  util::Rng rng(9);
  SandboxOptions opts;
  opts.mode = SandboxMode::kWeaponized;
  opts.duration = sim::Duration::seconds(60);
  opts.c2_hint = net::Endpoint{{60, 1, 1, 1}, 23};
  opts.mitm_target = net::Endpoint{{61, 2, 2, 2}, 23};  // dark
  const auto report = run_observe(b, mal::forge(scanning_bot(std::nullopt), rng), opts);
  EXPECT_FALSE(report.mitm_engaged);
}

TEST(Sandbox, LiveModeContainsEverythingButC2) {
  Bench b;
  botnet::C2ServerConfig cfg;
  cfg.family = proto::Family::kMirai;
  cfg.ip = net::Ipv4{60, 1, 1, 1};
  cfg.port = 23;
  cfg.accept_prob = 1.0;
  proto::AttackCommand atk;
  atk.type = proto::AttackType::kUdpFlood;
  atk.target = {net::Ipv4{7, 7, 7, 7}, 80};
  atk.duration_s = 10;
  cfg.attack_plan = {atk};
  botnet::C2Server server(b.net, cfg, util::Rng(10));
  sim::Host victim(b.net, net::Ipv4{7, 7, 7, 7});
  std::uint64_t victim_hits = 0;
  victim.udp_bind(80, [&](const net::Packet&) { ++victim_hits; });

  util::Rng rng(11);
  SandboxOptions opts;
  opts.mode = SandboxMode::kLive;
  opts.duration = sim::Duration::minutes(40);
  opts.allowed_c2 = net::Endpoint{{60, 1, 1, 1}, 23};
  const auto report = run_observe(b, mal::forge(scanning_bot(std::nullopt), rng), opts);

  EXPECT_GE(report.commands.size(), 1u) << "bot must receive the attack command";
  EXPECT_EQ(victim_hits, 0u) << "attack flood must not leave the sandbox (§2.6c)";
  // ...but the capture must show the attempted flood for the pps heuristic.
  std::uint64_t flood_packets = 0;
  for (const auto& p : report.capture) {
    if (p.dst == net::Ipv4{7, 7, 7, 7}) ++flood_packets;
  }
  EXPECT_GT(flood_packets, 100u);
}

TEST(Sandbox, ContainedFloodPacketCostsOnlyItsPayloadAndCapture) {
  // A flood packet in a live run needs two heap blocks: the payload the
  // bot sends and the capture's copy of it. Attack generation and the
  // containment check must add none.
  Bench b;
  botnet::C2ServerConfig cfg;
  cfg.family = proto::Family::kMirai;
  cfg.ip = net::Ipv4{60, 1, 1, 1};
  cfg.port = 23;
  cfg.accept_prob = 1.0;
  proto::AttackCommand atk;
  atk.type = proto::AttackType::kVse;
  atk.target = {net::Ipv4{7, 7, 7, 7}, 27015};
  atk.duration_s = 60;
  cfg.attack_plan = {atk};
  botnet::C2Server server(b.net, cfg, util::Rng(10));

  util::Rng rng(11);
  SandboxOptions opts;
  opts.mode = SandboxMode::kLive;
  opts.duration = sim::Duration::minutes(30);
  opts.allowed_c2 = net::Endpoint{{60, 1, 1, 1}, 23};
  opts.attack_cap = sim::Duration::seconds(30);
  SandboxReport report;
  b.sandbox.start(mal::forge(scanning_bot(std::nullopt), rng), opts,
                  [&](const SandboxReport& r) { report = r; });
  while (server.commands_issued() == 0 && b.sched.now().us < opts.duration.us) {
    b.sched.run_until(b.sched.now() + sim::Duration::seconds(1));
  }
  ASSERT_EQ(server.commands_issued(), 1u);
  // Let the command arrive and the flood reach its steady rate, then count
  // the allocations of a window inside it.
  b.sched.run_until(b.sched.now() + sim::Duration::seconds(2));
  const sim::SimTime from = b.sched.now();
  const std::uint64_t before = testkit::allocations();
  b.sched.run_until(from + sim::Duration::seconds(5));
  const std::uint64_t allocations = testkit::allocations() - before;
  b.sched.run_until(b.sched.now() + opts.duration);
  ASSERT_TRUE(report.parsed);

  std::uint64_t packets = 0;
  for (const auto& p : report.capture) {
    if (p.dst == atk.target.ip && p.time > from &&
        p.time <= from + sim::Duration::seconds(5)) {
      ++packets;
    }
  }
  ASSERT_GE(packets, 900u);  // 200 pps for 5 s
  // Growing the capture vector may reallocate it a few times in the window.
  constexpr std::uint64_t kCaptureGrowth = 4;
  EXPECT_LE(allocations, 2 * packets + kCaptureGrowth) << packets << " packets";
}

TEST(Sandbox, CaptureExportsAsValidPcap) {
  Bench b;
  util::Rng rng(12);
  const auto report = run_observe(b, mal::forge(scanning_bot(std::nullopt), rng));
  const testkit::ScopedTempDir tmp("sandbox");
  const std::string path = tmp.file("sandbox.pcap");
  report.save_pcap(path);
  const auto packets = net::load_pcap(path);
  EXPECT_EQ(packets.size(), report.capture.size());
}

TEST(Sandbox, ConcurrentRunsDoNotInterfere) {
  Bench b;
  util::Rng rng(13);
  const auto bin_a = mal::forge(scanning_bot(vulndb::VulnId::kGpon10561), rng);
  const auto bin_b = mal::forge(scanning_bot(vulndb::VulnId::kZyxel), rng);
  SandboxReport ra, rb;
  int done = 0;
  SandboxOptions opts;
  b.sandbox.start(bin_a, opts, [&](const SandboxReport& r) { ra = r; ++done; });
  b.sandbox.start(bin_b, opts, [&](const SandboxReport& r) { rb = r; ++done; });
  EXPECT_EQ(b.sandbox.active_runs(), 2u);
  b.sched.run_until(b.sched.now() + sim::Duration::minutes(12));
  ASSERT_EQ(done, 2);
  const auto& vdb = vulndb::VulnDatabase::instance();
  std::set<vulndb::VulnId> vulns_a, vulns_b;
  for (const auto& e : ra.exploits) {
    if (const auto* v = vdb.match_payload(e.payload)) vulns_a.insert(v->id);
  }
  for (const auto& e : rb.exploits) {
    if (const auto* v = vdb.match_payload(e.payload)) vulns_b.insert(v->id);
  }
  EXPECT_TRUE(vulns_a.count(vulndb::VulnId::kGpon10561));
  EXPECT_FALSE(vulns_a.count(vulndb::VulnId::kZyxel));
  EXPECT_TRUE(vulns_b.count(vulndb::VulnId::kZyxel));
  EXPECT_FALSE(vulns_b.count(vulndb::VulnId::kGpon10561));
}

// --- attack generation -----------------------------------------------------------

class AttackGen : public ::testing::TestWithParam<proto::AttackType> {};

TEST_P(AttackGen, ProducesExpectedWireShape) {
  sim::EventScheduler sched;
  sim::Network net{sched};
  sim::Host bot(net, net::Ipv4{10, 0, 0, 1});
  std::vector<net::Packet> sent;
  bot.set_tap([&](const net::Packet& p, bool outbound) {
    if (outbound) sent.push_back(p);
  });

  proto::AttackCommand cmd;
  cmd.type = GetParam();
  cmd.target = {net::Ipv4{7, 7, 7, 7},
                GetParam() == proto::AttackType::kBlacknurse ? net::Port{0}
                                                             : net::Port{8080}};
  cmd.duration_s = 5;
  AttackGenOptions opts;
  opts.pps = 100;
  opts.max_duration = sim::Duration::seconds(2);
  util::Rng rng(14);
  bool finished = false;
  launch_attack(bot, cmd, opts, rng, [&] { finished = true; });
  sched.run_until(sched.now() + sim::Duration::seconds(5));

  EXPECT_TRUE(finished);
  ASSERT_GE(sent.size(), 100u);  // ~2s at 100pps
  for (const auto& p : sent) EXPECT_EQ(p.dst, cmd.target.ip);

  switch (GetParam()) {
    case proto::AttackType::kUdpFlood:
      EXPECT_EQ(sent[0].proto, net::Protocol::kUdp);
      EXPECT_EQ(sent[0].payload, util::Bytes{0x00});  // null-byte payload (§5.1)
      break;
    case proto::AttackType::kSynFlood: {
      EXPECT_EQ(sent[0].proto, net::Protocol::kTcp);
      EXPECT_TRUE(sent[0].flags.syn);
      std::set<net::Port> src_ports;
      for (const auto& p : sent) src_ports.insert(p.src_port);
      EXPECT_GT(src_ports.size(), 10u);  // multiple source ports (§5.1)
      break;
    }
    case proto::AttackType::kVse:
      EXPECT_TRUE(util::contains(sent[0].payload,
                                 std::string_view("Source Engine Query")));
      break;
    case proto::AttackType::kStd: {
      // One random string, reused for the whole attack (§5.1).
      EXPECT_EQ(sent[0].payload.size(), 32u);
      for (const auto& p : sent) EXPECT_EQ(p.payload, sent[0].payload);
      break;
    }
    case proto::AttackType::kBlacknurse:
      EXPECT_EQ(sent[0].proto, net::Protocol::kIcmp);
      EXPECT_EQ(sent[0].icmp.type, 3);
      EXPECT_EQ(sent[0].icmp.code, 3);
      break;
    case proto::AttackType::kNfo:
      EXPECT_TRUE(util::contains(sent[0].payload, std::string_view("NFOV6")));
      break;
    case proto::AttackType::kTls:
      EXPECT_EQ(sent[0].payload[0], 0x16);  // TLS handshake record type
      break;
    case proto::AttackType::kStomp:
      EXPECT_EQ(sent[0].proto, net::Protocol::kTcp);
      EXPECT_TRUE(util::contains(sent[0].payload, std::string_view("CONNECT")));
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, AttackGen,
    ::testing::Values(proto::AttackType::kUdpFlood, proto::AttackType::kSynFlood,
                      proto::AttackType::kTls, proto::AttackType::kStomp,
                      proto::AttackType::kVse, proto::AttackType::kStd,
                      proto::AttackType::kBlacknurse, proto::AttackType::kNfo),
    [](const auto& info) {
      std::string name = proto::to_string(info.param);
      for (auto& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });
