#include <gtest/gtest.h>

#include <set>

#include "botnet/c2server.hpp"
#include "botnet/downloader.hpp"
#include "botnet/probe_world.hpp"
#include "botnet/world.hpp"
#include "inetsim/http.hpp"
#include "profile/wire.hpp"

using namespace malnet;
using namespace malnet::botnet;

namespace {
const profile::FamilyProfile kGafgyt = profile::builtin_profile(proto::Family::kGafgyt);

struct Sim {
  sim::EventScheduler sched;
  sim::Network net{sched};
};

C2ServerConfig always_on(proto::Family family, net::Ipv4 ip, net::Port port) {
  C2ServerConfig cfg;
  cfg.family = family;
  cfg.ip = ip;
  cfg.port = port;
  cfg.accept_prob = 1.0;
  return cfg;
}
}  // namespace

// --- C2Server per-family session handling -------------------------------------

TEST(C2Server, MiraiRegistersAndEchoesKeepalive) {
  Sim s;
  C2Server server(s.net, always_on(proto::Family::kMirai, {60, 0, 0, 1}, 23),
                  util::Rng(1));
  sim::Host bot(s.net, net::Ipv4{10, 0, 0, 9});
  int replies = 0;
  bot.tcp_connect({server.endpoint().ip, 23}, [&](sim::ConnectOutcome o, sim::TcpConn* c) {
    ASSERT_EQ(o, sim::ConnectOutcome::kConnected);
    c->on_data([&](sim::TcpConn&, util::BytesView d) {
      if (profile::wire::is_keepalive(d)) ++replies;
    });
    c->send(util::BytesView{profile::wire::encode_handshake(
        profile::builtin_profile(proto::Family::kMirai), "bot")});
  });
  s.sched.run_until(s.sched.now() + sim::Duration::seconds(30));
  EXPECT_EQ(server.sessions_served(), 1u);
  EXPECT_GE(replies, 1);
}

TEST(C2Server, GafgytAnswersBuildWithPing) {
  Sim s;
  C2Server server(s.net, always_on(proto::Family::kGafgyt, {60, 0, 0, 2}, 666),
                  util::Rng(2));
  sim::Host bot(s.net, net::Ipv4{10, 0, 0, 9});
  std::string got;
  bot.tcp_connect({server.endpoint().ip, 666}, [&](sim::ConnectOutcome, sim::TcpConn* c) {
    ASSERT_NE(c, nullptr);
    c->on_data([&](sim::TcpConn&, util::BytesView d) { got += util::to_string(d); });
    c->send(profile::wire::encode_hello(kGafgyt, "MIPS"));
  });
  s.sched.run_until(s.sched.now() + sim::Duration::seconds(10));
  EXPECT_EQ(got, "PING\n");
}

TEST(C2Server, Daddyl33tAnswersLogin) {
  Sim s;
  C2Server server(s.net, always_on(proto::Family::kDaddyl33t, {60, 0, 0, 3}, 1312),
                  util::Rng(3));
  sim::Host bot(s.net, net::Ipv4{10, 0, 0, 9});
  std::string got;
  bot.tcp_connect({server.endpoint().ip, 1312}, [&](sim::ConnectOutcome, sim::TcpConn* c) {
    ASSERT_NE(c, nullptr);
    c->on_data([&](sim::TcpConn&, util::BytesView d) { got += util::to_string(d); });
    c->send(profile::wire::encode_hello(
        profile::builtin_profile(proto::Family::kDaddyl33t), "bot7"));
  });
  s.sched.run_until(s.sched.now() + sim::Duration::seconds(10));
  EXPECT_EQ(got, ".ping\n");
}

TEST(C2Server, IgnoresWrongProtocolAndKicksSilentPeers) {
  Sim s;
  auto cfg = always_on(proto::Family::kMirai, {60, 0, 0, 4}, 23);
  C2Server server(s.net, cfg, util::Rng(4));
  sim::Host bot(s.net, net::Ipv4{10, 0, 0, 9});
  bool closed = false;
  bot.tcp_connect({server.endpoint().ip, 23}, [&](sim::ConnectOutcome, sim::TcpConn* c) {
    ASSERT_NE(c, nullptr);
    c->on_close([&](sim::TcpConn&) { closed = true; });
    c->send(profile::wire::encode_hello(kGafgyt, "MIPS"));  // wrong family protocol
  });
  s.sched.run_until(s.sched.now() + sim::Duration::minutes(5));
  EXPECT_TRUE(closed);  // 2-minute hygiene reset
  EXPECT_EQ(server.commands_issued(), 0u);
}

TEST(C2Server, DormancyAfterServedSession) {
  Sim s;
  auto cfg = always_on(proto::Family::kGafgyt, {60, 0, 0, 5}, 666);
  cfg.mean_dormancy = sim::Duration::hours(30);
  C2Server server(s.net, cfg, util::Rng(5));
  sim::Host bot(s.net, net::Ipv4{10, 0, 0, 9});

  bot.tcp_connect({server.endpoint().ip, 666}, [&](sim::ConnectOutcome, sim::TcpConn* c) {
    ASSERT_NE(c, nullptr);
    c->send(profile::wire::encode_hello(kGafgyt, "MIPS"));
    // Close shortly after registering (a probe-style session).
    sim::TcpConn* cp = c;
    bot.schedule_safe(sim::Duration::seconds(5), [cp]() { cp->close(); });
  });
  s.sched.run_until(s.sched.now() + sim::Duration::minutes(2));
  EXPECT_FALSE(server.currently_listening());  // dormant
}

TEST(C2Server, ElusivenessStatistics) {
  // With accept_prob p and no sessions, the listener should be up roughly
  // a fraction p of re-rolls.
  Sim s;
  auto cfg = always_on(proto::Family::kMirai, {60, 0, 0, 6}, 23);
  cfg.accept_prob = 0.5;
  cfg.toggle_period = sim::Duration::minutes(10);
  C2Server server(s.net, cfg, util::Rng(6));
  int up = 0, checks = 0;
  for (int i = 0; i < 400; ++i) {
    s.sched.run_until(s.sched.now() + sim::Duration::minutes(10));
    ++checks;
    if (server.currently_listening()) ++up;
  }
  const double frac = static_cast<double>(up) / checks;
  EXPECT_NEAR(frac, 0.5, 0.1);
}

// --- Downloader ----------------------------------------------------------------

TEST(Downloader, ServesLoaderScripts) {
  Sim s;
  DownloaderServer dl(s.net, net::Ipv4{60, 0, 0, 7});
  sim::Host victim(s.net, net::Ipv4{10, 0, 0, 8});
  std::string body;
  victim.tcp_connect({dl.addr(), 80}, [&](sim::ConnectOutcome, sim::TcpConn* c) {
    ASSERT_NE(c, nullptr);
    c->on_data([&](sim::TcpConn&, util::BytesView d) {
      const auto resp = inetsim::parse_response(util::to_string(d));
      if (resp) body = resp->body;
    });
    inetsim::HttpRequest req;
    req.path = "/t8UsA2.sh";
    c->send(req.serialize());
  });
  s.sched.run();
  EXPECT_NE(body.find("t8UsA2.sh"), std::string::npos);
  EXPECT_NE(body.find("inert"), std::string::npos);
  EXPECT_EQ(dl.requests(), 1u);
  EXPECT_EQ(dl.hits_by_path().at("/t8UsA2.sh"), 1u);
}

// --- World plan invariants -------------------------------------------------------

class WorldPlan : public ::testing::Test {
 protected:
  static const World& world() {
    static Sim s;
    static WorldConfig cfg = [] {
      WorldConfig c;
      c.seed = 22;
      return c;
    }();
    static World w(s.net, cfg);
    return w;
  }
};

TEST_F(WorldPlan, SampleCountMatchesTable1) {
  // 1447 MIPS-32 binaries (Table 1) plus the feed's non-MIPS noise the
  // pipeline's architecture gate discards (§2.2).
  int mips = 0, other = 0;
  for (const auto& s : world().samples()) {
    (s.truth_arch == mal::Arch::kMips32 ? mips : other)++;
  }
  EXPECT_EQ(mips, 1447);
  EXPECT_GT(other, 0);
  EXPECT_LT(other, 150);
}

TEST_F(WorldPlan, SamplesSortedByDayWithinStudy) {
  std::int64_t prev = -1;
  for (const auto& s : world().samples()) {
    EXPECT_GE(s.first_seen_day, prev);
    prev = s.first_seen_day;
    EXPECT_GE(s.first_seen_day, 0);
    EXPECT_LE(s.first_seen_day, 400);
  }
}

TEST_F(WorldPlan, BinariesParseAndMatchGroundTruth) {
  int checked = 0;
  for (const auto& s : world().samples()) {
    if (++checked > 80) break;  // spot-check a prefix
    const auto parsed = mal::parse(s.binary);
    if (s.truth_corrupt) {
      EXPECT_FALSE(parsed) << "corrupt downloads must not parse";
      continue;
    }
    ASSERT_TRUE(parsed) << s.sha256;
    EXPECT_EQ(parsed->arch, s.truth_arch);
    EXPECT_EQ(parsed->behavior.family, s.truth_family);
    EXPECT_FALSE(parsed->behavior.validate().has_value());
  }
}

TEST_F(WorldPlan, FamilyMatchesPrimaryC2) {
  for (const auto& s : world().samples()) {
    if (s.truth_c2_refs.empty()) continue;
    const auto* c2 = world().find_c2(s.truth_c2_refs.front());
    ASSERT_NE(c2, nullptr);
    EXPECT_EQ(c2->cfg.family, s.truth_family)
        << "sample family must match its C2's protocol";
  }
}

TEST_F(WorldPlan, AttackerFleetShape) {
  int attackers = 0, planned_cmds = 0;
  for (const auto& c2 : world().c2_plan()) {
    if (!c2.attacker) continue;
    ++attackers;
    planned_cmds += static_cast<int>(c2.cfg.attack_plan.size());
    EXPECT_GE(c2.lifetime_days, 10);  // §5: ~10 day lifespan
    EXPECT_FALSE(proto::is_p2p(c2.cfg.family));
    for (const auto& cmd : c2.cfg.attack_plan) {
      // Every planned command must be expressible in the family's grammar.
      const auto& repertoire = proto::attacks_of(c2.cfg.family);
      EXPECT_NE(std::find(repertoire.begin(), repertoire.end(), cmd.type),
                repertoire.end());
    }
  }
  EXPECT_EQ(attackers, 17);           // §5: 17 issuing C2s
  EXPECT_GE(planned_cmds, 34);        // enough to produce ~42 observations
}

TEST_F(WorldPlan, UniqueSampleHashesAndC2Addresses) {
  std::set<std::string> hashes;
  for (const auto& s : world().samples()) {
    EXPECT_TRUE(hashes.insert(s.sha256).second) << "duplicate sha256";
  }
  std::set<std::string> addrs;
  for (const auto& c2 : world().c2_plan()) {
    EXPECT_TRUE(addrs.insert(c2.address).second) << "duplicate C2 address";
  }
}

TEST_F(WorldPlan, WeeklyLayoutMatchesAppendixE) {
  const auto& weeks = active_week_start_days();
  ASSERT_EQ(weeks.size(), 31u);
  EXPECT_EQ(weeks.front(), 0);
  // Week 21 of the study = calendar week 2 of 2022 (2022-01-10, day 287).
  EXPECT_EQ(weeks[20], 287);
  const auto& volume = weekly_sample_volume();
  ASSERT_EQ(volume.size(), 31u);
  int total = 0;
  for (const int v : volume) total += v;
  EXPECT_EQ(total, 1447);
  // Peak at study week 28 (§3.1).
  EXPECT_EQ(*std::max_element(volume.begin(), volume.end()), volume[27]);
}

TEST_F(WorldPlan, DeterministicAcrossRebuilds) {
  Sim s2;
  WorldConfig cfg;
  cfg.seed = 22;
  World other(s2.net, cfg);
  ASSERT_EQ(other.samples().size(), world().samples().size());
  for (std::size_t i = 0; i < other.samples().size(); i += 97) {
    EXPECT_EQ(other.samples()[i].sha256, world().samples()[i].sha256);
  }
  ASSERT_EQ(other.c2_plan().size(), world().c2_plan().size());
}

TEST(WorldLifecycle, ServersComeAndGo) {
  Sim s;
  WorldConfig cfg;
  cfg.seed = 7;
  cfg.total_samples = 60;
  World w(s.net, cfg);
  const auto& first = w.c2_plan().front();
  w.advance_to_day(first.birth_day);
  EXPECT_NE(w.live_c2(first.address), nullptr);
  w.advance_to_day(first.death_day());
  EXPECT_EQ(w.live_c2(first.address), nullptr);
  EXPECT_THROW(w.advance_to_day(first.birth_day), std::logic_error);  // no rewind
}

TEST(WorldCapacity, SampleCountBeyondTheCalendarIsRejected) {
  EXPECT_EQ(sample_capacity(), 1447);
  Sim s;
  WorldConfig cfg;
  cfg.total_samples = sample_capacity() + 1;
  try {
    World w(s.net, cfg);
    FAIL() << "World accepted " << cfg.total_samples << " samples";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("capacity of 1447 samples"), std::string::npos)
        << e.what();
  }
  cfg.total_samples = 0;
  EXPECT_THROW(World(s.net, cfg), std::invalid_argument);
}

// --- Probe world -----------------------------------------------------------------

TEST(ProbeWorld, ShapeMatchesSection23b) {
  Sim s;
  const auto world = build_probe_world(s.net);
  EXPECT_EQ(world.subnets.size(), 6u);
  EXPECT_EQ(world.c2s.size(), 7u);
  EXPECT_EQ(table5_ports().size(), 12u);
  // All C2s live inside the probed subnets on Table 5 ports.
  for (const auto& c2 : world.c2s) {
    bool inside = false;
    for (const auto& subnet : world.subnets) inside |= subnet.contains(c2->addr());
    EXPECT_TRUE(inside);
    const auto& ports = table5_ports();
    EXPECT_NE(std::find(ports.begin(), ports.end(), c2->config().port), ports.end());
  }
  // Both weapon families are represented.
  std::set<proto::Family> fams;
  for (const auto& c2 : world.c2s) fams.insert(c2->config().family);
  EXPECT_TRUE(fams.count(proto::Family::kGafgyt));
  EXPECT_TRUE(fams.count(proto::Family::kMirai));
}
