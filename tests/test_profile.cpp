// malnet::profile — declarative family profiles (DESIGN.md §16).
//
// The load-bearing contract: for every builtin profile the profile::wire
// codecs reproduce the committed golden wire bytes (tests/corpus) and the
// registry-resolved behaviour reproduces the pre-profile study output;
// malformed or ambiguous profile files are rejected with line/field context
// and never crash the parser (fuzzed from the committed profile_* corpus);
// a data-only variant profile runs end-to-end — planner to C2 server to
// sandboxed bot — without any C++ behaviour-table change; and the DDoS
// detector decodes a variant's attack grammar from the registry.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>

#include "botnet/c2server.hpp"
#include "botnet/world.hpp"
#include "core/ddos.hpp"
#include "core/parallel_study.hpp"
#include "emu/sandbox.hpp"
#include "mal/binary.hpp"
#include "profile/parse.hpp"
#include "profile/registry.hpp"
#include "profile/wire.hpp"
#include "report/dataset_io.hpp"
#include "testkit/tempdir.hpp"
#include "testkit/testkit.hpp"

using namespace malnet;
using namespace malnet::profile;
namespace fs = std::filesystem;

namespace {

std::string tmp_path(const std::string& name) {
  static const testkit::ScopedTempDir kDir("profile");
  return kDir.file(name);
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  ASSERT_TRUE(f) << "cannot write " << path;
  f << text;
}

/// A temp directory holding the builtin profiles as canonical dumps —
/// loading it must reproduce the compiled-in behaviour bit-for-bit.
std::string builtin_dump_dir(const std::string& name) {
  const auto dir = tmp_path(name);
  fs::create_directories(dir);
  for (const auto* p : Registry::builtin().all()) {
    write_text(dir + "/" + p->name + ".json", p->to_pretty_json());
  }
  return dir;
}

FamilyProfile make_variant() {
  auto v = builtin_profile(proto::Family::kMirai);
  v.name = "mirai-fallback";
  v.handshake_magic = 2;
  v.extra_fallbacks = 2;
  v.attacker_quota = 0;
  return v;
}

proto::AttackCommand make_cmd(proto::Family family, proto::AttackType type) {
  proto::AttackCommand cmd;
  cmd.family = family;
  cmd.type = type;
  cmd.target = {net::Ipv4{198, 51, 100, 7},
                proto::attack_protocol(type, 80) == proto::AttackProtocol::kIcmp
                    ? net::Port{0}
                    : net::Port{80}};
  cmd.duration_s = 30;
  return cmd;
}

bool same_command(const proto::AttackCommand& a, const proto::AttackCommand& b) {
  return a.type == b.type && a.family == b.family && a.target == b.target &&
         a.duration_s == b.duration_s;
}

proto::AttackCommand golden_cmd(proto::Family family, proto::AttackType type,
                                net::Endpoint target, std::uint32_t duration_s) {
  proto::AttackCommand cmd;
  cmd.family = family;
  cmd.type = type;
  cmd.target = target;
  cmd.duration_s = duration_s;
  return cmd;
}

std::string golden_text(const std::string& name) {
  return util::to_string(testkit::corpus_file(name));
}

}  // namespace

// --- builtin profiles --------------------------------------------------------

TEST(Profile, BuiltinsValidateAndCoverEveryFamily) {
  for (std::size_t i = 0; i < proto::kFamilyCount; ++i) {
    const auto f = static_cast<proto::Family>(i);
    const auto p = builtin_profile(f);
    EXPECT_EQ(p.id, f);
    EXPECT_EQ(p.name, proto::to_string(f));
    EXPECT_FALSE(p.validate().has_value())
        << proto::to_string(f) << ": " << *p.validate();
    EXPECT_EQ(p.is_text_like(),
              p.framing == Framing::kText || p.framing == Framing::kIrc);
    // The profile's command repertoire matches the compiled-in table the
    // attack planner used before profiles existed.
    if (!p.commands.empty()) {
      const auto want =
          proto::attacks_of(f == proto::Family::kTsunami ? proto::Family::kGafgyt : f);
      EXPECT_EQ(p.command_types(), want) << proto::to_string(f);
    }
  }
}

TEST(Profile, CanonicalRoundTripPreservesProfileAndHash) {
  for (const auto* p : Registry::builtin().all()) {
    ParseIssue issue;
    const auto back = parse_profile(p->to_pretty_json(), &issue);
    ASSERT_TRUE(back.has_value()) << p->name << ": " << issue.render();
    EXPECT_EQ(*back, *p) << p->name;
    EXPECT_EQ(back->content_hash(), p->content_hash()) << p->name;
  }
  // The variant survives the same round trip.
  const auto v = make_variant();
  const auto back = parse_profile(v.to_pretty_json(), nullptr);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, v);
}

// --- golden wire bytes --------------------------------------------------------
// tests/corpus holds the builtin dialects' wire bytes, written by
// malnet_make_corpus from these codecs (the corpus_up_to_date ctest keeps
// the two in step). Encoding must reproduce each file, and decoding it must
// give the original message back.

TEST(ProfileWire, MiraiBinaryFramingMatchesGoldenCorpus) {
  const auto p = builtin_profile(proto::Family::kMirai);
  const auto handshake = testkit::corpus_file("mirai_handshake.bin");
  EXPECT_EQ(wire::encode_handshake(p, "mips.malnet.1"), handshake);
  const auto hs = wire::decode_handshake(p, handshake);
  ASSERT_TRUE(hs.has_value());
  EXPECT_EQ(hs->bot_id, "mips.malnet.1");

  const auto keepalive = testkit::corpus_file("mirai_keepalive.bin");
  EXPECT_EQ(wire::encode_keepalive(), keepalive);
  EXPECT_TRUE(wire::is_keepalive(keepalive));

  const auto cmd = golden_cmd(proto::Family::kMirai, proto::AttackType::kSynFlood,
                              {net::Ipv4{203, 0, 113, 9}, 443}, 120);
  const auto attack = testkit::corpus_file("mirai_attack.bin");
  EXPECT_EQ(wire::encode_binary_attack(p, cmd), attack);
  const auto back = wire::decode_binary_attack(p, attack);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(same_command(*back, cmd));
  EXPECT_EQ(back->raw, attack);

  for (const auto type : proto::attacks_of(proto::Family::kMirai)) {
    const auto c = make_cmd(proto::Family::kMirai, type);
    const auto d = wire::decode_binary_attack(p, wire::encode_binary_attack(p, c));
    ASSERT_TRUE(d.has_value()) << proto::to_string(type);
    EXPECT_TRUE(same_command(*d, c)) << proto::to_string(type);
  }
}

TEST(ProfileWire, GafgytTextFramingMatchesGoldenCorpus) {
  const auto p = builtin_profile(proto::Family::kGafgyt);
  const auto hello = golden_text("gafgyt_hello.txt");
  EXPECT_EQ(wire::encode_hello(p, "MIPS"), hello);
  const auto arch = wire::decode_hello(p, hello);
  ASSERT_TRUE(arch.has_value());
  EXPECT_EQ(*arch, "MIPS");
  EXPECT_EQ(wire::encode_ping(p), "PING\n");
  EXPECT_EQ(wire::encode_pong(p), "PONG\n");
  EXPECT_TRUE(wire::is_ping(p, "PING"));
  EXPECT_FALSE(wire::is_ping(p, "ping me"));

  const auto cmd = golden_cmd(proto::Family::kGafgyt, proto::AttackType::kStd,
                              {net::Ipv4{198, 51, 100, 7}, 9999}, 60);
  const auto attack = golden_text("gafgyt_attack.txt");
  EXPECT_EQ(wire::encode_text_attack(p, cmd), attack);
  const auto back = wire::decode_text_attack(p, attack);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(same_command(*back, cmd));
  EXPECT_EQ(back->raw, util::to_bytes(attack));

  for (const auto type : proto::attacks_of(proto::Family::kGafgyt)) {
    const auto c = make_cmd(proto::Family::kGafgyt, type);
    const auto d = wire::decode_text_attack(p, wire::encode_text_attack(p, c));
    ASSERT_TRUE(d.has_value()) << proto::to_string(type);
    EXPECT_TRUE(same_command(*d, c)) << proto::to_string(type);
  }
}

TEST(ProfileWire, Daddyl33tTextFramingMatchesGoldenCorpus) {
  const auto p = builtin_profile(proto::Family::kDaddyl33t);
  const auto login = golden_text("daddyl33t_login.txt");
  EXPECT_EQ(wire::encode_hello(p, "bot42"), login);
  const auto id = wire::decode_hello(p, login);
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(*id, "bot42");
  EXPECT_FALSE(wire::decode_hello(p, "l33t LOGIN a b\n").has_value());
  EXPECT_EQ(wire::encode_ping(p), ".ping\n");
  EXPECT_EQ(wire::encode_pong(p), ".pong\n");

  const auto cmd = golden_cmd(proto::Family::kDaddyl33t, proto::AttackType::kBlacknurse,
                              {net::Ipv4{192, 0, 2, 55}, 0}, 45);
  const auto attack = golden_text("daddyl33t_attack.txt");
  EXPECT_EQ(wire::encode_text_attack(p, cmd), attack);
  const auto back = wire::decode_text_attack(p, attack);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(same_command(*back, cmd));
  EXPECT_EQ(back->raw, util::to_bytes(attack));

  for (const auto type : proto::attacks_of(proto::Family::kDaddyl33t)) {
    const auto c = make_cmd(proto::Family::kDaddyl33t, type);
    const auto d = wire::decode_text_attack(p, wire::encode_text_attack(p, c));
    ASSERT_TRUE(d.has_value()) << proto::to_string(type);
    EXPECT_TRUE(same_command(*d, c)) << proto::to_string(type);
  }
}

TEST(ProfileWire, VariantDialectIsIncompatibleWithBuiltin) {
  const auto builtin = builtin_profile(proto::Family::kMirai);
  const auto variant = make_variant();
  const auto hs = wire::encode_handshake(variant, "bot");
  EXPECT_NE(hs, wire::encode_handshake(builtin, "bot"));
  EXPECT_FALSE(wire::decode_handshake(builtin, hs).has_value());
  EXPECT_TRUE(wire::decode_handshake(variant, hs).has_value());
}

TEST(ProfileWire, EncodeThrowsForMissingCommandType) {
  const auto p = builtin_profile(proto::Family::kGafgyt);  // no BLACKNURSE
  EXPECT_THROW(
      (void)wire::encode_text_attack(
          p, make_cmd(proto::Family::kGafgyt, proto::AttackType::kBlacknurse)),
      std::invalid_argument);
}

// --- parsing and validation --------------------------------------------------

TEST(ProfileParse, SyntaxErrorsCarryLineAndColumn) {
  ParseIssue issue;
  EXPECT_FALSE(parse_profile("{\n  \"family\": \"Mirai\",\n  oops\n}", &issue)
                   .has_value());
  EXPECT_EQ(issue.line, 3);
  EXPECT_GT(issue.column, 0);
  EXPECT_NE(issue.render().find("line 3"), std::string::npos) << issue.render();
}

TEST(ProfileParse, SchemaErrorsNameTheField) {
  const struct {
    const char* text;
    const char* field;
  } cases[] = {
      {R"({"name": "x"})", "family"},
      {R"({"family": "NoSuchFamily"})", "family"},
      {R"({"family": "Gafgyt", "marker": "x", "framing": "warp"})", "framing"},
      {R"({"family": "Mirai", "marker": "x", "framing": "binary", "topology": "single",
           "binary": {"handshake_magic": 1}, "surprise": 3})",
       "surprise"},
      {R"({"family": "VPNFilter", "marker": "x", "framing": "tls-beacon", "topology": "single",
           "tls": {"client_hello": "zz", "server_hello": "16", "beacon": "17",
                   "peer_id": "p"}})",
       "tls.client_hello"},
  };
  for (const auto& c : cases) {
    ParseIssue issue;
    ASSERT_FALSE(parse_profile(c.text, &issue).has_value()) << c.text;
    EXPECT_EQ(issue.field, c.field) << issue.render();
  }
}

TEST(ProfileParse, AmbiguousFramingIsRejected) {
  // A profile declaring text framing but carrying a binary section is
  // ambiguous — two grammars could plausibly apply — and must be rejected,
  // not resolved by precedence.
  ParseIssue issue;
  const auto r = parse_profile(
      R"({"family": "Gafgyt", "marker": "x", "framing": "text", "topology": "single",
          "binary": {"handshake_magic": 1},
          "text": {"hello": ["BUILD"], "ping": "PING", "pong": "PONG",
                   "attack_prefix": "!*"}})",
      &issue);
  EXPECT_FALSE(r.has_value());
  EXPECT_NE(issue.message.find("ambiguous framing"), std::string::npos)
      << issue.render();

  // The converse: framing declared but its section missing.
  EXPECT_FALSE(parse_profile(
                   R"({"family": "Mirai", "marker": "x", "framing": "binary",
                       "topology": "single"})",
                   &issue)
                   .has_value());
  EXPECT_NE(issue.message.find("missing section"), std::string::npos)
      << issue.render();
}

TEST(ProfileParse, ValidationRejectsBadProfiles) {
  const char* bad[] = {
      // keepalive bounds inverted
      R"({"family": "Mirai", "marker": "x", "framing": "binary", "topology": "fallback",
          "binary": {"handshake_magic": 1},
          "beacon": {"keepalive_min_s": 90, "keepalive_max_s": 45}})",
      // p2p family with centralised framing
      R"({"family": "Mozi", "marker": "x", "framing": "binary", "topology": "single",
          "binary": {"handshake_magic": 1}})",
      // p2p framing with commands
      R"({"family": "Hajime", "marker": "x", "framing": "p2p", "topology": "p2p",
          "commands": [{"type": "UDP Flood", "vector": 0}]})",
      // duplicate keyword (case-insensitive grammar)
      R"({"family": "Gafgyt", "marker": "x", "framing": "text", "topology": "fallback",
          "text": {"hello": ["BUILD"], "hello_arg": "rest",
                   "hello_sends": "arch", "ping": "PING", "pong": "PONG",
                   "attack_prefix": "!*"},
          "commands": [{"type": "UDP Flood", "keyword": "UDP"},
                       {"type": "STD Flood", "keyword": "udp"}]})",
      // attacker quota without any commands to issue
      R"({"family": "VPNFilter", "marker": "x", "framing": "tls-beacon", "topology": "single",
          "tls": {"client_hello": "16", "server_hello": "16", "beacon": "17",
                  "peer_id": "p"},
          "plan": {"attacker_quota": 3}})",
      // extra fallbacks on a single-C2 topology
      R"({"family": "Mirai", "marker": "x", "framing": "binary", "topology": "single",
          "binary": {"handshake_magic": 1}, "fallback": {"extra": 2}})",
  };
  for (const auto* text : bad) {
    ParseIssue issue;
    EXPECT_FALSE(parse_profile(text, &issue).has_value()) << text;
  }
}

// --- registry ----------------------------------------------------------------

TEST(ProfileRegistry, BuiltinRegistryServesEveryFamily) {
  const auto& reg = Registry::builtin();
  EXPECT_EQ(reg.all().size(), proto::kFamilyCount);
  for (std::size_t i = 0; i < proto::kFamilyCount; ++i) {
    const auto f = static_cast<proto::Family>(i);
    const auto* p = reg.active(f);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->id, f);
    EXPECT_EQ(p->name, proto::to_string(f));
  }
  EXPECT_EQ(reg.by_name("no-such"), nullptr);
}

TEST(ProfileRegistry, LoadingBuiltinDumpKeepsSetHash) {
  const auto dir = builtin_dump_dir("reg_dump");
  Registry reg;
  const auto before = reg.set_hash();
  ASSERT_FALSE(reg.load_dir(dir).has_value());
  EXPECT_EQ(reg.set_hash(), before);
  EXPECT_EQ(reg.set_hash(), Registry::builtin().set_hash());
}

TEST(ProfileRegistry, LoadedVariantChangesSetHashAndResolvesByName) {
  Registry reg;
  const auto before = reg.set_hash();
  const auto path = tmp_path("variant.json");
  write_text(path, make_variant().to_pretty_json());
  ASSERT_FALSE(reg.load_file(path).has_value());
  EXPECT_NE(reg.set_hash(), before);
  const auto* v = reg.by_name("mirai-fallback");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->handshake_magic, 2u);
  EXPECT_EQ(v->extra_fallbacks, 2);
  // The family's *active* profile is still the builtin.
  EXPECT_EQ(reg.active(proto::Family::kMirai)->name, "Mirai");
}

TEST(ProfileRegistry, LoadErrorsCarryPathAndContext) {
  Registry reg;
  const auto before = reg.set_hash();
  const auto path = tmp_path("broken.json");
  write_text(path, "{\"family\": \"Mirai\",,}");
  const auto err = reg.load_file(path);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find(path), std::string::npos) << *err;
  EXPECT_NE(err->find("line"), std::string::npos) << *err;
  EXPECT_EQ(reg.set_hash(), before) << "failed load must not mutate the registry";
  EXPECT_TRUE(reg.load_file(tmp_path("absent.json")).has_value());
}

// --- world planning ----------------------------------------------------------

TEST(ProfileWorld, VariantRoutingReachesPlanAndForgedBinaries) {
  Registry reg;
  const auto path = tmp_path("world_variant.json");
  write_text(path, make_variant().to_pretty_json());
  ASSERT_FALSE(reg.load_file(path).has_value());

  sim::EventScheduler sched;
  sim::Network net{sched};
  botnet::WorldConfig wc;
  wc.total_samples = 80;
  wc.profiles = &reg;
  wc.variant_name = "mirai-fallback";
  wc.variant_fraction = 1.0;
  botnet::World world(net, wc);

  std::size_t mirai_c2s = 0;
  for (const auto& c2 : world.c2_plan()) {
    if (c2.cfg.family != proto::Family::kMirai) continue;
    ++mirai_c2s;
    ASSERT_NE(c2.cfg.profile, nullptr);
    EXPECT_EQ(c2.cfg.profile->name, "mirai-fallback");
  }
  EXPECT_GT(mirai_c2s, 0u);

  // Forged Mirai binaries carry the variant name and up to two extra
  // fallback C2s; the extras are real planned servers.
  std::size_t variant_bins = 0, with_extras = 0;
  for (const auto& s : world.samples()) {
    if (s.truth_family != proto::Family::kMirai || s.truth_corrupt) continue;
    const auto parsed = mal::parse(s.binary);
    if (!parsed) continue;
    if (parsed->behavior.profile_name == "mirai-fallback") ++variant_bins;
    EXPECT_LE(parsed->behavior.extra_c2.size(), 2u);
    if (!parsed->behavior.extra_c2.empty()) {
      ++with_extras;
      for (const auto& ep : parsed->behavior.extra_c2) {
        EXPECT_NE(world.find_c2(net::to_string(ep.ip)), nullptr);
      }
    }
  }
  EXPECT_GT(variant_bins, 0u);
  EXPECT_GT(with_extras, 0u);
}

TEST(ProfileWorld, UnknownOrInvalidVariantConfigThrows) {
  sim::EventScheduler sched;
  sim::Network net{sched};
  botnet::WorldConfig wc;
  wc.total_samples = 10;
  wc.variant_name = "no-such-profile";
  wc.variant_fraction = 0.5;
  EXPECT_THROW(botnet::World(net, wc), std::invalid_argument);

  botnet::WorldConfig p2p;
  p2p.total_samples = 10;
  p2p.variant_name = "Mozi";  // p2p profiles cannot route the C2 planner
  p2p.variant_fraction = 0.5;
  EXPECT_THROW(botnet::World(net, p2p), std::invalid_argument);

  botnet::WorldConfig frac;
  frac.total_samples = 10;
  frac.variant_name = "Mirai";
  frac.variant_fraction = 1.5;
  EXPECT_THROW(botnet::World(net, frac), std::invalid_argument);
}

// --- golden study byte-identity ---------------------------------------------

TEST(ProfileGolden, LoadedBuiltinsReproduceStudyByteForByte) {
  const auto dir = builtin_dump_dir("golden_dump");
  for (const int shards : {1, 2}) {
    core::ParallelStudyConfig base;
    base.base.seed = 22;
    base.base.world.total_samples = 40;
    base.base.run_probe_campaign = false;
    base.shards = shards;
    base.jobs = shards;
    const auto baseline =
        report::serialize_datasets(core::ParallelStudy(base).run());

    auto reg = std::make_shared<Registry>();
    ASSERT_FALSE(reg->load_dir(dir).has_value());
    auto loaded = base;
    loaded.base.profiles = reg;
    const auto with_profiles =
        report::serialize_datasets(core::ParallelStudy(loaded).run());
    EXPECT_EQ(with_profiles, baseline) << "shards=" << shards;
  }
}

// --- variant end-to-end (C2 server <-> sandboxed bot) ------------------------

TEST(ProfileEndToEnd, VariantBotSpeaksVariantDialectOnly) {
  Registry reg;
  const auto path = tmp_path("e2e_variant.json");
  write_text(path, make_variant().to_pretty_json());
  ASSERT_FALSE(reg.load_file(path).has_value());

  mal::MbfBinary bin;
  bin.behavior.family = proto::Family::kMirai;
  bin.behavior.profile_name = "mirai-fallback";
  bin.behavior.bot_id = "vbot";
  bin.behavior.c2_ip = net::Ipv4{60, 1, 1, 1};
  bin.behavior.c2_port = 23;
  util::Rng forge_rng(5);
  const auto binary = mal::forge(bin, forge_rng);

  const auto run_against = [&](const FamilyProfile* server_profile) {
    sim::EventScheduler sched;
    sim::Network net{sched};
    botnet::C2ServerConfig cfg;
    cfg.family = proto::Family::kMirai;
    cfg.ip = net::Ipv4{60, 1, 1, 1};
    cfg.port = 23;
    cfg.accept_prob = 1.0;
    cfg.profile = server_profile;
    cfg.attack_plan = {make_cmd(proto::Family::kMirai, proto::AttackType::kUdpFlood)};
    botnet::C2Server server(net, cfg, util::Rng(7));

    emu::SandboxConfig sc;
    sc.profiles = &reg;
    emu::Sandbox sandbox(net, sc);
    emu::SandboxOptions opts;
    opts.mode = emu::SandboxMode::kLive;
    opts.duration = sim::Duration::minutes(40);
    opts.allowed_c2 = net::Endpoint{{60, 1, 1, 1}, 23};
    emu::SandboxReport report;
    sandbox.start(binary, opts, [&](const emu::SandboxReport& r) { report = r; });
    sched.run_until(sched.now() + opts.duration + sim::Duration::minutes(1));
    return report;
  };

  // Against a variant-profile server the bot registers and receives the
  // command; against the builtin server the magic-2 handshake is rejected.
  const auto ok = run_against(reg.by_name("mirai-fallback"));
  EXPECT_GE(ok.commands.size(), 1u);
  const auto refused = run_against(nullptr);
  EXPECT_EQ(refused.commands.size(), 0u);
}

// --- DDoS decoding through the registry -------------------------------------

TEST(ProfileDdos, VariantTextGrammarIsDecodedByProtocol) {
  // A Gafgyt fork with its own attack prefix and UDP keyword: the command
  // "!! HAMMER ip port secs" parses under no builtin grammar, so only the
  // registry that loaded the variant can decode it by protocol.
  auto variant = builtin_profile(proto::Family::kGafgyt);
  variant.name = "gafgyt-hammer";
  variant.attack_prefix = "!!";
  ASSERT_EQ(variant.commands.front().type, proto::AttackType::kUdpFlood);
  variant.commands.front().keyword = "HAMMER";
  variant.attacker_quota = 0;
  ASSERT_FALSE(variant.validate().has_value()) << *variant.validate();
  Registry reg;
  const auto path = tmp_path("ddos_gafgyt_hammer.json");
  write_text(path, variant.to_pretty_json());
  ASSERT_FALSE(reg.load_file(path).has_value());

  const net::Endpoint c2{net::Ipv4{60, 2, 2, 2}, 666};
  mal::MbfBinary bin;
  bin.behavior.family = proto::Family::kGafgyt;
  bin.behavior.profile_name = variant.name;
  bin.behavior.bot_id = "hbot";
  bin.behavior.c2_ip = c2.ip;
  bin.behavior.c2_port = c2.port;
  util::Rng forge_rng(9);
  const auto binary = mal::forge(bin, forge_rng);

  sim::EventScheduler sched;
  sim::Network net{sched};
  botnet::C2ServerConfig cfg;
  cfg.family = proto::Family::kGafgyt;
  cfg.ip = c2.ip;
  cfg.port = c2.port;
  cfg.accept_prob = 1.0;
  cfg.profile = reg.by_name(variant.name);
  const auto cmd = make_cmd(proto::Family::kGafgyt, proto::AttackType::kUdpFlood);
  cfg.attack_plan = {cmd};
  botnet::C2Server server(net, cfg, util::Rng(11));

  emu::SandboxConfig sc;
  sc.profiles = &reg;
  emu::Sandbox sandbox(net, sc);
  emu::SandboxOptions opts;
  opts.mode = emu::SandboxMode::kLive;
  opts.duration = sim::Duration::minutes(40);
  opts.allowed_c2 = c2;
  emu::SandboxReport report;
  sandbox.start(binary, opts, [&](const emu::SandboxReport& r) { report = r; });
  sched.run_until(sched.now() + opts.duration + sim::Duration::minutes(1));
  ASSERT_EQ(report.commands.size(), 1u) << "the variant bot must act on the command";

  const auto dets = core::detect_ddos(report, c2, proto::Family::kGafgyt, reg);
  ASSERT_EQ(dets.size(), 1u);
  EXPECT_EQ(dets[0].method, core::DdosMethod::kProtocolProfile);
  EXPECT_TRUE(dets[0].verified);
  EXPECT_TRUE(same_command(dets[0].command, cmd));
  EXPECT_EQ(util::to_string(dets[0].command.raw), "!! HAMMER 198.51.100.7 80 30");

  // The builtin registry cannot read the dialect: at most the behavioural
  // heuristic sees the flood.
  for (const auto& det : core::detect_ddos(report, c2, proto::Family::kGafgyt,
                                           Registry::builtin())) {
    EXPECT_EQ(det.method, core::DdosMethod::kBehaviouralHeuristic);
  }
}

TEST(ProfileDdos, SharedGrammarVariantDoesNotDoubleCount) {
  // mirai-fallback shares the builtin Mirai attack grammar; a frame both
  // profiles accept is one command, decoded by the first in registry order.
  Registry reg;
  const auto path = tmp_path("ddos_mirai_fallback.json");
  write_text(path, make_variant().to_pretty_json());
  ASSERT_FALSE(reg.load_file(path).has_value());

  const net::Endpoint c2{net::Ipv4{60, 1, 1, 1}, 23};
  const auto cmd = make_cmd(proto::Family::kMirai, proto::AttackType::kSynFlood);
  emu::SandboxReport report;
  net::Packet frame;
  frame.time = util::SimTime{1'000'000};
  frame.src = c2.ip;
  frame.src_port = c2.port;
  frame.dst = net::Ipv4{10, 77, 0, 16};
  frame.proto = net::Protocol::kTcp;
  frame.payload =
      wire::encode_binary_attack(builtin_profile(proto::Family::kMirai), cmd);
  report.capture.push_back(frame);
  for (int i = 0; i < 50; ++i) {
    net::Packet syn;
    syn.time = util::SimTime{2'000'000 + i * 5'000};
    syn.src = frame.dst;
    syn.dst = cmd.target.ip;
    syn.proto = net::Protocol::kTcp;
    syn.dst_port = cmd.target.port;
    syn.flags.syn = true;
    report.capture.push_back(syn);
  }

  for (const auto hint : {std::optional<proto::Family>{},
                          std::optional<proto::Family>{proto::Family::kMirai}}) {
    const auto dets = core::detect_ddos(report, c2, hint, reg);
    ASSERT_EQ(dets.size(), 1u);
    EXPECT_EQ(dets[0].method, core::DdosMethod::kProtocolProfile);
    EXPECT_TRUE(dets[0].verified);
    EXPECT_TRUE(same_command(dets[0].command, cmd));
  }
}

// --- behaviour-spec wire extensions ------------------------------------------

TEST(ProfileBehavior, SpecRoundTripsProfileNameAndExtraC2) {
  mal::BehaviorSpec spec;
  spec.family = proto::Family::kMirai;
  spec.bot_id = "b";
  spec.c2_ip = net::Ipv4{60, 1, 1, 1};
  spec.c2_port = 23;
  const auto plain = mal::encode_behavior(spec);

  spec.profile_name = "mirai-fallback";
  spec.extra_c2 = {{net::Ipv4{61, 1, 1, 1}, 23}, {net::Ipv4{62, 1, 1, 1}, 24}};
  const auto extended = mal::encode_behavior(spec);
  EXPECT_GT(extended.size(), plain.size());

  const auto back = mal::decode_behavior(extended);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->profile_name, "mirai-fallback");
  ASSERT_EQ(back->extra_c2.size(), 2u);
  EXPECT_EQ(back->extra_c2[1].port, 24);

  // Default-valued fields add no bytes: pre-profile binaries stay valid
  // and new encodes of plain specs are byte-identical to old ones.
  const auto plain_back = mal::decode_behavior(plain);
  ASSERT_TRUE(plain_back.has_value());
  EXPECT_TRUE(plain_back->profile_name.empty());
  EXPECT_TRUE(plain_back->extra_c2.empty());
}

// --- fuzz --------------------------------------------------------------------

TEST(ProfileFuzz, ParserNeverCrashesNorAcceptsInvalid) {
  const auto corpus = testkit::corpus_inputs("profile_");
  ASSERT_FALSE(corpus.empty());
  const testkit::Mutator mutator;
  testkit::CheckConfig cfg;
  cfg.cases = 5'000;
  cfg.name = "profile parse no-crash";
  const auto inputs =
      testkit::apply(
          [&corpus](std::uint64_t pick, int which, util::Bytes noise) {
            return which == 0 ? noise : corpus[pick % corpus.size()];
          },
          testkit::ints<std::uint64_t>(0, 1'000'000), testkit::ints<int>(0, 7),
          testkit::byte_strings(0, 512))
          .map([&mutator](util::Bytes base) {
            util::Rng mrng(util::fnv1a64(util::to_hex(base)), 17);
            return mutator.mutate(base, mrng);
          });
  const auto r = testkit::check(
      inputs,
      [](const util::Bytes& data) {
        ParseIssue issue;
        const auto p = parse_profile(
            std::string_view(reinterpret_cast<const char*>(data.data()),
                             data.size()),
            &issue);
        // Anything that parses must be a fully valid profile — the parser
        // must never hand consumers a profile validate() would reject.
        return !p.has_value() || !p->validate().has_value();
      },
      cfg);
  EXPECT_TRUE(r.ok) << r.summary();
}
