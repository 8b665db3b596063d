#include <gtest/gtest.h>

#include "profile/wire.hpp"
#include "proto/attack.hpp"
#include "proto/family.hpp"
#include "proto/irc.hpp"
#include "proto/p2p.hpp"

using namespace malnet;
using namespace malnet::proto;
namespace wire = malnet::profile::wire;

namespace {
// The Mirai/Gafgyt/Daddyl33t dialects as the builtin profiles speak them.
const profile::FamilyProfile kMirai = profile::builtin_profile(Family::kMirai);
const profile::FamilyProfile kGafgyt = profile::builtin_profile(Family::kGafgyt);
const profile::FamilyProfile kDaddyl33t = profile::builtin_profile(Family::kDaddyl33t);
}  // namespace

// --- family ------------------------------------------------------------------

TEST(Family, StringRoundTrip) {
  for (int f = 0; f < kFamilyCount; ++f) {
    const auto fam = static_cast<Family>(f);
    const auto parsed = family_from_string(to_string(fam));
    ASSERT_TRUE(parsed);
    EXPECT_EQ(*parsed, fam);
  }
  EXPECT_FALSE(family_from_string("WannaCry"));
  EXPECT_TRUE(family_from_string("mirai"));  // case-insensitive
}

TEST(Family, P2pClassification) {
  EXPECT_TRUE(is_p2p(Family::kMozi));
  EXPECT_TRUE(is_p2p(Family::kHajime));
  EXPECT_FALSE(is_p2p(Family::kMirai));
  EXPECT_FALSE(is_p2p(Family::kVpnFilter));
}

// --- attack taxonomy -----------------------------------------------------------

TEST(Attack, ProtocolBuckets) {
  EXPECT_EQ(attack_protocol(AttackType::kUdpFlood, 8080), AttackProtocol::kUdp);
  EXPECT_EQ(attack_protocol(AttackType::kUdpFlood, 53), AttackProtocol::kDns);
  EXPECT_EQ(attack_protocol(AttackType::kSynFlood, 80), AttackProtocol::kTcp);
  EXPECT_EQ(attack_protocol(AttackType::kStomp, 61613), AttackProtocol::kTcp);
  EXPECT_EQ(attack_protocol(AttackType::kBlacknurse, 0), AttackProtocol::kIcmp);
  EXPECT_EQ(attack_protocol(AttackType::kVse, 27015), AttackProtocol::kUdp);
}

TEST(Attack, GamingTypes) {
  // §5: "two types of attacks targeting gaming servers" — VSE and NFO.
  int gaming = 0;
  for (int t = 0; t < kAttackTypeCount; ++t) {
    if (is_gaming_attack(static_cast<AttackType>(t))) ++gaming;
  }
  EXPECT_EQ(gaming, 2);
  EXPECT_TRUE(is_gaming_attack(AttackType::kVse));
  EXPECT_TRUE(is_gaming_attack(AttackType::kNfo));
}

TEST(Attack, FamilyRepertoires) {
  // Figure 11: Mirai 5 types, Daddyl33t 5 (most diverse incl. NURSE/NFO),
  // Gafgyt 3; together they cover all 8.
  std::set<AttackType> all;
  for (const Family f : {Family::kMirai, Family::kGafgyt, Family::kDaddyl33t}) {
    for (const auto t : attacks_of(f)) all.insert(t);
  }
  EXPECT_EQ(all.size(), static_cast<std::size_t>(kAttackTypeCount));
  EXPECT_EQ(attacks_of(Family::kMirai).size(), 5u);
  EXPECT_EQ(attacks_of(Family::kGafgyt).size(), 3u);
  EXPECT_EQ(attacks_of(Family::kDaddyl33t).size(), 5u);
  EXPECT_TRUE(attacks_of(Family::kTsunami).empty());
  EXPECT_TRUE(attacks_of(Family::kMozi).empty());
}

TEST(Attack, KeywordMappingsInvertible) {
  // The builtin profiles' decode lookups invert the forward tables they
  // are built from.
  for (const auto t : attacks_of(Family::kGafgyt)) {
    const auto kw = gafgyt_keyword_of(t);
    ASSERT_TRUE(kw);
    ASSERT_NE(kGafgyt.by_keyword(*kw), nullptr) << *kw;
    EXPECT_EQ(kGafgyt.by_keyword(*kw)->type, t);
  }
  for (const auto t : attacks_of(Family::kDaddyl33t)) {
    const auto kw = daddyl33t_keyword_of(t);
    ASSERT_TRUE(kw);
    ASSERT_NE(kDaddyl33t.by_keyword(*kw), nullptr) << *kw;
    EXPECT_EQ(kDaddyl33t.by_keyword(*kw)->type, t);
  }
  for (const auto t : attacks_of(Family::kMirai)) {
    const auto vec = mirai_vector_of(t);
    ASSERT_TRUE(vec);
    ASSERT_NE(kMirai.by_vector(*vec), nullptr) << int{*vec};
    EXPECT_EQ(kMirai.by_vector(*vec)->type, t);
  }
  EXPECT_FALSE(gafgyt_keyword_of(AttackType::kBlacknurse));
  EXPECT_EQ(kMirai.by_vector(99), nullptr);
}

// --- Mirai binary protocol -----------------------------------------------------

TEST(Mirai, HandshakeRoundTrip) {
  const auto bytes = wire::encode_handshake(kMirai, "mips.bot.7");
  const auto hs = wire::decode_handshake(kMirai, bytes);
  ASSERT_TRUE(hs);
  EXPECT_EQ(hs->bot_id, "mips.bot.7");
}

TEST(Mirai, HandshakeRejectsJunk) {
  EXPECT_FALSE(wire::decode_handshake(kMirai, util::from_hex("00000002 00")));
  EXPECT_FALSE(wire::decode_handshake(kMirai, util::from_hex("00000001 05 6161")));
  auto bytes = wire::encode_handshake(kMirai, "x");
  bytes.push_back(0);  // trailing garbage
  EXPECT_FALSE(wire::decode_handshake(kMirai, bytes));
}

TEST(Mirai, HandshakeIgnoresKeepaliveShortAndTruncatedFrames) {
  // A C2 server tries every inbound frame as a handshake first, so these
  // arrive on every session and must decode to nothing.
  EXPECT_FALSE(wire::decode_handshake(kMirai, wire::encode_keepalive()));
  EXPECT_FALSE(wire::decode_handshake(kMirai, util::BytesView{}));
  EXPECT_FALSE(wire::decode_handshake(kMirai, util::from_hex("00")));
  EXPECT_FALSE(wire::decode_handshake(kMirai, util::from_hex("00000001")));
  EXPECT_FALSE(wire::decode_handshake(kMirai, util::from_hex("00000001 03 6162")));
  // The shortest well-formed handshake (empty id) still decodes.
  const auto empty_id = wire::decode_handshake(kMirai, util::from_hex("00000001 00"));
  ASSERT_TRUE(empty_id);
  EXPECT_EQ(empty_id->bot_id, "");
}

TEST(Mirai, Keepalive) {
  EXPECT_TRUE(wire::is_keepalive(wire::encode_keepalive()));
  EXPECT_FALSE(wire::is_keepalive(util::from_hex("0001")));
}

TEST(Mirai, AttackCommandRoundTrip) {
  AttackCommand cmd;
  cmd.type = AttackType::kSynFlood;
  cmd.target = {net::Ipv4{203, 0, 113, 9}, 443};
  cmd.duration_s = 120;
  const auto bytes = wire::encode_binary_attack(kMirai, cmd);
  const auto decoded = wire::decode_binary_attack(kMirai, bytes);
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->type, AttackType::kSynFlood);
  EXPECT_EQ(decoded->target, cmd.target);
  EXPECT_EQ(decoded->duration_s, 120u);
  EXPECT_EQ(decoded->family, Family::kMirai);
  EXPECT_EQ(decoded->raw, bytes);
}

TEST(Mirai, AttackWithoutPortOption) {
  AttackCommand cmd;
  cmd.type = AttackType::kUdpFlood;
  cmd.target = {net::Ipv4{1, 2, 3, 4}, 0};
  const auto decoded =
      wire::decode_binary_attack(kMirai, wire::encode_binary_attack(kMirai, cmd));
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->target.port, 0);
}

TEST(Mirai, EncodeRejectsForeignTypes) {
  AttackCommand cmd;
  cmd.type = AttackType::kBlacknurse;  // daddyl33t-only
  EXPECT_THROW((void)wire::encode_binary_attack(kMirai, cmd), std::invalid_argument);
}

TEST(Mirai, DecodeRejectsMalformedFrames) {
  const auto decode = [](const util::Bytes& bytes) {
    return wire::decode_binary_attack(kMirai, bytes);
  };
  EXPECT_FALSE(decode(util::from_hex("0000")));     // keepalive
  EXPECT_FALSE(decode(util::from_hex("0001 00")));  // short body
  EXPECT_FALSE(decode(util::from_hex("00ff 00")));  // truncated
  AttackCommand cmd;
  cmd.type = AttackType::kUdpFlood;
  cmd.target = {net::Ipv4{1, 2, 3, 4}, 80};
  auto bytes = wire::encode_binary_attack(kMirai, cmd);
  bytes[6] = 99;  // unknown vector id
  EXPECT_FALSE(decode(bytes));
}

// --- Gafgyt text protocol -----------------------------------------------------

TEST(Gafgyt, HelloRoundTrip) {
  const auto hello = wire::encode_hello(kGafgyt, "MIPS");
  const auto arch = wire::decode_hello(kGafgyt, hello);
  ASSERT_TRUE(arch);
  EXPECT_EQ(*arch, "MIPS");
  EXPECT_FALSE(wire::decode_hello(kGafgyt, "HELLO MIPS"));
}

TEST(Gafgyt, PingPong) {
  EXPECT_TRUE(wire::is_ping(kGafgyt, "PING\n"));
  EXPECT_TRUE(wire::is_pong(kGafgyt, "PONG\n"));
  EXPECT_FALSE(wire::is_ping(kGafgyt, "PING yes"));
}

TEST(Gafgyt, AttackRoundTrip) {
  AttackCommand cmd;
  cmd.type = AttackType::kStd;
  cmd.target = {net::Ipv4{198, 51, 100, 7}, 9999};
  cmd.duration_s = 60;
  const auto line = wire::encode_text_attack(kGafgyt, cmd);
  EXPECT_EQ(line, "!* STD 198.51.100.7 9999 60\n");
  const auto decoded = wire::decode_text_attack(kGafgyt, line);
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->type, AttackType::kStd);
  EXPECT_EQ(decoded->target, cmd.target);
  EXPECT_EQ(decoded->family, Family::kGafgyt);
}

TEST(Gafgyt, DecodeRejectsMalformed) {
  const auto decode = [](std::string_view line) {
    return wire::decode_text_attack(kGafgyt, line);
  };
  EXPECT_FALSE(decode("!* UDP 1.2.3.4 80"));          // missing time
  EXPECT_FALSE(decode("!* HYDRASYN 1.2.3.4 80 10"));  // foreign verb
  EXPECT_FALSE(decode("UDP 1.2.3.4 80 10"));          // no prefix
  EXPECT_FALSE(decode("!* UDP 1.2.3.999 80 10"));     // bad ip
  EXPECT_FALSE(decode("!* UDP 1.2.3.4 99999 10"));    // bad port
}

// --- Daddyl33t text protocol ---------------------------------------------------

TEST(Daddyl33t, LoginRoundTrip) {
  const auto line = wire::encode_hello(kDaddyl33t, "bot42");
  EXPECT_EQ(line, "l33t LOGIN bot42\n");
  const auto id = wire::decode_hello(kDaddyl33t, line);
  ASSERT_TRUE(id);
  EXPECT_EQ(*id, "bot42");
  EXPECT_FALSE(wire::decode_hello(kDaddyl33t, "LOGIN bot42"));
}

TEST(Daddyl33t, AttackRoundTripAllVerbs) {
  for (const auto type : attacks_of(Family::kDaddyl33t)) {
    AttackCommand cmd;
    cmd.type = type;
    cmd.target = {net::Ipv4{192, 0, 2, 55},
                  type == AttackType::kBlacknurse ? net::Port{0} : net::Port{4567}};
    cmd.duration_s = 45;
    const auto decoded = wire::decode_text_attack(
        kDaddyl33t, wire::encode_text_attack(kDaddyl33t, cmd));
    ASSERT_TRUE(decoded) << to_string(type);
    EXPECT_EQ(decoded->type, type);
    EXPECT_EQ(decoded->target, cmd.target);
    EXPECT_EQ(decoded->family, Family::kDaddyl33t);
  }
}

TEST(Daddyl33t, GrammarIsDistinctFromGafgyt) {
  // The same UDP attack encodes differently per family profile (§2.5a).
  AttackCommand cmd;
  cmd.type = AttackType::kUdpFlood;
  cmd.target = {net::Ipv4{1, 2, 3, 4}, 80};
  const auto daddy = wire::encode_text_attack(kDaddyl33t, cmd);
  const auto gafgyt = wire::encode_text_attack(kGafgyt, cmd);
  EXPECT_NE(daddy, gafgyt);
  EXPECT_FALSE(wire::decode_text_attack(kGafgyt, daddy));
  EXPECT_FALSE(wire::decode_text_attack(kDaddyl33t, gafgyt));
}

// --- IRC (Tsunami) -------------------------------------------------------------

TEST(Irc, ParseFullMessage) {
  const auto msg = irc::parse(":server.example 001 bot :Welcome\r\n");
  ASSERT_TRUE(msg);
  EXPECT_EQ(msg->prefix, "server.example");
  EXPECT_EQ(msg->command, "001");
  ASSERT_EQ(msg->params.size(), 1u);
  EXPECT_EQ(msg->params[0], "bot");
  EXPECT_EQ(msg->trailing, "Welcome");
}

TEST(Irc, SerializeParseRoundTrip) {
  for (const auto& msg :
       {irc::nick("bot1"), irc::user("bot1"), irc::join("#tsunami"),
        irc::privmsg("#tsunami", "hello world"), irc::ping("tok"), irc::pong("tok")}) {
    const auto parsed = irc::parse(msg.serialize());
    ASSERT_TRUE(parsed) << msg.serialize();
    EXPECT_EQ(parsed->command, msg.command);
    EXPECT_EQ(parsed->params, msg.params);
    EXPECT_EQ(parsed->trailing, msg.trailing);
  }
}

TEST(Irc, ParseRejectsEmpty) {
  EXPECT_FALSE(irc::parse(""));
  EXPECT_FALSE(irc::parse("\r\n"));
  EXPECT_FALSE(irc::parse(":prefixonly"));
}

// --- P2P (Mozi/Hajime) ----------------------------------------------------------

TEST(P2p, PingRoundTrip) {
  const p2p::DhtPing ping{std::string(20, 'N'), "ab"};
  const auto wire = p2p::encode_ping(ping);
  const auto decoded = p2p::decode_ping(wire);
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->node_id, ping.node_id);
  EXPECT_EQ(decoded->txn, "ab");
  EXPECT_TRUE(p2p::looks_like_dht(wire));
}

TEST(P2p, PongLooksLikeDht) {
  const auto wire = p2p::encode_pong({std::string(20, 'M'), "xy"});
  EXPECT_TRUE(p2p::looks_like_dht(wire));
  EXPECT_FALSE(p2p::decode_ping(wire));  // pong is not a ping
}

TEST(P2p, ValidationAndJunk) {
  EXPECT_THROW((void)p2p::encode_ping({"short", "ab"}), std::invalid_argument);
  EXPECT_THROW((void)p2p::encode_ping({std::string(20, 'N'), "abc"}),
               std::invalid_argument);
  EXPECT_FALSE(p2p::looks_like_dht(util::to_bytes("GET / HTTP/1.1")));
  EXPECT_FALSE(p2p::decode_ping(util::to_bytes("d1:ad2:id20:short")));
}
