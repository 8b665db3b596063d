// Property-based tests for every C2 protocol codec: the profile::wire
// codecs under the builtin Mirai/Gafgyt/Daddyl33t profiles, plus the IRC
// and P2P codecs in src/proto:
//
//   round-trip laws   decode(encode(x)) == x for randomly generated
//                     commands/messages of each family
//   no-crash laws     decoders fed random buffers and structure-aware
//                     mutations of the committed corpus must return a clean
//                     error (nullopt/false), never throw or OOB-read (the
//                     ASan CI job verifies the latter)
//   error paths       explicit empty/1-byte/max-length-field regressions
//
// Failures print a seed; rerun with MALNET_CHECK_SEED=<seed> to reproduce.
#include <gtest/gtest.h>

#include "profile/wire.hpp"
#include "proto/attack.hpp"
#include "proto/family.hpp"
#include "proto/irc.hpp"
#include "proto/p2p.hpp"
#include "testkit/testkit.hpp"

using namespace malnet;
using namespace malnet::proto;
using namespace malnet::testkit;
namespace wire = malnet::profile::wire;

namespace {

const profile::FamilyProfile kMirai = profile::builtin_profile(Family::kMirai);
const profile::FamilyProfile kGafgyt = profile::builtin_profile(Family::kGafgyt);
const profile::FamilyProfile kDaddyl33t = profile::builtin_profile(Family::kDaddyl33t);

constexpr int kRoundTripCases = 1000;
constexpr int kNoCrashCases = 10'000;

Gen<net::Ipv4> ipv4s() {
  return apply(
      [](std::uint8_t a, std::uint8_t b, std::uint8_t c, std::uint8_t d) {
        return net::Ipv4{a, b, c, d};
      },
      any_byte(), any_byte(), any_byte(), any_byte());
}

/// A valid AttackCommand for `family`, drawing only from its repertoire.
/// ICMP-borne attacks carry port 0 like the real commands do.
Gen<AttackCommand> attack_commands(Family family) {
  return apply(
      [family](AttackType type, net::Ipv4 ip, net::Port port,
               std::uint32_t duration) {
        AttackCommand cmd;
        cmd.family = family;
        cmd.type = type;
        cmd.target = {ip, attack_protocol(type, port) == AttackProtocol::kIcmp
                              ? net::Port{0}
                              : port};
        cmd.duration_s = duration;
        return cmd;
      },
      one_of(attacks_of(family)), ipv4s(), ints<net::Port>(1, 0xFFFF),
      ints<std::uint32_t>(1, 86'400));
}

bool same_command(const AttackCommand& a, const AttackCommand& b) {
  return a.type == b.type && a.family == b.family && a.target == b.target &&
         a.duration_s == b.duration_s;
}

/// Mutation-fuzz driver: `cases` structure-aware mutants of the corpus
/// entries under `prefix`, plus pure-noise buffers, against `prop`.
template <typename Prop>
CheckResult fuzz_decoder(const std::string& corpus_prefix, Prop prop,
                         std::string name) {
  const auto corpus = corpus_inputs(corpus_prefix);
  const Mutator mutator;
  CheckConfig cfg;
  cfg.cases = kNoCrashCases;
  cfg.name = std::move(name);
  // 7 parts mutated corpus (structure-aware), 1 part pure noise.
  const auto inputs =
      apply(
          [&corpus](std::uint64_t pick, int which, util::Bytes noise) {
            return which == 0 ? noise : corpus[pick % corpus.size()];
          },
          ints<std::uint64_t>(0, 1'000'000), ints<int>(0, 7),
          byte_strings(0, 256))
          .map([&mutator](util::Bytes base) {
            // Deterministic sub-seed: mutations must not depend on ambient
            // state, only on the buffer produced for this case.
            util::Rng mrng(util::fnv1a64(util::to_hex(base)), 17);
            return mutator.mutate(base, mrng);
          });
  return check(inputs, prop, cfg);
}

}  // namespace

// --- round-trip laws ---------------------------------------------------------

TEST(RoundTrip, MiraiAttack) {
  CheckConfig cfg;
  cfg.cases = kRoundTripCases;
  cfg.name = "mirai round-trip";
  const auto r = check(attack_commands(Family::kMirai),
                       [](const AttackCommand& cmd) {
                         const auto decoded = wire::decode_binary_attack(
                             kMirai, wire::encode_binary_attack(kMirai, cmd));
                         return decoded && same_command(*decoded, cmd);
                       },
                       cfg);
  EXPECT_TRUE(r.ok) << r.summary();
}

TEST(RoundTrip, MiraiHandshake) {
  CheckConfig cfg;
  cfg.cases = kRoundTripCases;
  cfg.name = "mirai handshake round-trip";
  const auto r = check(raw_strings(0, 255),
                       [](const std::string& id) {
                         const auto hs = wire::decode_handshake(
                             kMirai, wire::encode_handshake(kMirai, id));
                         return hs && hs->bot_id == id;
                       },
                       cfg);
  EXPECT_TRUE(r.ok) << r.summary();
}

TEST(RoundTrip, GafgytAttack) {
  CheckConfig cfg;
  cfg.cases = kRoundTripCases;
  cfg.name = "gafgyt round-trip";
  const auto r = check(attack_commands(Family::kGafgyt),
                       [](const AttackCommand& cmd) {
                         const auto decoded = wire::decode_text_attack(
                             kGafgyt, wire::encode_text_attack(kGafgyt, cmd));
                         return decoded && same_command(*decoded, cmd);
                       },
                       cfg);
  EXPECT_TRUE(r.ok) << r.summary();
}

TEST(RoundTrip, Daddyl33tAttack) {
  CheckConfig cfg;
  cfg.cases = kRoundTripCases;
  cfg.name = "daddyl33t round-trip";
  const auto r = check(attack_commands(Family::kDaddyl33t),
                       [](const AttackCommand& cmd) {
                         const auto decoded = wire::decode_text_attack(
                             kDaddyl33t, wire::encode_text_attack(kDaddyl33t, cmd));
                         return decoded && same_command(*decoded, cmd);
                       },
                       cfg);
  EXPECT_TRUE(r.ok) << r.summary();
}

TEST(RoundTrip, IrcPrivmsg) {
  CheckConfig cfg;
  cfg.cases = kRoundTripCases;
  cfg.name = "irc round-trip";
  const auto gen = apply(
      [](std::string target, std::string text) {
        return irc::privmsg("#" + target, text);
      },
      ascii_strings(1, 24), ascii_strings(1, 64, "abcdefXYZ0123456789 !*._-"));
  const auto r = check(gen,
                       [](const irc::IrcMessage& msg) {
                         const auto parsed = irc::parse(msg.serialize());
                         return parsed && parsed->command == msg.command &&
                                parsed->params == msg.params &&
                                parsed->trailing == msg.trailing;
                       },
                       cfg);
  EXPECT_TRUE(r.ok) << r.summary();
}

TEST(RoundTrip, P2pMessages) {
  CheckConfig cfg;
  cfg.cases = kRoundTripCases;
  cfg.name = "p2p round-trip";
  const auto ids = ascii_strings(20, 20);
  const auto txns = ascii_strings(2, 2);
  const auto gen = apply(
      [](std::string id, std::string txn, std::vector<std::pair<net::Ipv4, net::Port>> ps) {
        p2p::PeersReply reply;
        reply.node_id = std::move(id);
        reply.txn = std::move(txn);
        for (const auto& [ip, port] : ps) reply.peers.push_back({ip, port});
        return reply;
      },
      ids, txns, vectors_of(pair_of(ipv4s(), ints<net::Port>(0, 0xFFFF)), 0, 16));
  const auto r = check(gen,
                       [](const p2p::PeersReply& reply) {
                         const auto ping =
                             p2p::decode_ping(p2p::encode_ping({reply.node_id, reply.txn}));
                         if (!ping || ping->node_id != reply.node_id || ping->txn != reply.txn)
                           return false;
                         const auto gp = p2p::decode_get_peers(
                             p2p::encode_get_peers({reply.node_id, reply.txn}));
                         if (!gp || gp->node_id != reply.node_id || gp->txn != reply.txn)
                           return false;
                         const auto pr = p2p::decode_peers_reply(p2p::encode_peers_reply(reply));
                         return pr && pr->node_id == reply.node_id &&
                                pr->txn == reply.txn && pr->peers == reply.peers;
                       },
                       cfg);
  EXPECT_TRUE(r.ok) << r.summary();
}

// --- no-crash laws -----------------------------------------------------------
// Decoders are total functions: any byte buffer produces either a value or a
// clean nullopt/false — never an exception, OOB access, or hang.

TEST(NoCrash, MiraiDecoders) {
  const auto r = fuzz_decoder("mirai_",
                              [](util::BytesView bytes) {
                                (void)wire::decode_handshake(kMirai, bytes);
                                (void)wire::decode_binary_attack(kMirai, bytes);
                                (void)wire::is_keepalive(bytes);
                                return true;  // surviving is the property
                              },
                              "mirai no-crash");
  EXPECT_TRUE(r.ok) << r.summary();
}

TEST(NoCrash, GafgytDecoders) {
  const auto r = fuzz_decoder("gafgyt_",
                              [](util::BytesView bytes) {
                                const std::string line(bytes.begin(), bytes.end());
                                (void)wire::decode_hello(kGafgyt, line);
                                (void)wire::decode_text_attack(kGafgyt, line);
                                (void)wire::is_ping(kGafgyt, line);
                                (void)wire::is_pong(kGafgyt, line);
                                return true;
                              },
                              "gafgyt no-crash");
  EXPECT_TRUE(r.ok) << r.summary();
}

TEST(NoCrash, Daddyl33tDecoders) {
  const auto r = fuzz_decoder("daddyl33t_",
                              [](util::BytesView bytes) {
                                const std::string line(bytes.begin(), bytes.end());
                                (void)wire::decode_hello(kDaddyl33t, line);
                                (void)wire::decode_text_attack(kDaddyl33t, line);
                                (void)wire::is_ping(kDaddyl33t, line);
                                (void)wire::is_pong(kDaddyl33t, line);
                                return true;
                              },
                              "daddyl33t no-crash");
  EXPECT_TRUE(r.ok) << r.summary();
}

TEST(NoCrash, IrcParser) {
  const auto r = fuzz_decoder("irc_",
                              [](util::BytesView bytes) {
                                (void)irc::parse(std::string(bytes.begin(), bytes.end()));
                                return true;
                              },
                              "irc no-crash");
  EXPECT_TRUE(r.ok) << r.summary();
}

TEST(NoCrash, P2pDecoders) {
  const auto r = fuzz_decoder("p2p_",
                              [](util::BytesView bytes) {
                                (void)p2p::decode_ping(bytes);
                                (void)p2p::decode_get_peers(bytes);
                                (void)p2p::decode_peers_reply(bytes);
                                (void)p2p::looks_like_dht(bytes);
                                return true;
                              },
                              "p2p no-crash");
  EXPECT_TRUE(r.ok) << r.summary();
}

// --- error paths -------------------------------------------------------------
// The canonical adversarial minima, as named regression cases: empty input,
// a single byte, and length fields announcing more data than present.

TEST(ErrorPath, EmptyAndOneByteBuffers) {
  const std::vector<util::Bytes> minima = {{}, {0x00}, {0xFF}};
  const auto r = check_each(minima,
                            [](util::BytesView bytes) {
                              const std::string line(bytes.begin(), bytes.end());
                              return !wire::decode_handshake(kMirai, bytes) &&
                                     !wire::decode_binary_attack(kMirai, bytes) &&
                                     !wire::decode_text_attack(kGafgyt, line) &&
                                     !wire::decode_hello(kGafgyt, line) &&
                                     !wire::decode_text_attack(kDaddyl33t, line) &&
                                     !wire::decode_hello(kDaddyl33t, line) &&
                                     !p2p::decode_ping(bytes) &&
                                     !p2p::decode_get_peers(bytes) &&
                                     !p2p::decode_peers_reply(bytes) &&
                                     !p2p::looks_like_dht(bytes);
                            },
                            "proto empty/1-byte");
  EXPECT_TRUE(r.ok) << r.summary();
}

TEST(ErrorPath, MiraiMaxLengthFields) {
  // Frame length prefix announces 0xFFFF bytes, body absent or short.
  EXPECT_FALSE(wire::decode_binary_attack(kMirai, util::from_hex("ffff")));
  EXPECT_FALSE(
      wire::decode_binary_attack(kMirai, util::from_hex("ffff 00000001 00 01")));
  // Handshake id_len = 255 with a short id.
  EXPECT_FALSE(wire::decode_handshake(kMirai, util::from_hex("00000001 ff 6161")));
  // Option value length announces 255 bytes that are not there.
  // (frame len=14: duration=1s, vector 0, 1 target, 1 option whose value
  //  length byte says 0xFF with no value following)
  EXPECT_FALSE(wire::decode_binary_attack(
      kMirai, util::from_hex("000e 00000001 00 01 01020304 20 01 07 ff")));
}

TEST(ErrorPath, MiraiRegressionNTargetsOverflow) {
  // Found by the mutator: n_targets = 0xFF with a single-target body must
  // reject cleanly (the per-target skip walks off the end).
  auto bytes = corpus_file("mirai_attack.bin");
  ASSERT_GE(bytes.size(), 8u);
  bytes[7] = 0xFF;  // n_targets lives after len(2) + duration(4) + vector(1)
  EXPECT_FALSE(wire::decode_binary_attack(kMirai, bytes));
}

TEST(ErrorPath, TextProtocolsHugeNumericFields) {
  // 2^64 overflow and >u16 ports must both reject, not wrap around.
  EXPECT_FALSE(
      wire::decode_text_attack(kGafgyt, "!* UDP 1.2.3.4 80 99999999999999999999\n"));
  EXPECT_FALSE(wire::decode_text_attack(kGafgyt, "!* UDP 1.2.3.4 65536 10\n"));
  EXPECT_FALSE(
      wire::decode_text_attack(kDaddyl33t, "UDPRAW 1.2.3.4 80 18446744073709551616\n"));
  EXPECT_FALSE(wire::decode_text_attack(kDaddyl33t, "UDPRAW 1.2.3.4 99999 10\n"));
}
