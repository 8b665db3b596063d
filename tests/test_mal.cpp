#include <gtest/gtest.h>

#include "mal/behavior.hpp"
#include "mal/binary.hpp"
#include "mal/labels.hpp"

using namespace malnet;
using namespace malnet::mal;

namespace {
BehaviorSpec centralized_spec() {
  BehaviorSpec spec;
  spec.family = proto::Family::kGafgyt;
  spec.c2_ip = net::Ipv4{60, 1, 2, 3};
  spec.c2_fallback_ip = net::Ipv4{60, 4, 5, 6};
  spec.c2_fallback_port = 6969;
  spec.c2_port = 23;
  spec.bot_id = "gaf.mips.1";
  spec.keepalive_s = 75;
  spec.check_internet = true;
  spec.anti_sandbox = true;
  spec.scans.push_back({8080, vulndb::VulnId::kGpon10562, 64, 12.5});
  spec.scans.push_back({23, std::nullopt, 40, 5.0});
  spec.loader_name = "8UsA.sh";
  spec.downloader_host = "60.1.2.3";
  return spec;
}

BehaviorSpec p2p_spec() {
  BehaviorSpec spec;
  spec.family = proto::Family::kMozi;
  spec.node_id = std::string(20, 'Z');
  spec.p2p_peers = {{net::Ipv4{61, 1, 1, 1}, 6881}, {net::Ipv4{61, 2, 2, 2}, 9999}};
  return spec;
}
}  // namespace

TEST(Behavior, EncodeDecodeRoundTripCentralized) {
  const auto spec = centralized_spec();
  const auto decoded = decode_behavior(encode_behavior(spec));
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->family, spec.family);
  EXPECT_EQ(decoded->c2_ip, spec.c2_ip);
  EXPECT_EQ(decoded->c2_fallback_ip, spec.c2_fallback_ip);
  EXPECT_EQ(decoded->c2_fallback_port, 6969);
  EXPECT_EQ(decoded->c2_port, 23);
  EXPECT_EQ(decoded->bot_id, spec.bot_id);
  EXPECT_EQ(decoded->keepalive_s, 75u);
  EXPECT_TRUE(decoded->check_internet);
  EXPECT_TRUE(decoded->anti_sandbox);
  ASSERT_EQ(decoded->scans.size(), 2u);
  EXPECT_EQ(decoded->scans[0].port, 8080);
  ASSERT_TRUE(decoded->scans[0].vuln);
  EXPECT_EQ(*decoded->scans[0].vuln, vulndb::VulnId::kGpon10562);
  EXPECT_NEAR(decoded->scans[0].pps, 12.5, 0.001);
  EXPECT_FALSE(decoded->scans[1].vuln);
  EXPECT_EQ(decoded->loader_name, "8UsA.sh");
  EXPECT_EQ(decoded->downloader_host, "60.1.2.3");
}

TEST(Behavior, EncodeDecodeRoundTripDomainAndP2p) {
  BehaviorSpec dom;
  dom.family = proto::Family::kMirai;
  // Assigned as a std::string: emplace() and a bare literal both trip a GCC 12
  // -Wmaybe-uninitialized false positive at -O2 or -O3.
  dom.c2_domain = std::string("cnc.bot-net1.com");
  dom.c2_port = 443;
  auto decoded = decode_behavior(encode_behavior(dom));
  ASSERT_TRUE(decoded);
  ASSERT_TRUE(decoded->c2_domain.has_value());
  EXPECT_EQ(*decoded->c2_domain, "cnc.bot-net1.com");
  EXPECT_FALSE(decoded->c2_ip);

  const auto p2p = p2p_spec();
  decoded = decode_behavior(encode_behavior(p2p));
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->node_id, p2p.node_id);
  ASSERT_EQ(decoded->p2p_peers.size(), 2u);
  EXPECT_EQ(decoded->p2p_peers[1].port, 9999);
}

TEST(Behavior, DecodeRejectsJunk) {
  EXPECT_FALSE(decode_behavior(util::Bytes{}));
  EXPECT_FALSE(decode_behavior(util::from_hex("ff 00")));  // bad family
  auto wire = encode_behavior(centralized_spec());
  wire.pop_back();
  EXPECT_FALSE(decode_behavior(wire));  // truncated
  wire = encode_behavior(centralized_spec());
  wire.push_back(0);
  EXPECT_FALSE(decode_behavior(wire));  // trailing bytes
}

TEST(Behavior, ValidateCatchesStructuralErrors) {
  EXPECT_FALSE(centralized_spec().validate());
  EXPECT_FALSE(p2p_spec().validate());

  BehaviorSpec no_c2;
  no_c2.family = proto::Family::kMirai;
  EXPECT_TRUE(no_c2.validate());

  BehaviorSpec both = centralized_spec();
  both.c2_domain = "x.y";
  EXPECT_TRUE(both.validate());

  BehaviorSpec p2p_no_peers;
  p2p_no_peers.family = proto::Family::kMozi;
  p2p_no_peers.node_id = std::string(20, 'A');
  EXPECT_TRUE(p2p_no_peers.validate());

  BehaviorSpec bad_scan = centralized_spec();
  bad_scan.scans[0].target_count = 0;
  EXPECT_TRUE(bad_scan.validate());
}

TEST(Binary, ForgeParseRoundTrip) {
  MbfBinary content;
  content.behavior = centralized_spec();
  content.marker_strings = {family_marker(proto::Family::kGafgyt), "watchdog"};
  util::Rng rng(1);
  const auto bytes = forge(content, rng);
  const auto parsed = parse(bytes);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->arch, Arch::kMips32);
  ASSERT_EQ(parsed->marker_strings.size(), 2u);
  EXPECT_EQ(parsed->marker_strings[0], family_marker(proto::Family::kGafgyt));
  EXPECT_EQ(parsed->behavior.bot_id, "gaf.mips.1");
}

TEST(Binary, MarkerStringsAreObfuscatedOnDisk) {
  MbfBinary content;
  content.behavior = p2p_spec();
  content.marker_strings = {family_marker(proto::Family::kMozi)};
  util::Rng rng(2);
  const auto bytes = forge(content, rng);
  // The plain marker must NOT appear verbatim (it is XORed).
  EXPECT_FALSE(util::contains(bytes, family_marker(proto::Family::kMozi)));
}

TEST(Binary, ParseRejectsJunk) {
  EXPECT_FALSE(parse(util::Bytes{}));
  EXPECT_FALSE(parse(util::to_bytes("\x7f" "ELF junk")));
  MbfBinary content;
  content.behavior = p2p_spec();
  util::Rng rng(3);
  auto bytes = forge(content, rng);
  bytes[4] = 99;  // version
  EXPECT_FALSE(parse(bytes));
}

TEST(Binary, DigestIsStableAndDiscriminating) {
  MbfBinary content;
  content.behavior = p2p_spec();
  util::Rng rng(4);
  const auto a = forge(content, rng);
  const auto b = forge(content, rng);  // different rng noise
  EXPECT_EQ(digest(a).size(), 64u);
  EXPECT_EQ(digest(a), digest(a));
  EXPECT_NE(digest(a), digest(b));
}

// Parameterized over all families: YARA-lite must label forged binaries.
class YaraLabelling : public ::testing::TestWithParam<proto::Family> {};

TEST_P(YaraLabelling, IdentifiesFamilyFromMarkers) {
  const auto family = GetParam();
  MbfBinary content;
  content.behavior = proto::is_p2p(family) ? p2p_spec() : centralized_spec();
  content.behavior.family = family;
  content.marker_strings = {family_marker(family), "/proc/net/tcp"};
  util::Rng rng(static_cast<std::uint64_t>(family) + 10);
  const auto bytes = forge(content, rng);

  const auto hits = yara_scan(bytes);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0]->family, family);
  const auto label = yara_label(bytes);
  ASSERT_TRUE(label);
  EXPECT_EQ(*label, family);
  EXPECT_EQ(combined_label(bytes, family), family);
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, YaraLabelling,
                         ::testing::Values(proto::Family::kMirai,
                                           proto::Family::kGafgyt,
                                           proto::Family::kTsunami,
                                           proto::Family::kDaddyl33t,
                                           proto::Family::kMozi,
                                           proto::Family::kHajime,
                                           proto::Family::kVpnFilter),
                         [](const auto& info) { return proto::to_string(info.param); });

TEST(Labels, AvclassMislabelsP2pAsMirai) {
  // §2.2: "all the instances of the Mozi family ... are wrongly classified
  // as Mirai" by AVClass2.
  EXPECT_EQ(avclass_label(proto::Family::kMozi), proto::Family::kMirai);
  EXPECT_EQ(avclass_label(proto::Family::kHajime), proto::Family::kMirai);
  EXPECT_EQ(avclass_label(proto::Family::kGafgyt), proto::Family::kGafgyt);
}

TEST(Labels, CombinedFallsBackToAvclassWithoutMarkers) {
  // A stripped binary (no YARA-able strings) falls back to the (faulty)
  // AVClass label.
  MbfBinary content;
  content.behavior = p2p_spec();
  content.marker_strings = {};  // stripped
  util::Rng rng(5);
  const auto bytes = forge(content, rng);
  EXPECT_FALSE(yara_label(bytes));
  EXPECT_EQ(combined_label(bytes, proto::Family::kMozi), proto::Family::kMirai);
}
