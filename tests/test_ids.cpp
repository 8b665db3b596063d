#include <gtest/gtest.h>

#include "ids/rules.hpp"
#include "testkit/alloc_count.hpp"

using namespace malnet;
using namespace malnet::ids;

namespace {
net::Packet make_pkt(net::Protocol proto, const char* src, net::Port sport,
                     const char* dst, net::Port dport, std::string_view payload = "") {
  net::Packet p;
  p.src = *net::parse_ipv4(src);
  p.dst = *net::parse_ipv4(dst);
  p.proto = proto;
  p.src_port = sport;
  p.dst_port = dport;
  p.payload = util::to_bytes(payload);
  return p;
}
}  // namespace

TEST(IdsContent, PlainAndHexEscapes) {
  auto c = parse_content("abc");
  ASSERT_TRUE(c);
  EXPECT_EQ(*c, util::to_bytes("abc"));
  c = parse_content("ab|0d 0a|cd");
  ASSERT_TRUE(c);
  EXPECT_EQ(*c, util::from_hex("6162 0d0a 6364"));
  c = parse_content("|ff fb|");
  ASSERT_TRUE(c);
  EXPECT_EQ(*c, util::from_hex("fffb"));
  EXPECT_FALSE(parse_content("|zz|"));
  EXPECT_FALSE(parse_content("abc|0d"));  // unterminated
}

TEST(IdsParse, FullRule) {
  std::string err;
  const auto rule = parse_rule(
      "drop tcp 10.0.0.0/8 any -> any 23 (msg:\"telnet out\"; content:\"root\"; "
      "sid:42;)",
      &err);
  ASSERT_TRUE(rule) << err;
  EXPECT_EQ(rule->action, Action::kDrop);
  EXPECT_EQ(rule->proto, net::Protocol::kTcp);
  EXPECT_EQ(rule->msg, "telnet out");
  EXPECT_EQ(rule->sid, 42u);
  ASSERT_EQ(rule->contents.size(), 1u);
}

TEST(IdsParse, PortRangesAndAnyFields) {
  const auto rule = parse_rule("alert udp any 1024:65535 -> 1.2.3.4 any");
  ASSERT_TRUE(rule);
  EXPECT_TRUE(rule->src.any);
  EXPECT_FALSE(rule->sport.any);
  EXPECT_EQ(rule->sport.lo, 1024);
  EXPECT_FALSE(rule->dst.any);
  EXPECT_TRUE(rule->dport.any);
}

TEST(IdsParse, Failures) {
  std::string err;
  EXPECT_FALSE(parse_rule("bogus tcp any any -> any any", &err));
  EXPECT_FALSE(parse_rule("drop tcp any any <- any any", &err));
  EXPECT_FALSE(parse_rule("drop xdp any any -> any any", &err));
  EXPECT_FALSE(parse_rule("drop tcp any any -> any 99999", &err));
  EXPECT_FALSE(parse_rule("drop tcp any any -> any 23 (frob:1;)", &err));
  EXPECT_FALSE(parse_rule("drop tcp any any -> any 23 (msg:\"x\"", &err));
  EXPECT_FALSE(parse_rule("drop tcp nonsense any -> any 23", &err));
}

TEST(IdsParse, RuleFileWithCommentsAndErrors) {
  const auto good = RuleSet::parse(
      "# containment policy\n"
      "pass tcp any any -> 1.2.3.4 23 (msg:\"c2\";)\n"
      "\n"
      "drop ip any any -> any any (msg:\"default deny\";)\n");
  ASSERT_TRUE(good);
  EXPECT_EQ(good->size(), 2u);

  ParseError err;
  EXPECT_FALSE(RuleSet::parse("ok tcp any any -> any any\n", &err));
  EXPECT_EQ(err.line, 1u);
}

TEST(IdsMatch, HeaderFields) {
  const auto rule = parse_rule("alert tcp 10.0.0.0/8 any -> any 23");
  ASSERT_TRUE(rule);
  EXPECT_TRUE(rule->matches(make_pkt(net::Protocol::kTcp, "10.1.2.3", 5, "2.2.2.2", 23)));
  EXPECT_FALSE(rule->matches(make_pkt(net::Protocol::kUdp, "10.1.2.3", 5, "2.2.2.2", 23)));
  EXPECT_FALSE(rule->matches(make_pkt(net::Protocol::kTcp, "11.1.2.3", 5, "2.2.2.2", 23)));
  EXPECT_FALSE(rule->matches(make_pkt(net::Protocol::kTcp, "10.1.2.3", 5, "2.2.2.2", 24)));
}

TEST(IdsMatch, IcmpIgnoresPorts) {
  const auto rule = parse_rule("alert icmp any any -> any any");
  ASSERT_TRUE(rule);
  EXPECT_TRUE(rule->matches(make_pkt(net::Protocol::kIcmp, "1.1.1.1", 0, "2.2.2.2", 0)));
}

TEST(IdsMatch, ContentAllMustMatchAndNocase) {
  const auto rule = parse_rule(
      "alert tcp any any -> any any (content:\"GET\"; content:\"/shell\";)");
  ASSERT_TRUE(rule);
  EXPECT_TRUE(rule->matches(
      make_pkt(net::Protocol::kTcp, "1.1.1.1", 1, "2.2.2.2", 2, "GET /shell?x")));
  EXPECT_FALSE(rule->matches(
      make_pkt(net::Protocol::kTcp, "1.1.1.1", 1, "2.2.2.2", 2, "GET /index")));

  const auto nc = parse_rule("alert tcp any any -> any any (content:\"gpon\"; nocase;)");
  ASSERT_TRUE(nc);
  EXPECT_TRUE(nc->matches(
      make_pkt(net::Protocol::kTcp, "1.1.1.1", 1, "2.2.2.2", 2, "POST /GponForm/")));
}

TEST(IdsEvaluate, FirstMatchSemantics) {
  const auto set = RuleSet::parse(
      "pass tcp any any -> 9.9.9.9 23\n"
      "drop tcp any any -> any any (sid:100;)\n");
  ASSERT_TRUE(set);
  EXPECT_FALSE(set->evaluate(make_pkt(net::Protocol::kTcp, "1.1.1.1", 1, "9.9.9.9", 23)).drop);
  EXPECT_TRUE(set->evaluate(make_pkt(net::Protocol::kTcp, "1.1.1.1", 1, "8.8.8.8", 23)).drop);
}

TEST(IdsEvaluate, DecideReturnsTheRuleThatDecides) {
  const auto set = RuleSet::parse(
      "alert udp any any -> any any (sid:1;)\n"
      "pass udp any any -> any 53 (sid:2;)\n"
      "drop udp any any -> any any (sid:3;)\n");
  ASSERT_TRUE(set);
  const auto dns = make_pkt(net::Protocol::kUdp, "1.1.1.1", 1, "9.9.9.9", 53);
  const auto flood = make_pkt(net::Protocol::kUdp, "1.1.1.1", 1, "9.9.9.9", 80);
  const auto tcp = make_pkt(net::Protocol::kTcp, "1.1.1.1", 1, "9.9.9.9", 80);
  ASSERT_NE(set->decide(dns), nullptr);
  EXPECT_EQ(set->decide(dns)->sid, 2u);  // the alert before it does not decide
  ASSERT_NE(set->decide(flood), nullptr);
  EXPECT_EQ(set->decide(flood)->sid, 3u);
  EXPECT_EQ(set->decide(tcp), nullptr);  // no rule decides: pass
  for (const auto& p : {dns, flood, tcp}) {
    const Rule* r = set->decide(p);
    EXPECT_EQ(r != nullptr && r->action == Action::kDrop, set->evaluate(p).drop);
  }
}

TEST(IdsEvaluate, ContainmentVerdictOnADroppedPacketAllocatesNothing) {
  const auto policy = containment_policy({net::Ipv4{5, 5, 5, 5}, 666});
  const auto flood =
      make_pkt(net::Protocol::kUdp, "10.0.0.1", 40000, "7.7.7.7", 27015, "TSource");
  const std::uint64_t before = testkit::allocations();
  const Rule* verdict = policy.decide(flood);
  EXPECT_EQ(testkit::allocations(), before);
  ASSERT_NE(verdict, nullptr);
  EXPECT_EQ(verdict->action, Action::kDrop);
}

TEST(IdsEngine, ContainmentPolicyShape) {
  // §2.6c: during the DDoS watch, only C2-bound traffic and DNS leave.
  const net::Endpoint c2{net::Ipv4{5, 5, 5, 5}, 666};
  const auto policy = containment_policy(c2);
  const auto drops = [&](const net::Packet& p) {
    const Rule* r = policy.decide(p);
    return r != nullptr && r->action == Action::kDrop;
  };
  EXPECT_FALSE(drops(make_pkt(net::Protocol::kTcp, "10.0.0.1", 1, "5.5.5.5", 666)));
  EXPECT_FALSE(drops(make_pkt(net::Protocol::kUdp, "10.0.0.1", 1, "1.1.1.1", 53)));
  // Attack flood to a victim: captured upstream, dropped here.
  EXPECT_TRUE(drops(make_pkt(net::Protocol::kUdp, "10.0.0.1", 1, "7.7.7.7", 80)));
  EXPECT_TRUE(drops(make_pkt(net::Protocol::kTcp, "10.0.0.1", 1, "5.5.5.5", 667)));
  EXPECT_TRUE(drops(make_pkt(net::Protocol::kIcmp, "10.0.0.1", 0, "7.7.7.7", 0)));
}

TEST(IdsMatch, IcmpTypeCodeOptions) {
  const auto rule = parse_rule(
      "alert icmp any any -> any any (msg:\"blacknurse\"; itype:3; icode:3;)");
  ASSERT_TRUE(rule);
  auto p = make_pkt(net::Protocol::kIcmp, "1.1.1.1", 0, "2.2.2.2", 0);
  p.icmp = {3, 3};
  EXPECT_TRUE(rule->matches(p));
  p.icmp = {3, 1};
  EXPECT_FALSE(rule->matches(p));
  p.icmp = {8, 3};
  EXPECT_FALSE(rule->matches(p));
  // itype on a TCP packet never matches.
  EXPECT_FALSE(rule->matches(make_pkt(net::Protocol::kTcp, "1.1.1.1", 1, "2.2.2.2", 2)));
  EXPECT_FALSE(parse_rule("alert icmp any any -> any any (itype:300;)"));
}
