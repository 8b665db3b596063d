#include "ids/rules.hpp"

#include <algorithm>
#include <cctype>

#include "util/str.hpp"

namespace malnet::ids {

std::string to_string(Action a) {
  switch (a) {
    case Action::kAlert: return "alert";
    case Action::kDrop: return "drop";
    case Action::kPass: return "pass";
  }
  return "?";
}

namespace {

bool contains_nocase(util::BytesView haystack, util::BytesView needle) {
  if (needle.empty()) return true;
  const auto lower = [](std::uint8_t b) {
    return static_cast<std::uint8_t>(std::tolower(b));
  };
  return std::search(haystack.begin(), haystack.end(), needle.begin(), needle.end(),
                     [&](std::uint8_t a, std::uint8_t b) {
                       return lower(a) == lower(b);
                     }) != haystack.end();
}

std::optional<AddrSpec> parse_addr(std::string_view tok) {
  AddrSpec spec;
  if (tok == "any") return spec;
  spec.any = false;
  if (tok.find('/') != std::string_view::npos) {
    const auto s = net::parse_subnet(tok);
    if (!s) return std::nullopt;
    spec.subnet = *s;
  } else {
    const auto ip = net::parse_ipv4(tok);
    if (!ip) return std::nullopt;
    spec.subnet = net::Subnet{*ip, 32};
  }
  return spec;
}

std::optional<PortSpec> parse_port(std::string_view tok) {
  PortSpec spec;
  if (tok == "any") return spec;
  spec.any = false;
  const auto colon = tok.find(':');
  if (colon == std::string_view::npos) {
    const auto p = util::parse_u64(tok);
    if (!p || *p > 0xFFFF) return std::nullopt;
    spec.lo = spec.hi = static_cast<net::Port>(*p);
  } else {
    const auto lo = util::parse_u64(tok.substr(0, colon));
    const auto hi = util::parse_u64(tok.substr(colon + 1));
    if (!lo || !hi || *lo > 0xFFFF || *hi > 0xFFFF || *lo > *hi) return std::nullopt;
    spec.lo = static_cast<net::Port>(*lo);
    spec.hi = static_cast<net::Port>(*hi);
  }
  return spec;
}

}  // namespace

std::optional<util::Bytes> parse_content(std::string_view pattern) {
  util::Bytes out;
  bool in_hex = false;
  std::string hex_run;
  for (char c : pattern) {
    if (c == '|') {
      if (in_hex) {
        try {
          const auto decoded = util::from_hex(hex_run);
          out.insert(out.end(), decoded.begin(), decoded.end());
        } catch (const std::invalid_argument&) {
          return std::nullopt;
        }
        hex_run.clear();
      }
      in_hex = !in_hex;
    } else if (in_hex) {
      hex_run += c;
    } else {
      out.push_back(static_cast<std::uint8_t>(c));
    }
  }
  if (in_hex) return std::nullopt;  // unterminated |hex|
  return out;
}

bool Rule::matches(const net::Packet& p) const {
  if (proto && *proto != p.proto) return false;
  if (!src.matches(p.src) || !dst.matches(p.dst)) return false;
  if (p.proto != net::Protocol::kIcmp) {
    if (!sport.matches(p.src_port) || !dport.matches(p.dst_port)) return false;
  }
  if (itype && (p.proto != net::Protocol::kIcmp || p.icmp.type != *itype)) {
    return false;
  }
  if (icode && (p.proto != net::Protocol::kIcmp || p.icmp.code != *icode)) {
    return false;
  }
  for (const auto& c : contents) {
    const bool hit = nocase ? contains_nocase(p.payload, c)
                            : util::contains(p.payload, util::BytesView{c});
    if (!hit) return false;
  }
  return true;
}

std::optional<Rule> parse_rule(std::string_view line, std::string* error) {
  const auto fail = [&](std::string msg) -> std::optional<Rule> {
    if (error) *error = std::move(msg);
    return std::nullopt;
  };

  const auto paren = line.find('(');
  const std::string_view head_view = line.substr(0, paren);
  const auto head = util::split_ws(head_view);
  if (head.size() != 7) return fail("expected: action proto src sport -> dst dport");

  Rule rule;
  if (head[0] == "alert") rule.action = Action::kAlert;
  else if (head[0] == "drop") rule.action = Action::kDrop;
  else if (head[0] == "pass") rule.action = Action::kPass;
  else return fail("unknown action: " + head[0]);

  if (head[1] == "tcp") rule.proto = net::Protocol::kTcp;
  else if (head[1] == "udp") rule.proto = net::Protocol::kUdp;
  else if (head[1] == "icmp") rule.proto = net::Protocol::kIcmp;
  else if (head[1] == "ip") rule.proto = std::nullopt;
  else return fail("unknown protocol: " + head[1]);

  if (head[4] != "->") return fail("expected '->'");

  const auto src = parse_addr(head[2]);
  const auto sport = parse_port(head[3]);
  const auto dst = parse_addr(head[5]);
  const auto dport = parse_port(head[6]);
  if (!src) return fail("bad source address: " + head[2]);
  if (!sport) return fail("bad source port: " + head[3]);
  if (!dst) return fail("bad destination address: " + head[5]);
  if (!dport) return fail("bad destination port: " + head[6]);
  rule.src = *src;
  rule.sport = *sport;
  rule.dst = *dst;
  rule.dport = *dport;

  if (paren == std::string_view::npos) return rule;
  const auto close = line.rfind(')');
  if (close == std::string_view::npos || close < paren) return fail("unbalanced '('");
  const std::string_view opts = line.substr(paren + 1, close - paren - 1);

  // Options are semicolon-separated key:value pairs; values may be quoted.
  for (const auto& raw : util::split(std::string(opts), ';')) {
    const auto opt = util::trim(raw);
    if (opt.empty()) continue;
    if (opt == "nocase") {
      rule.nocase = true;
      continue;
    }
    const auto colon = opt.find(':');
    if (colon == std::string_view::npos) return fail("bad option: " + std::string(opt));
    const auto key = util::trim(opt.substr(0, colon));
    auto value = util::trim(opt.substr(colon + 1));
    if (value.size() >= 2 && value.front() == '"' && value.back() == '"') {
      value = value.substr(1, value.size() - 2);
    }
    if (key == "msg") {
      rule.msg = std::string(value);
    } else if (key == "content") {
      auto content = parse_content(value);
      if (!content) return fail("bad content pattern: " + std::string(value));
      rule.contents.push_back(std::move(*content));
    } else if (key == "itype" || key == "icode") {
      const auto v = util::parse_u64(value);
      if (!v || *v > 255) return fail("bad " + std::string(key) + " value");
      if (key == "itype") rule.itype = static_cast<std::uint8_t>(*v);
      else rule.icode = static_cast<std::uint8_t>(*v);
    } else if (key == "sid") {
      const auto sid = util::parse_u64(value);
      if (!sid) return fail("bad sid: " + std::string(value));
      rule.sid = static_cast<std::uint32_t>(*sid);
    } else {
      return fail("unknown option: " + std::string(key));
    }
  }
  return rule;
}

std::optional<RuleSet> RuleSet::parse(std::string_view text, ParseError* error) {
  RuleSet set;
  std::size_t line_no = 0;
  for (const auto& raw : util::split(std::string(text), '\n')) {
    ++line_no;
    const auto line = util::trim(raw);
    if (line.empty() || line.front() == '#') continue;
    std::string msg;
    auto rule = parse_rule(line, &msg);
    if (!rule) {
      if (error) *error = ParseError{line_no, std::move(msg)};
      return std::nullopt;
    }
    set.add(std::move(*rule));
  }
  return set;
}

RuleSet::Evaluation RuleSet::evaluate(const net::Packet& p) const {
  Evaluation ev;
  for (const auto& r : rules_) {
    if (!r.matches(p)) continue;
    ev.matched.push_back(&r);
    if (r.action == Action::kPass) return ev;  // explicit pass short-circuits
    if (r.action == Action::kDrop) {
      ev.drop = true;
      return ev;
    }
  }
  return ev;
}

const Rule* RuleSet::decide(const net::Packet& p) const {
  for (const auto& r : rules_) {
    if (r.action != Action::kAlert && r.matches(p)) return &r;
  }
  return nullptr;
}

RuleSet containment_policy(net::Endpoint c2) {
  RuleSet set;
  {
    Rule pass_c2;
    pass_c2.action = Action::kPass;
    pass_c2.proto = net::Protocol::kTcp;
    pass_c2.dst = AddrSpec{false, net::Subnet{c2.ip, 32}};
    pass_c2.dport = PortSpec{false, c2.port, c2.port};
    pass_c2.msg = "allow C2 channel";
    pass_c2.sid = 1;
    set.add(std::move(pass_c2));
  }
  {
    Rule pass_dns;
    pass_dns.action = Action::kPass;
    pass_dns.proto = net::Protocol::kUdp;
    pass_dns.dport = PortSpec{false, 53, 53};
    pass_dns.msg = "allow DNS";
    pass_dns.sid = 2;
    set.add(std::move(pass_dns));
  }
  {
    Rule drop_rest;
    drop_rest.action = Action::kDrop;
    drop_rest.msg = "contain non-C2 traffic";
    drop_rest.sid = 100;
    set.add(std::move(drop_rest));
  }
  return set;
}

}  // namespace malnet::ids
