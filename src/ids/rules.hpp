// snort-lite: a SNORT-inspired rule language and matcher.
//
// §2.6: "We use SNORT IDS to detect and prevent malicious traffic from
// leaving our network." This module implements the subset of the rule
// language the containment policy needs:
//
//   action proto src sport -> dst dport (msg:"…"; content:"…"; sid:N;)
//
//   action : alert | drop | pass
//   proto  : tcp | udp | icmp | ip
//   src/dst: any | a.b.c.d | a.b.c.d/len
//   port   : any | N | N:M (inclusive range)
//   options: msg (string), content (text with |hex| escapes, repeatable,
//            all must match), nocase (applies to all contents), sid,
//            itype / icode (ICMP type/code equality)
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/ipv4.hpp"
#include "net/packet.hpp"
#include "util/bytes.hpp"

namespace malnet::ids {

enum class Action { kAlert, kDrop, kPass };

[[nodiscard]] std::string to_string(Action a);

struct PortSpec {
  bool any = true;
  net::Port lo = 0;
  net::Port hi = 0;

  [[nodiscard]] bool matches(net::Port p) const { return any || (p >= lo && p <= hi); }
};

struct AddrSpec {
  bool any = true;
  net::Subnet subnet{};

  [[nodiscard]] bool matches(net::Ipv4 ip) const { return any || subnet.contains(ip); }
};

struct Rule {
  Action action = Action::kAlert;
  std::optional<net::Protocol> proto;  // nullopt = "ip" (any protocol)
  AddrSpec src;
  PortSpec sport;
  AddrSpec dst;
  PortSpec dport;
  std::string msg;
  std::vector<util::Bytes> contents;  // all must be present in the payload
  bool nocase = false;
  std::optional<std::uint8_t> itype;  // ICMP type filter
  std::optional<std::uint8_t> icode;  // ICMP code filter
  std::uint32_t sid = 0;

  [[nodiscard]] bool matches(const net::Packet& p) const;
};

/// Parse failure describes the offending line.
struct ParseError {
  std::size_t line = 0;
  std::string message;
};

/// Parses a rule file (one rule per line; '#' comments and blank lines are
/// skipped). Returns rules or the first error.
class RuleSet {
 public:
  static std::optional<RuleSet> parse(std::string_view text, ParseError* error = nullptr);

  void add(Rule r) { rules_.push_back(std::move(r)); }
  [[nodiscard]] const std::vector<Rule>& rules() const { return rules_; }
  [[nodiscard]] std::size_t size() const { return rules_.size(); }

  /// First-match verdict semantics: rules are evaluated in order; the first
  /// matching pass/drop rule decides. alert rules record but do not decide.
  /// Returns all matching rules (for alert accounting) plus the verdict.
  struct Evaluation {
    bool drop = false;
    std::vector<const Rule*> matched;
  };
  [[nodiscard]] Evaluation evaluate(const net::Packet& p) const;

  /// Verdict only: the first pass/drop rule matching `p`, or null when none
  /// decides (the packet passes). Alert rules are skipped, so the call
  /// allocates nothing; containment checks on the per-packet path use it.
  [[nodiscard]] const Rule* decide(const net::Packet& p) const;

 private:
  std::vector<Rule> rules_;
};

/// The default MalNet containment policy (see §2.6): allows C2-bound
/// traffic to `c2` and DNS; drops everything else leaving the sandbox.
[[nodiscard]] RuleSet containment_policy(net::Endpoint c2);

/// Parses one rule line (without comments). Exposed for tests.
[[nodiscard]] std::optional<Rule> parse_rule(std::string_view line,
                                             std::string* error = nullptr);

/// Parses a content pattern with |hex| escapes: `abc|0d 0a|def`.
[[nodiscard]] std::optional<util::Bytes> parse_content(std::string_view pattern);

}  // namespace malnet::ids
