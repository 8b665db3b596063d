#include "core/ddos.hpp"

#include <algorithm>
#include <set>

#include "emu/attackgen.hpp"
#include "profile/wire.hpp"

namespace malnet::core {

std::string to_string(DdosMethod m) {
  return m == DdosMethod::kProtocolProfile ? "protocol-profile"
                                           : "behavioural-heuristic";
}

namespace {

struct C2Message {
  util::SimTime time;
  util::BytesView payload;  // into the report's capture
};

/// Per-victim outbound traffic aggregate.
struct TargetTraffic {
  std::uint64_t packets = 0;
  double peak_pps = 0.0;
  util::SimTime first{INT64_MAX};
  net::Protocol proto = net::Protocol::kUdp;
  net::Port port = 0;
  util::BytesView sample_payload;  // into the report's capture
  bool tcp_syn_only = true;
  std::uint8_t icmp_type = 0, icmp_code = 0;
};

/// Infers the §5.1 attack taxonomy from observed wire behaviour.
proto::AttackType classify_traffic(const TargetTraffic& t) {
  if (t.proto == net::Protocol::kIcmp) return proto::AttackType::kBlacknurse;
  if (t.proto == net::Protocol::kTcp) {
    if (t.tcp_syn_only) return proto::AttackType::kSynFlood;
    return proto::AttackType::kStomp;
  }
  // UDP: discriminate by payload signature.
  const auto& p = t.sample_payload;
  if (util::contains(p, std::string_view("Source Engine Query"))) {
    return proto::AttackType::kVse;
  }
  if (util::contains(p, std::string_view("NFOV6"))) return proto::AttackType::kNfo;
  if (!p.empty() && p[0] == 0x16) return proto::AttackType::kTls;
  if (p.size() == 1 && p[0] == 0x00) return proto::AttackType::kUdpFlood;
  if (p.size() >= 16) return proto::AttackType::kStd;  // random-string flood
  return proto::AttackType::kUdpFlood;
}

/// §2.5 verification for the heuristic path: the burst target's address
/// must appear in the associated command, as text or as raw big-endian
/// bytes.
bool target_in_command(net::Ipv4 target, util::BytesView command) {
  if (util::contains(command, net::to_string(target))) return true;
  const util::Bytes raw{target.octet(0), target.octet(1), target.octet(2),
                        target.octet(3)};
  return util::contains(command, util::BytesView{raw});
}

/// The profiles method (a) decodes with, split by framing, in registry
/// order and narrowed to the hinted family.
struct Decoders {
  std::vector<const profile::FamilyProfile*> binary;
  std::vector<const profile::FamilyProfile*> text;
};

Decoders decoders_of(const profile::Registry& profiles,
                     std::optional<proto::Family> hint) {
  Decoders d;
  for (const auto* p : profiles.all()) {
    if (hint && p->id != *hint) continue;
    if (p->framing == profile::Framing::kBinary) d.binary.push_back(p);
    if (p->framing == profile::Framing::kText) d.text.push_back(p);
  }
  return d;
}

void decode_profiles(const C2Message& msg, const Decoders& decoders,
                     std::vector<std::pair<util::SimTime, proto::AttackCommand>>* out) {
  // Binary frames; one frame per message in practice, but walk anyway.
  util::BytesView view{msg.payload};
  while (!decoders.binary.empty() && view.size() >= 2) {
    const std::size_t len = (static_cast<std::size_t>(view[0]) << 8) | view[1];
    if (len == 0 || view.size() < 2 + len) break;
    for (const auto* p : decoders.binary) {
      if (auto cmd = profile::wire::decode_binary_attack(*p, view.subspan(0, 2 + len))) {
        out->emplace_back(msg.time, std::move(*cmd));
        break;
      }
    }
    view = view.subspan(2 + len);
  }
  if (decoders.text.empty()) return;
  std::string_view text{reinterpret_cast<const char*>(msg.payload.data()),
                        msg.payload.size()};
  while (!text.empty()) {
    const auto nl = text.find('\n');
    const std::string_view line = text.substr(0, nl);
    text.remove_prefix(nl == std::string_view::npos ? text.size() : nl + 1);
    if (line.empty()) continue;
    for (const auto* p : decoders.text) {
      if (auto cmd = profile::wire::decode_text_attack(*p, line)) {
        out->emplace_back(msg.time, std::move(*cmd));
        break;
      }
    }
  }
}

}  // namespace

std::vector<DdosDetection> detect_ddos(const emu::SandboxReport& report,
                                       net::Endpoint c2,
                                       std::optional<proto::Family> family_hint,
                                       const profile::Registry& profiles,
                                       const DdosDetectOptions& opts) {
  // --- pass 1: split the capture into C2 messages and outbound traffic ----
  std::vector<C2Message> c2_messages;
  // Outbound, non-C2-bound traffic (floods are dropped at the perimeter but
  // the tap recorded the attempt), as (target, capture index) pairs.
  std::vector<std::pair<net::Ipv4, std::size_t>> sent;
  for (std::size_t i = 0; i < report.capture.size(); ++i) {
    const auto& p = report.capture[i];
    const bool from_c2 = p.src == c2.ip && p.src_port == c2.port;
    if (from_c2 && !p.payload.empty()) {
      c2_messages.push_back({p.time, p.payload});
      continue;
    }
    if (p.dst == c2.ip || p.src == c2.ip) continue;
    if (p.proto == net::Protocol::kUdp && p.dst_port == 53) continue;  // DNS
    sent.emplace_back(p.dst, i);
  }

  // Aggregate each target's packets in capture order, targets in address
  // order.
  std::sort(sent.begin(), sent.end());
  std::vector<std::pair<net::Ipv4, TargetTraffic>> targets;
  std::vector<std::int64_t> seconds;
  for (std::size_t i = 0; i < sent.size();) {
    const net::Ipv4 ip = sent[i].first;
    TargetTraffic t;
    seconds.clear();
    for (; i < sent.size() && sent[i].first == ip; ++i) {
      const auto& p = report.capture[sent[i].second];
      ++t.packets;
      t.first = std::min(t.first, p.time);
      t.proto = p.proto;
      t.port = p.dst_port;
      if (p.proto == net::Protocol::kTcp && !p.payload.empty()) t.tcp_syn_only = false;
      if (p.proto == net::Protocol::kIcmp) {
        t.icmp_type = p.icmp.type;
        t.icmp_code = p.icmp.code;
      }
      if (t.sample_payload.empty() && !p.payload.empty()) t.sample_payload = p.payload;
      seconds.push_back(p.time.us / 1'000'000);
    }
    // Peak rate: the most packets sent within one wall-clock second.
    std::sort(seconds.begin(), seconds.end());
    for (auto lo = seconds.begin(); lo != seconds.end();) {
      const auto hi = std::upper_bound(lo, seconds.end(), *lo);
      t.peak_pps = std::max(t.peak_pps, static_cast<double>(hi - lo));
      lo = hi;
    }
    targets.emplace_back(ip, t);
  }
  const auto target = [&targets](net::Ipv4 ip) -> const TargetTraffic* {
    const auto it = std::lower_bound(
        targets.begin(), targets.end(), ip,
        [](const auto& entry, net::Ipv4 key) { return entry.first < key; });
    return it != targets.end() && it->first == ip ? &it->second : nullptr;
  };

  // --- method (a): protocol profiles ---------------------------------------
  const Decoders decoders = decoders_of(profiles, family_hint);
  std::vector<std::pair<util::SimTime, proto::AttackCommand>> decoded;
  for (const auto& msg : c2_messages) decode_profiles(msg, decoders, &decoded);

  std::vector<DdosDetection> out;
  std::set<net::Ipv4> explained;
  for (const auto& [time, cmd] : decoded) {
    DdosDetection det;
    det.method = DdosMethod::kProtocolProfile;
    det.command = cmd;
    const TargetTraffic* t = target(cmd.target.ip);
    if (t != nullptr &&
        t->packets >= static_cast<std::uint64_t>(opts.min_attack_packets)) {
      det.verified = true;  // the bot demonstrably flooded the target
      det.observed_pps = t->peak_pps;
      explained.insert(cmd.target.ip);
    }
    out.push_back(std::move(det));
  }

  // --- method (b): behavioural heuristic for unprofiled variants -----------
  for (const auto& [ip, traffic] : targets) {
    if (explained.count(ip) > 0) continue;
    if (traffic.peak_pps < opts.pps_threshold) continue;

    // Associate with the last C2 message before the burst began.
    const C2Message* last = nullptr;
    for (const auto& msg : c2_messages) {
      if (msg.time <= traffic.first) last = &msg;
    }
    if (last == nullptr) continue;

    DdosDetection det;
    det.method = DdosMethod::kBehaviouralHeuristic;
    det.command.raw.assign(last->payload.begin(), last->payload.end());
    det.command.type = classify_traffic(traffic);
    det.command.target = {ip, traffic.port};
    det.command.family = family_hint.value_or(proto::Family::kMirai);
    det.observed_pps = traffic.peak_pps;
    det.verified = target_in_command(ip, last->payload);
    out.push_back(std::move(det));
  }
  return out;
}

}  // namespace malnet::core
