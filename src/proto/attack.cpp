#include "proto/attack.hpp"

#include <sstream>

namespace malnet::proto {

std::string to_string(AttackType t) {
  switch (t) {
    case AttackType::kUdpFlood: return "UDP Flood";
    case AttackType::kSynFlood: return "SYN Flood";
    case AttackType::kTls: return "TLS";
    case AttackType::kStomp: return "STOMP";
    case AttackType::kVse: return "VSE";
    case AttackType::kStd: return "STD";
    case AttackType::kBlacknurse: return "BLACKNURSE";
    case AttackType::kNfo: return "NFO";
  }
  return "?";
}

std::string to_string(AttackProtocol p) {
  switch (p) {
    case AttackProtocol::kUdp: return "UDP";
    case AttackProtocol::kTcp: return "TCP";
    case AttackProtocol::kIcmp: return "ICMP";
    case AttackProtocol::kDns: return "DNS";
  }
  return "?";
}

AttackProtocol attack_protocol(AttackType t, net::Port target_port) {
  switch (t) {
    case AttackType::kSynFlood:
    case AttackType::kStomp:
      return AttackProtocol::kTcp;
    case AttackType::kBlacknurse:
      return AttackProtocol::kIcmp;
    case AttackType::kUdpFlood:
    case AttackType::kStd:
    case AttackType::kVse:
    case AttackType::kNfo:
    case AttackType::kTls:  // both observed variants ride UDP/DTLS-ish (§5.1)
      return target_port == 53 ? AttackProtocol::kDns : AttackProtocol::kUdp;
  }
  return AttackProtocol::kUdp;
}

bool is_gaming_attack(AttackType t) {
  return t == AttackType::kVse || t == AttackType::kNfo;
}

std::string AttackCommand::summary() const {
  std::ostringstream os;
  os << proto::to_string(family) << ' ' << proto::to_string(type) << " -> "
     << net::to_string(target) << " for " << duration_s << "s";
  return os.str();
}

const std::vector<AttackType>& attacks_of(Family f) {
  // Figure 11: Mirai is the broadest; Daddyl33t is second and the most
  // diverse; Gafgyt has fewer. Other families issue no DDoS in the study.
  static const std::vector<AttackType> kMirai{
      AttackType::kUdpFlood, AttackType::kSynFlood, AttackType::kTls,
      AttackType::kStomp, AttackType::kVse};
  static const std::vector<AttackType> kGafgyt{
      AttackType::kUdpFlood, AttackType::kStd, AttackType::kVse};
  static const std::vector<AttackType> kDaddyl33t{
      AttackType::kUdpFlood, AttackType::kSynFlood, AttackType::kTls,
      AttackType::kBlacknurse, AttackType::kNfo};
  static const std::vector<AttackType> kNone{};
  switch (f) {
    case Family::kMirai: return kMirai;
    case Family::kGafgyt: return kGafgyt;
    case Family::kDaddyl33t: return kDaddyl33t;
    default: return kNone;
  }
}

std::optional<std::uint8_t> mirai_vector_of(AttackType t) {
  // 0/1/3/5 are the original Mirai vector ids; 11 is the variant TLS vector
  // observed in the study's Mirai samples.
  switch (t) {
    case AttackType::kUdpFlood: return 0;
    case AttackType::kVse: return 1;
    case AttackType::kSynFlood: return 3;
    case AttackType::kStomp: return 5;
    case AttackType::kTls: return 11;
    default: return std::nullopt;
  }
}

std::optional<std::string> gafgyt_keyword_of(AttackType t) {
  switch (t) {
    case AttackType::kUdpFlood: return "UDP";
    case AttackType::kStd: return "STD";
    case AttackType::kVse: return "VSE";
    default: return std::nullopt;
  }
}

std::optional<std::string> daddyl33t_keyword_of(AttackType t) {
  switch (t) {
    case AttackType::kUdpFlood: return "UDPRAW";
    case AttackType::kSynFlood: return "HYDRASYN";
    case AttackType::kTls: return "TLS";
    case AttackType::kBlacknurse: return "NURSE";
    case AttackType::kNfo: return "NFOV6";
    default: return std::nullopt;
  }
}

}  // namespace malnet::proto
