#include "profile/profile.hpp"

#include <algorithm>

#include "mal/binary.hpp"
#include "util/rng.hpp"
#include "util/str.hpp"

namespace malnet::profile {

std::string to_string(Framing f) {
  switch (f) {
    case Framing::kBinary: return "binary";
    case Framing::kText: return "text";
    case Framing::kIrc: return "irc";
    case Framing::kTlsBeacon: return "tls-beacon";
    case Framing::kP2p: return "p2p";
  }
  return "?";
}

std::optional<Framing> framing_from_string(std::string_view s) {
  for (const Framing f : {Framing::kBinary, Framing::kText, Framing::kIrc,
                          Framing::kTlsBeacon, Framing::kP2p}) {
    if (s == to_string(f)) return f;
  }
  return std::nullopt;
}

std::string to_string(Topology t) {
  switch (t) {
    case Topology::kSingle: return "single";
    case Topology::kFallback: return "fallback";
    case Topology::kP2p: return "p2p";
  }
  return "?";
}

std::optional<Topology> topology_from_string(std::string_view s) {
  for (const Topology t : {Topology::kSingle, Topology::kFallback,
                           Topology::kP2p}) {
    if (s == to_string(t)) return t;
  }
  return std::nullopt;
}

std::optional<proto::AttackType> attack_type_from_string(std::string_view s) {
  for (int i = 0; i < proto::kAttackTypeCount; ++i) {
    const auto t = static_cast<proto::AttackType>(i);
    if (util::iequals(s, proto::to_string(t))) return t;
  }
  return std::nullopt;
}

const Command* FamilyProfile::by_type(proto::AttackType t) const {
  for (const auto& c : commands) {
    if (c.type == t) return &c;
  }
  return nullptr;
}

const Command* FamilyProfile::by_vector(std::uint8_t v) const {
  for (const auto& c : commands) {
    if (c.vector == v) return &c;
  }
  return nullptr;
}

const Command* FamilyProfile::by_keyword(std::string_view kw) const {
  for (const auto& c : commands) {
    if (util::iequals(c.keyword, kw)) return &c;
  }
  return nullptr;
}

std::vector<proto::AttackType> FamilyProfile::command_types() const {
  std::vector<proto::AttackType> out;
  out.reserve(commands.size());
  for (const auto& c : commands) out.push_back(c.type);
  return out;
}

namespace {

bool has_ws(std::string_view s) {
  return std::any_of(s.begin(), s.end(), [](char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\r';
  });
}

bool bad_word(std::string_view s) { return s.empty() || has_ws(s); }

}  // namespace

std::optional<std::string> FamilyProfile::validate() const {
  const auto fam_idx = static_cast<int>(id);
  if (fam_idx < 0 || fam_idx >= proto::kFamilyCount) {
    return "family: unknown family id";
  }
  if (bad_word(name)) return "name: must be a non-empty word";
  if (marker.empty()) return "marker: must be non-empty";

  // Framing / topology cross-references. A P2P overlay has no C2 dialogue,
  // so the three properties must agree (and match the family's compiled-in
  // P2P-ness, which the sample planner still keys off).
  const bool p2p_framing = framing == Framing::kP2p;
  const bool p2p_topology = topology == Topology::kP2p;
  if (p2p_framing != p2p_topology) {
    return "topology: p2p framing and p2p topology imply each other";
  }
  if (p2p_framing != proto::is_p2p(id)) {
    return "framing: p2p-ness must match family '" +
           proto::to_string(id) + "'";
  }

  switch (framing) {
    case Framing::kBinary:
      if (handshake_magic == 0) return "binary.handshake_magic: must be non-zero";
      break;
    case Framing::kText: {
      if (hello_words.empty()) return "text.hello: must list at least one word";
      for (const auto& w : hello_words) {
        if (bad_word(w)) return "text.hello: words must be non-empty, no spaces";
      }
      if (bad_word(ping_word)) return "text.ping: must be a non-empty word";
      if (bad_word(pong_word)) return "text.pong: must be a non-empty word";
      if (util::iequals(ping_word, pong_word)) {
        return "text.pong: must differ from text.ping";
      }
      // An attack line must not be mistakable for a hello or a ping: the
      // server dispatches on the first token.
      if (util::iequals(hello_words.front(), ping_word) ||
          util::iequals(hello_words.front(), pong_word)) {
        return "text.hello: first word collides with ping/pong";
      }
      if (!attack_prefix.empty()) {
        if (has_ws(attack_prefix)) return "text.attack_prefix: no spaces";
        if (util::iequals(attack_prefix, ping_word) ||
            util::iequals(attack_prefix, pong_word)) {
          return "text.attack_prefix: collides with ping/pong";
        }
        if (util::iequals(attack_prefix, hello_words.front())) {
          return "text.attack_prefix: collides with hello";
        }
      }
      break;
    }
    case Framing::kIrc:
      if (bad_word(irc_channel) || irc_channel.front() != '#') {
        return "irc.channel: must be a single '#'-prefixed word";
      }
      if (has_ws(attack_prefix)) return "irc.attack_prefix: no spaces";
      break;
    case Framing::kTlsBeacon:
      if (tls_client_hello.empty()) return "tls.client_hello: must be non-empty";
      if (tls_server_hello.empty()) return "tls.server_hello: must be non-empty";
      if (tls_beacon.empty()) return "tls.beacon: must be non-empty";
      if (tls_peer_id.empty()) return "tls.peer_id: must be non-empty";
      if (!commands.empty()) {
        return "commands: tls-beacon framing has no attack encoding";
      }
      break;
    case Framing::kP2p:
      if (!commands.empty()) return "commands: p2p families take no C2 commands";
      break;
  }

  const bool keyword_framing = is_text_like();
  for (std::size_t i = 0; i < commands.size(); ++i) {
    const auto& c = commands[i];
    const std::string at = "commands[" + std::to_string(i) + "]";
    const auto type_idx = static_cast<int>(c.type);
    if (type_idx < 0 || type_idx >= proto::kAttackTypeCount) {
      return at + ".type: unknown attack type";
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (commands[j].type == c.type) return at + ".type: duplicate";
    }
    if (keyword_framing) {
      if (bad_word(c.keyword)) return at + ".keyword: must be a non-empty word";
      for (std::size_t j = 0; j < i; ++j) {
        if (util::iequals(commands[j].keyword, c.keyword)) {
          return at + ".keyword: duplicate (case-insensitive)";
        }
      }
      if (framing == Framing::kText && attack_prefix.empty()) {
        // Without a prefix the keyword itself is the line's first token.
        if (util::iequals(c.keyword, ping_word) ||
            util::iequals(c.keyword, pong_word)) {
          return at + ".keyword: collides with ping/pong";
        }
        if (util::iequals(c.keyword, hello_words.front())) {
          return at + ".keyword: collides with hello";
        }
      }
    } else if (framing == Framing::kBinary) {
      for (std::size_t j = 0; j < i; ++j) {
        if (commands[j].vector == c.vector) return at + ".vector: duplicate";
      }
    }
  }

  if (keepalive_min_s == 0) return "beacon.keepalive_min_s: must be positive";
  if (keepalive_min_s > keepalive_max_s) {
    return "beacon.keepalive_max_s: must be >= keepalive_min_s";
  }
  if (attacker_quota < 0) return "plan.attacker_quota: must be >= 0";
  if (attacker_quota > 0 && commands.empty()) {
    return "plan.attacker_quota: a family without commands cannot attack";
  }
  if (extra_fallbacks < 0) return "fallback.extra: must be >= 0";
  if (extra_fallbacks > 0 && topology != Topology::kFallback) {
    return "fallback.extra: requires topology 'fallback'";
  }
  return std::nullopt;
}

obs::json::Value FamilyProfile::to_json() const {
  using obs::json::Value;
  auto str = [](std::string_view s) {
    Value v;
    v.type = Value::Type::kString;
    v.str = std::string(s);
    return v;
  };
  auto num = [](double n) {
    Value v;
    v.type = Value::Type::kNumber;
    v.number = n;
    return v;
  };

  Value root;
  root.type = Value::Type::kObject;
  root.object["family"] = str(proto::to_string(id));
  root.object["name"] = str(name);
  root.object["marker"] = str(marker);
  root.object["framing"] = str(to_string(framing));
  root.object["topology"] = str(to_string(topology));

  switch (framing) {
    case Framing::kBinary: {
      Value b;
      b.type = Value::Type::kObject;
      b.object["handshake_magic"] = num(handshake_magic);
      root.object["binary"] = std::move(b);
      break;
    }
    case Framing::kText: {
      Value t;
      t.type = Value::Type::kObject;
      Value hello;
      hello.type = Value::Type::kArray;
      for (const auto& w : hello_words) hello.array.push_back(str(w));
      t.object["hello"] = std::move(hello);
      t.object["hello_arg"] = str(hello_takes_rest ? "rest" : "token");
      t.object["hello_sends"] = str(hello_sends_bot_id ? "bot-id" : "arch");
      t.object["ping"] = str(ping_word);
      t.object["pong"] = str(pong_word);
      t.object["attack_prefix"] = str(attack_prefix);
      root.object["text"] = std::move(t);
      break;
    }
    case Framing::kIrc: {
      Value c;
      c.type = Value::Type::kObject;
      c.object["channel"] = str(irc_channel);
      c.object["attack_prefix"] = str(attack_prefix);
      root.object["irc"] = std::move(c);
      break;
    }
    case Framing::kTlsBeacon: {
      Value t;
      t.type = Value::Type::kObject;
      t.object["client_hello"] = str(util::to_hex(tls_client_hello));
      t.object["server_hello"] = str(util::to_hex(tls_server_hello));
      t.object["beacon"] = str(util::to_hex(tls_beacon));
      t.object["peer_id"] = str(tls_peer_id);
      root.object["tls"] = std::move(t);
      break;
    }
    case Framing::kP2p: break;  // no framing section at all
  }

  if (!commands.empty()) {
    Value cmds;
    cmds.type = Value::Type::kArray;
    for (const auto& c : commands) {
      Value entry;
      entry.type = Value::Type::kObject;
      entry.object["type"] = str(proto::to_string(c.type));
      if (is_text_like()) {
        entry.object["keyword"] = str(c.keyword);
      } else {
        entry.object["vector"] = num(c.vector);
      }
      cmds.array.push_back(std::move(entry));
    }
    root.object["commands"] = std::move(cmds);
  }

  if (framing != Framing::kP2p) {
    Value beacon;
    beacon.type = Value::Type::kObject;
    beacon.object["keepalive_min_s"] = num(keepalive_min_s);
    beacon.object["keepalive_max_s"] = num(keepalive_max_s);
    root.object["beacon"] = std::move(beacon);
  }

  if (attacker_quota > 0) {
    Value plan;
    plan.type = Value::Type::kObject;
    plan.object["attacker_quota"] = num(attacker_quota);
    root.object["plan"] = std::move(plan);
  }
  if (extra_fallbacks > 0) {
    Value fb;
    fb.type = Value::Type::kObject;
    fb.object["extra"] = num(extra_fallbacks);
    root.object["fallback"] = std::move(fb);
  }
  return root;
}

namespace {

void write_pretty(std::string& out, const obs::json::Value& v, int indent) {
  using obs::json::Value;
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  const std::string inner(static_cast<std::size_t>(indent + 1) * 2, ' ');
  switch (v.type) {
    case Value::Type::kArray: {
      if (v.array.empty()) {
        out += "[]";
        return;
      }
      out += "[\n";
      for (std::size_t i = 0; i < v.array.size(); ++i) {
        out += inner;
        write_pretty(out, v.array[i], indent + 1);
        if (i + 1 < v.array.size()) out += ',';
        out += '\n';
      }
      out += pad + "]";
      return;
    }
    case Value::Type::kObject: {
      if (v.object.empty()) {
        out += "{}";
        return;
      }
      out += "{\n";
      std::size_t i = 0;
      for (const auto& [key, member] : v.object) {
        Value k;
        k.type = Value::Type::kString;
        k.str = key;
        out += inner + obs::json::write(k) + ": ";
        write_pretty(out, member, indent + 1);
        if (++i < v.object.size()) out += ',';
        out += '\n';
      }
      out += pad + "}";
      return;
    }
    default: out += obs::json::write(v); return;
  }
}

}  // namespace

std::string FamilyProfile::to_pretty_json() const {
  std::string out;
  write_pretty(out, to_json(), 0);
  out += '\n';
  return out;
}

std::uint64_t FamilyProfile::content_hash() const {
  return util::fnv1a64(obs::json::write(to_json()));
}

FamilyProfile builtin_profile(proto::Family f) {
  FamilyProfile p;
  p.id = f;
  p.name = proto::to_string(f);
  p.marker = mal::family_marker(f);

  auto keyword_commands = [&](auto keyword_of) {
    for (const proto::AttackType t : proto::attacks_of(f)) {
      Command c;
      c.type = t;
      c.keyword = *keyword_of(t);
      p.commands.push_back(std::move(c));
    }
  };

  switch (f) {
    case proto::Family::kMirai:
      p.framing = Framing::kBinary;
      p.topology = Topology::kFallback;
      p.handshake_magic = 1;
      for (const proto::AttackType t : proto::attacks_of(f)) {
        Command c;
        c.type = t;
        c.vector = *proto::mirai_vector_of(t);
        p.commands.push_back(c);
      }
      p.attacker_quota = 8;
      break;
    case proto::Family::kGafgyt:
      p.framing = Framing::kText;
      p.topology = Topology::kFallback;
      p.hello_words = {"BUILD"};
      p.hello_takes_rest = true;
      p.hello_sends_bot_id = false;
      p.ping_word = "PING";
      p.pong_word = "PONG";
      p.attack_prefix = "!*";
      keyword_commands([](proto::AttackType t) {
        return proto::gafgyt_keyword_of(t);
      });
      p.attacker_quota = 3;
      break;
    case proto::Family::kTsunami:
      // IRC transport; the PRIVMSG body reuses the Gafgyt command grammar.
      p.framing = Framing::kIrc;
      p.topology = Topology::kFallback;
      p.irc_channel = "#tsunami";
      p.attack_prefix = "!*";
      for (const proto::AttackType t : proto::attacks_of(proto::Family::kGafgyt)) {
        Command c;
        c.type = t;
        c.keyword = *proto::gafgyt_keyword_of(t);
        p.commands.push_back(std::move(c));
      }
      break;
    case proto::Family::kDaddyl33t:
      p.framing = Framing::kText;
      p.topology = Topology::kFallback;
      p.hello_words = {"l33t", "LOGIN"};
      p.hello_takes_rest = false;
      p.hello_sends_bot_id = true;
      p.ping_word = ".ping";
      p.pong_word = ".pong";
      p.attack_prefix = "";
      keyword_commands([](proto::AttackType t) {
        return proto::daddyl33t_keyword_of(t);
      });
      p.attacker_quota = 6;
      break;
    case proto::Family::kMozi:
    case proto::Family::kHajime:
      p.framing = Framing::kP2p;
      p.topology = Topology::kP2p;
      break;
    case proto::Family::kVpnFilter:
      p.framing = Framing::kTlsBeacon;
      p.topology = Topology::kFallback;
      p.tls_client_hello = util::from_hex("16030300310100002d");
      p.tls_server_hello = util::from_hex("160303002a020000");
      p.tls_beacon = util::from_hex("170303000a");
      p.tls_peer_id = "vpnfilter-node";
      break;
  }
  return p;
}

}  // namespace malnet::profile
