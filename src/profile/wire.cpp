#include "profile/wire.hpp"

#include <stdexcept>

#include "net/ipv4.hpp"
#include "util/str.hpp"

namespace malnet::profile::wire {

util::Bytes encode_handshake(const FamilyProfile& p, const std::string& bot_id) {
  if (bot_id.size() > 255) {
    throw std::invalid_argument("profile: bot id too long");
  }
  util::ByteWriter w;
  w.u32(p.handshake_magic);
  w.u8(static_cast<std::uint8_t>(bot_id.size()));
  w.raw(bot_id);
  return w.take();
}

std::optional<Handshake> decode_handshake(const FamilyProfile& p,
                                          util::BytesView wire) {
  // Keepalives (2 bytes) reach here on every C2 session; turn them and any
  // other frame without room for magic + id length away before reading.
  if (wire.size() < 5) return std::nullopt;
  try {
    util::ByteReader r(wire);
    if (r.u32() != p.handshake_magic) return std::nullopt;
    const std::uint8_t len = r.u8();
    Handshake h;
    h.bot_id = r.str(len);
    if (!r.done()) return std::nullopt;
    return h;
  } catch (const util::TruncatedInput&) {
    return std::nullopt;
  }
}

util::Bytes encode_keepalive() { return util::Bytes{0x00, 0x00}; }

bool is_keepalive(util::BytesView wire) {
  return wire.size() == 2 && wire[0] == 0 && wire[1] == 0;
}

util::Bytes encode_binary_attack(const FamilyProfile& p,
                                 const proto::AttackCommand& cmd) {
  const Command* c = p.by_type(cmd.type);
  if (c == nullptr) {
    throw std::invalid_argument("profile '" + p.name +
                                "' does not implement " +
                                proto::to_string(cmd.type));
  }
  util::ByteWriter body;
  body.u32(cmd.duration_s);
  body.u8(c->vector);
  body.u8(1);  // one target
  body.u32(cmd.target.ip.value);
  body.u8(32);  // /32 target
  if (cmd.target.port != 0) {
    body.u8(1);  // one option
    body.u8(kOptDport);
    body.u8(2);
    body.u16(cmd.target.port);
  } else {
    body.u8(0);
  }
  util::ByteWriter framed;
  framed.lp16(body.bytes());
  return framed.take();
}

std::optional<proto::AttackCommand> decode_binary_attack(const FamilyProfile& p,
                                                         util::BytesView wire) {
  try {
    util::ByteReader r(wire);
    const util::Bytes body = r.lp16();
    if (body.empty() || !r.done()) return std::nullopt;
    util::ByteReader b(body);
    proto::AttackCommand cmd;
    cmd.family = p.id;
    cmd.duration_s = b.u32();
    const Command* c = p.by_vector(b.u8());
    if (c == nullptr) return std::nullopt;
    cmd.type = c->type;
    const std::uint8_t n_targets = b.u8();
    if (n_targets == 0) return std::nullopt;
    cmd.target.ip = net::Ipv4{b.u32()};
    b.skip(1);  // prefix
    for (std::uint8_t i = 1; i < n_targets; ++i) b.skip(5);  // extra targets
    const std::uint8_t n_opts = b.u8();
    for (std::uint8_t i = 0; i < n_opts; ++i) {
      const std::uint8_t key = b.u8();
      const std::uint8_t len = b.u8();
      const util::Bytes val = b.raw(len);
      if (key == kOptDport && len == 2) {
        cmd.target.port = static_cast<net::Port>((val[0] << 8) | val[1]);
      }
    }
    if (!b.done()) return std::nullopt;
    cmd.raw.assign(wire.begin(), wire.end());
    return cmd;
  } catch (const util::TruncatedInput&) {
    return std::nullopt;
  }
}

namespace {

std::string hello_prefix(const FamilyProfile& p) {
  return util::join(p.hello_words, " ");
}

}  // namespace

std::string encode_hello(const FamilyProfile& p, const std::string& arg) {
  return hello_prefix(p) + " " + arg + "\n";
}

std::optional<std::string> decode_hello(const FamilyProfile& p,
                                        std::string_view line) {
  const auto trimmed = util::trim(line);
  if (p.hello_takes_rest) {
    // Gafgyt grammar: fixed prefix, the trimmed rest is the argument.
    const std::string prefix = hello_prefix(p) + " ";
    if (trimmed.rfind(prefix, 0) != 0) return std::nullopt;
    return std::string(util::trim(trimmed.substr(prefix.size())));
  }
  // Daddyl33t grammar: exact tokens, one trailing argument token.
  const auto parts = util::split_ws(trimmed);
  if (parts.size() != p.hello_words.size() + 1) return std::nullopt;
  for (std::size_t i = 0; i < p.hello_words.size(); ++i) {
    if (parts[i] != p.hello_words[i]) return std::nullopt;
  }
  return parts.back();
}

std::string encode_ping(const FamilyProfile& p) { return p.ping_word + "\n"; }
std::string encode_pong(const FamilyProfile& p) { return p.pong_word + "\n"; }

bool is_ping(const FamilyProfile& p, std::string_view line) {
  return util::trim(line) == p.ping_word;
}

bool is_pong(const FamilyProfile& p, std::string_view line) {
  return util::trim(line) == p.pong_word;
}

std::string encode_text_attack(const FamilyProfile& p,
                               const proto::AttackCommand& cmd) {
  const Command* c = p.by_type(cmd.type);
  if (c == nullptr) {
    throw std::invalid_argument("profile '" + p.name +
                                "' does not implement " +
                                proto::to_string(cmd.type));
  }
  std::string line;
  if (!p.attack_prefix.empty()) line = p.attack_prefix + " ";
  line += c->keyword + " " + net::to_string(cmd.target.ip) + " " +
          std::to_string(cmd.target.port) + " " +
          std::to_string(cmd.duration_s) + "\n";
  return line;
}

std::optional<proto::AttackCommand> decode_text_attack(const FamilyProfile& p,
                                                       std::string_view line) {
  const auto parts = util::split_ws(util::trim(line));
  const std::size_t base = p.attack_prefix.empty() ? 0 : 1;
  if (parts.size() != base + 4) return std::nullopt;
  if (base == 1 && parts[0] != p.attack_prefix) return std::nullopt;
  const Command* c = p.by_keyword(parts[base]);
  const auto ip = net::parse_ipv4(parts[base + 1]);
  const auto port = util::parse_u64(parts[base + 2]);
  const auto secs = util::parse_u64(parts[base + 3]);
  if (c == nullptr || !ip || !port || *port > 0xFFFF || !secs) {
    return std::nullopt;
  }
  proto::AttackCommand cmd;
  cmd.family = p.id;
  cmd.type = c->type;
  cmd.target = {*ip, static_cast<net::Port>(*port)};
  cmd.duration_s = static_cast<std::uint32_t>(*secs);
  cmd.raw = util::to_bytes(line);
  return cmd;
}

}  // namespace malnet::profile::wire
