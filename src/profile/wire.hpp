// Profile-parameterised C2 wire codecs: the Mirai binary and the
// Gafgyt/Daddyl33t text message grammars, generalised over a
// FamilyProfile. This is the project's one C2 codec path: bots
// (emu::MalwareProcess) and C2 servers (botnet::C2Server) speak through it,
// and core::detect_ddos decodes live C2 traffic through it with the
// active registry's profiles. For the builtin profiles the bytes are
// pinned by the tests/corpus seeds that malnet_make_corpus writes
// (golden-byte tests in tests/test_profile.cpp).
//
// Binary grammar (magic from the profile; builtin Mirai uses 1):
//   Bot -> C2 on connect:   u32 magic, u8 id_len, id bytes
//   Keepalive (both ways):  u16 0x0000
//   C2 -> Bot attack:       u16 len, then len bytes of:
//                             u32 duration_s, u8 vector, u8 n_targets,
//                             n x (u32 ipv4, u8 prefix),
//                             u8 n_opts, n x (u8 key, u8 val_len, bytes)
//
// Text grammar (words from the profile):
//   Bot -> C2 on connect:   "HELLO-WORDS <arg>\n"
//   Keepalive:              "<ping_word>\n" -> "<pong_word>\n"
//   C2 -> Bot attack:       "[PREFIX ]KEYWORD <ip> <port> <secs>\n"
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "profile/profile.hpp"
#include "proto/attack.hpp"
#include "util/bytes.hpp"

namespace malnet::profile::wire {

/// Binary attack option key for the destination port ("dport" in the
/// Mirai source).
inline constexpr std::uint8_t kOptDport = 7;

// --- binary framing (Mirai grammar, magic parameterised) -------------------

[[nodiscard]] util::Bytes encode_handshake(const FamilyProfile& p,
                                           const std::string& bot_id);
struct Handshake {
  std::string bot_id;
};
[[nodiscard]] std::optional<Handshake> decode_handshake(const FamilyProfile& p,
                                                        util::BytesView wire);

[[nodiscard]] util::Bytes encode_keepalive();
[[nodiscard]] bool is_keepalive(util::BytesView wire);

/// u16-length-framed attack body; vector id from the profile's command
/// table. Throws std::invalid_argument for a type the profile lacks.
[[nodiscard]] util::Bytes encode_binary_attack(const FamilyProfile& p,
                                               const proto::AttackCommand& cmd);
[[nodiscard]] std::optional<proto::AttackCommand> decode_binary_attack(
    const FamilyProfile& p, util::BytesView wire);

// --- text framing (Gafgyt/Daddyl33t grammar, words parameterised) ----------

/// "HELLO-WORDS <arg>\n" — arg is the bot id or arch per hello_sends.
[[nodiscard]] std::string encode_hello(const FamilyProfile& p,
                                       const std::string& arg);
/// The hello argument, or nullopt if the line is not this profile's hello.
[[nodiscard]] std::optional<std::string> decode_hello(const FamilyProfile& p,
                                                      std::string_view line);

[[nodiscard]] std::string encode_ping(const FamilyProfile& p);
[[nodiscard]] std::string encode_pong(const FamilyProfile& p);
[[nodiscard]] bool is_ping(const FamilyProfile& p, std::string_view line);
[[nodiscard]] bool is_pong(const FamilyProfile& p, std::string_view line);

/// "[PREFIX ]KEYWORD ip port secs\n". Throws std::invalid_argument for a
/// type the profile lacks.
[[nodiscard]] std::string encode_text_attack(const FamilyProfile& p,
                                             const proto::AttackCommand& cmd);
[[nodiscard]] std::optional<proto::AttackCommand> decode_text_attack(
    const FamilyProfile& p, std::string_view line);

}  // namespace malnet::profile::wire
