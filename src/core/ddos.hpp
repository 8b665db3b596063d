// DDoS command detection over a restricted-mode capture (§2.5): the
// protocol-profile method (a) decodes inbound C2 traffic with the attack
// grammars of the active profile registry (every binary- or text-framed
// profile: the Mirai, Gafgyt and Daddyl33t builtins plus any loaded
// override or variant); the behavioural method (b) flags outbound
// bursts above a packets-per-second threshold to non-C2 destinations and
// associates them with the last C2 command seen. Both methods then verify:
// (a) that the bot actually flooded the commanded target, (b) that the
// burst target appears (textually or as 4 raw bytes) in the associated
// command.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "emu/sandbox.hpp"
#include "profile/registry.hpp"
#include "proto/attack.hpp"

namespace malnet::core {

enum class DdosMethod { kProtocolProfile, kBehaviouralHeuristic };

[[nodiscard]] std::string to_string(DdosMethod m);

struct DdosDetection {
  DdosMethod method = DdosMethod::kProtocolProfile;
  proto::AttackCommand command;   // decoded (method a) or reconstructed (b)
  bool verified = false;          // survived the §2.5 manual-style check
  double observed_pps = 0.0;      // peak outbound rate toward the target
};

struct DdosDetectOptions {
  double pps_threshold = 100.0;   // §2.5b default
  /// Verification floor: a commanded attack must produce at least this many
  /// packets toward its target to count as launched.
  int min_attack_packets = 20;
};

/// Analyses one live-run capture. `c2` is the endpoint the run allowed
/// through the perimeter. Method (a) decodes with the binary- and
/// text-framed profiles of `profiles`, in registry order; each frame or
/// line counts once, for the first profile that accepts it. `family_hint`
/// narrows decoding to the profiles of that family; without it every such
/// profile is tried (new-variant coverage, §2.5b's reason for existing).
/// IRC, TLS-beacon and P2P dialects are left to method (b).
[[nodiscard]] std::vector<DdosDetection> detect_ddos(
    const emu::SandboxReport& report, net::Endpoint c2,
    std::optional<proto::Family> family_hint,
    const profile::Registry& profiles, const DdosDetectOptions& opts = {});

}  // namespace malnet::core
