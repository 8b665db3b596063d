// ddos_watch: the eavesdropping workflow (§2.5) — connect a bot to its live
// C2 inside the restricted sandbox, watch the C2 issue attack commands,
// decode them with the protocol profiles, and verify the launched floods
// never escape containment.
#include <iostream>

#include "botnet/c2server.hpp"
#include "core/ddos.hpp"
#include "emu/sandbox.hpp"
#include "mal/binary.hpp"

int main() {
  using namespace malnet;

  sim::EventScheduler sched;
  sim::Network net(sched);

  // An attack-issuing Daddyl33t C2: one TLS flood and one BLACKNURSE, the
  // §5.2 "one target hit by multiple attacks" pattern.
  botnet::C2ServerConfig cfg;
  cfg.family = proto::Family::kDaddyl33t;
  cfg.ip = net::Ipv4{60, 66, 6, 6};
  cfg.port = 1312;
  cfg.accept_prob = 1.0;
  cfg.mean_dormancy = sim::Duration::minutes(10);
  proto::AttackCommand tls;
  tls.type = proto::AttackType::kTls;
  tls.target = {net::Ipv4{63, 1, 77, 9}, 443};
  tls.duration_s = 30;
  proto::AttackCommand nurse;
  nurse.type = proto::AttackType::kBlacknurse;
  nurse.target = {tls.target.ip, 0};  // same victim, second attack type
  nurse.duration_s = 30;
  cfg.attack_plan = {tls, nurse};
  botnet::C2Server c2(net, cfg, util::Rng(4));

  mal::MbfBinary bin;
  bin.behavior.family = proto::Family::kDaddyl33t;
  bin.behavior.c2_ip = cfg.ip;
  bin.behavior.c2_port = cfg.port;
  bin.behavior.bot_id = "daddy.mips.watch";
  util::Rng rng(5);
  const auto binary = mal::forge(bin, rng);

  emu::Sandbox sandbox(net);
  emu::SandboxOptions opts;
  opts.mode = emu::SandboxMode::kLive;
  opts.duration = sim::Duration::hours(2);  // the paper's restricted window
  opts.allowed_c2 = c2.endpoint();

  emu::SandboxReport report;
  sandbox.start(binary, opts, [&](const emu::SandboxReport& r) { report = r; });
  sched.run_until(sched.now() + sim::Duration::hours(3));

  std::cout << "2-hour restricted watch complete: " << report.capture.size()
            << " packets captured, " << report.packets_dropped
            << " contained at the perimeter\n\n";

  const auto detections =
      core::detect_ddos(report, c2.endpoint(), proto::Family::kDaddyl33t,
                        profile::Registry::builtin());
  for (const auto& det : detections) {
    std::cout << (det.verified ? "[verified] " : "[unverified] ")
              << det.command.summary() << "\n  method: " << core::to_string(det.method)
              << ", observed rate " << det.observed_pps << " pps\n  raw command: "
              << util::to_string(det.command.raw);
    if (det.command.raw.empty() || det.command.raw.back() != '\n') std::cout << '\n';
  }
  std::cout << "\n(the bot flooded " << int{tls.target.ip.octet(0)} << ".x.x."
            << int{tls.target.ip.octet(3)}
            << " inside the sandbox; nothing reached the simulated internet)\n";
  return 0;
}
