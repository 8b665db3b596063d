#include "emu/attackgen.hpp"

#include <algorithm>
#include <memory>

namespace malnet::emu {

util::Bytes vse_payload() {
  util::Bytes p{0xFF, 0xFF, 0xFF, 0xFF, 'T'};
  const std::string q = "Source Engine Query";
  p.insert(p.end(), q.begin(), q.end());
  p.push_back(0x00);
  return p;
}

util::Bytes nfo_payload() {
  // Custom marker payload observed against NFOservers infrastructure.
  return util::to_bytes("NFOV6\x01\x02\x03\x04stress");
}

namespace {

/// Shared burst-loop state for one running attack.
struct AttackState {
  proto::AttackCommand cmd;
  AttackGenOptions opts;
  util::Rng rng;
  sim::SimTime end;
  net::Port fixed_src_port = 0;
  /// The bytes every packet carries, built once per attack. For TLS only
  /// the 5-byte record header is fixed; the junk after it is redrawn into
  /// this buffer for each packet.
  util::Bytes payload;
  std::function<void()> done;
};

constexpr std::size_t kTlsJunk = 48;

/// The constant per-packet payload of an attack of `type` (§5.1). STD
/// draws its one random string from `rng`.
util::Bytes attack_payload(proto::AttackType type, util::Rng& rng) {
  switch (type) {
    case proto::AttackType::kUdpFlood:
      return util::Bytes{0x00};  // the null byte, all three families
    case proto::AttackType::kSynFlood:
      return {};
    case proto::AttackType::kTls: {
      util::Bytes hello{0x16, 0x03, 0x03, 0x00, 0x30};
      hello.resize(hello.size() + kTlsJunk);
      return hello;
    }
    case proto::AttackType::kStomp:
      return util::to_bytes("CONNECT\naccept-version:1.2\n\n\x00junk");
    case proto::AttackType::kVse:
      return vse_payload();
    case proto::AttackType::kStd: {
      // One random string generated once, reused for the whole attack.
      util::Bytes s(32);
      for (auto& b : s) b = static_cast<std::uint8_t>(rng.uniform('A', 'Z'));
      return s;
    }
    case proto::AttackType::kBlacknurse:
      return util::Bytes(28, 0x00);
    case proto::AttackType::kNfo:
      return nfo_payload();
  }
  return {};
}

void emit_burst(sim::Host& bot, const std::shared_ptr<AttackState>& st);

void schedule_next(sim::Host& bot, const std::shared_ptr<AttackState>& st) {
  if (bot.now() >= st->end) {
    if (st->done) st->done();
    return;
  }
  bot.schedule_safe(sim::Duration::millis(100),
                    [&bot, st]() { emit_burst(bot, st); });
}

void emit_burst(sim::Host& bot, const std::shared_ptr<AttackState>& st) {
  const int per_burst = std::max(1, static_cast<int>(st->opts.pps / 10.0));
  const auto& target = st->cmd.target;

  for (int i = 0; i < per_burst; ++i) {
    const net::Port src_port = st->opts.rotate_source_ports
                                   ? static_cast<net::Port>(st->rng.uniform(1024, 65535))
                                   : st->fixed_src_port;
    switch (st->cmd.type) {
      case proto::AttackType::kUdpFlood:
      case proto::AttackType::kVse:
      case proto::AttackType::kStd:
      case proto::AttackType::kNfo:
        bot.udp_send(target, st->payload, src_port);
        break;
      case proto::AttackType::kSynFlood: {
        net::Packet syn;
        syn.dst = target.ip;
        syn.proto = net::Protocol::kTcp;
        syn.src_port = src_port;
        syn.dst_port = target.port;
        syn.flags.syn = true;
        syn.seq = st->rng();
        bot.send_raw(std::move(syn));
        break;
      }
      case proto::AttackType::kTls: {
        // Both observed variants ride datagrams of encoded junk (§5.1 —
        // daddyl33t sends DTLS-ish messages; the Mirai variant's chunked
        // stream is approximated at the packet level).
        auto& hello = st->payload;
        for (std::size_t b = hello.size() - kTlsJunk; b < hello.size(); ++b) {
          hello[b] = static_cast<std::uint8_t>(st->rng.uniform(0, 255));
        }
        bot.udp_send(target, hello, src_port);
        break;
      }
      case proto::AttackType::kStomp: {
        // Post-handshake junk STOMP frames; emitted as raw PSH segments to
        // keep per-packet cost flat at flood rates.
        net::Packet frame;
        frame.dst = target.ip;
        frame.proto = net::Protocol::kTcp;
        frame.src_port = src_port;
        frame.dst_port = target.port;
        frame.flags.psh = true;
        frame.flags.ack = true;
        frame.payload = st->payload;
        bot.send_raw(std::move(frame));
        break;
      }
      case proto::AttackType::kBlacknurse: {
        // ICMP type 3 code 3 (destination/port unreachable) flood.
        bot.icmp_send(target.ip, 3, 3, st->payload);
        break;
      }
    }
  }
  schedule_next(bot, st);
}

}  // namespace

void launch_attack(sim::Host& bot, const proto::AttackCommand& cmd,
                   const AttackGenOptions& opts, util::Rng& rng,
                   std::function<void()> done) {
  auto st = std::make_shared<AttackState>(AttackState{
      cmd, opts, rng.fork("attack"), sim::SimTime{}, 0, {}, std::move(done)});
  const auto commanded = sim::Duration::seconds(cmd.duration_s);
  st->end = bot.now() + std::min(commanded, opts.max_duration);
  st->fixed_src_port = static_cast<net::Port>(st->rng.uniform(1024, 65535));
  st->payload = attack_payload(cmd.type, st->rng);
  emit_burst(bot, st);
}

}  // namespace malnet::emu
