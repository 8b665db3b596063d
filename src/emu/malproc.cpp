#include "emu/malproc.hpp"

#include "dns/resolver.hpp"
#include "emu/attackgen.hpp"
#include "profile/wire.hpp"
#include "proto/irc.hpp"
#include "proto/p2p.hpp"
#include "util/log.hpp"
#include "util/str.hpp"
#include "vulndb/vulndb.hpp"

namespace malnet::emu {

namespace {
/// A random routable-looking address for scan sweeps (avoids loopback and
/// RFC1918 10/8, where the sandbox guests live).
net::Ipv4 random_scan_target(util::Rng& rng) {
  while (true) {
    const auto v = static_cast<std::uint32_t>(rng.uniform(0x01000000u, 0xDFFFFFFFu));
    const auto first = v >> 24;
    if (first == 10 || first == 127) continue;
    return net::Ipv4{v};
  }
}
}  // namespace

net::Port MalwareProcess::fallback_port() const {
  return spec_.c2_fallback_port != 0 ? spec_.c2_fallback_port : spec_.c2_port;
}

MalwareProcess::MalwareProcess(sim::Host& guest, mal::BehaviorSpec spec, util::Rng rng,
                               MalProcOptions opts)
    : guest_(guest), spec_(std::move(spec)), rng_(std::move(rng)), opts_(opts) {
  rotate_attack_ports_ = rng_.chance(0.5);  // Mirai UDP variant trait (§5.1)

  // Resolve the C2 dialect: the spec's named profile if the binary carries
  // one (and it exists for this family), else the family's active profile.
  const profile::Registry& reg =
      opts_.profiles != nullptr ? *opts_.profiles : profile::Registry::builtin();
  if (!spec_.profile_name.empty()) {
    const auto* named = reg.by_name(spec_.profile_name);
    if (named != nullptr && named->id == spec_.family) profile_ = named;
  }
  if (profile_ == nullptr) profile_ = reg.active(spec_.family);

  // The failover list the bot cycles through when the primary is down.
  if (!spec_.is_p2p()) {
    if (spec_.c2_fallback_ip) {
      fallbacks_.push_back({*spec_.c2_fallback_ip, fallback_port()});
    }
    for (const auto& e : spec_.extra_c2) fallbacks_.push_back(e);
  }
}

void MalwareProcess::start() {
  if (started_) return;
  started_ = true;
  if (spec_.check_internet) {
    check_internet_then_run();
  } else {
    run_main();
  }
}

void MalwareProcess::check_internet_then_run() {
  // Connectivity probe: resolve a benign-looking name, then open TCP/80 to
  // the answer. InetSim satisfies both inside the sandbox (§2.6a).
  dns::resolve(guest_, opts_.resolver, "update.busybox-cdn.com",
               [this](std::optional<net::Ipv4> ip) {
                 if (!ip) {
                   if (spec_.anti_sandbox) {
                     aborted_ = true;
                     return;
                   }
                   run_main();
                   return;
                 }
                 guest_.tcp_connect(
                     {*ip, 80},
                     [this](sim::ConnectOutcome outcome, sim::TcpConn* conn) {
                       if (outcome != sim::ConnectOutcome::kConnected) {
                         if (spec_.anti_sandbox) {
                           aborted_ = true;
                           return;
                         }
                       } else if (conn != nullptr) {
                         conn->close();
                       }
                       run_main();
                     },
                     opts_.connect_timeout);
               });
}

void MalwareProcess::run_main() {
  if (spec_.telemetry_domain) start_telemetry();
  if (spec_.is_p2p()) {
    start_p2p();
    start_scans();
    return;
  }
  start_scans();
  if (spec_.c2_domain) {
    dns::resolve(guest_, opts_.resolver, *spec_.c2_domain,
                 [this](std::optional<net::Ipv4> ip) {
                   if (ip) {
                     contact_c2({*ip, spec_.c2_port}, opts_.c2_retry_limit,
                                /*next_fallback=*/0);
                   } else if (!fallbacks_.empty()) {
                     contact_c2(fallbacks_.front(), opts_.c2_retry_limit,
                                /*next_fallback=*/1);
                   }
                 });
  } else if (spec_.c2_ip) {
    contact_c2({*spec_.c2_ip, spec_.c2_port}, opts_.c2_retry_limit,
               /*next_fallback=*/0);
  }
}

void MalwareProcess::contact_c2(net::Endpoint ep, int attempts_left,
                                std::size_t next_fallback) {
  contacted_ = ep;
  c2_attempts_left_ = attempts_left;
  c2_next_fallback_ = next_fallback;
  // One contact is in flight at a time, so the handler reads its state from
  // the process and captures only `this`, which fits ConnectHandler's inline
  // storage.
  guest_.tcp_connect(
      ep,
      [this](sim::ConnectOutcome outcome, sim::TcpConn* conn) {
        if (outcome == sim::ConnectOutcome::kConnected && conn != nullptr) {
          on_c2_connected(*conn);
          return;
        }
        const net::Endpoint dialed = *contacted_;
        const int attempts_left = c2_attempts_left_;
        const std::size_t next_fallback = c2_next_fallback_;
        if (attempts_left > 0) {
          guest_.schedule_safe(opts_.c2_retry_delay,
                               [this, dialed, attempts_left, next_fallback]() {
                                 contact_c2(dialed, attempts_left - 1, next_fallback);
                               });
        } else if (next_fallback < fallbacks_.size()) {
          contact_c2(fallbacks_[next_fallback], opts_.c2_retry_limit,
                     next_fallback + 1);
        } else {
          // Address list exhausted: real bots cycle back to the start and
          // keep trying for as long as they run. Bounded only by the
          // sandbox run duration (events die with the guest host).
          const net::Endpoint primary =
              spec_.c2_ip ? net::Endpoint{*spec_.c2_ip, spec_.c2_port} : dialed;
          guest_.schedule_safe(opts_.c2_retry_delay, [this, primary]() {
            contact_c2(primary, opts_.c2_retry_limit, /*next_fallback=*/0);
          });
        }
      },
      opts_.connect_timeout);
}

void MalwareProcess::on_c2_connected(sim::TcpConn& conn) {
  c2_conn_ = &conn;
  conn.on_data([this](sim::TcpConn&, util::BytesView data) { on_c2_data(data); });
  conn.on_close([this](sim::TcpConn& c) {
    if (c2_conn_ != &c) return;
    c2_conn_ = nullptr;
    c2_text_buffer_.clear();
    c2_bin_buffer_.clear();
    // Bots reconnect when the C2 drops them (Mirai's resolve/connect loop).
    const net::Endpoint primary =
        spec_.c2_ip ? net::Endpoint{*spec_.c2_ip, spec_.c2_port} : c.remote();
    guest_.schedule_safe(opts_.c2_retry_delay, [this, primary]() {
      if (c2_conn_ == nullptr) {
        contact_c2(primary, opts_.c2_retry_limit, /*next_fallback=*/0);
      }
    });
  });

  switch (profile_->framing) {
    case profile::Framing::kBinary:
      conn.send(util::BytesView{
          profile::wire::encode_handshake(*profile_, spec_.bot_id)});
      break;
    case profile::Framing::kText:
      // The hello argument is the bot's identity or its CPU architecture
      // (all sandbox guests emulate MIPS), per the profile's grammar.
      conn.send(profile::wire::encode_hello(
          *profile_, profile_->hello_sends_bot_id ? spec_.bot_id : "MIPS"));
      break;
    case profile::Framing::kIrc:
      conn.send(proto::irc::nick(spec_.bot_id).serialize());
      conn.send(proto::irc::user(spec_.bot_id).serialize());
      break;
    case profile::Framing::kTlsBeacon:
      conn.send(util::BytesView{profile_->tls_client_hello});
      break;
    case profile::Framing::kP2p:
      break;
  }
  send_keepalive();
}

void MalwareProcess::send_keepalive() {
  guest_.schedule_safe(sim::Duration::seconds(spec_.keepalive_s), [this]() {
    if (c2_conn_ == nullptr || !c2_conn_->established()) return;
    switch (profile_->framing) {
      case profile::Framing::kBinary:
        c2_conn_->send(util::BytesView{profile::wire::encode_keepalive()});
        break;
      case profile::Framing::kText:
        c2_conn_->send(profile::wire::encode_pong(*profile_));
        break;
      case profile::Framing::kIrc:
        c2_conn_->send(proto::irc::ping("keepalive").serialize());
        break;
      case profile::Framing::kTlsBeacon:
        c2_conn_->send(util::BytesView{profile_->tls_beacon});
        break;
      case profile::Framing::kP2p:
        break;
    }
    send_keepalive();
  });
}

void MalwareProcess::on_c2_data(util::BytesView data) {
  switch (profile_->framing) {
    case profile::Framing::kBinary: {
      c2_bin_buffer_.insert(c2_bin_buffer_.end(), data.begin(), data.end());
      while (c2_bin_buffer_.size() >= 2) {
        const std::size_t len =
            (static_cast<std::size_t>(c2_bin_buffer_[0]) << 8) | c2_bin_buffer_[1];
        if (len == 0) {  // keepalive echo from the server
          c2_bin_buffer_.erase(c2_bin_buffer_.begin(), c2_bin_buffer_.begin() + 2);
          continue;
        }
        if (c2_bin_buffer_.size() < 2 + len) break;
        const util::BytesView frame{c2_bin_buffer_.data(), 2 + len};
        if (const auto cmd = profile::wire::decode_binary_attack(*profile_, frame)) {
          handle_command(*cmd);
        }
        c2_bin_buffer_.erase(c2_bin_buffer_.begin(),
                             c2_bin_buffer_.begin() + static_cast<std::ptrdiff_t>(2 + len));
      }
      break;
    }
    case profile::Framing::kText:
    case profile::Framing::kIrc: {
      c2_text_buffer_ += util::to_string(data);
      std::size_t nl;
      while ((nl = c2_text_buffer_.find('\n')) != std::string::npos) {
        const std::string line = c2_text_buffer_.substr(0, nl);
        c2_text_buffer_.erase(0, nl + 1);
        if (c2_conn_ == nullptr) return;
        if (profile_->framing == profile::Framing::kText) {
          if (profile::wire::is_ping(*profile_, line)) {
            c2_conn_->send(profile::wire::encode_pong(*profile_));
          } else if (const auto cmd =
                         profile::wire::decode_text_attack(*profile_, line)) {
            handle_command(*cmd);
          }
        } else {  // IRC transport
          const auto msg = proto::irc::parse(line);
          if (!msg) continue;
          if (msg->command == "001") {
            c2_conn_->send(proto::irc::join(profile_->irc_channel).serialize());
          } else if (msg->command == "PING") {
            c2_conn_->send(proto::irc::pong(msg->trailing).serialize());
          } else if (msg->command == "PRIVMSG") {
            // Channel-borne attack orders (text grammar inside the PRIVMSG).
            if (const auto cmd = profile::wire::decode_text_attack(
                    *profile_, msg->trailing + "\n")) {
              handle_command(*cmd);
            }
          }
        }
      }
      break;
    }
    default:
      break;  // tls-beacon dialogue carries no commands in our model
  }
}

void MalwareProcess::handle_command(const proto::AttackCommand& cmd) {
  commands_.push_back(cmd);
  AttackGenOptions opts;
  opts.pps = opts_.attack_pps;
  opts.max_duration = opts_.attack_cap;
  opts.rotate_source_ports = rotate_attack_ports_;
  launch_attack(guest_, cmd, opts, rng_);
}

void MalwareProcess::start_scans() {
  for (std::size_t i = 0; i < spec_.scans.size(); ++i) {
    const auto jitter =
        sim::Duration::seconds(static_cast<std::int64_t>(rng_.uniform(1, 10)));
    guest_.schedule_safe(jitter, [this, i]() {
      run_scan_task(i, spec_.scans[i].target_count);
    });
  }
}

void MalwareProcess::run_scan_task(std::size_t task_idx, std::uint32_t remaining) {
  if (remaining == 0) return;
  const auto& task = spec_.scans[task_idx];
  const net::Endpoint target{random_scan_target(rng_), task.port};

  guest_.tcp_connect(
      target,
      [this, task_idx](sim::ConnectOutcome outcome, sim::TcpConn* conn) {
        if (outcome != sim::ConnectOutcome::kConnected || conn == nullptr) return;
        const auto& task = spec_.scans[task_idx];
        if (task.vuln) {
          const auto& vdb = vulndb::VulnDatabase::instance();
          conn->send(vdb.render_exploit(*task.vuln, spec_.downloader_host,
                                        spec_.loader_name));
        } else {
          // Telnet credential sweep: canonical Mirai dictionary entry.
          conn->send(std::string_view("root\r\nvizxv\r\n"));
        }
        sim::TcpConn* conn_ptr = conn;
        guest_.schedule_safe(sim::Duration::seconds(1), [conn_ptr]() {
          if (conn_ptr->established()) conn_ptr->close();
        });
      },
      sim::Duration::seconds(3));

  const auto gap = sim::Duration::micros(
      static_cast<std::int64_t>(1e6 / spec_.scans[task_idx].pps));
  guest_.schedule_safe(gap, [this, task_idx, remaining]() {
    run_scan_task(task_idx, remaining - 1);
  });
}

void MalwareProcess::start_telemetry() {
  // Benign-looking periodic beacon: resolve, GET, close, repeat. Repeats
  // are what make it *look* like C2 beaconing to a naive classifier.
  dns::resolve(guest_, opts_.resolver, *spec_.telemetry_domain,
               [this](std::optional<net::Ipv4> ip) {
                 if (!ip) return;
                 guest_.tcp_connect(
                     {*ip, 80},
                     [this](sim::ConnectOutcome outcome, sim::TcpConn* conn) {
                       if (outcome == sim::ConnectOutcome::kConnected &&
                           conn != nullptr) {
                         conn->send(std::string_view(
                             "GET /ip HTTP/1.1\r\nhost: telemetry\r\n\r\n"));
                         sim::TcpConn* cp = conn;
                         guest_.schedule_safe(sim::Duration::seconds(2), [cp]() {
                           if (cp->established()) cp->close();
                         });
                       }
                     },
                     opts_.connect_timeout);
               });
  guest_.schedule_safe(sim::Duration::seconds(100), [this]() { start_telemetry(); });
}

void MalwareProcess::start_p2p() {
  guest_.udp_bind(6881, [this](const net::Packet& p) {
    // Answer peer pings so the overlay sees us as alive.
    if (const auto ping = proto::p2p::decode_ping(p.payload)) {
      guest_.udp_send({p.src, p.src_port},
                      proto::p2p::encode_pong({spec_.node_id, ping->txn}), 6881);
    }
  });
  // Periodic bootstrap gossip to every configured peer.
  const auto tick = [this]() {
    std::uint16_t txn = static_cast<std::uint16_t>(rng_.uniform(0, 0xFFFF));
    for (const auto& peer : spec_.p2p_peers) {
      const std::string txn_s{static_cast<char>(txn >> 8), static_cast<char>(txn)};
      guest_.udp_send(peer, proto::p2p::encode_ping({spec_.node_id, txn_s}), 6881);
      ++txn;
    }
  };
  tick();
  // Re-gossip on a fixed interval (bounded only by the run's lifetime —
  // schedule_safe stops firing once the guest host is torn down).
  struct Rearm {
    MalwareProcess* self;
    std::function<void()> tick;
    void operator()() const {
      tick();
      self->guest_.schedule_safe(sim::Duration::seconds(30), Rearm{self, tick});
    }
  };
  guest_.schedule_safe(sim::Duration::seconds(30), Rearm{this, tick});
}

}  // namespace malnet::emu
