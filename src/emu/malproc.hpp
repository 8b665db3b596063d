// The malware process: interprets a mal::BehaviorSpec against the simulated
// network, standing in for QEMU-emulated execution of a MIPS binary. All
// behaviour flows through the guest Host's socket API, which is exactly the
// boundary the sandbox interposes on (DESIGN.md §4 "Sandbox boundary =
// socket API").
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mal/behavior.hpp"
#include "profile/registry.hpp"
#include "proto/attack.hpp"
#include "sim/network.hpp"
#include "util/rng.hpp"

namespace malnet::emu {

struct MalProcOptions {
  net::Endpoint resolver{net::Ipv4{1, 1, 1, 1}, 53};
  /// Profile registry resolving the sample's C2 dialect. Null means the
  /// builtin registry (the compiled-in family behaviour). Not owned.
  const profile::Registry* profiles = nullptr;
  int c2_retry_limit = 2;
  sim::Duration c2_retry_delay = sim::Duration::seconds(20);
  sim::Duration connect_timeout = sim::Duration::seconds(5);
  /// Rate/duration caps forwarded to attack generation.
  double attack_pps = 200.0;
  sim::Duration attack_cap = sim::Duration::seconds(15);
};

/// Runs one malware sample on a guest host. Construct, then start(); the
/// process lives as long as its owner keeps it (the sandbox run owns both
/// the guest host and the process and destroys them together).
class MalwareProcess {
 public:
  MalwareProcess(sim::Host& guest, mal::BehaviorSpec spec, util::Rng rng,
                 MalProcOptions opts = {});
  MalwareProcess(const MalwareProcess&) = delete;
  MalwareProcess& operator=(const MalwareProcess&) = delete;

  void start();

  // --- observable state (used by tests; the pipeline reads captures) -------
  [[nodiscard]] bool aborted_evasion() const { return aborted_; }
  [[nodiscard]] const std::vector<proto::AttackCommand>& commands_received() const {
    return commands_;
  }

 private:
  void check_internet_then_run();
  void run_main();
  /// Dials `ep`; on failure retries it `attempts_left` more times, then
  /// moves to fallbacks_[next_fallback..], then cycles back to the primary.
  void contact_c2(net::Endpoint ep, int attempts_left, std::size_t next_fallback);
  void on_c2_connected(sim::TcpConn& conn);
  void send_keepalive();
  void on_c2_data(util::BytesView data);
  void handle_command(const proto::AttackCommand& cmd);
  void start_scans();
  void run_scan_task(std::size_t task_idx, std::uint32_t remaining);
  void start_telemetry();
  void start_p2p();
  [[nodiscard]] net::Port fallback_port() const;

  sim::Host& guest_;
  mal::BehaviorSpec spec_;
  util::Rng rng_;
  MalProcOptions opts_;
  const profile::FamilyProfile* profile_ = nullptr;  // set in ctor, never null
  std::vector<net::Endpoint> fallbacks_;  // spec fallback + extra_c2, in order

  bool started_ = false;
  bool aborted_ = false;
  // The contact in flight: retries left on contacted_, then the next
  // fallback to try.
  int c2_attempts_left_ = 0;
  std::size_t c2_next_fallback_ = 0;
  sim::TcpConn* c2_conn_ = nullptr;
  std::optional<net::Endpoint> contacted_;
  std::string c2_text_buffer_;
  util::Bytes c2_bin_buffer_;
  std::vector<proto::AttackCommand> commands_;
  bool rotate_attack_ports_ = true;
};

}  // namespace malnet::emu
