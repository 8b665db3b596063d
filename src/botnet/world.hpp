// The simulated botnet ecosystem ("the world"): plans a year-long campaign
// population calibrated to the paper's measurements, and drives C2 server
// lifecycle on the simulated internet as the study clock advances.
//
// The generating-process parameters here (C2 lifespans, sharing, AS mix,
// reporting lag, attack plans) are *inputs*; every table/figure number is
// re-measured by running the MalNet pipeline against this world, never
// copied through (DESIGN.md §4 "Calibration, not hard-coding").
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "asdb/asdb.hpp"
#include "botnet/c2server.hpp"
#include "dns/server.hpp"
#include "inetsim/services.hpp"
#include "mal/behavior.hpp"
#include "mal/binary.hpp"
#include "profile/registry.hpp"
#include "sim/network.hpp"
#include "util/rng.hpp"

namespace malnet::botnet {

/// Where a sample was first published (§2.2).
enum class FeedSource { kVirusTotal, kMalwareBazaar };

[[nodiscard]] std::string to_string(FeedSource s);

/// One malware binary as the feeds deliver it: bytes plus feed metadata.
/// Ground-truth fields (family, C2 plan linkage) exist for validation only;
/// the pipeline must not read them.
struct PlannedSample {
  std::string sha256;
  util::Bytes binary;
  std::int64_t first_seen_day = 0;
  FeedSource source = FeedSource::kVirusTotal;
  int vt_detections = 6;  // #AV engines flagging it (>=5 per §2.2)

  // --- ground truth, for tests/validation only ---
  bool truth_corrupt = false;  // damaged download; never activates
  mal::Arch truth_arch = mal::Arch::kMips32;
  proto::Family truth_family = proto::Family::kMirai;
  std::vector<std::string> truth_c2_refs;  // addresses embedded in the binary
};

/// One planned C2 server (an address, its lifecycle and its behaviour).
struct PlannedC2 {
  std::string address;  // dotted quad, or domain name for DNS-based C2s
  C2ServerConfig cfg;
  std::int64_t birth_day = 0;
  int lifetime_days = 1;
  std::uint32_t asn = 0;
  bool attacker = false;   // has a non-empty attack plan
  bool downloader = false; // co-hosts the loader-distribution HTTP service

  [[nodiscard]] std::int64_t death_day() const { return birth_day + lifetime_days; }
  [[nodiscard]] bool alive_on(std::int64_t day) const {
    return day >= birth_day && day < death_day();
  }
};

struct WorldConfig {
  std::uint64_t seed = 22;
  /// At most sample_capacity(): World rejects a larger count.
  int total_samples = 1447;

  // Family mix (weights; normalised internally). Order matches proto::Family.
  std::vector<double> family_weights{0.40, 0.28, 0.08, 0.06, 0.12, 0.04, 0.02};

  // C2 population shape.
  double dns_c2_fraction = 0.05;       // domains vs raw IPs
  double fallback_ref_prob = 0.95;     // sample embeds a 2nd (fallback) C2
  double zipf_share_exponent = 0.85;   // sample->C2 popularity skew (Fig 5)
  double dedicated_c2_fraction = 0.22; // samples that bring their own server
  int c2_pool_target = 1160;           // distinct C2 addresses (Table 1)

  // Lifecycle (drives Figures 2-4 and the 60% dead-on-arrival finding).
  double lifetime_one_day = 0.55;
  double lifetime_short = 0.25;        // 2-3 days
  double lifetime_mid = 0.12;          // 4-10 days
  // remainder: 11-40 days
  double report_lag_p = 0.35;          // geometric success prob, mean ~1.2 d

  // Elusiveness (Figure 4).
  double accept_prob = 0.50;
  sim::Duration mean_dormancy = sim::Duration::hours(30);

  // Proliferation (D-Exploits / Table 4 / Figures 8-9).
  double exploit_sample_fraction = 0.16;
  int exploit_tasks_min = 2, exploit_tasks_max = 4;
  double downloader_on_c2_prob = 0.75;  // §3.1 co-hosting

  // Attacks (§5: 42 commands, 17 C2s, 20 binaries).
  int attacker_c2_count = 17;
  int attacker_sample_count = 20;

  // Evasion (motivates the InetSim deployment of §2.6a).
  double anti_sandbox_fraction = 0.08;

  // Benign periodic HTTP beacons embedded in some samples (IP-echo /
  // update checks): the classifier must not mistake them for C2s.
  double telemetry_fraction = 0.15;

  // Feed corruption: truncated/damaged downloads that never activate in
  // the sandbox — what keeps the §6f activation rate at ~90%.
  double corrupt_fraction = 0.09;

  // Feed noise: non-MIPS binaries the feeds also deliver (the paper keeps
  // only MIPS-32, §2.2). These ride on top of total_samples and must be
  // filtered out by the pipeline's architecture gate.
  double non_mips_extra_fraction = 0.06;

  // Family profiles. Null means the builtin registry, which reproduces the
  // pre-profile compiled-in behaviour bit-for-bit. Not owned; must outlive
  // the world. `variant_name` optionally routes a fraction of the named
  // profile's family onto that variant profile (data-only families like a
  // fallback-C2 Mirai fork): with a variant configured, each planned C2 of
  // the variant's family flips a `variant_fraction` coin. When no variant
  // is named, no extra RNG draws happen — loading profiles that match the
  // builtins leaves the plan bit-identical.
  const profile::Registry* profiles = nullptr;
  std::string variant_name;
  double variant_fraction = 0.0;

  // Seed-sharded parallel studies (core::ParallelStudy): this world plans
  // only its shard's interleaved slice of the study population — sample
  // slot / C2 birth slot j is materialized iff j % shard_count ==
  // shard_index, and count-valued quotas (attackers, decoys) take their
  // near-even share — so the union over all shards covers every slot of the
  // full plan exactly once and keeps its weekly temporal shape. The default
  // (1, 0) plans the whole study and is bit-identical to the pre-sharding
  // planner.
  int shard_count = 1;
  int shard_index = 0;
};

/// Week layout of the study (Appendix E): 31 active weeks with gaps.
[[nodiscard]] const std::vector<std::int64_t>& active_week_start_days();
/// Per-active-week sample volume (sums to 1447; peak at study week 28).
[[nodiscard]] const std::vector<int>& weekly_sample_volume();
/// The most samples a study can plan: the sum of weekly_sample_volume().
[[nodiscard]] int sample_capacity();
/// Throws std::invalid_argument, naming the capacity, unless
/// 0 < total_samples <= sample_capacity().
void check_total_samples(int total_samples);

class World {
 public:
  /// Builds the full plan (samples, C2s, attack schedule) deterministically
  /// from cfg.seed and registers the global DNS resolver on `net`.
  World(sim::Network& net, WorldConfig cfg);
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  [[nodiscard]] const WorldConfig& config() const { return cfg_; }
  [[nodiscard]] const asdb::AsDatabase& asdb() const { return asdb_; }
  [[nodiscard]] const std::vector<PlannedSample>& samples() const { return samples_; }
  [[nodiscard]] const std::vector<PlannedC2>& c2_plan() const { return c2s_; }
  [[nodiscard]] net::Endpoint resolver() const;
  /// The resolver actor itself (fault-injection hook-up point).
  [[nodiscard]] dns::DnsServer& resolver_server() { return *resolver_; }

  /// Creates/destroys C2 server actors so the live set matches `day`.
  /// Must be called with non-decreasing day values.
  void advance_to_day(std::int64_t day);

  /// Live server actor for an address (nullptr when dead). Address may be a
  /// dotted quad or a domain.
  [[nodiscard]] C2Server* live_c2(const std::string& address) const;

  /// Visits every live server in address order (deterministic; used by the
  /// fault layer to roll per-day crash decisions).
  template <typename F>
  void for_each_live_c2(F&& f) {
    for (auto& [address, server] : live_) f(address, *server);
  }

  /// Ground truth for validation: was this address's server alive that day?
  [[nodiscard]] bool c2_alive_on(const std::string& address, std::int64_t day) const;
  /// Ground truth planned C2 record (nullptr if unknown address).
  [[nodiscard]] const PlannedC2* find_c2(const std::string& address) const;

  /// All commands issued so far by every C2 that ever lived (survives
  /// server death; used to validate the pipeline's D-DDOS against truth).
  [[nodiscard]] const std::vector<IssuedCommand>& all_issued() const { return issued_log_; }

 private:
  void plan_c2_population(util::Rng& rng);
  void plan_samples(util::Rng& rng);
  void plan_attacks(util::Rng& rng);
  mal::BehaviorSpec make_spec(util::Rng& rng, proto::Family family,
                              const PlannedC2* primary, const PlannedC2* fallback);

  sim::Network& net_;
  WorldConfig cfg_;
  const profile::Registry* registry_;  // never null after construction
  const profile::FamilyProfile* variant_ = nullptr;  // cfg_.variant_name lookup
  asdb::AsDatabase asdb_;
  std::unique_ptr<dns::DnsServer> resolver_;
  std::vector<net::Ipv4> dedicated_downloaders_;
  std::vector<std::unique_ptr<class DownloaderServer>> dl_hosts_;
  std::vector<std::unique_ptr<inetsim::FakeHttp>> telemetry_hosts_;
  std::vector<PlannedC2> c2s_;
  std::vector<PlannedSample> samples_;
  std::map<std::string, std::size_t> c2_index_;  // address -> c2s_ index
  std::map<std::string, std::unique_ptr<C2Server>> live_;
  std::map<std::string, std::map<std::string, std::uint64_t>> downloader_hits_;
  std::vector<std::size_t> birth_order_;  // c2 indices by birth day
  std::size_t next_birth_ = 0;
  std::int64_t current_day_ = -1;
  std::vector<IssuedCommand> issued_log_;
  std::map<std::string, std::size_t> issued_seen_;  // per-live-server drain mark
};

}  // namespace malnet::botnet
