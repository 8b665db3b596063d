// The MalNet pipeline (§2): the daily collect-and-analyse loop that builds
// every dataset of Table 1 —
//
//   D-Samples  : the binaries, with feed metadata and family labels
//   D-C2s      : C2 addresses found by the sandbox, liveness-probed and
//                cross-validated against the TI feeds
//   D-PC2      : the two-week active probing study (6 subnets x 12 ports)
//   D-Exploits : handshaker-harvested exploits attributed to Table 4
//   D-DDOS     : commands eavesdropped during restricted live runs
//
// Pipeline::run() executes the whole year of simulated study and returns
// the datasets; the report module turns them into the paper's tables and
// figures.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "botnet/probe_world.hpp"
#include "botnet/world.hpp"
#include "core/c2detect.hpp"
#include "core/ddos.hpp"
#include "core/exploit_id.hpp"
#include "core/prober.hpp"
#include "emu/sandbox.hpp"
#include "fault/fault.hpp"
#include "intel/threat_intel.hpp"
#include "obs/obs.hpp"

namespace malnet::core {

struct SampleRecord {
  std::string sha256;
  std::int64_t day = 0;
  botnet::FeedSource source = botnet::FeedSource::kVirusTotal;
  int vt_detections = 0;
  proto::Family label = proto::Family::kMirai;  // YARA + AVClass pipeline label
  bool p2p = false;       // filtered out of the C2 study (§2.3a)
  bool activated = false;
  bool evasion_abort = false;
  std::vector<std::string> c2_addresses;  // what detect_c2 found
};

struct C2Record {
  std::string address;
  bool is_dns = false;
  net::Ipv4 ip;  // resolved address (for AS attribution)
  net::Port port = 0;
  std::uint32_t asn = 0;
  std::string as_country;
  std::int64_t discovery_day = -1;
  std::vector<std::int64_t> referred_days;  // analysis days referring to it
  std::vector<std::int64_t> live_days;      // days the liveness probe engaged
  int distinct_samples = 0;
  bool vt_malicious_same_day = false;
  int vt_vendors_same_day = 0;
  bool vt_malicious_requery = false;  // filled at study end (May 7 re-query)
  bool is_downloader = false;         // also seen serving loaders

  [[nodiscard]] bool ever_live() const { return !live_days.empty(); }
  /// Observed lifespan (§3.2): last minus first live observation, in days,
  /// counting a single live day as 1. Zero if never observed live.
  [[nodiscard]] std::int64_t observed_lifespan_days() const {
    if (live_days.empty()) return 0;
    return live_days.back() - live_days.front() + 1;
  }
};

struct ExploitRecord {
  std::string sample_sha;
  std::int64_t day = 0;
  vulndb::VulnId vuln{};
  std::string downloader_host;
  std::string loader_name;
};

struct DdosRecord {
  std::string sample_sha;
  std::int64_t day = 0;
  std::string c2_address;
  net::Endpoint c2;
  std::uint32_t c2_asn = 0;
  std::string c2_country;
  DdosDetection detection;
};

/// One sample whose observation the pipeline finished in a degraded state
/// instead of crashing the study (DESIGN.md §11 error containment).
struct DegradedSample {
  std::string sha256;
  std::int64_t day = 0;
  /// "exception:<what>" (analysis chain threw) or "dns:<address>" (a C2
  /// name never resolved under chaos, so its liveness went unchecked).
  std::string reason;
};

struct PipelineConfig {
  std::uint64_t seed = 22;
  botnet::WorldConfig world{};
  /// Family profile registry shared by the world planner, every sandbox
  /// run and DDoS command decoding. Null means world.profiles, else the
  /// builtin registry, which is bit-identical to the pre-profile
  /// compiled-in behaviour. Held as a shared_ptr so parallel shards reuse
  /// one loaded registry; overrides world.profiles when set.
  std::shared_ptr<const profile::Registry> profiles;
  /// Fault-injection profile (DESIGN.md §11). kNone runs the classic clean
  /// study, bit-identical to a build without the fault layer.
  faultsim::Profile chaos = faultsim::Profile::kNone;
  /// Varies the fault schedule independently of the world seed.
  std::uint64_t chaos_seed = 0;
  /// Per-packet drop probability of the simulated internet, in [0, 1).
  /// Zero keeps flows lossless (the default study setting); raising it
  /// degrades every observation channel at once.
  double loss = 0.0;
  sim::Duration observe_duration = sim::Duration::minutes(8);
  sim::Duration live_duration = sim::Duration::hours(2);
  sim::Duration probe_duration = sim::Duration::seconds(90);
  int handshaker_threshold = 20;   // §2.4
  double pps_threshold = 100.0;    // §2.5b
  int max_candidates_per_sample = 2;
  /// The 2 h restricted watch is expensive; at most this many live runs are
  /// spent per C2 address over the study.
  int max_live_runs_per_c2 = 1;
  /// 2022-05-07, the paper's re-query date, as a study day.
  std::int64_t requery_day = 404;
  bool run_probe_campaign = true;  // the D-PC2 study (adds ~3M sim events)
  int probe_rounds = 84;
  /// Buffer sim-time trace events (obs::Tracer) for StudyResults::trace.
  bool trace = false;
  /// Attribute per-event wall-clock to phases (two extra clock reads per
  /// sim event — metrics and per-phase event counts are always on).
  bool profile_wall = false;
};

struct StudyResults {
  std::vector<SampleRecord> d_samples;
  std::map<std::string, C2Record> d_c2s;
  std::vector<ExploitRecord> d_exploits;
  std::vector<DdosRecord> d_ddos;
  ProbeCampaignResult d_pc2;
  std::set<std::string> downloader_hosts;  // distinct downloader addresses
  /// Samples whose observation was impaired but contained (study-order;
  /// empty on clean runs). Serialized as dataset format v2 when non-empty.
  std::vector<DegradedSample> degraded;

  // Ground truth snapshots for validation (not used by any table/figure
  // computation — only for paper-vs-truth sanity checks in tests/benches).
  std::size_t truth_commands_issued = 0;
  std::size_t truth_planned_c2s = 0;

  std::uint64_t sandbox_runs = 0;
  std::uint64_t sim_events = 0;
  /// Feed binaries discarded at the architecture gate (§2.2: the study
  /// keeps MIPS-32 only).
  std::uint64_t non_mips_skipped = 0;

  // --- Observability (DESIGN.md §10) -------------------------------------
  /// Merged registry snapshot. Sim-derived integers only, so its JSON is a
  /// pure function of (config, shards) — byte-identical for any --jobs.
  obs::MetricsSnapshot metrics;
  /// Pre-merge per-shard snapshots (shard order; single-pipeline runs leave
  /// this empty). Lets callers localise a counter anomaly to a shard.
  std::vector<obs::MetricsSnapshot> shard_metrics;
  /// Per-phase rollup. sim_events/ops columns are deterministic; wall_ns
  /// is wall-clock and is not.
  obs::ProfileSnapshot profile;
  /// Buffered trace events (empty unless PipelineConfig::trace). pid is
  /// the shard index after a ParallelStudy merge.
  std::vector<obs::TraceEvent> trace;
};

class Pipeline {
 public:
  explicit Pipeline(PipelineConfig cfg = {});
  ~Pipeline();
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Runs the full study (one year of collection + the probing campaign)
  /// and returns every dataset. Call once.
  [[nodiscard]] StudyResults run();

  /// Access to the constructed world (e.g. for validation in tests).
  [[nodiscard]] const botnet::World& world() const { return *world_; }
  [[nodiscard]] const intel::ThreatIntel& ti() const { return *intel_; }
  [[nodiscard]] const asdb::AsDatabase& asdb() const { return world_->asdb(); }

 private:
  void analyse_sample(const botnet::PlannedSample& sample);
  void handle_observe_report(const botnet::PlannedSample& sample,
                             const emu::SandboxReport& report);
  void probe_candidate(const botnet::PlannedSample& sample,
                       std::vector<C2Candidate> candidates, std::size_t idx,
                       bool live_found);
  void record_c2_observation(const botnet::PlannedSample& sample,
                             const C2Candidate& cand, net::Ipv4 real_ip, bool live);
  void start_live_run(const botnet::PlannedSample& sample, const C2Candidate& cand,
                      net::Ipv4 real_ip);
  void run_probe_campaign();
  void finalize_results();
  /// Records a contained per-sample failure in StudyResults::degraded.
  void note_degraded(const botnet::PlannedSample& sample, std::string reason);
  /// Copies end-of-run totals (network, scheduler, campaign, C2 lifespans)
  /// into the registry and fills the per-phase profile.
  void harvest_observability();

  PipelineConfig cfg_;
  /// The registry the study runs with (cfg_.profiles, else
  /// cfg_.world.profiles, else the builtins): it drives the world planner,
  /// every sandbox run and DDoS decoding.
  const profile::Registry* profiles_;
  obs::Observer obs_;
  obs::ProfileSnapshot profile_;
  // Cached registry instruments (see obs/metrics.hpp on why).
  obs::Counter* m_samples_ = nullptr;
  obs::Counter* m_non_mips_ = nullptr;
  obs::Counter* m_liveness_probes_ = nullptr;
  obs::Counter* m_live_runs_ = nullptr;
  obs::Counter* m_c2_observations_ = nullptr;
  obs::Counter* m_ddos_records_ = nullptr;
  obs::Histogram* m_c2_candidates_ = nullptr;
  std::unique_ptr<sim::EventScheduler> sched_;
  std::unique_ptr<sim::Network> net_;
  std::unique_ptr<botnet::World> world_;
  std::unique_ptr<faultsim::FaultInjector> injector_;  // null when chaos off
  std::unique_ptr<emu::Sandbox> sandbox_;
  std::unique_ptr<intel::ThreatIntel> intel_;
  std::unique_ptr<sim::Host> analysis_host_;  // DNS lookups for probing
  std::unique_ptr<botnet::ProbeWorld> probe_world_;
  std::unique_ptr<ProbeCampaign> campaign_;

  StudyResults results_;
  std::map<std::string, proto::Family> label_by_sample_;
  std::map<std::string, int> live_runs_per_c2_;
  std::uint64_t resolver_retries_ = 0;
  bool ran_ = false;
};

}  // namespace malnet::core
