// malnetctl — command-line front end for the MalNet library.
//
//   malnetctl forge   --family <name> --c2 <ip:port> [--vuln <cve>] --out <file.mbf>
//   malnetctl inspect <file.mbf>
//   malnetctl analyze <file.mbf> [--pcap <out.pcap>]
//   malnetctl study   [--samples N] [--seed N] [--shards N] [--jobs N]
//                     [--no-probe] [--claims] [--store <dir> [--resume]]
//   malnetctl ingest  --store <dir> (<file.mds> ... | study options)
//   malnetctl compact --store <dir>
//   malnetctl query   (--store <dir> | --connect <host:port>) [<query> ...]
//   malnetctl serve   --store <dir> [--listen [host:]port] [--allow-sync]
//   malnetctl sync    (push|pull) --store <dir> --connect <host:port>
//   malnetctl export-rules [--samples N] [--seed N] --out <file.rules>
//
// `forge` produces the same inert MBF artifacts the test corpus uses;
// `analyze` runs the observe-mode sandbox plus C2 classification and
// exploit attribution on one file; `study` runs the pipeline and prints the
// headline tables (or the claim scorecard with --claims). The store
// commands manage the crash-safe incremental store (DESIGN.md §12).
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <unistd.h>

#include "asdb/asdb.hpp"
#include "botnet/world.hpp"
#include "core/c2detect.hpp"
#include "core/exploit_id.hpp"
#include "core/parallel_study.hpp"
#include "core/pipeline.hpp"
#include "emu/sandbox.hpp"
#include "mal/binary.hpp"
#include "mal/labels.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "profile/parse.hpp"
#include "profile/registry.hpp"
#include "report/claims.hpp"
#include "report/dataset_io.hpp"
#include "report/digest.hpp"
#include "report/dossier.hpp"
#include "report/figures.hpp"
#include "report/rules_export.hpp"
#include "report/tables.hpp"
#include "obs/expo.hpp"
#include "obs/slowlog.hpp"
#include "obs/window.hpp"
#include "serve/admin.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "store/query.hpp"
#include "store/store.hpp"
#include "sync/client.hpp"
#include "sync/session.hpp"
#include "util/fsio.hpp"
#include "util/log.hpp"
#include "util/socket.hpp"

#include <csignal>

namespace {

using namespace malnet;

[[noreturn]] void usage() {
  std::cerr <<
      "usage: malnetctl <command> [options]\n"
      "  forge --family <Mirai|Gafgyt|...> --c2 <ip:port> [--vuln <cve>]\n"
      "        [--seed N] --out <file.mbf>\n"
      "  inspect <file.mbf>\n"
      "  analyze <file.mbf> [--pcap <out.pcap>]\n"
      "  study [--samples N] [--seed N] [--shards N] [--jobs N] [--no-probe]\n"
      "        [--claims] [--save-datasets <file.mds>] [--strict]\n"
      "        [--profiles <dir>] [--variant <name>[:fraction]]\n"
      "        [--store <dir> [--resume]]\n"
      "        [--metrics-out <m.json>] [--trace-out <t.json>] [--profile]\n"
      "        [--chaos <none|flaky|hostile>] [--chaos-seed N]\n"
      "        (--samples is at most 1447, the Appendix-E weekly calendar;\n"
      "         a larger count exits 2.\n"
      "         --chaos injects deterministic faults (loss bursts, dup/\n"
      "         reorder, DNS failures, C2 crashes); --chaos-seed varies the\n"
      "         fault schedule without changing the world. Impaired samples\n"
      "         land in the degraded section of the results.\n"
      "         --shards splits the study into N deterministic seed shards;\n"
      "         --jobs bounds worker threads and never changes the output.\n"
      "         --jobs alone implies --shards equal to the job count.\n"
      "         --metrics-out writes the merged registry snapshot (JSON,\n"
      "         byte-identical for any --jobs); --trace-out writes a Chrome\n"
      "         trace_event file for chrome://tracing or ui.perfetto.dev;\n"
      "         --profile prints the per-phase table.\n"
      "         --store commits each finished shard into a crash-safe\n"
      "         segment store; --resume skips shards already committed by an\n"
      "         identically-configured run. --strict exits 3 when any sample\n"
      "         degraded.\n"
      "         --profiles loads every *.json family profile in the\n"
      "         directory (overriding builtins of the same name); --variant\n"
      "         routes the named profile's family onto that variant for a\n"
      "         fraction of planned C2s, default 1.0.)\n"
      "  ingest --store <dir> (<file.mds> ... | study options)\n"
      "        (appends dataset batches to a store as segments)\n"
      "  compact --store <dir>   (merge all segments into one, deterministically)\n"
      "  query --store <dir> [--metrics-out <m.json>] [<query> ...]\n"
      "        (index-only answers; 'malnetctl query --store D help' lists them)\n"
      "  query --connect <host:port> [<query> ...]\n"
      "        (same queries against a running 'serve --listen' server)\n"
      "  serve --store <dir>   (answer query lines from stdin until EOF/quit)\n"
      "  serve --store <dir> --listen [host:]port [--io-threads N]\n"
      "        [--idle-timeout-ms N] [--metrics-out <m.json>] [--allow-sync]\n"
      "        [--admin [host:]port] [--slow-threshold-us N]\n"
      "        (concurrent TCP query server; port 0 picks an ephemeral port,\n"
      "         printed on the 'serving on' line. SIGTERM/SIGINT drains:\n"
      "         in-flight requests are answered, then the process exits 0.\n"
      "         --allow-sync additionally accepts sync push/pull sessions on\n"
      "         the same port — replicas replicate, queries keep answering.\n"
      "         --admin starts the HTTP introspection endpoint (/metrics,\n"
      "         /healthz, /statusz, /slowz, /tracez), reported on the\n"
      "         'admin on' line; --slow-threshold-us tunes the slow log.)\n"
      "  sync (push|pull) --store <dir> --connect <host:port>\n"
      "        [--metrics-out <m.json>] [--trace-out <t.json>\n"
      "        [--admin <host:port>]]\n"
      "        (replicate content-hashed segments against a sync-enabled\n"
      "         server: push sends segments the server lacks, pull fetches\n"
      "         segments the local store lacks. Hash-tree refinement means a\n"
      "         re-sync of identical stores transfers nothing. --trace-out\n"
      "         writes a Chrome trace of the sync's rpcs; with --admin\n"
      "         pointing at the server's admin endpoint the file also\n"
      "         contains the server-side spans, one shared trace id.)\n"
      "  report <file.mds>   (re-render tables from a saved dataset artifact)\n"
      "  dossier <file.mds> <c2-address|sample-sha>\n"
      "  digest <file.mds> [--week N]\n"
      "  export-rules [--samples N] [--seed N] --out <file.rules>\n"
      "  profile check <file.json> ...   (validate family profiles; exit 2\n"
      "        with line/field context on the first malformed file)\n"
      "  profile dump [<dir>]   (write the builtin profiles as canonical\n"
      "        pretty-printed JSON, default directory 'profiles')\n"
      "  json-check <file.json> [dotted.key ...]   (CI artifact validator)\n"
      "global: --log-level <debug|info|warn|error|off>\n";
  std::exit(2);
}

void write_file(const std::string& path, util::BytesView data) {
  std::ofstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot write " + path);
  f.write(reinterpret_cast<const char*>(data.data()),
          static_cast<std::streamsize>(data.size()));
}

/// Minimal flag parser: --key value pairs plus positionals.
struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback = "") const {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
  [[nodiscard]] bool has(const std::string& key) const { return flags.count(key) > 0; }
};

Args parse_args(int argc, char** argv, int first) {
  Args args;
  for (int i = first; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (!a.starts_with("--")) {
      args.positional.emplace_back(a);
      continue;
    }
    std::string_view key = a.substr(2);
    std::string_view value;
    // --key=value form (e.g. --chaos=hostile) splits in place.
    if (const auto eq = key.find('='); eq != std::string_view::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (key == "no-probe" || key == "claims" || key == "profile" ||
               key == "resume" || key == "strict" || key == "allow-sync") {
      value = "1";
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      usage();
    }
    args.flags.insert_or_assign(std::string(key), std::string(value));
  }
  return args;
}

int cmd_forge(const Args& args) {
  const auto family = proto::family_from_string(args.get("family", "Mirai"));
  if (!family) {
    std::cerr << "unknown family\n";
    return 2;
  }
  mal::MbfBinary bin;
  bin.behavior.family = *family;
  bin.behavior.bot_id = proto::to_string(*family) + ".ctl";
  bin.marker_strings = {mal::family_marker(*family)};

  if (proto::is_p2p(*family)) {
    bin.behavior.node_id = std::string(20, 'P');
    bin.behavior.p2p_peers = {{net::Ipv4{100, 70, 0, 1}, 6881}};
  } else {
    const auto c2 = net::parse_endpoint(args.get("c2", "60.1.2.3:23"));
    if (!c2) {
      std::cerr << "bad --c2 endpoint\n";
      return 2;
    }
    bin.behavior.c2_ip = c2->ip;
    bin.behavior.c2_port = c2->port;
  }
  if (args.has("vuln")) {
    const auto* v = vulndb::VulnDatabase::instance().by_cve(args.get("vuln"));
    if (v == nullptr) {
      std::cerr << "unknown CVE (only Table 4 CVEs are known)\n";
      return 2;
    }
    bin.behavior.scans.push_back({v->port, v->id, 60, 15.0});
    bin.behavior.loader_name = "t8UsA2.sh";
    bin.behavior.downloader_host =
        net::to_string(bin.behavior.c2_ip.value_or(net::Ipv4{60, 1, 2, 3}));
  }
  util::Rng rng(std::stoull(args.get("seed", "1")));
  const auto bytes = mal::forge(bin, rng);
  const auto out = args.get("out", "sample.mbf");
  write_file(out, bytes);
  std::cout << "forged " << out << " (" << bytes.size() << " bytes, sha "
            << mal::digest(bytes).substr(0, 16) << "…)\n";
  return 0;
}

int cmd_inspect(const Args& args) {
  if (args.positional.empty()) usage();
  const auto bytes = util::read_file(args.positional[0]);
  const auto parsed = mal::parse(bytes);
  if (!parsed) {
    std::cout << "not an MBF binary\n";
    return 1;
  }
  std::cout << "arch: " << (parsed->arch == mal::Arch::kMips32 ? "MIPS32"
                            : parsed->arch == mal::Arch::kArm32 ? "ARM32"
                                                                : "x86")
            << "\nsha256: " << mal::digest(bytes) << '\n';
  const auto label = mal::yara_label(bytes);
  std::cout << "YARA label: " << (label ? proto::to_string(*label) : "(none)") << '\n';
  const auto& b = parsed->behavior;
  std::cout << "family: " << proto::to_string(b.family) << '\n';
  if (b.c2_domain) std::cout << "C2: " << *b.c2_domain << ':' << b.c2_port << '\n';
  if (b.c2_ip) std::cout << "C2: " << net::to_string(*b.c2_ip) << ':' << b.c2_port << '\n';
  if (b.c2_fallback_ip) {
    std::cout << "fallback C2: " << net::to_string(*b.c2_fallback_ip) << '\n';
  }
  for (const auto& s : b.scans) {
    std::cout << "scan: port " << s.port << ", " << s.target_count << " targets @ "
              << s.pps << " pps"
              << (s.vuln ? " exploiting " + vulndb::to_string(*s.vuln) : std::string())
              << '\n';
  }
  if (const auto err = b.validate()) std::cout << "INVALID: " << *err << '\n';
  return 0;
}

int cmd_analyze(const Args& args) {
  if (args.positional.empty()) usage();
  const auto bytes = util::read_file(args.positional[0]);

  sim::EventScheduler sched;
  sim::Network net(sched);
  emu::Sandbox sandbox(net);
  emu::SandboxReport report;
  bool done = false;
  sandbox.start(bytes, {}, [&](const emu::SandboxReport& r) {
    report = r;
    done = true;
  });
  sched.run_until(sched.now() + sim::Duration::minutes(12));
  if (!done || !report.parsed) {
    std::cout << "sample did not run\n";
    return 1;
  }
  if (report.unsupported_arch) {
    std::cout << "unsupported CPU architecture (sandbox is MIPS32-only)\n";
    return 1;
  }
  std::cout << "activated: " << (report.activated ? "yes" : "no") << ", "
            << report.capture.size() << " packets, " << report.dns_queries.size()
            << " DNS queries, " << report.exploits.size() << " exploit payloads\n";
  for (const auto& cand : core::detect_c2(report, sandbox.martian())) {
    std::cout << "C2 candidate: " << cand.address << ':' << cand.port << " ("
              << cand.connection_attempts << " attempts)\n";
  }
  for (const auto& finding : core::identify_exploits(report)) {
    const auto& v = vulndb::VulnDatabase::instance().by_id(finding.vuln);
    std::cout << "exploit: " << v.name << " -> http://" << finding.downloader_host
              << '/' << finding.loader_name << '\n';
  }
  if (args.has("pcap")) {
    report.save_pcap(args.get("pcap"));
    std::cout << "wrote " << args.get("pcap") << '\n';
  }
  return 0;
}

core::ParallelStudyConfig build_study_config(const Args& args) {
  core::ParallelStudyConfig cfg;
  cfg.base.seed = std::stoull(args.get("seed", "22"));
  if (args.has("samples")) {
    cfg.base.world.total_samples = std::stoi(args.get("samples"));
    try {
      botnet::check_total_samples(cfg.base.world.total_samples);
    } catch (const std::invalid_argument& e) {
      std::cerr << "error: " << e.what() << '\n';
      std::exit(2);
    }
  }
  if (args.has("no-probe")) cfg.base.run_probe_campaign = false;
  cfg.base.trace = args.has("trace-out");
  cfg.base.profile_wall = args.has("profile");
  if (args.has("chaos")) {
    const auto profile = faultsim::profile_from_string(args.get("chaos"));
    if (!profile) {
      throw std::runtime_error("bad --chaos '" + args.get("chaos") +
                               "' (want none|flaky|hostile)");
    }
    cfg.base.chaos = *profile;
  }
  cfg.base.chaos_seed = std::stoull(args.get("chaos-seed", "0"));
  if (args.has("profiles")) {
    auto reg = std::make_shared<profile::Registry>();
    if (const auto err = reg->load_dir(args.get("profiles"))) {
      throw std::runtime_error(*err);
    }
    cfg.base.profiles = std::move(reg);
  }
  if (args.has("variant")) {
    std::string spec = args.get("variant");
    double fraction = 1.0;
    if (const auto colon = spec.rfind(':'); colon != std::string::npos) {
      fraction = std::stod(spec.substr(colon + 1));
      spec.resize(colon);
    }
    cfg.base.world.variant_name = spec;
    cfg.base.world.variant_fraction = fraction;
  }
  cfg.jobs = std::stoi(args.get("jobs", "0"));
  // --jobs alone still parallelizes: the study splits into one shard per job.
  cfg.shards = std::stoi(args.get("shards", cfg.jobs > 0 ? args.get("jobs") : "1"));
  return cfg;
}

core::StudyResults run_study(const Args& args) {
  auto cfg = build_study_config(args);
  if (!args.has("store")) {
    if (args.has("resume")) {
      throw std::runtime_error("--resume requires --store");
    }
    return core::ParallelStudy(std::move(cfg)).run();
  }
  store::Store st(args.get("store"));
  auto results = store::run_store_study(std::move(cfg), st, args.has("resume"));
  const auto snap = st.metrics();
  const auto count = [&snap](const char* key) -> std::uint64_t {
    const auto it = snap.counters.find(key);
    return it == snap.counters.end() ? 0 : it->second;
  };
  std::cout << "store " << st.dir() << ": "
            << count("store.segments_written") << " segment(s) written, "
            << count("store.resume_hits") << " shard(s) resumed\n";
  return results;
}

int cmd_study(const Args& args) {
  // An explicit --log-level wins; otherwise the study narrates at info.
  if (!args.has("log-level")) util::set_log_level(util::LogLevel::kInfo);
  const auto results = run_study(args);
  if (!args.has("log-level")) util::set_log_level(util::LogLevel::kOff);
  if (args.has("save-datasets")) {
    report::save_datasets(results, args.get("save-datasets"));
    std::cout << "datasets saved to " << args.get("save-datasets") << "\n";
  }
  if (args.has("metrics-out")) {
    std::ofstream out(args.get("metrics-out"));
    if (!out) throw std::runtime_error("cannot write " + args.get("metrics-out"));
    out << results.metrics.to_json() << '\n';
    std::cout << "metrics written to " << args.get("metrics-out") << "\n";
  }
  if (args.has("trace-out")) {
    std::ofstream out(args.get("trace-out"));
    if (!out) throw std::runtime_error("cannot write " + args.get("trace-out"));
    obs::write_chrome_trace(out, results.trace);
    std::cout << "trace written to " << args.get("trace-out") << " ("
              << results.trace.size() << " events)\n";
  }
  if (args.has("profile")) {
    std::cout << results.profile.render_table();
  }
  if (!results.degraded.empty()) {
    std::cout << "degraded samples: " << results.degraded.size() << '\n';
    // --strict turns silent degradation into a failed exit for CI callers.
    if (args.has("strict")) {
      std::cerr << "strict: " << results.degraded.size()
                << " degraded sample(s)\n";
      return 3;
    }
  }
  // Every world copies the one standard AS database, so report rendering
  // does not need the (possibly sharded, already destroyed) pipelines.
  const auto asdb = asdb::AsDatabase::standard();
  if (args.has("claims")) {
    std::cout << report::render_claims(report::check_claims(results, asdb));
  } else {
    std::cout << report::table1_datasets(results) << '\n'
              << report::table3_ti_miss(results) << '\n'
              << report::figure11_ddos_types(results, asdb);
  }
  return 0;
}

int cmd_ingest(const Args& args) {
  if (!args.has("store")) usage();
  store::Store st(args.get("store"));
  if (args.positional.empty()) {
    // No artifacts given: run a study batch and ingest its merged result.
    const auto results = core::ParallelStudy(build_study_config(args)).run();
    const auto meta = st.commit(results, store::SegmentKind::kIngest, 0, 0, 1,
                                std::stoull(args.get("seed", "22")));
    std::cout << "ingested study batch as " << meta.file << " (" << meta.bytes
              << " bytes)\n";
    return 0;
  }
  for (const auto& path : args.positional) {
    const auto results = report::load_datasets(path);
    const auto meta = st.commit(results, store::SegmentKind::kIngest, 0, 0, 1, 0);
    std::cout << "ingested " << path << " as " << meta.file << " (" << meta.bytes
              << " bytes)\n";
  }
  return 0;
}

int cmd_compact(const Args& args) {
  if (!args.has("store")) usage();
  store::Store st(args.get("store"));
  const auto before = st.segments().size();
  const auto meta = st.compact();
  std::cout << "compacted " << before << " segment(s) into " << meta.file << " ("
            << meta.bytes << " bytes)\n";
  return 0;
}

/// Remote variant of `query`: same answers, same output bytes, but fetched
/// from a running `serve --listen` server over the wire protocol.
int cmd_query_remote(const Args& args) {
  const auto spec = util::parse_listen_spec(args.get("connect"));
  if (!spec) {
    std::cerr << "bad --connect '" << args.get("connect")
              << "' (want host:port)\n";
    return 2;
  }
  serve::Client client;
  if (!client.connect(spec->first, spec->second)) {
    std::cerr << "cannot connect to " << spec->first << ':' << spec->second
              << '\n';
    return 1;
  }
  std::vector<std::string> queries = args.positional;
  if (queries.empty()) queries.push_back("totals");
  for (const auto& q : queries) {
    const auto answer = client.query(q);
    if (!answer) {
      std::cerr << "query failed (connection lost or timed out)\n";
      return 1;
    }
    std::cout << *answer << '\n';
  }
  return 0;
}

int cmd_query(const Args& args) {
  if (args.has("connect")) return cmd_query_remote(args);
  if (!args.has("store")) usage();
  store::Store st(args.get("store"));
  store::QueryEngine engine(st);
  if (args.positional.empty()) {
    std::cout << engine.answer("totals") << '\n';
  } else {
    for (const auto& q : args.positional) std::cout << engine.answer(q) << '\n';
  }
  if (args.has("metrics-out")) {
    // Store-side counters (index vs payload bytes read, query count and
    // latency) — the proof that answers came from partial reads.
    std::ofstream out(args.get("metrics-out"));
    if (!out) throw std::runtime_error("cannot write " + args.get("metrics-out"));
    out << st.metrics().to_json() << '\n';
  }
  return 0;
}

/// SIGTERM/SIGINT target for `serve --listen`. request_stop() is
/// async-signal-safe (atomic store + one pipe write).
serve::Server* g_serve_server = nullptr;

extern "C" void serve_signal_handler(int) {
  if (g_serve_server != nullptr) g_serve_server->request_stop();
}

int cmd_serve(const Args& args) {
  if (!args.has("store")) usage();
  store::Store st(args.get("store"));
  if (!args.has("listen")) {
    store::serve_loop(st, std::cin, std::cout);
    return 0;
  }

  const auto spec = util::parse_listen_spec(args.get("listen"));
  if (!spec) {
    std::cerr << "bad --listen '" << args.get("listen")
              << "' (want port or host:port)\n";
    return 2;
  }
  serve::ServeConfig cfg;
  cfg.host = spec->first;
  cfg.port = spec->second;
  if (args.has("io-threads")) cfg.io_threads = std::stoi(args.get("io-threads"));
  if (args.has("idle-timeout-ms")) {
    cfg.idle_timeout_ms = std::stoi(args.get("idle-timeout-ms"));
  }
  if (args.has("slow-threshold-us")) {
    cfg.slow_threshold_us = std::stoll(args.get("slow-threshold-us"));
  }

  obs::Registry registry;
  // Admin-plane state has to outlive the server: cfg.spans is read by the
  // I/O threads, and the ring/handlers by the admin thread.
  std::optional<obs::SpanRecorder> spans;
  if (args.has("admin")) {
    spans.emplace();
    spans->set_enabled(true);
    cfg.spans = &*spans;
  }
  // With --allow-sync the same port also speaks the MSY1 replication
  // protocol: bodies the query codec rejects are routed to the sync
  // session handler, which imports/serves segments against this store.
  std::optional<sync::SessionHandler> sync_handler;
  if (args.has("allow-sync")) {
    sync_handler.emplace(st, registry);
    sync_handler->configure_slow_log(cfg.slow_log_capacity,
                                     cfg.slow_threshold_us);
    if (cfg.spans != nullptr) sync_handler->set_span_recorder(cfg.spans);
    cfg.aux_handler = [&sync_handler](util::BytesView body,
                                      const serve::AuxContext& ctx) {
      return sync_handler->handle(body, ctx.peer);
    };
    cfg.max_aux_frame_body = sync::kMaxSyncFrameBody;
  }
  serve::Server server(st, cfg, registry);
  server.start();
  g_serve_server = &server;
  std::signal(SIGTERM, serve_signal_handler);
  std::signal(SIGINT, serve_signal_handler);

  // Live introspection plane (DESIGN.md §15): /metrics /healthz /statusz
  // /slowz /tracez on a separate single-threaded HTTP endpoint; a 1 Hz
  // tick samples merged snapshots into the ring behind the windowed rates.
  std::optional<serve::AdminServer> admin;
  obs::SnapshotRing ring;
  const auto started_wall = obs::wall_now_us();
  const auto merged_snapshot = [&registry, &st] {
    auto m = registry.snapshot();
    m.merge(st.metrics());
    return m;
  };
  if (args.has("admin")) {
    const auto aspec = util::parse_listen_spec(args.get("admin"));
    if (!aspec) {
      std::cerr << "bad --admin '" << args.get("admin")
                << "' (want port or host:port)\n";
      return 2;
    }
    serve::AdminConfig acfg;
    acfg.host = aspec->first;
    acfg.port = aspec->second;
    admin.emplace(acfg, registry);
    admin->set_tick(
        [&ring, merged_snapshot] {
          ring.push(obs::wall_now_us(), merged_snapshot());
        },
        1'000);
    admin->handle("/metrics", [&ring, merged_snapshot] {
      static constexpr std::pair<const char*, std::int64_t> kWindows[] = {
          {"1s", 1'000'000}, {"10s", 10'000'000}, {"60s", 60'000'000}};
      std::vector<obs::ExpositionWindow> windows;
      for (const auto& [label, span_us] : kWindows) {
        if (auto w = ring.window(span_us)) {
          windows.emplace_back(label, std::move(*w));
        }
      }
      serve::AdminResponse resp;
      resp.body = obs::render_prometheus(merged_snapshot(), windows);
      return resp;
    });
    admin->handle("/healthz", [&st, &server] {
      const auto health = st.health();
      const bool ok = health.ok && server.running();
      serve::AdminResponse resp;
      resp.status = ok ? 200 : 503;
      resp.content_type = "text/plain; charset=utf-8";
      resp.body = std::string(ok ? "ok" : "unhealthy") + "\n" +
                  "store: " + (health.ok ? "ok" : "BAD") + " (" +
                  std::to_string(health.segments) + " segment(s))" +
                  (health.ok || health.detail.empty() ? "" : " " + health.detail) +
                  "\n" +
                  "acceptor: " + (server.running() ? "alive" : "down") + "\n" +
                  "draining: " + (server.draining() ? "yes" : "no") + "\n";
      return resp;
    });
    admin->handle("/statusz", [&st, &server, &args, started_wall] {
      std::ostringstream body;
      body << "malnetctl serve\n"
           << "build: " <<
#if defined(__VERSION__)
          __VERSION__
#else
          "unknown compiler"
#endif
           << " (" << (sizeof(void*) * 8) << "-bit)\n"
           << "uptime_s: " << (obs::wall_now_us() - started_wall) / 1'000'000
           << "\nstore: " << args.get("store") << " ("
           << st.segments().size() << " segment(s))\n"
           << "draining: " << (server.draining() ? "yes" : "no") << "\n\n"
           << "connections:\n";
      const auto conns = server.connections();
      if (conns.empty()) body << "  (none)\n";
      for (const auto& conn : conns) {
        body << "  " << conn.peer << " out_pending=" << conn.out_pending
             << " queued=" << conn.pending_responses
             << (conn.paused ? " PAUSED" : "")
             << (conn.closing ? " closing" : "")
             << " idle_ms=" << conn.idle_ms << '\n';
      }
      serve::AdminResponse resp;
      resp.content_type = "text/plain; charset=utf-8";
      resp.body = body.str();
      return resp;
    });
    admin->handle("/slowz", [&server, &sync_handler] {
      serve::AdminResponse resp;
      resp.content_type = "text/plain; charset=utf-8";
      resp.body = "# query plane\n" + server.slow_log().render_text();
      if (sync_handler) {
        resp.body += "\n# sync plane\n" + sync_handler->slow_log().render_text();
      }
      return resp;
    });
    admin->handle("/tracez", [&spans] {
      serve::AdminResponse resp;
      resp.content_type = "application/json; charset=utf-8";
      resp.body = obs::chrome_trace_json(spans->snapshot());
      return resp;
    });
    admin->start();
    std::cout << "admin on " << acfg.host << ':' << admin->port() << std::endl;
  }

  // The "serving on" line is the readiness signal scripts wait for (and
  // where an ephemeral --listen 0 port is reported).
  std::cout << "serving on " << cfg.host << ':' << server.port() << " ("
            << st.segments().size() << " segment(s)"
            << (args.has("allow-sync") ? ", sync enabled" : "") << ")"
            << std::endl;
  server.wait();  // blocks until SIGTERM/SIGINT, then drains
  g_serve_server = nullptr;
  if (admin) admin->stop();

  // Serve and store counters merged into one summary/artifact: the
  // payload_bytes_read field is the index-only-under-concurrency proof.
  auto merged = registry.snapshot();
  merged.merge(st.metrics());
  const auto count = [&merged](const char* key) -> std::uint64_t {
    const auto it = merged.counters.find(key);
    return it == merged.counters.end() ? 0 : it->second;
  };
  std::cout << "drained: requests=" << count("serve.requests")
            << " connections=" << count("serve.connections_accepted")
            << " protocol_errors=" << count("serve.protocol_errors")
            << " payload_bytes_read=" << count("store.payload_bytes_read")
            << std::endl;
  if (args.has("metrics-out")) {
    std::ofstream out(args.get("metrics-out"));
    if (!out) throw std::runtime_error("cannot write " + args.get("metrics-out"));
    out << merged.to_json() << '\n';
  }
  return 0;
}

/// `sync push|pull --store D --connect H:P` — replicate segments between
/// the local store and a `serve --allow-sync` server. Exit 0 on a
/// converged sync, 1 on any failure (both manifests stay valid either way).
int cmd_sync(const Args& args) {
  if (args.positional.empty() || !args.has("store") || !args.has("connect")) {
    usage();
  }
  const auto& direction = args.positional[0];
  if (direction != "push" && direction != "pull") usage();
  const auto spec = util::parse_listen_spec(args.get("connect"));
  if (!spec) {
    std::cerr << "bad --connect '" << args.get("connect")
              << "' (want host:port)\n";
    return 2;
  }
  store::Store st(args.get("store"));
  obs::Registry registry;
  sync::SyncClient client(st, &registry);
  // --trace-out stamps every rpc with one trace id (MSY2 frames); the
  // server records matching spans, and with --admin pointing at its admin
  // endpoint both sides land in a single merged Chrome trace.
  std::uint64_t trace_id = 0;
  if (args.has("trace-out")) {
    trace_id = static_cast<std::uint64_t>(obs::wall_now_us()) ^
               (static_cast<std::uint64_t>(::getpid()) << 48);
    if (trace_id == 0) trace_id = 1;
    client.enable_tracing(trace_id);
  }
  if (!client.connect(spec->first, spec->second)) {
    std::cerr << "cannot connect to " << spec->first << ':' << spec->second
              << '\n';
    return 1;
  }
  const auto stats = direction == "push" ? client.push() : client.pull();
  const auto write_metrics = [&] {
    if (!args.has("metrics-out")) return;
    auto merged = registry.snapshot();
    merged.merge(st.metrics());
    std::ofstream out(args.get("metrics-out"));
    if (!out) throw std::runtime_error("cannot write " + args.get("metrics-out"));
    out << merged.to_json() << '\n';
  };
  if (!stats) {
    write_metrics();
    std::cerr << "sync " << direction
              << " failed (connection lost, protocol error, or verification "
                 "failure); the store is unchanged or grew by verified "
                 "segments only\n";
    return 1;
  }
  std::cout << "sync " << direction << ": rounds=" << stats->rounds
            << " sent=" << stats->segments_sent
            << " received=" << stats->segments_received
            << " bytes_on_wire=" << stats->bytes_on_wire
            << " bytes_saved=" << stats->bytes_saved << '\n';
  write_metrics();
  if (args.has("trace-out")) {
    std::vector<std::pair<std::string, std::string>> nodes;
    nodes.emplace_back("sync-client",
                       obs::chrome_trace_json(client.trace_events()));
    if (args.has("admin")) {
      const auto aspec = util::parse_listen_spec(args.get("admin"));
      if (!aspec) {
        std::cerr << "bad --admin '" << args.get("admin")
                  << "' (want host:port)\n";
        return 1;
      }
      const auto remote =
          serve::admin_get(aspec->first, aspec->second, "/tracez");
      if (!remote) {
        std::cerr << "cannot fetch /tracez from " << args.get("admin") << '\n';
        return 1;
      }
      nodes.emplace_back("serve", *remote);
    }
    const auto merged_trace = obs::merge_chrome_traces(nodes);
    if (!merged_trace) {
      std::cerr << "trace merge failed (malformed /tracez document?)\n";
      return 1;
    }
    write_file(args.get("trace-out"),
               util::BytesView{
                   reinterpret_cast<const std::uint8_t*>(merged_trace->data()),
                   merged_trace->size()});
    std::cout << "trace: " << args.get("trace-out")
              << " trace_id=" << obs::hex_id(trace_id) << '\n';
  }
  return 0;
}

int cmd_report(const Args& args) {
  if (args.positional.empty()) usage();
  const auto results = report::load_datasets(args.positional[0]);
  const auto asdb = asdb::AsDatabase::standard();
  std::cout << report::table1_datasets(results) << '\n'
            << report::table3_ti_miss(results) << '\n'
            << report::figure11_ddos_types(results, asdb) << '\n'
            << report::render_claims(report::check_claims(results, asdb));
  return 0;
}

int cmd_dossier(const Args& args) {
  if (args.positional.size() < 2) usage();
  const auto results = report::load_datasets(args.positional[0]);
  const auto asdb = asdb::AsDatabase::standard();
  const std::string& key = args.positional[1];
  if (const auto c2 = report::build_c2_dossier(results, asdb, key)) {
    std::cout << report::render_dossier(*c2);
    return 0;
  }
  // Accept sha prefixes for convenience.
  for (const auto& s : results.d_samples) {
    if (s.sha256.rfind(key, 0) == 0) {
      const auto sample = report::build_sample_dossier(results, s.sha256);
      if (sample) {
        std::cout << report::render_dossier(*sample);
        return 0;
      }
    }
  }
  std::cerr << "no C2 or sample matches '" << key << "'\n";
  return 1;
}

int cmd_digest(const Args& args) {
  if (args.positional.empty()) usage();
  const auto results = report::load_datasets(args.positional[0]);
  if (args.has("week")) {
    std::cout << report::render_digest(
        report::build_weekly_digest(results, std::stoi(args.get("week"))));
    return 0;
  }
  for (const auto& digest : report::build_all_digests(results)) {
    std::cout << report::render_digest(digest) << '\n';
  }
  return 0;
}

std::string hash_hex(std::uint64_t h) {
  std::ostringstream out;
  out << std::hex << std::setfill('0') << std::setw(16) << h;
  return out.str();
}

/// `profile check` validates family-profile files the way a study's
/// --profiles load would, with line/field context; `profile dump` writes
/// the builtins in their canonical pretty-printed form (the committed
/// profiles/ directory is exactly such a dump plus variants).
int cmd_profile(const Args& args) {
  if (args.positional.empty()) usage();
  const auto& sub = args.positional[0];
  if (sub == "check") {
    if (args.positional.size() < 2) usage();
    int bad = 0;
    for (std::size_t i = 1; i < args.positional.size(); ++i) {
      const auto& path = args.positional[i];
      util::Bytes bytes;
      try {
        bytes = util::read_file(path);
      } catch (const std::exception& e) {
        std::cerr << path << ": " << e.what() << '\n';
        ++bad;
        continue;
      }
      profile::ParseIssue issue;
      const auto parsed = profile::parse_profile(
          std::string_view(reinterpret_cast<const char*>(bytes.data()),
                           bytes.size()),
          &issue);
      if (!parsed) {
        std::cerr << path << ": " << issue.render() << '\n';
        ++bad;
        continue;
      }
      std::cout << path << ": ok\n"
                << "  name: " << parsed->name << " (family "
                << proto::to_string(parsed->id) << ")\n"
                << "  framing: " << profile::to_string(parsed->framing)
                << ", topology: " << profile::to_string(parsed->topology)
                << ", commands: " << parsed->commands.size() << '\n'
                << "  hash: " << hash_hex(parsed->content_hash()) << '\n';
      if (const auto* b = profile::Registry::builtin().by_name(parsed->name)) {
        std::cout << "  builtin '" << parsed->name << "': "
                  << (*b == *parsed ? "identical (studies stay bit-identical)"
                                    : "OVERRIDDEN (studies will differ)")
                  << '\n';
      }
    }
    return bad > 0 ? 2 : 0;
  }
  if (sub == "dump") {
    const std::string dir =
        args.positional.size() > 1 ? args.positional[1] : "profiles";
    std::filesystem::create_directories(dir);
    for (const auto* p : profile::Registry::builtin().all()) {
      std::string name = p->name;
      for (auto& c : name) c = static_cast<char>(std::tolower(c));
      const auto path = dir + "/" + name + ".json";
      std::ofstream out(path);
      if (!out) throw std::runtime_error("cannot write " + path);
      out << p->to_pretty_json();
      std::cout << "wrote " << path << " (hash "
                << hash_hex(p->content_hash()) << ")\n";
    }
    return 0;
  }
  usage();
}

int cmd_json_check(const Args& args) {
  if (args.positional.empty()) usage();
  const auto& path = args.positional[0];
  const auto bytes = util::read_file(path);
  const std::string text(bytes.begin(), bytes.end());
  const auto doc = obs::json::parse(text);
  if (!doc) {
    std::cerr << path << ": invalid JSON\n";
    return 1;
  }
  int missing = 0;
  for (std::size_t i = 1; i < args.positional.size(); ++i) {
    if (doc->at_path(args.positional[i]) == nullptr) {
      std::cerr << path << ": missing key " << args.positional[i] << '\n';
      ++missing;
    }
  }
  if (missing > 0) return 1;
  std::cout << path << ": ok\n";
  return 0;
}

int cmd_export_rules(const Args& args) {
  const auto results = run_study(args);
  const auto rules = report::export_snort_rules(results);
  (void)report::compile_exported_rules(results);  // self-check before shipping
  const auto out = args.get("out", "malnet.rules");
  std::ofstream(out) << rules;
  std::cout << "wrote " << out << " ("
            << report::build_blocklist(results).size() << " IoCs)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  const Args args = parse_args(argc, argv, 2);
  if (args.has("log-level")) {
    const auto level = util::log_level_from_string(args.get("log-level"));
    if (!level) {
      std::cerr << "bad --log-level '" << args.get("log-level")
                << "' (want debug|info|warn|error|off)\n";
      return 2;
    }
    util::set_log_level(*level);
  }
  try {
    if (cmd == "forge") return cmd_forge(args);
    if (cmd == "inspect") return cmd_inspect(args);
    if (cmd == "analyze") return cmd_analyze(args);
    if (cmd == "study") return cmd_study(args);
    if (cmd == "ingest") return cmd_ingest(args);
    if (cmd == "compact") return cmd_compact(args);
    if (cmd == "query") return cmd_query(args);
    if (cmd == "serve") return cmd_serve(args);
    if (cmd == "sync") return cmd_sync(args);
    if (cmd == "report") return cmd_report(args);
    if (cmd == "dossier") return cmd_dossier(args);
    if (cmd == "digest") return cmd_digest(args);
    if (cmd == "export-rules") return cmd_export_rules(args);
    if (cmd == "profile") return cmd_profile(args);
    if (cmd == "json-check") return cmd_json_check(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  usage();
}
