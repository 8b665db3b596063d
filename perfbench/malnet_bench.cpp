// malnet_bench — the repository's benchmark program (see perfbench/README.md).
//
//   malnet_bench --workload study-campaign|study-sharded|query-sync
//                [--seed N] [--seconds S] [--trace 0|1] [--work-dir DIR]
//                [--trace-out FILE] [--tiny] [--inject-wrong-answer]
//
// Every workload runs the same cycle until --seconds have passed:
//   1. study   (study-* only) one ParallelStudy::run of the workload's
//              config, timed, its output checked byte-for-byte against the
//              first cycle's;
//   2. service a fresh copy of the aggregator store behind an in-process
//              serve::Server with sync enabled: two closed-loop query
//              connections, each on its own thread, and one sync
//              connection that pushes the cycle's producer stores in turn
//              and then pushes them again (which must send nothing). On
//              query-sync the pushes run while the queries do; on study-*
//              they run first and the queries then run alone.
// Set-up (timed as setup_s, repeated and reported as a median) loads the
// profile registry, builds the aggregator's 8-segment store from a
// paper-scale sharded study, builds the producer stores (query-sync) and
// computes the expected answer of every query with an in-process
// store::QueryEngine.
//
// Layers are measured from outside, by timing calls into their public
// functions; nothing is added inside src/. With --trace 1 every other
// primary study runs with PipelineConfig::profile_wall and the benchmark
// keeps spans (name, start, end, parent, run id) in memory around each
// public call, writes them to --trace-out at the end, and reports each
// layer's self time next to the per-layer metrics.
//
// Standard output: a human-readable table, then one JSON line
// {"correct","attempted","failed","metrics"}. Exit 0 when every check
// passed, 1 when an output was wrong, 2 on bad usage.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <latch>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/parallel_study.hpp"
#include "core/pipeline.hpp"
#include "obs/profile.hpp"
#include "profile/registry.hpp"
#include "report/dataset_io.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "store/query.hpp"
#include "store/store.hpp"
#include "sync/client.hpp"
#include "sync/session.hpp"
#include "sync/wire.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace {

using namespace malnet;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

// ---------------------------------------------------------------------------
// Options and workloads

struct Options {
  std::string workload;
  std::uint64_t seed = 22;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  bool inject_wrong_answer = false;
  std::string work_dir = ".bench_build/work";
  std::string trace_out;
};

struct StudySpec {
  int samples = 1447;
  int shards = 1;
  int jobs = 1;
  bool campaign = false;
  int probe_rounds = 84;
  std::uint64_t seed = 22;
};

struct Workload {
  /// The timed study of every cycle (study-* workloads).
  std::optional<StudySpec> cycle_study;
  /// Commit each shard from on_shard_complete, inside the timed study.
  bool commit_in_study = false;
  /// The aggregator's 8-segment store, built in set-up.
  StudySpec base;
  /// Producer stores built in set-up and pushed every round (query-sync).
  int producers = 0;
  StudySpec producer;
  /// Queries of a service round run for at least this long.
  int min_round_ms = 0;
  /// Push while the queries run (reads under writes), or before them.
  bool concurrent_sync = false;
};

/// Seeds of the stores a workload builds, derived from the workload seed so
/// that every store differs from the cycle study and from each other.
std::uint64_t derived_seed(std::uint64_t seed, std::uint64_t salt) {
  util::Rng rng(seed, 0x6d616c6e65746263ULL + salt);
  return rng.uniform(0, ~std::uint64_t{0});
}

Workload make_workload(const Options& opt) {
  const int full = opt.tiny ? 60 : 1447;
  Workload w;
  w.base = {.samples = full, .shards = 8, .jobs = 4, .campaign = false,
            .seed = derived_seed(opt.seed, 1)};
  if (opt.workload == "study-campaign") {
    w.cycle_study = StudySpec{.samples = full, .shards = 1, .jobs = 1,
                              .campaign = true,
                              .probe_rounds = opt.tiny ? 4 : 84,
                              .seed = opt.seed};
    w.min_round_ms = 300;
  } else if (opt.workload == "study-sharded") {
    w.cycle_study = StudySpec{.samples = full, .shards = 8, .jobs = 4,
                              .campaign = false, .seed = opt.seed};
    w.commit_in_study = true;
    w.min_round_ms = 300;
  } else if (opt.workload == "query-sync") {
    w.producers = 3;
    w.producer = {.samples = opt.tiny ? 24 : 120, .shards = 8, .jobs = 4,
                  .campaign = false};
    w.concurrent_sync = true;
  } else {
    throw std::invalid_argument("unknown workload '" + opt.workload + "'");
  }
  return w;
}

// ---------------------------------------------------------------------------
// Correctness tally: every checked operation counts as attempted.

struct Tally {
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> failed{0};

  /// `what` names the check; a callable is only invoked on failure.
  template <typename What>
  void check(bool ok, What&& what) {
    attempted.fetch_add(1, std::memory_order_relaxed);
    if (ok) return;
    if (failed.fetch_add(1) >= 10) return;
    std::string msg;
    if constexpr (std::is_invocable_v<What>) {
      msg = what();
    } else {
      msg = what;
    }
    std::fprintf(stderr, "CHECK FAILED: %s\n", msg.c_str());
  }
};

Tally g_tally;

// ---------------------------------------------------------------------------
// Spans, kept in memory and written out at the end of a traced run.

struct Span {
  const char* name;  // "<layer>.<call>", a string literal
  int parent = -1;
  std::uint32_t run = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanLog {
 public:
  void enable(bool on) { on_ = on; }

  /// Opens a span; children inherit the parent's run id. -1 when off.
  int begin(const char* name, int parent, std::uint32_t run = 0) {
    if (!on_) return -1;
    const auto t = now_ns();
    std::lock_guard lock(mu_);
    if (parent >= 0) run = spans_[static_cast<std::size_t>(parent)].run;
    spans_.push_back({name, parent, run, t, t});
    return static_cast<int>(spans_.size() - 1);
  }
  void end(int id) {
    if (id < 0) return;
    const auto t = now_ns();
    std::lock_guard lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_ns = t;
  }
  /// Records an already-timed span.
  void add(const char* name, int parent, std::int64_t start_ns, std::int64_t end_ns) {
    if (!on_) return;
    std::lock_guard lock(mu_);
    const std::uint32_t run =
        parent >= 0 ? spans_[static_cast<std::size_t>(parent)].run : 0;
    spans_.push_back({name, parent, run, start_ns, end_ns});
  }
  [[nodiscard]] std::vector<Span> spans() const {
    std::lock_guard lock(mu_);
    return spans_;
  }

 private:
  bool on_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

SpanLog g_spans;

class ScopedSpan {
 public:
  ScopedSpan(const char* name, int parent) : id_(g_spans.begin(name, parent)) {}
  ~ScopedSpan() { g_spans.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int id_;
};

std::string layer_of(const char* name) {
  const std::string_view n(name);
  return std::string(n.substr(0, n.find('.')));
}

/// Run ids: set-ups use their repetition index, measured cycles start here.
constexpr std::uint32_t kFirstCycleRun = 100;

/// Self time per layer in ms over spans of runs >= `min_run`: each span's
/// duration minus the part of its interval that its child spans cover.
std::map<std::string, double> self_time_by_layer(const std::vector<Span>& spans,
                                                 std::uint32_t min_run) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) children[static_cast<std::size_t>(spans[i].parent)].push_back(i);
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    if (s.run < min_run) continue;
    std::vector<std::pair<std::int64_t, std::int64_t>> cover;
    for (const auto c : children[i]) {
      const auto lo = std::max(s.start_ns, spans[c].start_ns);
      const auto hi = std::min(s.end_ns, spans[c].end_ns);
      if (hi > lo) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0, reach = s.start_ns;
    for (const auto& [lo, hi] : cover) {
      const auto from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    out[layer_of(s.name)] += ms(s.end_ns - s.start_ns - covered);
  }
  return out;
}

/// Writes the spans as Chrome trace_event JSON (chrome://tracing, Perfetto)
/// with the self-time table beside them. Client query spans beyond the
/// first kMaxQuerySpans are counted in the table but not written.
void write_trace(const std::string& path, const std::vector<Span>& spans,
                 const std::map<std::string, double>& self_ms) {
  constexpr std::size_t kMaxQuerySpans = 50'000;
  if (path.empty()) return;
  fs::create_directories(fs::absolute(path).parent_path());
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write trace %s\n", path.c_str());
    return;
  }
  const auto t0 = spans.empty() ? 0 : spans.front().start_ns;
  out << "{\"selfTimeMs\":{";
  bool first = true;
  for (const auto& [layer, v] : self_ms) {
    out << (first ? "" : ",") << '"' << layer << "\":" << v;
    first = false;
  }
  out << "},\"traceEvents\":[\n";
  std::size_t queries = 0;
  first = true;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    if (std::string_view(s.name) == "serve.query" && ++queries > kMaxQuerySpans) continue;
    out << (first ? "" : ",\n") << "{\"name\":\"" << s.name << "\",\"cat\":\""
        << layer_of(s.name) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.run
        << ",\"ts\":" << (s.start_ns - t0) / 1000.0
        << ",\"dur\":" << (s.end_ns - s.start_ns) / 1000.0 << ",\"args\":{\"id\":" << i
        << ",\"parent\":" << s.parent << ",\"run\":" << s.run << "}}";
    first = false;
  }
  out << "\n],\"querySpansNotWritten\":"
      << (queries > kMaxQuerySpans ? queries - kMaxQuerySpans : 0) << "}\n";
}

// ---------------------------------------------------------------------------
// Samples of per-run values, reduced to medians / quantiles at the end.

template <typename T>
double quantile(std::vector<T> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(rank, v.size() - 1)];
}
template <typename T>
double median(std::vector<T> v) { return quantile(std::move(v), 0.5); }

using Series = std::map<std::string, std::vector<double>>;

std::uint64_t counter(const obs::MetricsSnapshot& snap, const std::string& name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

// ---------------------------------------------------------------------------
// Studies

struct StudyRun {
  core::StudyResults results;
  double wall_s = 0;
  std::vector<double> shard_ms;   // traced only
  std::vector<double> commit_ms;  // every commit made by the run
  double merge_ms = 0;            // traced only
  std::uint64_t bytes_written = 0;
};

core::ParallelStudyConfig study_config(const StudySpec& spec,
                                       const std::shared_ptr<const profile::Registry>& reg,
                                       bool profile_wall) {
  core::ParallelStudyConfig cfg;
  cfg.base.seed = spec.seed;
  cfg.base.world.total_samples = spec.samples;
  cfg.base.run_probe_campaign = spec.campaign;
  cfg.base.probe_rounds = spec.probe_rounds;
  cfg.base.profiles = reg;
  cfg.base.profile_wall = profile_wall;
  cfg.shards = spec.shards;
  cfg.jobs = spec.jobs;
  return cfg;
}

/// One timed ParallelStudy::run. With `store`, each finished shard is
/// committed from on_shard_complete, as `malnetctl study --store` does.
StudyRun run_study(const StudySpec& spec,
                   const std::shared_ptr<const profile::Registry>& reg,
                   store::Store* store, bool traced, int parent) {
  auto cfg = study_config(spec, reg, traced);
  const auto fingerprint = store::study_fingerprint(cfg);
  StudyRun out;
  std::mutex mu;  // guards the vectors below across shard workers
  std::vector<std::int64_t> shard_start(static_cast<std::size_t>(spec.shards), 0);
  std::int64_t last_complete = 0;
  const int study_span = g_spans.begin("core.study", parent);
  if (traced) {
    cfg.shard_preload = [&](int shard) -> std::optional<core::StudyResults> {
      const auto t = now_ns();
      std::lock_guard lock(mu);
      shard_start[static_cast<std::size_t>(shard)] = t;
      return std::nullopt;
    };
  }
  if (traced || store) {
    cfg.on_shard_complete = [&](int shard, const core::StudyResults& results) {
      const auto done = now_ns();
      if (traced) {
        std::lock_guard lock(mu);
        const auto start = shard_start[static_cast<std::size_t>(shard)];
        out.shard_ms.push_back(ms(done - start));
        g_spans.add("core.shard", study_span, start, done);
      }
      if (store) {
        const auto t0 = now_ns();
        store->commit(results, store::SegmentKind::kShard, fingerprint,
                      static_cast<std::uint32_t>(shard),
                      static_cast<std::uint32_t>(spec.shards),
                      core::shard_seed(spec.seed, spec.shards, shard));
        const auto t1 = now_ns();
        g_spans.add("store.commit", study_span, t0, t1);
        std::lock_guard lock(mu);
        out.commit_ms.push_back(ms(t1 - t0));
      }
      std::lock_guard lock(mu);
      last_complete = std::max(last_complete, now_ns());
    };
  }
  const auto t0 = now_ns();
  out.results = core::ParallelStudy(std::move(cfg)).run();
  const auto t1 = now_ns();
  g_spans.end(study_span);
  out.wall_s = static_cast<double>(t1 - t0) / 1e9;
  if (traced) out.merge_ms = ms(t1 - last_complete);
  return out;
}

/// Commits a finished single-shard study after the timed run.
void commit_whole(const StudySpec& spec, const std::shared_ptr<const profile::Registry>& reg,
                  store::Store& store, StudyRun& run, int parent) {
  const auto fingerprint = store::study_fingerprint(study_config(spec, reg, false));
  ScopedSpan span("store.commit", parent);
  const auto t0 = now_ns();
  store.commit(run.results, store::SegmentKind::kShard, fingerprint, 0, 1, spec.seed);
  run.commit_ms.push_back(ms(now_ns() - t0));
}

/// The byte-compared identity of a study: MDS artifact + metrics JSON.
struct StudyOutput {
  util::Bytes mds;
  std::string metrics;
  bool operator==(const StudyOutput&) const = default;
};

StudyOutput study_output(const core::StudyResults& r, int parent, Series* layer) {
  ScopedSpan span("report.serialize", parent);
  const auto t0 = now_ns();
  StudyOutput out{report::serialize_datasets(r), {}};
  if (layer) (*layer)["report.serialize_ms"].push_back(ms(now_ns() - t0));
  out.metrics = r.metrics.to_json();
  return out;
}

void check_sample_count(const StudyRun& run, const StudySpec& spec, const char* what) {
  const auto got = counter(run.results.metrics, "samples_analysed");
  g_tally.check(got == static_cast<std::uint64_t>(spec.samples),
                std::string(what) + ": samples_analysed " + std::to_string(got) +
                    " != requested " + std::to_string(spec.samples));
}

/// Per-layer numbers of one primary study.
void record_study_layers(const StudyRun& run, bool traced, Series& s) {
  const auto& r = run.results;
  const auto events = counter(r.metrics, "sim_events");
  s["sim.events"].push_back(static_cast<double>(events));
  s["net.packets_sent"].push_back(static_cast<double>(counter(r.metrics, "net.packets_sent")));
  s["net.packets_dark"].push_back(static_cast<double>(counter(r.metrics, "net.packets_dark")));
  s["emu.sandbox_runs"].push_back(static_cast<double>(r.sandbox_runs));
  s["core.d_c2s"].push_back(static_cast<double>(r.d_c2s.size()));
  s["core.d_exploits"].push_back(static_cast<double>(r.d_exploits.size()));
  s["core.d_ddos"].push_back(static_cast<double>(r.d_ddos.size()));
  s["store.bytes_written"].push_back(static_cast<double>(run.bytes_written));
  if (!traced) {
    s["sim.ns_per_event"].push_back(run.wall_s * 1e9 / static_cast<double>(std::max<std::uint64_t>(events, 1)));
    return;
  }
  const auto& p = r.profile;
  const auto phase_ms = [&](obs::Phase ph) { return ms(static_cast<std::int64_t>(p[ph].wall_ns)); };
  s["phase.campaign.ms"].push_back(phase_ms(obs::Phase::kCampaign));
  s["phase.campaign.events"].push_back(static_cast<double>(p[obs::Phase::kCampaign].sim_events));
  s["phase.sandbox.ms"].push_back(phase_ms(obs::Phase::kSandbox));
  s["phase.live-watch.ms"].push_back(phase_ms(obs::Phase::kLiveWatch));
  s["phase.probe.ms"].push_back(phase_ms(obs::Phase::kProbe));
  s["phase.world.ms"].push_back(phase_ms(obs::Phase::kWorld));
  s["emu.us_per_run"].push_back(phase_ms(obs::Phase::kSandbox) * 1e3 /
                                static_cast<double>(std::max<std::uint64_t>(r.sandbox_runs, 1)));
  s["core.shard_ms.p50"].push_back(median(run.shard_ms));
  s["core.shard_ms.max"].push_back(quantile(run.shard_ms, 1.0));
  s["core.merge_ms"].push_back(run.merge_ms);
  if (!run.commit_ms.empty()) {
    s["store.commit_ms.p50"].push_back(median(run.commit_ms));
    s["store.commit_ms.max"].push_back(quantile(run.commit_ms, 1.0));
  }
}

/// Times core::Pipeline's constructor (world construction) for shard 0.
void time_world_build(const StudySpec& spec, const std::shared_ptr<const profile::Registry>& reg,
                      int parent, Series& s) {
  const auto cfg = study_config(spec, reg, false);
  const auto shard_cfg = core::shard_config(cfg.base, cfg.shards, 0);
  ScopedSpan span("botnet.world_build", parent);
  const auto t0 = now_ns();
  core::Pipeline pipeline(shard_cfg);
  s["botnet.world_build_ms"].push_back(ms(now_ns() - t0));
}

// ---------------------------------------------------------------------------
// Set-up: registry, aggregator base store, producer stores, expected answers.

constexpr const char* kQueryKinds[] = {"totals", "families", "c2-liveness",
                                       "exploits", "c2", "exploit"};

struct Query {
  std::string text;
  std::string kind;
  std::string expected;
};

struct Setup {
  std::shared_ptr<const profile::Registry> registry;
  std::string dir;
  std::string base_dir;
  std::unique_ptr<store::Store> base;
  std::unique_ptr<store::QueryEngine> engine;
  std::vector<std::string> producer_dirs;
  std::vector<Query> queries;
  double seconds = 0;
  std::optional<StudyRun> base_run;
};

std::string kind_of(const std::string& text) { return text.substr(0, text.find(' ')); }

std::vector<Query> make_queries(store::QueryEngine& engine, std::uint64_t seed) {
  std::vector<std::string> c2s;
  for (const auto& [addr, days] : engine.merged().c2_live_days) c2s.push_back(addr);
  std::vector<std::string> vulns;
  const auto rollup = engine.answer("exploits");
  for (std::size_t at = 0; at < rollup.size();) {
    const auto eol = std::min(rollup.find('\n', at), rollup.size());
    // `exploit` takes one token, so only CVE ids are drawn as keys.
    auto label = rollup.substr(at, rollup.find(' ', at) - at);
    if (label.rfind("CVE-", 0) == 0) vulns.push_back(std::move(label));
    at = eol + 1;
  }
  if (c2s.empty() || vulns.empty()) throw std::runtime_error("base store has no C2s or exploits");
  // Half index-wide aggregates, half point lookups with keys from the store.
  util::Rng rng(seed, 0x7175657279ULL);
  std::vector<Query> out;
  for (int i = 0; i < 256; ++i) {
    const auto pick = rng.uniform(0, 7);
    std::string text = pick < 4 ? kQueryKinds[pick]
                       : pick < 6 ? "c2 " + rng.pick(c2s)
                                  : "exploit " + rng.pick(vulns);
    out.push_back({text, kind_of(text), engine.answer(text)});
    g_tally.check(out.back().expected.rfind("err", 0) != 0, "query '" + text + "' answers an error");
  }
  return out;
}

Setup build_setup(const Workload& w, const Options& opt, int rep, bool traced, Series& layer) {
  Setup s;
  s.dir = opt.work_dir + "/setup" + std::to_string(rep);
  fs::remove_all(s.dir);
  const int root = g_spans.begin("bench.setup", -1, static_cast<std::uint32_t>(rep));
  const auto t0 = now_ns();
  s.registry = std::make_shared<const profile::Registry>();
  s.base_dir = s.dir + "/base";
  s.base = std::make_unique<store::Store>(s.base_dir);
  auto run = run_study(w.base, s.registry, s.base.get(), traced, root);
  run.bytes_written = counter(s.base->metrics(), "store.bytes_written");
  for (int p = 0; p < w.producers; ++p) {
    s.producer_dirs.push_back(s.dir + "/producer" + std::to_string(p));
    store::Store producer(s.producer_dirs.back());
    auto spec = w.producer;
    spec.seed = derived_seed(opt.seed, 2 + static_cast<std::uint64_t>(p));
    const auto prun = run_study(spec, s.registry, &producer, false, root);
    check_sample_count(prun, spec, "producer study");
  }
  {
    ScopedSpan span("store.index_merge", root);
    const auto m0 = now_ns();
    s.engine = std::make_unique<store::QueryEngine>(*s.base);
    layer["store.index_merge_ms"].push_back(ms(now_ns() - m0));
  }
  {
    ScopedSpan span("store.expected_answers", root);
    s.queries = make_queries(*s.engine, opt.seed);
  }
  s.seconds = static_cast<double>(now_ns() - t0) / 1e9;
  g_spans.end(root);
  check_sample_count(run, w.base, "base study");
  g_tally.check(s.base->segments().size() == static_cast<std::size_t>(w.base.shards),
                "base store holds one segment per shard");
  s.base_run = std::move(run);
  return s;
}

// ---------------------------------------------------------------------------
// Service round: two closed-loop query connections and one sync connection
// pushing the producer stores, on a fresh copy of the base store.

struct ServiceTotals {
  std::vector<float> latency_us;
  double query_seconds = 0;
  std::vector<double> push_s;
  std::vector<double> round_wire_bytes;
  std::vector<double> round_sync_rounds;
  std::vector<double> round_segments_sent;
  std::uint64_t backpressure_pauses = 0;
  std::uint64_t protocol_errors = 0;
  int rounds = 0;
};

/// A fresh copy of the store at `from`. Segment files and MANIFEST are
/// never modified in place (the store replaces them by rename), so hard
/// links give an independent copy without rewriting segment bytes, whose
/// writeback would otherwise land in the next fsync of an import.
void link_store(const std::string& from, const std::string& to) {
  fs::create_directories(to + "/segments");
  for (const auto& entry : fs::directory_iterator(from + "/segments")) {
    fs::create_hard_link(entry.path(), to + "/segments/" + entry.path().filename().string());
  }
  fs::create_hard_link(from + "/MANIFEST", to + "/MANIFEST");
}

/// The served store of one round: a fresh copy of the base store behind a
/// sync-enabled server with two I/O threads.
struct Aggregator {
  explicit Aggregator(std::string d) : dir(std::move(d)), store(dir), handler(store, registry) {}
  Aggregator(const Aggregator&) = delete;
  Aggregator& operator=(const Aggregator&) = delete;

  std::string dir;
  store::Store store;
  obs::Registry registry;
  sync::SessionHandler handler;
  std::optional<serve::Server> server;  // last: stops before the rest goes
};

/// Stops a round's server off the measured path (a stop waits up to one
/// 100 ms poll tick of the server's threads). At most a few stay in flight.
class Retirer {
 public:
  void retire(std::unique_ptr<Aggregator> agg) {
    if (threads_.size() >= 4) threads_.erase(threads_.begin());  // joins it
    threads_.emplace_back([a = std::move(agg)]() mutable {
      const auto dir = a->dir;
      a.reset();  // ~Server drains and joins
      std::error_code ec;
      fs::remove_all(dir, ec);
    });
  }
  void join_all() { threads_.clear(); }

 private:
  std::vector<std::jthread> threads_;
};

/// One push round over the sync connection: every producer in turn, then
/// each again, which must find nothing to send. Returns the hashes pushed.
std::set<std::string> push_round(const std::vector<std::string>& producers,
                                 std::uint16_t port, int round_span, ServiceTotals& tot) {
  std::set<std::string> pushed;
  double wire = 0, rpc_rounds = 0, sent = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& pdir : producers) {
      store::Store producer(pdir);
      if (pass == 0) {
        const auto h = producer.segment_hashes();
        pushed.insert(h.begin(), h.end());
      }
      sync::SyncClient client(producer);
      g_tally.check(client.connect("127.0.0.1", port), "sync client connects");
      const int span = g_spans.begin("sync.push", round_span);
      const auto t0 = now_ns();
      const auto stats = client.push();
      const auto t1 = now_ns();
      g_spans.end(span);
      g_tally.check(stats.has_value(), "sync push converges");
      if (!stats) continue;
      if (pass == 0) {
        tot.push_s.push_back(static_cast<double>(t1 - t0) / 1e9);
        wire += static_cast<double>(stats->bytes_on_wire);
        rpc_rounds += static_cast<double>(stats->rounds);
        sent += static_cast<double>(stats->segments_sent);
      } else {
        g_tally.check(stats->segments_sent == 0, "a repeated push sends 0 segments");
      }
    }
  }
  tot.round_wire_bytes.push_back(wire);
  tot.round_sync_rounds.push_back(rpc_rounds);
  tot.round_segments_sent.push_back(sent);
  return pushed;
}

/// One service round on a fresh copy of the base store. Two closed-loop
/// query connections run for at least `min_round_ms`; the push round runs
/// while they do (`concurrent_sync`) or before they start.
void service_round(const Setup& setup, const std::vector<std::string>& producers,
                   const Options& opt, int min_round_ms, bool concurrent_sync,
                   std::uint32_t run_id, ServiceTotals& tot, Retirer& retirer) {
  const int round_span = g_spans.begin("serve.round", -1, run_id);
  const std::string dir = opt.work_dir + "/aggregator" + std::to_string(run_id);
  fs::remove_all(dir);
  link_store(setup.base_dir, dir);
  auto agg = std::make_unique<Aggregator>(dir);
  serve::ServeConfig cfg;
  cfg.io_threads = 2;
  cfg.aux_handler = [h = &agg->handler](util::BytesView body, const serve::AuxContext& ctx) {
    return h->handle(body, ctx.peer);
  };
  cfg.max_aux_frame_body = sync::kMaxSyncFrameBody;
  auto& server = agg->server.emplace(agg->store, cfg, agg->registry);
  {
    ScopedSpan span("serve.start", round_span);
    server.start();
  }

  // Connections go to the I/O threads round-robin. A sequential push round
  // opens an even number of sync connections first, and a concurrent one
  // opens them after the query connections, so each query connection has
  // an I/O thread of its own in every round.
  std::set<std::string> pushed;
  if (!concurrent_sync) pushed = push_round(producers, server.port(), round_span, tot);

  constexpr int kClients = 2;
  std::atomic<bool> stop{false};
  std::latch connected(kClients);
  std::vector<std::vector<float>> lat(kClients);
  std::vector<std::int64_t> q_start(kClients, 0), q_end(kClients, 0);
  {
    std::vector<std::jthread> clients;
    // Declared after `clients`, so it runs first on every exit path and the
    // query threads are told to stop before they are joined.
    struct StopOnExit {
      std::atomic<bool>& flag;
      ~StopOnExit() { flag = true; }
    } stop_on_exit{stop};
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        const auto ci = static_cast<std::size_t>(c);
        bool counted = false;
        try {
          serve::Client client;
          const bool ok = client.connect("127.0.0.1", server.port());
          connected.count_down();
          counted = true;
          g_tally.check(ok, "query client connects");
          const auto& qs = setup.queries;
          std::size_t i = ci * qs.size() / kClients;
          lat[ci].reserve(1 << 14);
          q_start[ci] = now_ns();
          while (!stop.load(std::memory_order_relaxed)) {
            const auto& q = qs[i++ % qs.size()];
            const int span = g_spans.begin("serve.query", round_span);
            const auto t0 = now_ns();
            const auto answer = client.query(q.text);
            const auto t1 = now_ns();
            g_spans.end(span);
            lat[ci].push_back(static_cast<float>(t1 - t0) / 1e3f);
            g_tally.check(answer && *answer == q.expected, [&] {
              return "served answer to '" + q.text + "' differs from in-process answer";
            });
            if (!client.connected()) break;
          }
          q_end[ci] = now_ns();
        } catch (const std::exception& e) {
          if (!counted) connected.count_down();
          g_tally.check(false, std::string("query client threw: ") + e.what());
        }
      });
    }
    connected.wait();
    const auto t_round = now_ns();
    if (concurrent_sync) pushed = push_round(producers, server.port(), round_span, tot);
    const auto min_end = t_round + static_cast<std::int64_t>(min_round_ms) * 1'000'000;
    while (now_ns() < min_end) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto held = agg->store.segment_hashes();
  g_tally.check(std::includes(held.begin(), held.end(), pushed.begin(), pushed.end()),
                "aggregator holds every pushed segment");
  g_tally.check(counter(agg->store.metrics(), "store.payload_bytes_read") == 0,
                "store.payload_bytes_read stays 0 while serving");
  const auto snap = agg->registry.snapshot();
  tot.backpressure_pauses += counter(snap, "serve.backpressure_pauses");
  tot.protocol_errors += counter(snap, "serve.protocol_errors");
  retirer.retire(std::move(agg));
  for (std::size_t c = 0; c < kClients; ++c) {
    tot.latency_us.insert(tot.latency_us.end(), lat[c].begin(), lat[c].end());
    tot.query_seconds += static_cast<double>(q_end[c] - q_start[c]) / 1e9 / kClients;
  }
  ++tot.rounds;
  g_spans.end(round_span);
}

/// In-process QueryEngine::answer latency per query kind (no socket).
void time_in_process_answers(Setup& setup, Series& layer, std::vector<double>& all_us) {
  const int root = g_spans.begin("bench.in_process", -1);
  for (const auto* kind : kQueryKinds) {
    std::vector<const Query*> of_kind;
    for (const auto& q : setup.queries) {
      if (q.kind == kind) of_kind.push_back(&q);
    }
    if (of_kind.empty()) continue;
    std::vector<double> us;
    for (int i = 0; i < 400; ++i) {
      const auto& q = *of_kind[static_cast<std::size_t>(i) % of_kind.size()];
      const int span = g_spans.begin("store.answer", root);
      const auto t0 = now_ns();
      const auto answer = setup.engine->answer(q.text);
      us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
      g_spans.end(span);
      if (i < static_cast<int>(of_kind.size())) {
        g_tally.check(answer == q.expected, "in-process answer to '" + q.text + "' is stable");
      }
    }
    layer[std::string("store.answer_us.") + kind].push_back(median(us));
  }
  // The served rotation's own mix, for serve.transport_us.
  for (int i = 0; i < 2000; ++i) {
    const auto& q = setup.queries[static_cast<std::size_t>(i) % setup.queries.size()];
    const auto t0 = now_ns();
    (void)setup.engine->answer(q.text);
    all_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  g_spans.end(root);
}

// ---------------------------------------------------------------------------
// Output

std::string num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;
  /// False for table-only lines, which the JSON result leaves out.
  bool in_result = true;
};

void print_result(const std::vector<Metric>& metrics) {
  const auto attempted = g_tally.attempted.load();
  const auto failed = g_tally.failed.load();
  std::printf("%-28s %16s  %s\n", "metric", "value", "unit");
  for (const auto& m : metrics) {
    std::printf("%-28s %16.6g  %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
  }
  std::printf("%-28s %16.6g  %-6s (%llu of %llu checks failed)\n", "failed_ratio",
              attempted ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0,
              "ratio", static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(attempted, 1));
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& m : metrics) {
    if (!m.in_result) continue;
    json += (first ? "\"" : ", \"") + m.name + "\": {\"value\": " + num(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") opt.workload = value();
    else if (a == "--seed") opt.seed = std::stoull(value());
    else if (a == "--seconds") opt.seconds = std::stod(value());
    else if (a == "--trace") opt.trace = std::stoi(value()) != 0;
    else if (a == "--work-dir") opt.work_dir = value();
    else if (a == "--trace-out") opt.trace_out = value();
    else if (a == "--tiny") opt.tiny = true;
    else if (a == "--inject-wrong-answer") opt.inject_wrong_answer = true;
    else throw std::invalid_argument("unknown argument " + a);
  }
  if (opt.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(opt.seconds > 0)) throw std::invalid_argument("--seconds must be positive");
  return opt;
}

int run(const Options& opt) {
  const auto w = make_workload(opt);
  g_spans.enable(opt.trace);
  fs::remove_all(opt.work_dir);
  fs::create_directories(opt.work_dir);

  Series e2e;    // end-to-end samples
  Series layer;  // per-layer samples
  std::vector<double> traced_sps, untraced_sps;

  // Set-up, repeated; the last one is kept. On query-sync the base-store
  // study is the workload's primary study: its first repetition warms the
  // process up, and in a traced run the others alternate traced and
  // untraced.
  const int setup_reps = opt.trace ? 8 : 7;
  const StudySpec& primary = w.cycle_study ? *w.cycle_study : w.base;
  std::optional<StudyOutput> first_output;
  const auto check_repeat = [&](const StudyOutput& output) {
    if (!first_output) first_output = output;
    g_tally.check(output == *first_output,
                  "study MDS bytes and metrics JSON identical across repeats");
  };
  std::unique_ptr<Setup> setup;
  for (int rep = 0; rep < setup_reps; ++rep) {
    const bool traced = opt.trace && !w.cycle_study && rep % 2 == 1;
    if (setup) fs::remove_all(setup->dir);
    setup = std::make_unique<Setup>(build_setup(w, opt, rep, traced, layer));
    e2e["setup_s"].push_back(setup->seconds);
    malloc_trim(0);
    if (!w.cycle_study) {
      const auto& run = *setup->base_run;
      check_repeat(study_output(run.results, -1, traced ? &layer : nullptr));
      if (rep == 0) continue;
      const double sps = static_cast<double>(w.base.samples) / run.wall_s;
      (traced ? traced_sps : untraced_sps).push_back(sps);
      if (!traced) e2e["samples_per_s"].push_back(sps);
      record_study_layers(run, traced, layer);
      if (traced) time_world_build(w.base, setup->registry, -1, layer);
    }
  }
  if (opt.inject_wrong_answer) setup->queries.front().expected += "#";

  // Measured cycles.
  ServiceTotals service;
  service.latency_us.reserve(std::size_t{1} << 22);  // touched only as filled
  Retirer retirer;
  const auto deadline = now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
  const int min_cycles = opt.trace ? 4 : 3;
  const std::string study_dir = opt.work_dir + "/study";
  for (int cycle = 0; cycle < min_cycles || now_ns() < deadline; ++cycle) {
    const auto run_id = kFirstCycleRun + static_cast<std::uint32_t>(cycle);
    // Each repeat starts from a trimmed heap, so the high-water mark is
    // that of the largest single repeat, not of fragmentation built up
    // over however many repeats fit in the run. A timed study also waits
    // for the previous round's server to stop.
    if (w.cycle_study) retirer.join_all();
    malloc_trim(0);
    std::vector<std::string> producers = setup->producer_dirs;
    if (w.cycle_study) {
      const auto& spec = *w.cycle_study;
      const bool traced = opt.trace && cycle % 2 == 1;
      const int root = g_spans.begin("bench.cycle", -1, run_id);
      fs::remove_all(study_dir);
      store::Store st(study_dir);
      auto run = run_study(spec, setup->registry, w.commit_in_study ? &st : nullptr,
                           traced, root);
      const double sps = static_cast<double>(spec.samples) / run.wall_s;
      (traced ? traced_sps : untraced_sps).push_back(sps);
      if (!traced) e2e["samples_per_s"].push_back(sps);
      if (!w.commit_in_study) commit_whole(spec, setup->registry, st, run, root);
      run.bytes_written = counter(st.metrics(), "store.bytes_written");
      check_sample_count(run, spec, "cycle study");
      check_repeat(study_output(run.results, root, traced ? &layer : nullptr));
      record_study_layers(run, traced, layer);
      if (traced) time_world_build(spec, setup->registry, root, layer);
      g_spans.end(root);
      producers = {study_dir};
    }
    service_round(*setup, producers, opt, w.min_round_ms, w.concurrent_sync, run_id, service,
                  retirer);
  }

  retirer.join_all();

  // Determinism contract: --jobs never changes a byte.
  if (primary.jobs > 1) {
    auto spec = primary;
    spec.jobs = 1;
    const auto run = run_study(spec, setup->registry, nullptr, false, -1);
    g_tally.check(study_output(run.results, -1, nullptr) == *first_output,
                  "study output at jobs " + std::to_string(primary.jobs) + " equals jobs 1");
  }

  std::vector<double> in_process_us;
  if (opt.trace) time_in_process_answers(*setup, layer, in_process_us);

  // Report.
  const auto& lat = service.latency_us;
  std::vector<Metric> out;
  if (!opt.trace) {
    const double qps = static_cast<double>(lat.size()) / std::max(service.query_seconds, 1e-9);
    out.push_back({"setup_s", median(e2e["setup_s"]), "s",
                   "(median of " + std::to_string(setup_reps) + " set-ups)"});
    out.push_back({"samples_per_s", median(e2e["samples_per_s"]), "1/s",
                   "(median of " + std::to_string(e2e["samples_per_s"].size()) + " studies)"});
    out.push_back({"peak_rss_mb", peak_rss_mb(), "MB", ""});
    out.push_back({"sync_wire_bytes", median(service.round_wire_bytes), "bytes",
                   "(per push round)"});
    // Too noisy on a shared 4-vCPU machine to gate (see README.md), so
    // printed here and reported per layer by a traced run.
    out.push_back({"query_p50_us", quantile(lat, 0.50), "us",
                   "(table only; 2 closed-loop connections)", false});
    out.push_back({"query_qps", qps, "1/s", "(table only)", false});
    out.push_back({"query_p99_us", quantile(lat, 0.99), "us",
                   "(table only; n=" + std::to_string(lat.size()) + " queries)", false});
    out.push_back({"sync_push_s", median(service.push_s), "s",
                   "(table only; median of " + std::to_string(service.push_s.size()) + " pushes)",
                   false});
  } else {
    const auto med = [&](const std::string& name) { return median(layer[name]); };
    for (const char* name : {"sim.events", "net.packets_sent", "net.packets_dark",
                             "phase.campaign.events", "emu.sandbox_runs", "core.d_c2s",
                             "core.d_exploits", "core.d_ddos", "store.bytes_written"}) {
      out.push_back({name, med(name), "count", ""});
    }
    out.push_back({"sim.ns_per_event", med("sim.ns_per_event"), "ns", ""});
    for (const char* name : {"phase.campaign.ms", "phase.sandbox.ms", "phase.live-watch.ms",
                             "phase.probe.ms", "phase.world.ms", "botnet.world_build_ms",
                             "core.shard_ms.p50", "core.shard_ms.max", "core.merge_ms",
                             "report.serialize_ms", "store.commit_ms.p50",
                             "store.commit_ms.max", "store.index_merge_ms"}) {
      out.push_back({name, med(name), "ms", ""});
    }
    out.push_back({"emu.us_per_run", med("emu.us_per_run"), "us", ""});
    for (const auto* kind : kQueryKinds) {
      const auto name = std::string("store.answer_us.") + kind;
      out.push_back({name, med(name), "us", ""});
    }
    out.push_back({"serve.query_qps",
                   static_cast<double>(lat.size()) / std::max(service.query_seconds, 1e-9), "1/s",
                   "(2 closed-loop connections)"});
    out.push_back({"serve.query_p50_us", quantile(lat, 0.50), "us", ""});
    out.push_back({"serve.query_p99_us", quantile(lat, 0.99), "us",
                   "(n=" + std::to_string(lat.size()) + " queries)"});
    out.push_back({"serve.transport_us", quantile(lat, 0.5) - median(in_process_us), "us", ""});
    out.push_back({"serve.backpressure_pauses", static_cast<double>(service.backpressure_pauses),
                   "count", ""});
    out.push_back({"serve.protocol_errors", static_cast<double>(service.protocol_errors),
                   "count", ""});
    out.push_back({"sync.rounds", median(service.round_sync_rounds), "count", "(per push round)"});
    out.push_back({"sync.segments_sent", median(service.round_segments_sent), "count",
                   "(per push round)"});
    out.push_back({"sync.bytes_on_wire", median(service.round_wire_bytes), "count",
                   "(per push round)"});
    out.push_back({"sync.push_ms", median(service.push_s) * 1e3, "ms", ""});
    out.push_back({"trace.overhead_pct",
                   (median(untraced_sps) / median(traced_sps) - 1.0) * 100.0, "pct",
                   "(untraced vs traced samples_per_s)"});

    // Self time per layer over the measured cycles, per cycle.
    const auto spans = g_spans.spans();
    const auto self_ms = self_time_by_layer(spans, kFirstCycleRun);
    std::printf("self time by layer over %d cycles:\n", service.rounds);
    for (const char* layer_name : {"bench", "core", "botnet", "report", "store", "serve", "sync"}) {
      const auto it = self_ms.find(layer_name);
      const double per_cycle = (it == self_ms.end() ? 0.0 : it->second) / std::max(service.rounds, 1);
      std::printf("  %-8s %12.3f ms per cycle\n", layer_name, per_cycle);
      out.push_back({std::string("self.") + layer_name + ".ms", per_cycle, "ms", "(per cycle)"});
    }
    write_trace(opt.trace_out, spans, self_time_by_layer(spans, 0));
  }
  print_result(out);
  fs::remove_all(opt.work_dir);
  return g_tally.failed.load() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  util::set_log_level(util::LogLevel::kWarn);
  Options opt;
  try {
    opt = parse_args(argc, argv);
    make_workload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "malnet_bench: %s\n", e.what());
    return 2;
  }
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "malnet_bench: %s\n", e.what());
    return 1;
  }
}
