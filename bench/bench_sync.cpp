// Sync S4: replication cost of the hash-tree sync protocol (DESIGN.md §14).
//
// Three producers each run `rounds` incremental study batches, pushing
// their store to one aggregator after every batch. Reports, per round, the
// bytes the sync protocol put on the wire against the naive alternative
// (full-copy replication: re-ship every producer's whole store each
// round), plus the final savings ratio. Four correctness gates run
// alongside the numbers, any failure exits 1:
//   * convergence: after the last round the aggregator holds exactly the
//     union of the producers' segment sets, and compacting it yields a
//     store byte-identical to importing every segment directly;
//   * re-sync is a no-op: a final push from every producer transfers zero
//     segments;
//   * refinement pays: cumulative sync bytes stay below cumulative naive
//     full-copy bytes once there is history to skip (rounds >= 2);
//   * with a baseline file, total wire bytes must stay within
//     tolerance x baseline (the CI gate against the committed
//     BENCH_sync.json).
// Results land in bench_metrics.json (same shape as BENCH_sync.json).
//
//   bench_sync [samples_per_batch] [rounds] [baseline.json] [tolerance]
//   defaults:   60                  3        (none)          1.5
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/parallel_study.hpp"
#include "obs/json.hpp"
#include "serve/server.hpp"
#include "store/store.hpp"
#include "sync/client.hpp"
#include "sync/session.hpp"
#include "sync/wire.hpp"
#include "util/fsio.hpp"

namespace {

using namespace malnet;

constexpr int kProducers = 3;

struct RoundResult {
  int round = 0;
  std::uint64_t segments_sent = 0;
  std::uint64_t wire_bytes = 0;   // sync frames, both directions
  std::uint64_t naive_bytes = 0;  // full-copy cost: every store's total size
  std::uint64_t saved_bytes = 0;  // segment volume refinement skipped
};

std::uint64_t store_total_bytes(store::Store& st) {
  std::uint64_t total = 0;
  for (const auto& meta : st.segments()) total += meta.bytes;
  return total;
}

/// Full on-disk identity of a store: MANIFEST plus every segment file.
std::string store_snapshot(const std::string& dir) {
  const auto slurp = [](const std::filesystem::path& path) {
    return util::to_string(util::read_file(path.string()));
  };
  std::ostringstream out;
  out << "MANIFEST\n" << slurp(dir + "/MANIFEST");
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir + "/segments")) {
    files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  for (const auto& p : files) out << p.filename().string() << '\n' << slurp(p);
  return out.str();
}

bool check_baseline(std::uint64_t wire_bytes_total, const std::string& path,
                    double tolerance) {
  const auto doc = bench::load_baseline(path, "bench_sync", [](const obs::json::Value& v) {
    const auto* total = v.find("wire_bytes_total");
    return total != nullptr && total->is_number();
  });
  if (!doc) return false;
  const auto* total = doc->find("wire_bytes_total");
  const double limit = total->number * tolerance;
  const bool pass = static_cast<double>(wire_bytes_total) <= limit;
  std::printf("baseline: wire bytes %llu vs limit %.0f (baseline %.0f x %.1f)"
              "  %s\n",
              static_cast<unsigned long long>(wire_bytes_total), limit,
              total->number, tolerance, pass ? "ok" : "REGRESSION");
  return pass;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== MalNet reproduction: Sync S4 — replication bytes on the "
              "wire vs full copy ===\n\n");
  const int samples = argc > 1 ? std::atoi(argv[1]) : 60;
  const int rounds = argc > 2 ? std::atoi(argv[2]) : 3;
  const std::string baseline = argc > 3 ? argv[3] : "";
  const double tolerance = argc > 4 ? std::atof(argv[4]) : 1.5;

  std::vector<std::string> producer_dirs;
  for (int p = 0; p < kProducers; ++p) {
    const auto dir = "bench-sync.p" + std::to_string(p);
    std::filesystem::remove_all(dir);
    producer_dirs.push_back(dir);
  }
  const std::string agg_dir = "bench-sync.agg";
  std::filesystem::remove_all(agg_dir);

  store::Store aggregator(agg_dir);
  obs::Registry registry;
  sync::SessionHandler handler(aggregator, registry);
  serve::ServeConfig scfg;
  scfg.io_threads = 2;
  scfg.aux_handler = [&handler](util::BytesView body,
                                const serve::AuxContext& ctx) {
    return handler.handle(body, ctx.peer);
  };
  scfg.max_aux_frame_body = sync::kMaxSyncFrameBody;
  serve::Server server(aggregator, scfg, registry);
  server.start();

  std::printf("producers=%d samples/batch=%d rounds=%d\n\n", kProducers,
              samples, rounds);
  std::printf("%6s  %10s  %14s  %14s  %14s\n", "round", "segments",
              "sync (bytes)", "naive (bytes)", "saved (bytes)");

  bool ok = true;
  std::vector<RoundResult> results;
  std::uint64_t wire_total = 0, naive_total = 0, naive_tail = 0, sync_tail = 0;
  for (int round = 1; round <= rounds; ++round) {
    RoundResult r;
    r.round = round;
    for (int p = 0; p < kProducers; ++p) {
      store::Store producer(producer_dirs[static_cast<std::size_t>(p)]);
      // One new study batch per round: a distinct seed gives a distinct
      // fingerprint, so the batch lands as fresh segments next to history.
      core::ParallelStudyConfig cfg;
      cfg.base.seed = 100 * static_cast<std::uint64_t>(p + 1) +
                      static_cast<std::uint64_t>(round);
      cfg.base.world.total_samples = samples;
      cfg.base.run_probe_campaign = false;
      cfg.shards = 2;
      cfg.jobs = 2;
      (void)store::run_store_study(cfg, producer, /*resume=*/false);

      sync::SyncClient client(producer);
      if (!client.connect("127.0.0.1", server.port())) {
        std::printf("MISMATCH (BUG): producer %d cannot connect\n", p);
        return 1;
      }
      const auto stats = client.push();
      if (!stats) {
        std::printf("MISMATCH (BUG): producer %d push failed in round %d\n", p,
                    round);
        return 1;
      }
      r.segments_sent += stats->segments_sent;
      r.wire_bytes += stats->bytes_on_wire;
      r.saved_bytes += stats->bytes_saved;
      r.naive_bytes += store_total_bytes(producer);
    }
    std::printf("%6d  %10llu  %14llu  %14llu  %14llu\n", r.round,
                static_cast<unsigned long long>(r.segments_sent),
                static_cast<unsigned long long>(r.wire_bytes),
                static_cast<unsigned long long>(r.naive_bytes),
                static_cast<unsigned long long>(r.saved_bytes));
    wire_total += r.wire_bytes;
    naive_total += r.naive_bytes;
    if (round >= 2) {
      sync_tail += r.wire_bytes;
      naive_tail += r.naive_bytes;
    }
    results.push_back(r);
  }

  // Gate: re-sync is a no-op — one more push per producer moves nothing.
  std::uint64_t resync_segments = 0, resync_bytes = 0;
  for (int p = 0; p < kProducers; ++p) {
    store::Store producer(producer_dirs[static_cast<std::size_t>(p)]);
    sync::SyncClient client(producer);
    if (!client.connect("127.0.0.1", server.port())) return 1;
    const auto stats = client.push();
    if (!stats) return 1;
    resync_segments += stats->segments_sent;
    resync_bytes += stats->bytes_on_wire;
  }
  if (resync_segments != 0) {
    std::printf("\nMISMATCH (BUG): re-sync transferred %llu segment(s)\n",
                static_cast<unsigned long long>(resync_segments));
    ok = false;
  }
  server.stop();

  // Gate: convergence — the aggregator holds the union, and compacting it
  // is byte-identical to a direct no-network import of every segment.
  std::vector<std::string> expected_union;
  std::vector<std::pair<std::string, util::Bytes>> all_segments;
  for (int p = 0; p < kProducers; ++p) {
    store::Store producer(producer_dirs[static_cast<std::size_t>(p)]);
    for (const auto& hash : producer.segment_hashes()) {
      expected_union.push_back(hash);
      all_segments.emplace_back(hash, *producer.read_segment_bytes(hash));
    }
  }
  std::sort(expected_union.begin(), expected_union.end());
  expected_union.erase(
      std::unique(expected_union.begin(), expected_union.end()),
      expected_union.end());
  bool converged = aggregator.segment_hashes() == expected_union;
  if (converged) {
    const std::string ref_dir = "bench-sync.ref";
    std::filesystem::remove_all(ref_dir);
    {
      store::Store ref(ref_dir);
      std::sort(all_segments.begin(), all_segments.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      for (const auto& [hash, bytes] : all_segments) {
        (void)ref.import_segment(util::BytesView{bytes});
      }
      (void)ref.compact();
    }
    (void)aggregator.compact();
    converged = store_snapshot(agg_dir) == store_snapshot(ref_dir);
    std::filesystem::remove_all(ref_dir);
  }
  if (!converged) {
    std::printf("\nMISMATCH (BUG): aggregator did not converge to the "
                "reference store\n");
    ok = false;
  }

  const double savings_ratio =
      wire_total > 0 ? static_cast<double>(naive_total) /
                           static_cast<double>(wire_total)
                     : 0.0;
  std::printf("\ntotals: sync=%llu naive=%llu savings=%.2fx  "
              "resync_bytes=%llu\n",
              static_cast<unsigned long long>(wire_total),
              static_cast<unsigned long long>(naive_total), savings_ratio,
              static_cast<unsigned long long>(resync_bytes));
  // Gate: once there is history to skip, refinement must beat full copy.
  if (rounds >= 2 && sync_tail >= naive_tail) {
    std::printf("MISMATCH (BUG): incremental sync (%llu bytes) did not beat "
                "naive full copy (%llu bytes)\n",
                static_cast<unsigned long long>(sync_tail),
                static_cast<unsigned long long>(naive_tail));
    ok = false;
  }

  {
    std::ofstream out("bench_metrics.json");
    if (out) {
      out << "{\"producers\":" << kProducers << ",\"samples\":" << samples
          << ",\"rounds\":[";
      for (std::size_t i = 0; i < results.size(); ++i) {
        const auto& r = results[i];
        out << (i ? "," : "") << "{\"round\":" << r.round
            << ",\"segments_sent\":" << r.segments_sent
            << ",\"wire_bytes\":" << r.wire_bytes
            << ",\"naive_bytes\":" << r.naive_bytes
            << ",\"saved_bytes\":" << r.saved_bytes << "}";
      }
      out << "],\"wire_bytes_total\":" << wire_total
          << ",\"naive_bytes_total\":" << naive_total
          << ",\"resync_segments\":" << resync_segments
          << ",\"converged\":" << (converged ? "true" : "false") << "}\n";
    }
  }

  if (!baseline.empty()) {
    std::printf("\n");
    if (!check_baseline(wire_total, baseline, tolerance)) ok = false;
  }
  std::printf("\nExpected shape: round 1 ships everything (plus refinement "
              "overhead); later\nrounds ship only the new batches while naive "
              "full copy re-ships history, so\nthe gap widens every round; "
              "re-sync moves zero segments; the compacted\naggregator is "
              "byte-identical to a direct import of every segment.\n");
  return ok ? 0 : 1;
}
