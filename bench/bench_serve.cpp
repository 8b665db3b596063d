// Serve S3: latency and throughput of the concurrent query server.
//
// Drives an in-process serve::Server over a freshly-built store with 1, 64
// and 1024 concurrent clients (one connection each, thread-per-client load
// generation) and reports per-level p50/p99 request latency and queries/sec.
// Three correctness gates run alongside the numbers, any failure exits 1:
//   * every response is byte-identical to the single-client QueryEngine
//     answer for the same query, at every concurrency level;
//   * store.payload_bytes_read stays 0 for the whole run (index-only
//     answering survives concurrency);
//   * with a baseline file, each level's p99 must stay within
//     tolerance x baseline p99 (the CI latency-regression gate against the
//     committed BENCH_serve.json).
// Results land in bench_metrics.json (same shape as BENCH_serve.json).
//
//   bench_serve [total_samples] [total_queries_per_level] [baseline.json]
//               [tolerance]
//   defaults:    600             2560                      (none)     8.0
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/parallel_study.hpp"
#include "obs/expo.hpp"
#include "obs/json.hpp"
#include "obs/window.hpp"
#include "serve/admin.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "store/query.hpp"
#include "store/store.hpp"
#include "util/socket.hpp"

namespace {

using namespace malnet;

const std::vector<std::string> kQueries = {"totals", "families", "c2-liveness",
                                           "exploits"};

struct LevelResult {
  int clients = 0;
  std::uint64_t responses = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double qps = 0.0;
};

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(p * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

/// One level of the load test: `clients` connections, ~`total_queries`
/// requests spread across them, every answer byte-compared.
LevelResult run_level(std::uint16_t port, int clients, int total_queries,
                      const std::vector<std::string>& expected,
                      std::atomic<int>& mismatches) {
  const int per_client = std::max(2, total_queries / clients);
  std::vector<std::vector<double>> latencies(
      static_cast<std::size_t>(clients));
  std::atomic<std::uint64_t> responses{0};

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      serve::Client client;
      // The 1024-client stampede can overflow the accept queue briefly;
      // the client's retry/backoff absorbs it.
      if (!client.connect("127.0.0.1", port,
                          {.connect_timeout_ms = 5000, .max_retries = 4})) {
        mismatches.fetch_add(1);
        return;
      }
      auto& lat = latencies[static_cast<std::size_t>(c)];
      lat.reserve(static_cast<std::size_t>(per_client));
      for (int i = 0; i < per_client; ++i) {
        const auto k =
            (static_cast<std::size_t>(c) + static_cast<std::size_t>(i)) %
            kQueries.size();
        const auto q0 = std::chrono::steady_clock::now();
        const auto answer = client.query(kQueries[k]);
        const auto us = std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - q0)
                            .count();
        if (!answer || *answer != expected[k]) {
          mismatches.fetch_add(1);
          return;
        }
        lat.push_back(us);
        responses.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::vector<double> all;
  for (auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  LevelResult r;
  r.clients = clients;
  r.responses = responses.load();
  r.p50_us = percentile(all, 0.50);
  r.p99_us = percentile(all, 0.99);
  r.qps = wall > 0 ? static_cast<double>(r.responses) / wall : 0.0;
  return r;
}

/// Baseline gate: measured p99 per level must stay within tolerance x the
/// committed baseline's p99. Returns false (gate failed) on regression;
/// a missing/malformed baseline file is an error too — the gate must not
/// pass vacuously.
bool check_baseline(const std::vector<LevelResult>& results,
                    const std::string& path, double tolerance) {
  const auto doc = bench::load_baseline(path, "bench_serve", [](const obs::json::Value& v) {
    return v.find("levels") != nullptr && v.find("levels")->is_array();
  });
  if (!doc) return false;
  bool ok = true;
  for (const auto& r : results) {
    for (const auto& level : doc->find("levels")->array) {
      const auto* clients = level.find("clients");
      const auto* p99 = level.find("p99_us");
      if (!clients || !p99 || !clients->is_number() || !p99->is_number()) {
        continue;
      }
      if (static_cast<int>(clients->number) != r.clients) continue;
      const double limit = p99->number * tolerance;
      const bool pass = r.p99_us <= limit;
      std::printf("baseline %4d clients: p99 %9.0f us vs limit %9.0f us "
                  "(baseline %9.0f x %.1f)  %s\n",
                  r.clients, r.p99_us, limit, p99->number, tolerance,
                  pass ? "ok" : "REGRESSION");
      if (!pass) ok = false;
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== MalNet reproduction: Serve S3 — concurrent query server "
              "latency/throughput ===\n\n");
  const int samples = argc > 1 ? std::atoi(argv[1]) : 600;
  const int total_queries = argc > 2 ? std::atoi(argv[2]) : 2560;
  const std::string baseline = argc > 3 ? argv[3] : "";
  const double tolerance = argc > 4 ? std::atof(argv[4]) : 8.0;

  // Fixture: a real sharded study committed through the store.
  const std::string dir = "bench-serve.dir";
  std::filesystem::remove_all(dir);
  core::ParallelStudyConfig cfg;
  cfg.base.seed = 22;
  cfg.base.world.total_samples = samples;
  cfg.base.run_probe_campaign = false;
  cfg.shards = 8;
  cfg.jobs = 8;
  store::Store st(dir);
  (void)store::run_store_study(cfg, st, /*resume=*/false);

  // Ground truth from a single-client engine over a separate store handle.
  std::vector<std::string> expected;
  {
    store::Store truth(dir);
    store::QueryEngine engine(truth);
    for (const auto& q : kQueries) expected.push_back(engine.answer(q));
  }

  const std::vector<int> levels = {1, 64, 1024};
  const std::size_t want_fds =
      2 * static_cast<std::size_t>(levels.back()) + 256;
  const auto fd_limit = util::raise_fd_limit(want_fds);
  std::printf("samples=%d store_segments=%zu total_queries/level=%d "
              "fd_limit=%zu\n\n",
              samples, st.segments().size(), total_queries, fd_limit);

  obs::Registry registry;
  serve::ServeConfig scfg;
  scfg.io_threads = 4;
  serve::Server server(st, scfg, registry);
  server.start();

  std::atomic<int> mismatches{0};
  std::vector<LevelResult> results;
  std::printf("%8s  %12s  %12s  %12s  %10s\n", "clients", "responses",
              "p50 (us)", "p99 (us)", "qps");
  for (const int clients : levels) {
    if (want_fds > fd_limit && clients > 256) {
      std::printf("%8d  skipped: fd limit %zu too low\n", clients, fd_limit);
      continue;
    }
    const auto r =
        run_level(server.port(), clients, total_queries, expected, mismatches);
    std::printf("%8d  %12llu  %12.0f  %12.0f  %10.0f\n", r.clients,
                static_cast<unsigned long long>(r.responses), r.p50_us,
                r.p99_us, r.qps);
    results.push_back(r);
  }

  // Scrape-cost gate: a 64-client level with a live admin endpoint being
  // scraped continuously must keep (nearly) the QPS of the same level
  // unscraped. Two unscraped reference runs bound the run-to-run noise —
  // the scraped run is held to 99% of the *slower* reference, so only a
  // real scrape cost (not noise) fails the gate.
  double base_qps = 0.0, scraped_qps = 0.0, scrape_cost_pct = 0.0;
  std::uint64_t scrapes = 0;
  bool admin_ok = true;
  {
    obs::SnapshotRing ring;
    serve::AdminServer admin({}, registry);
    const auto merged_snapshot = [&registry, &st] {
      auto m = registry.snapshot();
      m.merge(st.metrics());
      return m;
    };
    admin.set_tick(
        [&ring, &merged_snapshot] {
          ring.push(obs::wall_now_us(), merged_snapshot());
        },
        250);
    admin.handle("/metrics", [&ring, &merged_snapshot] {
      std::vector<obs::ExpositionWindow> windows;
      if (auto w = ring.window(1'000'000)) windows.emplace_back("1s", *w);
      if (auto w = ring.window(10'000'000)) windows.emplace_back("10s", *w);
      serve::AdminResponse resp;
      resp.body = obs::render_prometheus(merged_snapshot(), windows);
      return resp;
    });
    admin.start();

    // 1 scrape/s — 15x hotter than the Prometheus default cadence, slow
    // enough that the gate measures the cost of *being scraped*, not CPU
    // contention with a pathological scrape-as-fast-as-possible loop. The
    // first scrape fires immediately, so even a fast gate sees >= 1.
    std::atomic<bool> done{false};
    std::atomic<bool> paused{true};
    std::atomic<std::uint64_t> scrape_count{0};
    std::string last_scrape;
    std::thread scraper([&] {
      bool fresh = true;  // scrape immediately on each unpause
      while (!done.load()) {
        if (paused.load()) {
          fresh = true;
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
          continue;
        }
        if (!fresh) {
          for (int i = 0; i < 200 && !done.load() && !paused.load(); ++i) {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
          }
          if (done.load() || paused.load()) continue;
        }
        fresh = false;
        auto body = serve::admin_get("127.0.0.1", admin.port(), "/metrics");
        if (body) {
          last_scrape = std::move(*body);
          scrape_count.fetch_add(1);
        }
      }
    });
    // Short runs are dominated by scheduler noise, so each side runs 3x at
    // a longer level, interleaved (scraper toggled off for the base runs)
    // to decorrelate machine drift, and races on its best run — best-of-N
    // is stable at the top end where a real, systematic scrape cost would
    // still show. The floor keeps each timed run in the seconds range even
    // for a smoke-test CLI load: the cost of one scrape (a few ms of
    // snapshot + render) must be amortized over at least one full scrape
    // interval, or the gate measures scrape cost against an arbitrarily
    // small window and fails on any single-core machine.
    const int gate_queries = std::max(4 * total_queries, 100'000);
    std::vector<double> base_runs, scraped_runs;
    for (int i = 0; i < 3; ++i) {
      paused.store(false);
      scraped_runs.push_back(
          run_level(server.port(), 64, gate_queries, expected, mismatches)
              .qps);
      paused.store(true);
      base_runs.push_back(
          run_level(server.port(), 64, gate_queries, expected, mismatches)
              .qps);
    }
    done.store(true);
    scraper.join();
    admin.stop();

    base_qps = *std::max_element(base_runs.begin(), base_runs.end());
    scraped_qps = *std::max_element(scraped_runs.begin(), scraped_runs.end());
    scrapes = scrape_count.load();
    scrape_cost_pct =
        base_qps > 0 ? 100.0 * (1.0 - scraped_qps / base_qps) : 0.0;
    // The unscraped runs' own spread is the floor on what this machine can
    // resolve — the 1% budget is for the *systematic* cost sitting above
    // that noise, otherwise the gate fails on any loaded single-core box
    // whose back-to-back identical runs already differ by a few percent.
    const double base_min = *std::min_element(base_runs.begin(), base_runs.end());
    const double noise_pct =
        base_qps > 0 ? 100.0 * (1.0 - base_min / base_qps) : 0.0;
    std::printf("\nadmin scrape under load (64 clients, best of 3): base qps "
                "%.0f, scraped qps %.0f (cost %.2f%%, measurement noise "
                "%.2f%%), scrapes=%llu\n",
                base_qps, scraped_qps, scrape_cost_pct, noise_pct,
                static_cast<unsigned long long>(scrapes));
    if (scrapes == 0) {
      std::printf("MISMATCH (BUG): the admin endpoint answered no scrapes\n");
      admin_ok = false;
    }
    if (scrape_cost_pct > 1.0 + noise_pct) {
      std::printf("MISMATCH (BUG): scraping cost %.2f%% QPS (budget 1%% + "
                  "%.2f%% noise)\n",
                  scrape_cost_pct, noise_pct);
      admin_ok = false;
    }
    // The scrape must carry the estimated quantiles (the live view of the
    // p50/p99 this bench measures externally).
    if (last_scrape.find("serve_request_latency_us_q{q=\"0.99\"}") ==
        std::string::npos) {
      std::printf("MISMATCH (BUG): /metrics is missing the p99 estimate\n");
      admin_ok = false;
    }
    const auto est_p99 =
        merged_snapshot().quantile("serve.request_latency_us", 0.99);
    std::printf("histogram-estimated request p99: %.0f us\n",
                est_p99.value_or(0.0));
  }
  server.stop();

  bool ok = admin_ok;
  if (mismatches.load() > 0) {
    std::printf("\nMISMATCH (BUG): %d client(s) saw a wrong/missing answer\n",
                mismatches.load());
    ok = false;
  }
  const auto snap = st.metrics();
  const auto it = snap.counters.find("store.payload_bytes_read");
  if (it != snap.counters.end() && it->second != 0) {
    std::printf("\nMISMATCH (BUG): serving read %llu payload bytes\n",
                static_cast<unsigned long long>(it->second));
    ok = false;
  }

  {
    std::ofstream out("bench_metrics.json");
    if (out) {
      out << "{\"samples\":" << samples << ",\"levels\":[";
      for (std::size_t i = 0; i < results.size(); ++i) {
        const auto& r = results[i];
        out << (i ? "," : "") << "{\"clients\":" << r.clients
            << ",\"responses\":" << r.responses << ",\"p50_us\":" << r.p50_us
            << ",\"p99_us\":" << r.p99_us << ",\"qps\":" << r.qps << "}";
      }
      out << "],\"identical\":" << (mismatches.load() == 0 ? "true" : "false")
          << ",\"admin\":{\"base_qps\":" << base_qps
          << ",\"scraped_qps\":" << scraped_qps << ",\"scrapes\":" << scrapes
          << ",\"cost_pct\":" << scrape_cost_pct << "}}\n";
    }
  }

  if (!baseline.empty()) {
    std::printf("\n");
    if (!check_baseline(results, baseline, tolerance)) ok = false;
  }
  std::printf("\nExpected shape: p50 well under a millisecond at 1 client; "
              "p99 grows with\nconcurrency but stays in the low-millisecond "
              "band at 1024 clients; answers\nbyte-identical throughout and "
              "payloads never read.\n");
  return ok ? 0 : 1;
}
