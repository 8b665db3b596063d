// malnet::store — crash-safe segment store, resume and the query layer.
//
// The load-bearing contract (ISSUE: checkpoint/resume): whatever subset of
// shard segments survived a kill, `--resume` produces a merged artifact
// byte-identical to the uninterrupted run. The tests below prove it for
// hand-picked subsets, for generator-driven kill masks under hostile
// chaos, and for deliberately corrupted segments (which must be re-run,
// not trusted).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/parallel_study.hpp"
#include "fault/fault.hpp"
#include "profile/registry.hpp"
#include "report/dataset_io.hpp"
#include "store/query.hpp"
#include "store/store.hpp"
#include "testkit/check.hpp"
#include "testkit/gen.hpp"
#include "testkit/tempdir.hpp"
#include "util/fsio.hpp"

using namespace malnet;
using namespace malnet::store;
namespace fs = std::filesystem;

namespace {

core::ParallelStudyConfig study_config(
    std::uint64_t seed, int samples, int shards, int jobs,
    faultsim::Profile chaos = faultsim::Profile::kNone) {
  core::ParallelStudyConfig cfg;
  cfg.base.seed = seed;
  cfg.base.world.total_samples = samples;
  cfg.base.run_probe_campaign = false;
  cfg.base.chaos = chaos;
  cfg.base.chaos_seed = 7;
  cfg.shards = shards;
  cfg.jobs = jobs;
  return cfg;
}

/// Fresh store directory `name` inside this process's scratch directory.
std::string fresh_dir(const std::string& name) {
  static const testkit::ScopedTempDir kRoot("store");
  const auto dir = kRoot.file(name);
  fs::remove_all(dir);
  return dir;
}

util::Bytes study_bytes(const core::ParallelStudyConfig& cfg) {
  return report::serialize_datasets(core::ParallelStudy(cfg).run());
}

/// Commits the shards selected by `mask` exactly as run_store_study would
/// (same fingerprint, seed and shard identity) — the on-disk state after a
/// kill that let those shards finish.
void commit_shard_subset(Store& st, const core::ParallelStudyConfig& cfg,
                         unsigned mask) {
  const auto fingerprint = study_fingerprint(cfg);
  for (int i = 0; i < cfg.shards; ++i) {
    if ((mask & (1u << i)) == 0) continue;
    core::Pipeline pipeline(core::shard_config(cfg.base, cfg.shards, i));
    st.commit(pipeline.run(), SegmentKind::kShard, fingerprint,
              static_cast<std::uint32_t>(i),
              static_cast<std::uint32_t>(cfg.shards),
              core::shard_seed(cfg.base.seed, cfg.shards, i));
  }
}

std::uint64_t counter_value(const Store& st, const std::string& name) {
  const auto snap = st.metrics();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

}  // namespace

TEST(SegmentIndex, EncodeDecodeRoundTrip) {
  const auto results = core::ParallelStudy(study_config(22, 40, 2, 2)).run();
  const auto index = build_index(results);
  EXPECT_EQ(index.samples, results.d_samples.size());
  EXPECT_EQ(index.distinct_c2s(), results.d_c2s.size());
  util::ByteWriter w;
  encode_index(w, index);
  util::ByteReader r(util::BytesView{w.bytes()});
  const auto decoded = decode_index(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(decoded, index);
}

TEST(SegmentIndex, MergeMatchesStudyMerge) {
  // Index merge must commute with dataset merge: merging per-shard indexes
  // gives the index of the merged shards, so multi-segment query answers
  // always match what a monolithic StudyResults would report.
  const auto cfg = study_config(22, 60, 3, 1);
  std::vector<core::StudyResults> parts;
  SegmentIndex merged_index;
  for (int i = 0; i < cfg.shards; ++i) {
    core::Pipeline pipeline(core::shard_config(cfg.base, cfg.shards, i));
    parts.push_back(pipeline.run());
    merged_index.merge(build_index(parts.back()));
  }
  const auto merged = core::merge_study_results(std::move(parts));
  EXPECT_EQ(merged_index, build_index(merged));
}

TEST(SegmentCodec, HeaderRoundTripAndHash) {
  const auto results = core::ParallelStudy(study_config(5, 20, 1, 1)).run();
  SegmentHeader header;
  header.kind = SegmentKind::kIngest;
  header.fingerprint = 0xABCDEF;
  header.seed = 42;
  const auto payload = report::serialize_datasets(results);
  const auto bytes =
      encode_segment(header, build_index(results), util::BytesView{payload});
  const auto decoded = decode_segment_header(util::BytesView{bytes});
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->kind, SegmentKind::kIngest);
  EXPECT_EQ(decoded->fingerprint, 0xABCDEFu);
  EXPECT_EQ(decoded->seed, 42u);
  EXPECT_EQ(kSegmentHeaderSize + decoded->index_len + decoded->payload_len,
            bytes.size());

  const auto hash = content_hash(util::BytesView{bytes});
  EXPECT_EQ(hash.size(), 64u);
  auto tampered = bytes;
  tampered.back() ^= 0xFF;
  EXPECT_NE(content_hash(util::BytesView{tampered}), hash);
  // Short/garbage headers must be rejected, not misparsed.
  EXPECT_FALSE(decode_segment_header(util::BytesView{bytes}.subspan(0, 10)));
  auto bad_magic = bytes;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(decode_segment_header(util::BytesView{bad_magic}));
}

TEST(Store, CommitPersistsAcrossReopen) {
  const auto dir = fresh_dir("reopen");
  const auto results = core::ParallelStudy(study_config(7, 20, 1, 1)).run();
  SegmentMeta committed;
  {
    Store st(dir);
    committed = st.commit(results, SegmentKind::kIngest, 0, 0, 1, 7);
    // Committing identical content again is a no-op returning the entry.
    const auto again = st.commit(results, SegmentKind::kIngest, 0, 0, 1, 7);
    EXPECT_EQ(again.seq, committed.seq);
    EXPECT_EQ(st.segments().size(), 1u);
  }
  Store reopened(dir);
  const auto segs = reopened.segments();
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0].hash, committed.hash);
  EXPECT_EQ(segs[0].file, committed.file);
  EXPECT_EQ(segs[0].kind, SegmentKind::kIngest);
  const auto loaded = reopened.load_payload(segs[0]);
  EXPECT_EQ(report::serialize_datasets(loaded),
            report::serialize_datasets(results));
}

TEST(Store, StoreStudyMatchesParallelStudyAndResumes) {
  const auto dir = fresh_dir("full");
  const auto cfg = study_config(22, 60, 4, 2);
  const auto baseline = study_bytes(cfg);

  Store st(dir);
  const auto first = run_store_study(cfg, st, /*resume=*/false);
  EXPECT_EQ(report::serialize_datasets(first), baseline);
  EXPECT_EQ(st.segments().size(), 4u);

  // Second run resumes every shard: no pipeline executes, same bytes.
  const auto resumed = run_store_study(cfg, st, /*resume=*/true);
  EXPECT_EQ(report::serialize_datasets(resumed), baseline);
  EXPECT_EQ(counter_value(st, "store.resume_hits"), 4u);
  EXPECT_EQ(counter_value(st, "store.resume_misses"), 0u);
}

TEST(Store, FingerprintCoversOutputChangingKnobs) {
  const auto base = study_config(22, 60, 4, 2);
  const auto fp = study_fingerprint(base);
  EXPECT_EQ(fp, study_fingerprint(base));  // stable

  auto seed = base;
  seed.base.seed = 23;
  auto samples = base;
  samples.base.world.total_samples = 61;
  auto shards = base;
  shards.shards = 5;
  auto chaos = base;
  chaos.base.chaos = faultsim::Profile::kHostile;
  auto chaos_seed = base;
  chaos_seed.base.chaos_seed = 99;
  for (const auto& changed : {seed, samples, shards, chaos, chaos_seed}) {
    EXPECT_NE(study_fingerprint(changed), fp);
  }
  // jobs never changes study output, so it must not invalidate a resume.
  auto jobs = base;
  jobs.jobs = 1;
  EXPECT_EQ(study_fingerprint(jobs), fp);
}

TEST(Store, FingerprintCoversProfileSetAndVariant) {
  const auto base = study_config(22, 60, 4, 2);
  const auto fp = study_fingerprint(base);

  // Loading files byte-equivalent to the builtins must not invalidate a
  // resume (the committed profiles/ directory is exactly such a set).
  const testkit::ScopedTempDir tmp("fp_profiles");
  const fs::path dir = tmp.path();
  for (const auto* p : profile::Registry::builtin().all()) {
    std::ofstream(dir / (p->name + ".json")) << p->to_pretty_json();
  }
  auto same = std::make_shared<profile::Registry>();
  ASSERT_FALSE(same->load_dir(dir.string()).has_value());
  auto with_same = base;
  with_same.base.profiles = same;
  EXPECT_EQ(study_fingerprint(with_same), fp);

  // ...while a changed or added profile must invalidate it.
  auto variant = profile::builtin_profile(proto::Family::kMirai);
  variant.name = "mirai-fallback";
  variant.handshake_magic = 2;
  variant.extra_fallbacks = 2;
  variant.attacker_quota = 0;
  std::ofstream(dir / "zz-variant.json") << variant.to_pretty_json();
  auto changed = std::make_shared<profile::Registry>();
  ASSERT_FALSE(changed->load_dir(dir.string()).has_value());
  auto with_changed = base;
  with_changed.base.profiles = changed;
  EXPECT_NE(study_fingerprint(with_changed), fp);

  // Variant routing changes every dataset, so it is fingerprinted too.
  auto routed = with_changed;
  routed.base.world.variant_name = "mirai-fallback";
  routed.base.world.variant_fraction = 0.5;
  EXPECT_NE(study_fingerprint(routed), study_fingerprint(with_changed));
}

TEST(Store, ResumeFromPartialCommitMatrix) {
  // A kill between shard commits leaves an arbitrary prefix/subset durable.
  // For every jobs x chaos combination, resuming from a two-of-four subset
  // must reproduce the uninterrupted artifact byte-for-byte.
  int case_id = 0;
  for (const int jobs : {1, 4}) {
    for (const auto chaos :
         {faultsim::Profile::kNone, faultsim::Profile::kHostile}) {
      const auto cfg = study_config(22, 48, 4, jobs, chaos);
      const auto baseline = study_bytes(cfg);
      const auto dir = fresh_dir("matrix" + std::to_string(case_id++));
      Store st(dir);
      commit_shard_subset(st, cfg, 0b0101);  // shards 0 and 2 survived
      const auto resumed = run_store_study(cfg, st, /*resume=*/true);
      EXPECT_EQ(report::serialize_datasets(resumed), baseline)
          << "jobs=" << jobs << " chaos=" << static_cast<int>(chaos);
      EXPECT_EQ(counter_value(st, "store.resume_hits"), 2u);
      EXPECT_EQ(counter_value(st, "store.resume_misses"), 2u);
      EXPECT_EQ(st.segments().size(), 4u);
    }
  }
}

TEST(StoreProps, AnyKillPointResumesToIdenticalBytes) {
  // Property (ISSUE satellite): for ANY subset of committed shards — i.e.
  // a kill at any point between shard commits — resume + merge equals the
  // uninterrupted run, under hostile chaos and parallel workers.
  const auto cfg = study_config(33, 48, 4, 4, faultsim::Profile::kHostile);
  const auto baseline = study_bytes(cfg);
  int case_id = 0;
  testkit::CheckConfig check_cfg;
  check_cfg.cases = 6;
  check_cfg.name = "kill-point resume identity";
  check_cfg.env_overrides = false;  // the dir-per-case counter is not shrink-safe
  const auto r = testkit::check(
      testkit::ints<unsigned>(0, 15),
      [&](unsigned mask) {
        const auto dir = fresh_dir("kill" + std::to_string(case_id++));
        Store st(dir);
        commit_shard_subset(st, cfg, mask);
        const auto resumed = run_store_study(cfg, st, /*resume=*/true);
        return report::serialize_datasets(resumed) == baseline;
      },
      check_cfg);
  EXPECT_TRUE(r.ok) << r.summary();
}

TEST(Store, CorruptSegmentIsDetectedAndReRun) {
  const auto dir = fresh_dir("corrupt");
  const auto cfg = study_config(22, 40, 2, 1);
  const auto baseline = study_bytes(cfg);
  Store st(dir);
  (void)run_store_study(cfg, st, /*resume=*/false);

  // Simulate a torn write the commit protocol can't rule out for files a
  // third party scribbled on: flip one payload byte in shard 0's segment.
  const auto segs = st.segments();
  ASSERT_EQ(segs.size(), 2u);
  const auto victim = dir + "/segments/" + segs[0].file;
  {
    std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(-1, std::ios::end);
    const char bit = 0x01;
    f.write(&bit, 1);
  }
  Store reopened(dir);
  const auto resumed = run_store_study(cfg, reopened, /*resume=*/true);
  EXPECT_EQ(report::serialize_datasets(resumed), baseline);
  EXPECT_EQ(counter_value(reopened, "store.verify_failures"), 1u);
  EXPECT_EQ(counter_value(reopened, "store.resume_hits"), 1u);
  EXPECT_EQ(counter_value(reopened, "store.resume_misses"), 1u);
}

TEST(Store, OpenCollectsCrashLitter) {
  const auto dir = fresh_dir("gc");
  {
    Store st(dir);
    const auto results = core::ParallelStudy(study_config(7, 20, 1, 1)).run();
    st.commit(results, SegmentKind::kIngest, 0, 0, 1, 7);
  }
  // Crash litter: a stale atomic-write temp (crash before rename) and a
  // fully-written but unreferenced segment (crash before the manifest
  // rename).
  std::ofstream(dir + "/.MANIFEST.tmp12345") << "torn";
  std::ofstream(dir + "/segments/deadbeefdeadbeef.seg") << "orphan";
  std::ofstream(dir + "/segments/.deadbeef.seg.tmp99") << "torn";
  Store reopened(dir);
  EXPECT_EQ(counter_value(reopened, "store.orphans_removed"), 3u);
  EXPECT_FALSE(fs::exists(dir + "/.MANIFEST.tmp12345"));
  EXPECT_FALSE(fs::exists(dir + "/segments/deadbeefdeadbeef.seg"));
  EXPECT_FALSE(fs::exists(dir + "/segments/.deadbeef.seg.tmp99"));
  ASSERT_EQ(reopened.segments().size(), 1u);
  EXPECT_NO_THROW((void)reopened.load_payload(reopened.segments()[0]));
}

TEST(Store, CorruptManifestThrows) {
  const auto dir = fresh_dir("badmanifest");
  { Store st(dir); }
  std::ofstream(dir + "/MANIFEST") << "not a manifest\n";
  EXPECT_THROW(Store{dir}, std::runtime_error);
}

TEST(Query, AnswersFromIndexesOnlyAndMatchesMonolithic) {
  const auto dir = fresh_dir("query");
  const auto cfg = study_config(22, 60, 3, 2);
  Store writer(dir);
  const auto monolithic = run_store_study(cfg, writer, /*resume=*/false);

  // A fresh handle models `malnetctl query`: nothing cached, only the
  // per-segment indexes may be read.
  Store st(dir);
  QueryEngine engine(st);
  EXPECT_EQ(engine.merged().samples, monolithic.d_samples.size());
  EXPECT_EQ(engine.merged().distinct_c2s(), monolithic.d_c2s.size());
  EXPECT_EQ(engine.merged().exploits, monolithic.d_exploits.size());
  EXPECT_EQ(engine.merged().ddos, monolithic.d_ddos.size());

  // The liveness series must equal the one recomputed from the full
  // datasets.
  std::map<std::int64_t, std::uint64_t> expected;
  for (const auto& [addr, rec] : monolithic.d_c2s) {
    for (const auto day : rec.live_days) ++expected[day];
  }
  EXPECT_EQ(engine.merged().liveness_series(), expected);

  const auto totals = engine.answer("totals");
  EXPECT_NE(totals.find("samples=" + std::to_string(monolithic.d_samples.size())),
            std::string::npos)
      << totals;
  EXPECT_EQ(engine.answer("bogus").rfind("err ", 0), 0u);

  // Partial-read proof: indexes were read, payloads never.
  EXPECT_EQ(counter_value(st, "store.segments_opened"), 3u);
  EXPECT_GT(counter_value(st, "store.index_bytes_read"), 0u);
  EXPECT_EQ(counter_value(st, "store.payload_bytes_read"), 0u);
  EXPECT_EQ(counter_value(st, "store.queries"), 2u);
}

TEST(Query, IngestAndCompactPreserveAnswers) {
  const auto dir = fresh_dir("compact");
  Store st(dir);
  const auto batch_a = core::ParallelStudy(study_config(5, 30, 1, 1)).run();
  const auto batch_b = core::ParallelStudy(study_config(6, 30, 1, 1)).run();
  st.commit(batch_a, SegmentKind::kIngest, 0, 0, 1, 5);
  st.commit(batch_b, SegmentKind::kIngest, 0, 0, 1, 6);

  QueryEngine before(st);
  const auto totals_before = before.answer("totals");
  const auto liveness_before = before.answer("c2-liveness");
  const auto families_before = before.answer("families");
  const auto exploits_before = before.answer("exploits");

  const auto old_files = st.segments();
  const auto compacted = st.compact();
  ASSERT_EQ(st.segments().size(), 1u);
  EXPECT_EQ(st.segments()[0].kind, SegmentKind::kCompacted);
  for (const auto& m : old_files) {
    if (m.file != compacted.file) {
      EXPECT_FALSE(fs::exists(dir + "/segments/" + m.file)) << m.file;
    }
  }
  // Compacting twice is a no-op.
  EXPECT_EQ(st.compact().hash, compacted.hash);

  QueryEngine after(st);
  // `segments=` in totals legitimately changes; everything else must not.
  EXPECT_EQ(after.answer("c2-liveness"), liveness_before);
  EXPECT_EQ(after.answer("families"), families_before);
  EXPECT_EQ(after.answer("exploits"), exploits_before);
  EXPECT_EQ(totals_before.substr(0, totals_before.find(" segments=")),
            after.answer("totals").substr(0, totals_before.find(" segments=")));

  // Compaction survives reopen (the new manifest is durable).
  Store reopened(dir);
  ASSERT_EQ(reopened.segments().size(), 1u);
  EXPECT_EQ(reopened.segments()[0].hash, compacted.hash);
}

TEST(Query, ServeLoopAnswersUntilQuit) {
  const auto dir = fresh_dir("serve");
  Store st(dir);
  st.commit(core::ParallelStudy(study_config(5, 20, 1, 1)).run(),
            SegmentKind::kIngest, 0, 0, 1, 5);
  std::istringstream in("totals\n\nbogus\nquit\nnever-reached\n");
  std::ostringstream out;
  serve_loop(st, in, out);
  const auto text = out.str();
  EXPECT_NE(text.find("malnet-store serving"), std::string::npos);
  EXPECT_NE(text.find("samples=20"), std::string::npos);
  EXPECT_NE(text.find("err unknown command bogus"), std::string::npos);
  EXPECT_EQ(text.find("never-reached"), std::string::npos);
}

TEST(DatasetIo, SaveDatasetsReplacesAtomically) {
  // Regression (ISSUE satellite): save_datasets used to stream straight
  // into the destination, so a crash mid-write left a torn artifact. Now it
  // stages to a hidden temp and renames; the destination either keeps its
  // old content or has the complete new one, and no temp survives.
  const testkit::ScopedTempDir tmp("atomic");
  const auto& dir = tmp.path();
  const auto path = dir + "/atomic.mds";
  std::ofstream(path) << "previous artifact";
  const auto results = core::ParallelStudy(study_config(7, 20, 1, 1)).run();
  report::save_datasets(results, path);
  const auto reloaded = report::load_datasets(path);
  EXPECT_EQ(report::serialize_datasets(reloaded),
            report::serialize_datasets(results));
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_FALSE(util::is_atomic_temp_name(entry.path().filename().string()))
        << entry.path();
  }
}

// --- health probe (the /healthz backing, ISSUE 8) ---------------------------

TEST(Store, HealthReportsOkOnAValidStore) {
  const auto dir = fresh_dir("health_ok");
  Store st(dir);
  auto h = st.health();
  EXPECT_TRUE(h.ok) << h.detail;
  EXPECT_EQ(h.segments, 0u);

  const auto results = core::ParallelStudy(study_config(7, 20, 1, 1)).run();
  (void)st.commit(results, SegmentKind::kIngest, 0, 0, 1, 7);
  h = st.health();
  EXPECT_TRUE(h.ok) << h.detail;
  EXPECT_EQ(h.segments, 1u);
  EXPECT_EQ(h.detail, "ok");
}

TEST(Store, HealthDetectsManifestDamageWhileServing) {
  const auto dir = fresh_dir("health_bad");
  Store st(dir);
  const auto results = core::ParallelStudy(study_config(7, 20, 1, 1)).run();
  (void)st.commit(results, SegmentKind::kIngest, 0, 0, 1, 7);
  ASSERT_TRUE(st.health().ok);

  // Damage the on-disk manifest under the open handle — what /healthz has
  // to catch on a live server without crashing it.
  std::ofstream(dir + "/MANIFEST") << "not a manifest\n";
  const auto h = st.health();
  EXPECT_FALSE(h.ok);
  EXPECT_FALSE(h.detail.empty());
  EXPECT_NE(h.detail, "ok");

  std::error_code ec;
  fs::remove(dir + "/MANIFEST", ec);
  EXPECT_FALSE(st.health().ok);  // missing manifest is unhealthy too
}
