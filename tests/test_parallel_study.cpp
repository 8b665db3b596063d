// ParallelStudy: seed-sharded execution must be a pure function of
// (config, shards) — never of the worker count or thread scheduling — and
// a single shard must reproduce the plain pipeline byte-for-byte.
#include <gtest/gtest.h>

#include <set>

#include "core/parallel_study.hpp"
#include "core/pipeline.hpp"
#include "fault/fault.hpp"
#include "profile/registry.hpp"
#include "report/dataset_io.hpp"
#include "report/tables.hpp"
#include "sim/network.hpp"
#include "util/rng.hpp"

using namespace malnet;
using namespace malnet::core;

namespace {

PipelineConfig small_config(int samples = 120) {
  PipelineConfig cfg;
  cfg.seed = 22;
  cfg.world.total_samples = samples;
  cfg.run_probe_campaign = false;
  return cfg;
}

util::Bytes run_sharded(const PipelineConfig& base, int shards, int jobs) {
  ParallelStudyConfig cfg;
  cfg.base = base;
  cfg.shards = shards;
  cfg.jobs = jobs;
  const auto results = ParallelStudy(cfg).run();
  return report::serialize_datasets(results);
}

}  // namespace

TEST(ShardSeed, SingleShardKeepsBaseSeed) {
  EXPECT_EQ(shard_seed(22, 1, 0), 22u);
  EXPECT_EQ(shard_seed(0xDEADBEEF, 1, 0), 0xDEADBEEFull);
}

TEST(ShardSeed, SiblingShardsAreDistinctAndStable) {
  std::set<std::uint64_t> seeds;
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(seeds.insert(shard_seed(22, 8, i)).second) << "shard " << i;
  }
  // Derivation is positional: the same (seed, index) always maps to the
  // same shard seed, and differing base seeds decorrelate.
  EXPECT_EQ(shard_seed(22, 8, 3), shard_seed(22, 8, 3));
  EXPECT_NE(shard_seed(22, 8, 3), shard_seed(23, 8, 3));
  EXPECT_THROW((void)shard_seed(22, 4, 4), std::invalid_argument);
}

TEST(ShardConfig, SingleShardIsVerbatim) {
  const auto base = small_config();
  const auto cfg = shard_config(base, 1, 0);
  EXPECT_EQ(cfg.seed, base.seed);
  EXPECT_EQ(cfg.world.shard_count, 1);
  EXPECT_EQ(cfg.world.shard_index, 0);
  EXPECT_EQ(cfg.run_probe_campaign, base.run_probe_campaign);
}

TEST(ShardConfig, ProbeCampaignOnlyOnShardZero) {
  PipelineConfig base = small_config();
  base.run_probe_campaign = true;
  EXPECT_TRUE(shard_config(base, 4, 0).run_probe_campaign);
  for (int i = 1; i < 4; ++i) {
    EXPECT_FALSE(shard_config(base, 4, i).run_probe_campaign) << "shard " << i;
  }
}

TEST(ShardConfig, ShardWorldsPartitionThePlannedPopulation) {
  // The union of the shard worlds' plans must cover the full study exactly:
  // same total sample count, same planned C2 count, no shared slots.
  const auto base = small_config(97);

  sim::EventScheduler sched;
  sim::Network net(sched);
  botnet::WorldConfig wc = base.world;
  wc.seed = base.seed;
  botnet::World plain(net, wc);

  std::size_t sample_sum = 0, c2_sum = 0;
  for (int i = 0; i < 4; ++i) {
    const auto cfg = shard_config(base, 4, i);
    sim::EventScheduler ssched;
    sim::Network snet(ssched);
    botnet::WorldConfig swc = cfg.world;
    swc.seed = cfg.seed;
    botnet::World shard(snet, swc);
    sample_sum += shard.samples().size();
    c2_sum += shard.c2_plan().size();
  }
  EXPECT_EQ(sample_sum, plain.samples().size());
  EXPECT_EQ(c2_sum, plain.c2_plan().size());
}

TEST(ParallelStudy, OneShardEqualsPlainPipeline) {
  const auto base = small_config();
  Pipeline plain(base);
  const auto expect = report::serialize_datasets(plain.run());
  EXPECT_EQ(run_sharded(base, 1, 4), expect);
}

TEST(ParallelStudy, DeterministicAcrossWorkerCounts) {
  const auto base = small_config();
  const auto serial = run_sharded(base, 4, 1);
  const auto contended = run_sharded(base, 4, 8);
  EXPECT_EQ(serial, contended) << "output depends on thread scheduling";
}

TEST(ParallelStudy, MergedResultsFeedTheReportModule) {
  ParallelStudyConfig cfg;
  cfg.base = small_config();
  cfg.shards = 4;
  const auto merged = ParallelStudy(cfg).run();

  // Shards cover every sample slot exactly once.
  EXPECT_EQ(merged.d_samples.size(), 120u);
  std::set<std::string> shas;
  for (const auto& s : merged.d_samples) {
    EXPECT_TRUE(shas.insert(s.sha256).second) << "duplicate analysis record";
  }
  for (const auto& [addr, rec] : merged.d_c2s) {
    EXPECT_EQ(addr, rec.address);
    EXPECT_GE(rec.distinct_samples, 1);
  }
  EXPECT_GT(merged.sim_events, 0u);
  EXPECT_GT(merged.sandbox_runs, 0u);

  const auto table1 = report::table1_datasets(merged);
  EXPECT_NE(table1.find("D-Samples"), std::string::npos);
  EXPECT_NE(report::table3_ti_miss(merged), "");

  // Merged datasets round-trip through the MDS artifact like any other.
  const auto bytes = report::serialize_datasets(merged);
  const auto reloaded = report::parse_datasets(bytes);
  ASSERT_TRUE(reloaded.has_value());
  EXPECT_EQ(report::serialize_datasets(*reloaded), bytes);
}

TEST(ParallelStudy, RunIsSingleShot) {
  ParallelStudyConfig cfg;
  cfg.base = small_config(40);
  ParallelStudy study(cfg);
  (void)study.run();
  EXPECT_THROW((void)study.run(), std::logic_error);
}

TEST(MergeStudyResults, C2CollisionsMergeDeterministically) {
  StudyResults a, b;
  C2Record ra;
  ra.address = "60.1.2.3";
  ra.discovery_day = 5;
  ra.referred_days = {5, 9};
  ra.live_days = {5};
  ra.distinct_samples = 2;
  ra.vt_vendors_same_day = 1;
  ra.vt_malicious_same_day = true;
  C2Record rb;
  rb.address = "60.1.2.3";
  rb.discovery_day = 3;
  rb.referred_days = {3, 5};
  rb.live_days = {3};
  rb.distinct_samples = 1;
  rb.asn = 4134;
  rb.vt_malicious_requery = true;
  a.d_c2s["60.1.2.3"] = ra;
  b.d_c2s["60.1.2.3"] = rb;

  std::vector<StudyResults> parts;
  parts.push_back(std::move(a));
  parts.push_back(std::move(b));
  const auto merged = merge_study_results(std::move(parts));
  ASSERT_EQ(merged.d_c2s.size(), 1u);
  const auto& rec = merged.d_c2s.at("60.1.2.3");
  EXPECT_EQ(rec.discovery_day, 3);  // earlier discovery owns identity
  EXPECT_EQ(rec.asn, 4134u);
  EXPECT_EQ(rec.referred_days, (std::vector<std::int64_t>{3, 5, 9}));
  EXPECT_EQ(rec.live_days, (std::vector<std::int64_t>{3, 5}));
  EXPECT_EQ(rec.distinct_samples, 3);
  EXPECT_TRUE(rec.vt_malicious_same_day);
  EXPECT_TRUE(rec.vt_malicious_requery);
}

// --- golden output -----------------------------------------------------------
//
// Speed-ups must not move a byte of study output. These digests pin the MDS
// datasets and the merged metrics JSON of a few small configs; they were
// recorded before the sandbox's allocation work and must only change with
// an intended change to what a study measures.

namespace {

struct StudyDigest {
  std::uint64_t datasets = 0;
  std::uint64_t metrics = 0;
};

StudyDigest digest_of(const ParallelStudyConfig& cfg) {
  const auto results = ParallelStudy(cfg).run();
  const auto mds = report::serialize_datasets(results);
  return {util::fnv1a64(std::string_view(reinterpret_cast<const char*>(mds.data()),
                                         mds.size())),
          util::fnv1a64(results.metrics.to_json())};
}

ParallelStudyConfig golden_config(int shards) {
  ParallelStudyConfig cfg;
  cfg.base = small_config(300);
  cfg.shards = shards;
  cfg.jobs = shards;
  return cfg;
}

}  // namespace

TEST(StudyGolden, OneShardWithCampaign) {
  auto cfg = golden_config(1);
  cfg.base.run_probe_campaign = true;
  cfg.base.probe_rounds = 4;
  const auto d = digest_of(cfg);
  EXPECT_EQ(d.datasets, 0xb6db414a7f0998fcull);
  EXPECT_EQ(d.metrics, 0xe0dc4cb199613a2aull);
}

TEST(StudyGolden, ThreeShardsHostileChaos) {
  auto cfg = golden_config(3);
  cfg.base.chaos = faultsim::Profile::kHostile;
  const auto d = digest_of(cfg);
  EXPECT_EQ(d.datasets, 0x7c930ca16ab0b6afull);
  EXPECT_EQ(d.metrics, 0x10b6934e21394883ull);
}

TEST(StudyGolden, LoadedProfileDirectory) {
  auto cfg = golden_config(2);
  auto reg = std::make_shared<profile::Registry>();
  ASSERT_FALSE(reg->load_dir(MALNET_PROFILES_DIR).has_value());
  cfg.base.profiles = std::move(reg);
  const auto d = digest_of(cfg);
  EXPECT_EQ(d.datasets, 0x1b79c5fb8102141aull);
  EXPECT_EQ(d.metrics, 0x1800cfc2c662f9f0ull);
}
