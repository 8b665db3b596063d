#include "common.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "util/bytes.hpp"
#include "util/fsio.hpp"

namespace malnet::bench {

core::PipelineConfig paper_config() {
  core::PipelineConfig cfg;
  cfg.seed = 22;  // the study seed; all tables/figures regenerate from it
  return cfg;
}

namespace {
core::Pipeline& pipeline_instance() {
  static core::Pipeline pipeline(paper_config());
  return pipeline;
}
}  // namespace

const core::StudyResults& full_study() {
  static const core::StudyResults kResults = [] {
    core::StudyResults r = pipeline_instance().run();
    // Every bench process leaves the run's registry snapshot behind, so a
    // perf regression can be cross-checked against its op counts.
    std::ofstream out("bench_metrics.json");
    if (out) out << r.metrics.to_json() << '\n';
    return r;
  }();
  return kResults;
}

const core::Pipeline& full_pipeline() {
  (void)full_study();
  return pipeline_instance();
}

void header(const char* experiment_id, const char* what) {
  std::printf("=== MalNet reproduction: %s — %s ===\n", experiment_id, what);
}

void seed_note() {
  std::printf("(deterministic full-study run, seed %llu; paper values shown "
              "for comparison)\n\n",
              static_cast<unsigned long long>(paper_config().seed));
}

void banner(const char* experiment_id, const char* what) {
  header(experiment_id, what);
  seed_note();
}

std::optional<obs::json::Value> load_baseline(
    const std::string& path, const char* bench, bool (*valid)(const obs::json::Value&)) {
  util::Bytes bytes;
  try {
    bytes = util::read_file(path);
  } catch (const std::runtime_error&) {
    std::printf("BASELINE: cannot open %s\n", path.c_str());
    return std::nullopt;
  }
  auto doc = obs::json::parse(util::to_string(bytes));
  if (!doc || !valid(*doc)) {
    std::printf("BASELINE: %s is not a %s metrics file\n", path.c_str(), bench);
    return std::nullopt;
  }
  return doc;
}

}  // namespace malnet::bench
