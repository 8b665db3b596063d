// Shared harness for the benches: runs the paper-scale study once per
// process and hands out the datasets, prints the standard banner, and loads
// the committed baselines the CI gates compare against. Every bench prints
// measured values next to the paper's, per the experiment index in DESIGN.md.
#pragma once

#include <optional>
#include <string>

#include "core/pipeline.hpp"
#include "obs/json.hpp"

namespace malnet::bench {

/// The paper-scale configuration: 1447 samples, full probing campaign.
[[nodiscard]] core::PipelineConfig paper_config();

/// Runs (once per process) and returns the full-study datasets.
[[nodiscard]] const core::StudyResults& full_study();

/// The pipeline behind full_study() (for asdb / threat-intel access).
[[nodiscard]] const core::Pipeline& full_pipeline();

/// The "=== MalNet reproduction: <id> — <what> ===" line.
void header(const char* experiment_id, const char* what);

/// The note that every number comes from the deterministic paper-seed study,
/// followed by a blank line.
void seed_note();

/// Standard bench banner: header() then seed_note().
void banner(const char* experiment_id, const char* what);

/// Loads a committed bench baseline (JSON). Prints why and returns nullopt
/// when the file cannot be opened, or when it does not parse or `valid`
/// rejects it ("<path> is not a <bench> metrics file"), so a gate never
/// passes vacuously.
[[nodiscard]] std::optional<obs::json::Value> load_baseline(
    const std::string& path, const char* bench, bool (*valid)(const obs::json::Value&));

}  // namespace malnet::bench
