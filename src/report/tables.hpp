// Emitters for the paper's tables, each returning a rendered text block
// with measured values (and the paper's value alongside where it has one),
// and paper_sections(): every table and figure of the evaluation in paper
// order, the one list the reproduction bench, the full_study example and the
// tests render from.
#pragma once

#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "intel/threat_intel.hpp"

namespace malnet::report {

/// Table 1: the five datasets and their sizes.
[[nodiscard]] std::string table1_datasets(const core::StudyResults& results);

/// Table 2: the top-10 ASes hosting C2 IPs, with AS metadata and the
/// concentration fraction (paper: 69.7%).
[[nodiscard]] std::string table2_top_ases(const core::StudyResults& results,
                                          const asdb::AsDatabase& asdb);

/// Table 3: unreported C2 percentages, same-day vs the May 7 re-query.
[[nodiscard]] std::string table3_ti_miss(const core::StudyResults& results);

/// Table 4: exploited vulnerabilities with measured per-vuln sample counts.
[[nodiscard]] std::string table4_vulnerabilities(const core::StudyResults& results);

/// Table 7: per-vendor detection counts over up to 1000 discovered C2 IPs.
[[nodiscard]] std::string table7_vendors(const core::StudyResults& results,
                                         const intel::ThreatIntel& ti,
                                         std::int64_t query_day);

struct PaperSection {
  std::string label;  // e.g. "Table 1", "Figure 4 / Table 5"
  std::string title;  // e.g. "dataset sizes"
  std::string text;   // the emitter's rendered block
};

/// Tables 1, 2, 3, 4 and 7, then Figures 1-13, rendered from one study.
/// Table 5 (the probed ports) is part of the Figure 4 section. `requery_day`
/// is the Table 7 threat-intel query day.
[[nodiscard]] std::vector<PaperSection> paper_sections(const core::StudyResults& results,
                                                       const asdb::AsDatabase& asdb,
                                                       const intel::ThreatIntel& ti,
                                                       std::int64_t requery_day);

}  // namespace malnet::report
