// The paper's headline-claim scorecard: every scalar claim from the
// abstract/§3–§5, checked against the measured study with an explicit
// tolerance. This is the reproduction's self-test — bench_paper prints it
// after the tables and figures, and the test suite asserts it stays green.
#pragma once

#include <string>
#include <vector>

#include "asdb/asdb.hpp"
#include "core/pipeline.hpp"

namespace malnet::report {

struct ClaimCheck {
  std::string id;       // e.g. "S3.2-second-probe"
  std::string claim;    // human-readable statement
  double paper = 0;     // the paper's value
  double measured = 0;  // ours
  double abs_tol = 0;   // |measured - paper| tolerance for a pass
  bool pass = false;

  [[nodiscard]] double error() const { return measured - paper; }
};

/// Evaluates every headline claim against `results`.
[[nodiscard]] std::vector<ClaimCheck> check_claims(const core::StudyResults& results,
                                                   const asdb::AsDatabase& asdb);

/// Renders the scorecard as a text table with a pass/total footer.
[[nodiscard]] std::string render_claims(const std::vector<ClaimCheck>& checks);

}  // namespace malnet::report
