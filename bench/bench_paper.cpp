// The paper reproduction: runs the seed-22 full study once and prints every
// table and figure of the evaluation in paper order (Tables 1-4 and 7, then
// Figures 1-13), then the headline-claim scorecard (the abstract and §3-§5
// scalar findings, measured vs stated, with explicit tolerances). Exits 1
// when any claim misses.
#include <iostream>

#include "common.hpp"
#include "report/claims.hpp"
#include "report/tables.hpp"

int main() {
  using namespace malnet;
  const auto& results = bench::full_study();
  const auto& pipeline = bench::full_pipeline();
  bench::seed_note();
  for (const auto& s : report::paper_sections(results, pipeline.asdb(), pipeline.ti(),
                                              bench::paper_config().requery_day)) {
    bench::header(s.label.c_str(), s.title.c_str());
    std::cout << '\n' << s.text << std::endl;
  }

  bench::header("Headline claims", "abstract + section 3-5 scalar findings");
  std::cout << '\n';
  const auto checks = report::check_claims(results, pipeline.asdb());
  std::cout << report::render_claims(checks);
  int misses = 0;
  for (const auto& c : checks) misses += c.pass ? 0 : 1;
  return misses == 0 ? 0 : 1;
}
