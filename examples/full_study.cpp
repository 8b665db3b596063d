// full_study: the paper-scale reproduction — 1447 samples over the Appendix
// E week layout plus the two-week probing campaign. Prints every table and
// figure of the evaluation and exports the datasets as CSV.
#include <fstream>
#include <iostream>

#include "core/pipeline.hpp"
#include "report/export_series.hpp"
#include "report/tables.hpp"
#include "util/csv.hpp"
#include "util/log.hpp"

namespace {

void write_file(const std::string& path, const std::string& content) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write " + path);
  f << content;
  std::cout << "wrote " << path << '\n';
}

void export_csvs(const malnet::core::StudyResults& r) {
  using namespace malnet;
  util::CsvWriter c2s({"address", "is_dns", "ip", "port", "asn", "country",
                       "discovery_day", "distinct_samples", "live_days",
                       "observed_lifespan_days", "vt_same_day", "vt_requery"});
  for (const auto& [addr, rec] : r.d_c2s) {
    c2s.field(addr)
        .field(std::uint64_t{rec.is_dns})
        .field(net::to_string(rec.ip))
        .field(std::uint64_t{rec.port})
        .field(std::uint64_t{rec.asn})
        .field(rec.as_country)
        .field(rec.discovery_day)
        .field(std::int64_t{rec.distinct_samples})
        .field(std::uint64_t{rec.live_days.size()})
        .field(rec.observed_lifespan_days())
        .field(std::uint64_t{rec.vt_malicious_same_day})
        .field(std::uint64_t{rec.vt_malicious_requery});
    c2s.end_row();
  }
  write_file("d_c2s.csv", c2s.str());

  util::CsvWriter exploits({"sample", "day", "vulnerability", "downloader", "loader"});
  for (const auto& e : r.d_exploits) {
    exploits.field(e.sample_sha)
        .field(e.day)
        .field(vulndb::to_string(e.vuln))
        .field(e.downloader_host)
        .field(e.loader_name);
    exploits.end_row();
  }
  write_file("d_exploits.csv", exploits.str());

  util::CsvWriter ddos({"sample", "day", "c2", "attack_type", "family", "target",
                        "method", "observed_pps"});
  for (const auto& d : r.d_ddos) {
    ddos.field(d.sample_sha)
        .field(d.day)
        .field(d.c2_address)
        .field(proto::to_string(d.detection.command.type))
        .field(proto::to_string(d.detection.command.family))
        .field(net::to_string(d.detection.command.target))
        .field(core::to_string(d.detection.method))
        .field(d.detection.observed_pps, 1);
    ddos.end_row();
  }
  write_file("d_ddos.csv", ddos.str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace malnet;
  util::set_log_level(util::LogLevel::kInfo);

  core::PipelineConfig cfg;
  cfg.seed = argc > 1 ? std::stoull(argv[1]) : 22;
  core::Pipeline pipeline(cfg);
  const auto results = pipeline.run();
  util::set_log_level(util::LogLevel::kOff);

  std::cout << '\n';
  for (const auto& section :
       report::paper_sections(results, pipeline.asdb(), pipeline.ti(), cfg.requery_day)) {
    std::cout << section.text << '\n';
  }

  export_csvs(results);
  const auto n = report::write_figure_series(results, pipeline.asdb(), ".");
  std::cout << "wrote " << n << " per-figure CSV series\n";
  return 0;
}
