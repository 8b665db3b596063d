#include "report/figures.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "report/render.hpp"
#include "report/summary.hpp"
#include "util/str.hpp"
#include "vulndb/vulndb.hpp"

namespace malnet::report {

std::string figure1_heatmap(const core::StudyResults& results,
                            const asdb::AsDatabase& asdb) {
  const auto weekly = weekly_as_counts(results);
  const auto per_as = c2s_per_as(results);
  std::vector<std::pair<std::uint32_t, int>> top(per_as.begin(), per_as.end());
  std::sort(top.begin(), top.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  if (top.size() > 10) top.resize(10);

  int max_week = 0;
  for (const auto& [key, n] : weekly) max_week = std::max(max_week, key.first);

  std::vector<std::string> labels;
  std::vector<std::vector<double>> cells;
  for (const auto& [asn, total] : top) {
    const auto* info = asdb.by_asn(asn);
    labels.push_back((info != nullptr ? info->name : "?") + " (" +
                     std::to_string(asn) + ")");
    std::vector<double> row(static_cast<std::size_t>(max_week), 0.0);
    for (int w = 1; w <= max_week; ++w) {
      const auto it = weekly.find({w, asn});
      if (it != weekly.end()) row[static_cast<std::size_t>(w - 1)] = it->second;
    }
    cells.push_back(std::move(row));
  }
  std::ostringstream os;
  os << "Figure 1: weekly C2 activity per top-10 AS (" << max_week
     << " study weeks; darker = more C2s)\n"
     << render_heatmap(labels, cells)
     << "Top ASes ranking in the weekly top-10 at least half their active weeks: "
     << util::percent(weekly_top_as_consistency(results))
     << " (paper: 60% appear consistently)\n";
  return os.str();
}

std::string figure2_lifetime_ip(const core::StudyResults& results) {
  const auto ls = lifespan_stats(results);
  std::ostringstream os;
  os << "Figure 2: CDF of observed C2 IP lifetimes\n"
     << render_cdf(ls.ip_lifetimes, "lifetime (days)")
     << "P(lifespan = 1 day) = " << util::percent(ls.one_day_fraction)
     << " (paper: ~80%); mean = " << util::fixed(ls.mean_days, 2)
     << " days (paper: ~4); dead-on-arrival = " << util::percent(ls.dead_on_arrival)
     << " (paper: 60%)\n";
  return os.str();
}

std::string figure3_lifetime_domain(const core::StudyResults& results) {
  const auto ls = lifespan_stats(results);
  std::ostringstream os;
  os << "Figure 3: CDF of observed C2 domain lifetimes\n"
     << render_cdf(ls.domain_lifetimes, "lifetime (days)")
     << "(paper: qualitatively similar to Figure 2)\n";
  return os.str();
}

std::string figure4_probe_raster(const core::StudyResults& results) {
  const auto ps = probe_stats(results.d_pc2);
  std::vector<std::string> labels;
  std::vector<std::vector<bool>> rows;
  for (const auto& [ep, bits] : results.d_pc2.raster) {
    labels.push_back(net::to_string(ep));
    rows.push_back(bits);
  }
  std::ostringstream os;
  os << "Figure 4: C2 probe responses, " << ps.targets << " servers x " << ps.rounds
     << " probes (6/day for two weeks; '#' = responded)\n"
     << render_raster(labels, rows) << "Second-probe (+4h) non-response rate: "
     << util::percent(ps.second_probe_nonresponse)
     << " (paper: 91%); target-days with all 6 probes answered: "
     << ps.days_with_all_probes_answered << " (paper: 0); overall response rate: "
     << util::percent(ps.response_rate) << '\n';
  return os.str();
}

std::string figure5_samples_per_c2(const core::StudyResults& results) {
  const auto sh = sharing_stats(results);
  std::ostringstream os;
  os << "Figure 5: CDF of distinct binaries per C2 IP\n"
     << render_cdf(sh.samples_per_c2_ip, "samples per C2")
     << "C2s contacted by more than one binary: "
     << util::percent(sh.multi_sample_fraction) << " (paper: ~60%)\n";
  return os.str();
}

std::string figure6_samples_per_domain(const core::StudyResults& results) {
  const auto sh = sharing_stats(results);
  std::ostringstream os;
  os << "Figure 6: CDF of distinct binaries per C2 domain\n"
     << render_cdf(sh.samples_per_domain, "samples per domain");
  return os.str();
}

std::string figure7_vendor_cdf(const core::StudyResults& results) {
  const auto ti = ti_stats(results);
  std::ostringstream os;
  os << "Figure 7: CDF of #vendors flagging a known C2 (same-day query)\n"
     << render_cdf(ti.vendors_per_c2, "vendors");
  if (!ti.vendors_per_c2.empty()) {
    os << "Flagged by <= 2 vendors: " << util::percent(ti.vendors_per_c2.at(2.0))
       << " (paper: ~25% by one or two feeds)\n";
  }
  return os.str();
}

std::string figure8_vuln_timeseries(const core::StudyResults& results) {
  const auto& vdb = vulndb::VulnDatabase::instance();
  std::int64_t last_day = 0;
  for (const auto& e : results.d_exploits) last_day = std::max(last_day, e.day);
  const int weeks = static_cast<int>(last_day / 7) + 1;

  std::ostringstream os;
  os << "Figure 8: binaries per week exploiting each vulnerability\n";
  std::vector<std::string> labels;
  std::vector<std::vector<double>> cells;
  for (const auto& v : vdb.all()) {
    std::vector<double> series(static_cast<std::size_t>(weeks), 0.0);
    int total = 0;
    for (const auto& e : results.d_exploits) {
      if (e.vuln != v.id) continue;
      ++series[static_cast<std::size_t>(e.day / 7)];
      ++total;
    }
    // Appended rather than "v" + ...: GCC 12 at -O3 reports a false
    // -Wrestrict inside operator+(const char*, std::string&&).
    labels.push_back(std::string("v").append(std::to_string(v.paper_row)) + " " +
                     v.name + " [" + std::to_string(total) + "]");
    cells.push_back(std::move(series));
  }
  os << render_heatmap(labels, cells)
     << "(paper: four vulnerabilities dominate consistently; the rest are "
        "short, low-intensity bursts)\n";
  return os.str();
}

std::string figure9_loaders(const core::StudyResults& results) {
  std::map<std::string, std::set<std::string>> samples_per_loader;
  for (const auto& e : results.d_exploits) {
    if (!e.loader_name.empty()) samples_per_loader[e.loader_name].insert(e.sample_sha);
  }
  std::vector<std::pair<std::string, double>> bars;
  for (const auto& [name, shas] : samples_per_loader) {
    bars.emplace_back(name, static_cast<double>(shas.size()));
  }
  std::sort(bars.begin(), bars.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  std::ostringstream os;
  os << "Figure 9: binaries per loader filename (paper top: t8UsA2.sh=14, "
        "Tsunami.x86=12, ddns.sh=11, 8UsA.sh=9, wget.sh=6, zyxel.sh=4, jaws.sh=2)\n"
     << render_bars(bars);
  return os.str();
}

std::string figure10_ddos_protocols(const core::StudyResults& results,
                                    const asdb::AsDatabase& asdb) {
  const auto ds = ddos_stats(results, asdb);
  std::vector<std::pair<std::string, double>> bars;
  for (const auto& [proto, n] : ds.by_protocol) bars.emplace_back(proto, n);
  std::sort(bars.begin(), bars.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  std::ostringstream os;
  os << "Figure 10: DDoS attacks by target protocol (paper: UDP dominates at 74%)\n"
     << render_bars(bars);
  if (ds.total_attacks > 0) {
    const auto it = ds.by_protocol.find("UDP");
    const double udp =
        it == ds.by_protocol.end() ? 0.0 : static_cast<double>(it->second);
    os << "UDP share (excl. DNS): " << util::percent(udp / ds.total_attacks)
       << "; port 80 targets: " << util::percent(ds.port80_fraction)
       << " (paper: 21%); port 443: " << util::percent(ds.port443_fraction)
       << " (paper: 7%)\n";
  }
  return os.str();
}

std::string figure11_ddos_types(const core::StudyResults& results,
                                const asdb::AsDatabase& asdb) {
  const auto ds = ddos_stats(results, asdb);
  TextTable t({"Attack type", "Mirai", "Gafgyt", "Daddyl33t", "Total"});
  for (const auto& [type, total] : ds.by_type) {
    const auto cell = [&](const char* fam) {
      const auto it = ds.by_type_family.find({type, fam});
      return std::to_string(it == ds.by_type_family.end() ? 0 : it->second);
    };
    t.row({type, cell("Mirai"), cell("Gafgyt"), cell("Daddyl33t"),
           std::to_string(total)});
  }
  std::ostringstream os;
  os << "Figure 11: DDoS attack types by family\n"
     << t.render() << "Total attacks: " << ds.total_attacks
     << " (paper: 42); distinct types: " << ds.attack_types_seen
     << " (paper: 8); gaming-oriented types: " << ds.gaming_types_seen
     << " (paper: 2); issuing C2s: " << ds.distinct_c2s
     << " (paper: 17); commanded samples: " << ds.distinct_samples
     << " (paper: 20)\nTargets hit by two attack types: "
     << util::percent(ds.multi_attack_target_fraction) << " (paper: 25%)\n";
  return os.str();
}

std::string figure12_targets(const core::StudyResults& results,
                             const asdb::AsDatabase& asdb) {
  const auto ds = ddos_stats(results, asdb);
  std::ostringstream os;
  os << "Figure 12: DDoS targets by AS type and country\n";
  std::vector<std::pair<std::string, double>> type_bars, country_bars, c2_bars;
  int total = 0;
  for (const auto& [t, n] : ds.target_as_types) total += n;
  for (const auto& [t, n] : ds.target_as_types) type_bars.emplace_back(t, n);
  for (const auto& [c, n] : ds.target_countries) country_bars.emplace_back(c, n);
  for (const auto& [c, n] : ds.c2_countries) c2_bars.emplace_back(c, n);
  os << "-- target AS types (paper: ISP 45%, Hosting 36%, rest Business):\n"
     << render_bars(type_bars) << "-- target countries (paper: 11 countries):\n"
     << render_bars(country_bars)
     << "-- issuing C2 countries (paper: US+NL+CZ issue 80%):\n"
     << render_bars(c2_bars) << "Gaming-specialised target ASes: "
     << util::percent(ds.gaming_as_fraction) << " (paper: 18%)\n";
  return os.str();
}

std::string figure13_as_cdf(const core::StudyResults& results) {
  const auto per_as = c2s_per_as(results);
  std::vector<std::pair<std::uint32_t, int>> sorted(per_as.begin(), per_as.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  int total = 0;
  for (const auto& [asn, n] : sorted) total += n;

  std::ostringstream os;
  os << "Figure 13: cumulative C2 share by AS rank (" << per_as.size()
     << " ASes host C2s; paper: 128)\n";
  double cum = 0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    cum += sorted[i].second;
    if (i < 10 || (i + 1) % 20 == 0 || i + 1 == sorted.size()) {
      const double frac = total > 0 ? cum / total : 0;
      os << util::pad_left(std::to_string(i + 1), 5) << "  "
         << util::pad_left(util::percent(frac), 7) << "  "
         << std::string(static_cast<int>(frac * 40), '#') << '\n';
    }
  }
  return os.str();
}

}  // namespace malnet::report
