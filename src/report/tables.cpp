#include "report/tables.hpp"

#include <algorithm>
#include <sstream>

#include "botnet/probe_world.hpp"
#include "report/figures.hpp"
#include "report/render.hpp"
#include "report/summary.hpp"
#include "util/str.hpp"

namespace malnet::report {

std::string table1_datasets(const core::StudyResults& results) {
  int c2_samples = 0, exploit_samples = 0;
  std::set<std::string> exploit_shas;
  for (const auto& s : results.d_samples) {
    if (!s.p2p && !s.c2_addresses.empty()) ++c2_samples;
  }
  for (const auto& e : results.d_exploits) exploit_shas.insert(e.sample_sha);
  exploit_samples = static_cast<int>(exploit_shas.size());

  std::uint64_t pc2_measurements = 0;
  for (const auto& [ep, bits] : results.d_pc2.raster) pc2_measurements += bits.size();

  TextTable t({"Dataset", "Measured", "Paper", "Note"});
  t.row({"D-Samples", std::to_string(results.d_samples.size()), "1447",
         "daily VT+MalwareBazaar collection"});
  t.row({"D-C2s", std::to_string(results.d_c2s.size()), "1160",
         "sandbox-referred C2 addresses"});
  t.row({"D-PC2", std::to_string(pc2_measurements), "448",
         "probe measurements (responsive C2s x rounds)"});
  t.row({"D-Exploits", std::to_string(exploit_samples), "197",
         "samples with handshaker-extracted exploits"});
  t.row({"D-DDOS", std::to_string(results.d_ddos.size()), "42",
         "eavesdropped DDoS commands"});
  std::ostringstream os;
  os << "Table 1: datasets\n" << t.render();
  os << "(C2-referring samples: " << c2_samples << ")\n";
  return os.str();
}

std::string table2_top_ases(const core::StudyResults& results,
                            const asdb::AsDatabase& asdb) {
  const auto per_as = c2s_per_as(results);
  std::vector<std::pair<std::uint32_t, int>> sorted(per_as.begin(), per_as.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });

  int total = 0, top10 = 0;
  for (const auto& [asn, n] : per_as) total += n;

  TextTable t({"AS Name", "ASN", "Country", "Hosting", "Anti-DDoS?", "#C2s"});
  for (std::size_t i = 0; i < sorted.size() && i < 10; ++i) {
    const auto [asn, count] = sorted[i];
    top10 += count;
    const auto* info = asdb.by_asn(asn);
    t.row({info != nullptr ? info->name : "?", std::to_string(asn),
           info != nullptr ? info->country : "?",
           info != nullptr && info->type == asdb::AsType::kHosting ? "Yes" : "No",
           info != nullptr && info->anti_ddos ? "Yes" : "No", std::to_string(count)});
  }
  std::ostringstream os;
  os << "Table 2: top-10 ASes hosting C2s\n" << t.render();
  if (total > 0) {
    os << "Top-10 concentration: " << util::percent(static_cast<double>(top10) / total)
       << " (paper: 69.7%)  |  distinct ASes: " << per_as.size()
       << " (paper: 128)\n";
  }
  return os.str();
}

std::string table3_ti_miss(const core::StudyResults& results) {
  const auto ti = ti_stats(results);
  TextTable t({"Type", "Same Day (measured)", "Same Day (paper)",
               "Re-query (measured)", "Re-query (paper)"});
  t.row({"All", util::percent(ti.miss_all_same_day), "15.3%",
         util::percent(ti.miss_all_requery), "3.3%"});
  t.row({"IP-based", util::percent(ti.miss_ip_same_day), "13.3%",
         util::percent(ti.miss_ip_requery), "1.5%"});
  t.row({"DNS-based", util::percent(ti.miss_dns_same_day), "57.6%",
         util::percent(ti.miss_dns_requery), "35.0%"});
  std::ostringstream os;
  os << "Table 3: C2 servers unreported by threat intelligence\n" << t.render();
  return os.str();
}

std::string table4_vulnerabilities(const core::StudyResults& results) {
  const auto& vdb = vulndb::VulnDatabase::instance();
  std::map<vulndb::VulnId, std::set<std::string>> samples_per_vuln;
  for (const auto& e : results.d_exploits) {
    samples_per_vuln[e.vuln].insert(e.sample_sha);
  }
  TextTable t({"ID", "Vulnerability", "Exploit ID", "Published", "Target Device",
               "#Samples", "Paper"});
  for (const auto& v : vdb.all()) {
    const auto it = samples_per_vuln.find(v.id);
    const int measured = it == samples_per_vuln.end()
                             ? 0
                             : static_cast<int>(it->second.size());
    t.row({std::to_string(v.paper_row), v.name, v.exploit_ref.value_or("N/A"),
           std::to_string(v.pub_year) + "-" + std::to_string(v.pub_month) + "-" +
               std::to_string(v.pub_day),
           v.target_device, std::to_string(measured), std::to_string(v.paper_samples)});
  }
  std::ostringstream os;
  os << "Table 4: exploited vulnerabilities (D-Exploits)\n" << t.render();

  // §4 age analysis, evaluated at the May 7 2022 re-query (study day 404) —
  // the date at which the paper's "9 older than 4 years / newest 5 months"
  // arithmetic reproduces exactly.
  int older_than_4y = 0, with_cve = 0;
  double newest_age = 1e9;
  for (const auto& v : vdb.all()) {
    if (v.cve) ++with_cve;
    const double age = v.age_years_at(404);
    if (age > 4.0) ++older_than_4y;
    newest_age = std::min(newest_age, age);
  }
  os << "Exploited vulnerability entries older than 4 years: " << older_than_4y
     << " (paper: 9); newest is " << util::fixed(newest_age * 12, 1)
     << " months old (paper: ~5 months); " << with_cve
     << " entries carry CVEs\n";
  return os.str();
}

std::string table7_vendors(const core::StudyResults& results,
                           const intel::ThreatIntel& ti, std::int64_t query_day) {
  std::vector<std::string> addresses;
  for (const auto& [addr, rec] : results.d_c2s) {
    if (!rec.is_dns) addresses.push_back(addr);
    if (addresses.size() >= 1000) break;
  }
  auto counts = ti.vendor_counts(addresses, query_day);
  std::sort(counts.begin(), counts.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });

  int detecting = 0;
  for (const auto& [name, n] : counts) {
    if (n > 0) ++detecting;
  }

  TextTable t({"Vendor", "#C2s flagged"});
  for (std::size_t i = 0; i < counts.size() && i < 20; ++i) {
    t.row({counts[i].first, std::to_string(counts[i].second)});
  }
  std::ostringstream os;
  os << "Table 7: top-20 vendors over " << addresses.size()
     << " C2 IPs at the re-query date\n"
     << t.render() << "Vendors flagging at least one C2: " << detecting
     << " of " << counts.size() << " (paper: 44 of 89)\n";
  return os.str();
}

std::vector<PaperSection> paper_sections(const core::StudyResults& results,
                                         const asdb::AsDatabase& asdb,
                                         const intel::ThreatIntel& ti,
                                         std::int64_t requery_day) {
  std::ostringstream probe;
  probe << "Table 5: probed ports:";
  for (const auto port : botnet::table5_ports()) probe << ' ' << port;
  probe << "  (6 /24 subnets, 4-hour interval, 84 rounds)\n\n"
        << figure4_probe_raster(results);

  return {
      {"Table 1", "dataset sizes", table1_datasets(results)},
      {"Table 2", "top-10 C2-hosting ASes", table2_top_ases(results, asdb)},
      {"Table 3", "threat-intelligence miss rates", table3_ti_miss(results)},
      {"Table 4", "exploited vulnerabilities", table4_vulnerabilities(results)},
      {"Table 7", "per-vendor C2 detection counts",
       table7_vendors(results, ti, requery_day)},
      {"Figure 1", "weekly C2 activity heatmap", figure1_heatmap(results, asdb)},
      {"Figure 2", "CDF of C2 IP lifetimes", figure2_lifetime_ip(results)},
      {"Figure 3", "CDF of C2 domain lifetimes", figure3_lifetime_domain(results)},
      {"Figure 4 / Table 5", "C2 probe responsiveness (D-PC2)", probe.str()},
      {"Figure 5", "CDF of binaries per C2 IP", figure5_samples_per_c2(results)},
      {"Figure 6", "CDF of binaries per C2 domain", figure6_samples_per_domain(results)},
      {"Figure 7", "CDF of vendors flagging a known C2", figure7_vendor_cdf(results)},
      {"Figure 8", "per-vulnerability exploitation over time",
       figure8_vuln_timeseries(results)},
      {"Figure 9", "loader filename frequencies", figure9_loaders(results)},
      {"Figure 10", "DDoS attacks by protocol", figure10_ddos_protocols(results, asdb)},
      {"Figure 11", "DDoS attack types by family", figure11_ddos_types(results, asdb)},
      {"Figure 12", "DDoS targets by country and AS type",
       figure12_targets(results, asdb)},
      {"Figure 13", "cumulative C2 share by AS rank", figure13_as_cdf(results)},
  };
}

}  // namespace malnet::report
