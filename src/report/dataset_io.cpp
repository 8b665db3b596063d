#include "report/dataset_io.hpp"

#include "util/fsio.hpp"

namespace malnet::report {

namespace {

void put_string(util::ByteWriter& w, const std::string& s) { w.lp16(s); }

std::string get_string(util::ByteReader& r) { return util::to_string(r.lp16()); }

void put_days(util::ByteWriter& w, const std::vector<std::int64_t>& days) {
  w.u32(static_cast<std::uint32_t>(days.size()));
  for (const auto d : days) w.u64(static_cast<std::uint64_t>(d));
}

std::vector<std::int64_t> get_days(util::ByteReader& r) {
  const std::uint32_t n = r.u32();
  std::vector<std::int64_t> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    out.push_back(static_cast<std::int64_t>(r.u64()));
  }
  return out;
}

void put_command(util::ByteWriter& w, const proto::AttackCommand& cmd) {
  w.u8(static_cast<std::uint8_t>(cmd.type));
  w.u8(static_cast<std::uint8_t>(cmd.family));
  w.u32(cmd.target.ip.value);
  w.u16(cmd.target.port);
  w.u32(cmd.duration_s);
  w.lp16(util::BytesView{cmd.raw});
}

std::optional<proto::AttackCommand> get_command(util::ByteReader& r) {
  proto::AttackCommand cmd;
  const std::uint8_t type = r.u8();
  const std::uint8_t family = r.u8();
  if (type >= proto::kAttackTypeCount || family >= proto::kFamilyCount) {
    return std::nullopt;
  }
  cmd.type = static_cast<proto::AttackType>(type);
  cmd.family = static_cast<proto::Family>(family);
  cmd.target.ip = net::Ipv4{r.u32()};
  cmd.target.port = r.u16();
  cmd.duration_s = r.u32();
  cmd.raw = r.lp16();
  return cmd;
}

}  // namespace

util::Bytes serialize_datasets(const core::StudyResults& results) {
  util::ByteWriter w;
  w.u32(kDatasetMagic);
  // Version 2 appends the degraded-samples section; clean runs (degraded
  // empty) still write version 1, byte-identical to pre-chaos artifacts.
  const std::uint8_t version = results.degraded.empty() ? 1 : 2;
  w.u8(version);

  // D-Samples (metadata only).
  w.u32(static_cast<std::uint32_t>(results.d_samples.size()));
  for (const auto& s : results.d_samples) {
    put_string(w, s.sha256);
    w.u64(static_cast<std::uint64_t>(s.day));
    w.u8(s.source == botnet::FeedSource::kVirusTotal ? 0 : 1);
    w.u16(static_cast<std::uint16_t>(s.vt_detections));
    w.u8(static_cast<std::uint8_t>(s.label));
    w.u8(static_cast<std::uint8_t>((s.p2p ? 1 : 0) | (s.activated ? 2 : 0) |
                                   (s.evasion_abort ? 4 : 0)));
    w.u8(static_cast<std::uint8_t>(s.c2_addresses.size()));
    for (const auto& a : s.c2_addresses) put_string(w, a);
  }

  // D-C2s.
  w.u32(static_cast<std::uint32_t>(results.d_c2s.size()));
  for (const auto& [addr, rec] : results.d_c2s) {
    put_string(w, addr);
    w.u8(rec.is_dns ? 1 : 0);
    w.u32(rec.ip.value);
    w.u16(rec.port);
    w.u32(rec.asn);
    put_string(w, rec.as_country);
    w.u64(static_cast<std::uint64_t>(rec.discovery_day));
    put_days(w, rec.referred_days);
    put_days(w, rec.live_days);
    w.u32(static_cast<std::uint32_t>(rec.distinct_samples));
    w.u8(static_cast<std::uint8_t>((rec.vt_malicious_same_day ? 1 : 0) |
                                   (rec.vt_malicious_requery ? 2 : 0) |
                                   (rec.is_downloader ? 4 : 0)));
    w.u16(static_cast<std::uint16_t>(rec.vt_vendors_same_day));
  }

  // D-Exploits.
  w.u32(static_cast<std::uint32_t>(results.d_exploits.size()));
  for (const auto& e : results.d_exploits) {
    put_string(w, e.sample_sha);
    w.u64(static_cast<std::uint64_t>(e.day));
    w.u8(static_cast<std::uint8_t>(e.vuln));
    put_string(w, e.downloader_host);
    put_string(w, e.loader_name);
  }

  // D-DDOS.
  w.u32(static_cast<std::uint32_t>(results.d_ddos.size()));
  for (const auto& d : results.d_ddos) {
    put_string(w, d.sample_sha);
    w.u64(static_cast<std::uint64_t>(d.day));
    put_string(w, d.c2_address);
    w.u32(d.c2.ip.value);
    w.u16(d.c2.port);
    w.u32(d.c2_asn);
    put_string(w, d.c2_country);
    w.u8(d.detection.method == core::DdosMethod::kProtocolProfile ? 0 : 1);
    w.u8(d.detection.verified ? 1 : 0);
    w.u32(static_cast<std::uint32_t>(d.detection.observed_pps));
    put_command(w, d.detection.command);
  }

  // D-PC2.
  w.u32(static_cast<std::uint32_t>(results.d_pc2.rounds));
  w.u32(static_cast<std::uint32_t>(results.d_pc2.raster.size()));
  for (const auto& [ep, bits] : results.d_pc2.raster) {
    w.u32(ep.ip.value);
    w.u16(ep.port);
    w.u32(static_cast<std::uint32_t>(bits.size()));
    for (const bool b : bits) w.u8(b ? 1 : 0);
  }
  w.u64(results.d_pc2.scout_probes);
  w.u64(results.d_pc2.weapon_runs);
  w.u64(results.d_pc2.banner_filtered);

  // Downloaders + counters.
  w.u32(static_cast<std::uint32_t>(results.downloader_hosts.size()));
  for (const auto& h : results.downloader_hosts) put_string(w, h);
  w.u64(results.sandbox_runs);
  w.u64(results.sim_events);
  w.u64(results.non_mips_skipped);
  w.u64(results.truth_commands_issued);
  w.u64(results.truth_planned_c2s);

  // Degraded samples (v2 only).
  if (version >= 2) {
    w.u32(static_cast<std::uint32_t>(results.degraded.size()));
    for (const auto& d : results.degraded) {
      put_string(w, d.sha256);
      w.u64(static_cast<std::uint64_t>(d.day));
      put_string(w, d.reason);
    }
  }
  return w.take();
}

std::optional<core::StudyResults> parse_datasets(util::BytesView data) {
  try {
    util::ByteReader r(data);
    if (r.u32() != kDatasetMagic) return std::nullopt;
    const std::uint8_t version = r.u8();
    if (version != 1 && version != 2) return std::nullopt;
    core::StudyResults out;

    const std::uint32_t n_samples = r.u32();
    for (std::uint32_t i = 0; i < n_samples; ++i) {
      core::SampleRecord s;
      s.sha256 = get_string(r);
      s.day = static_cast<std::int64_t>(r.u64());
      s.source = r.u8() == 0 ? botnet::FeedSource::kVirusTotal
                             : botnet::FeedSource::kMalwareBazaar;
      s.vt_detections = r.u16();
      const std::uint8_t label = r.u8();
      if (label >= proto::kFamilyCount) return std::nullopt;
      s.label = static_cast<proto::Family>(label);
      const std::uint8_t flags = r.u8();
      s.p2p = flags & 1;
      s.activated = flags & 2;
      s.evasion_abort = flags & 4;
      const std::uint8_t n_addrs = r.u8();
      for (std::uint8_t k = 0; k < n_addrs; ++k) {
        s.c2_addresses.push_back(get_string(r));
      }
      out.d_samples.push_back(std::move(s));
    }

    const std::uint32_t n_c2s = r.u32();
    for (std::uint32_t i = 0; i < n_c2s; ++i) {
      const std::string addr = get_string(r);
      core::C2Record rec;
      rec.address = addr;
      rec.is_dns = r.u8() != 0;
      rec.ip = net::Ipv4{r.u32()};
      rec.port = r.u16();
      rec.asn = r.u32();
      rec.as_country = get_string(r);
      rec.discovery_day = static_cast<std::int64_t>(r.u64());
      rec.referred_days = get_days(r);
      rec.live_days = get_days(r);
      rec.distinct_samples = static_cast<int>(r.u32());
      const std::uint8_t flags = r.u8();
      rec.vt_malicious_same_day = flags & 1;
      rec.vt_malicious_requery = flags & 2;
      rec.is_downloader = flags & 4;
      rec.vt_vendors_same_day = r.u16();
      out.d_c2s.emplace(addr, std::move(rec));
    }

    const std::uint32_t n_exploits = r.u32();
    for (std::uint32_t i = 0; i < n_exploits; ++i) {
      core::ExploitRecord e;
      e.sample_sha = get_string(r);
      e.day = static_cast<std::int64_t>(r.u64());
      const std::uint8_t vuln = r.u8();
      if (vuln >= vulndb::kVulnCount) return std::nullopt;
      e.vuln = static_cast<vulndb::VulnId>(vuln);
      e.downloader_host = get_string(r);
      e.loader_name = get_string(r);
      out.d_exploits.push_back(std::move(e));
    }

    const std::uint32_t n_ddos = r.u32();
    for (std::uint32_t i = 0; i < n_ddos; ++i) {
      core::DdosRecord d;
      d.sample_sha = get_string(r);
      d.day = static_cast<std::int64_t>(r.u64());
      d.c2_address = get_string(r);
      d.c2.ip = net::Ipv4{r.u32()};
      d.c2.port = r.u16();
      d.c2_asn = r.u32();
      d.c2_country = get_string(r);
      d.detection.method = r.u8() == 0 ? core::DdosMethod::kProtocolProfile
                                       : core::DdosMethod::kBehaviouralHeuristic;
      d.detection.verified = r.u8() != 0;
      d.detection.observed_pps = r.u32();
      auto cmd = get_command(r);
      if (!cmd) return std::nullopt;
      d.detection.command = std::move(*cmd);
      out.d_ddos.push_back(std::move(d));
    }

    out.d_pc2.rounds = static_cast<int>(r.u32());
    const std::uint32_t n_targets = r.u32();
    for (std::uint32_t i = 0; i < n_targets; ++i) {
      net::Endpoint ep;
      ep.ip = net::Ipv4{r.u32()};
      ep.port = r.u16();
      const std::uint32_t n_bits = r.u32();
      std::vector<bool> bits;
      bits.reserve(n_bits);
      for (std::uint32_t b = 0; b < n_bits; ++b) bits.push_back(r.u8() != 0);
      out.d_pc2.raster.emplace(ep, std::move(bits));
    }
    out.d_pc2.scout_probes = r.u64();
    out.d_pc2.weapon_runs = r.u64();
    out.d_pc2.banner_filtered = r.u64();

    const std::uint32_t n_dl = r.u32();
    for (std::uint32_t i = 0; i < n_dl; ++i) {
      out.downloader_hosts.insert(get_string(r));
    }
    out.sandbox_runs = r.u64();
    out.sim_events = r.u64();
    out.non_mips_skipped = r.u64();
    out.truth_commands_issued = r.u64();
    out.truth_planned_c2s = r.u64();
    if (version >= 2) {
      const std::uint32_t n_degraded = r.u32();
      for (std::uint32_t i = 0; i < n_degraded; ++i) {
        core::DegradedSample d;
        d.sha256 = get_string(r);
        d.day = static_cast<std::int64_t>(r.u64());
        d.reason = get_string(r);
        out.degraded.push_back(std::move(d));
      }
    }
    if (!r.done()) return std::nullopt;
    return out;
  } catch (const util::TruncatedInput&) {
    return std::nullopt;
  }
}

void save_datasets(const core::StudyResults& results, const std::string& path) {
  // Crash-safety: a kill mid-save must never leave a truncated artifact at
  // `path` that load_datasets rejects — or, worse, clobber a good previous
  // artifact with partial bytes. Stage + atomic rename instead.
  const auto bytes = serialize_datasets(results);
  try {
    util::write_file_atomic(path, util::BytesView{bytes});
  } catch (const std::exception& e) {
    throw std::runtime_error("save_datasets: " + std::string(e.what()));
  }
}

core::StudyResults load_datasets(const std::string& path) {
  auto parsed = parse_datasets(util::read_file(path));
  if (!parsed) throw std::runtime_error("load_datasets: corrupt artifact " + path);
  return std::move(*parsed);
}

}  // namespace malnet::report
