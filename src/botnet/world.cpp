#include "botnet/world.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "botnet/downloader.hpp"
#include "util/log.hpp"

namespace malnet::botnet {

std::string to_string(FeedSource s) {
  return s == FeedSource::kVirusTotal ? "VirusTotal" : "MalwareBazaar";
}

const std::vector<std::int64_t>& active_week_start_days() {
  // Appendix E: study weeks 1..31 map to calendar weeks 14, 24-33, 44-52 of
  // 2021 and 2-12 of 2022. Day 0 is Monday of 2021 calendar week 14.
  static const std::vector<std::int64_t> kDays = [] {
    std::vector<std::int64_t> days;
    days.push_back(0);                                            // week 14 '21
    for (int w = 24; w <= 33; ++w) days.push_back((w - 14) * 7);  // 24-33 '21
    for (int w = 44; w <= 52; ++w) days.push_back((w - 14) * 7);  // 44-52 '21
    for (int w = 2; w <= 12; ++w) days.push_back((w + 39) * 7);   // 2-12 '22
    return days;
  }();
  return kDays;
}

const std::vector<int>& weekly_sample_volume() {
  // Sums to 1447 (Table 1). Volumes grow "since January 2022" and peak at
  // study week 28 (§3.1).
  static const std::vector<int> kVolume{
      25, 28, 30, 26, 24, 27, 29, 25, 26, 28, 30,        // weeks 1-11
      30, 32, 35, 33, 31, 34, 36, 32, 35,                // weeks 12-20
      55, 60, 65, 70, 75, 80, 85, 120, 90, 76, 75};      // weeks 21-31
  return kVolume;
}

int sample_capacity() {
  static const int kCapacity = [] {
    int sum = 0;
    for (const int v : weekly_sample_volume()) sum += v;
    return sum;
  }();
  return kCapacity;
}

void check_total_samples(int total_samples) {
  if (total_samples <= 0) throw std::invalid_argument("World: no samples");
  if (total_samples > sample_capacity()) {
    throw std::invalid_argument(
        "World: total_samples " + std::to_string(total_samples) +
        " exceeds the Appendix-E weekly calendar's capacity of " +
        std::to_string(sample_capacity()) + " samples");
  }
}

namespace {

const std::vector<net::Port>& c2_port_pool() {
  // The port universe with "past history of malicious activity" — this is
  // also where the probing study's Table 5 ports come from.
  static const std::vector<net::Port> kPorts{23,   6969, 3074, 666,  1312, 9506,
                                             81,   5555, 606,  1791, 1014, 6738,
                                             443,  42516};
  return kPorts;
}

constexpr const char* kTelemetryDomains[] = {
    "api.ip-echo.net", "update.fw-vendor.example", "time.cloudsync.example"};

std::string default_bot_id(proto::Family f, util::Rng& rng) {
  return proto::to_string(f) + ".mips." + std::to_string(rng.uniform(100, 999));
}

/// Near-even partition of `value` items across `shards`: shard `index`'s
/// share. Shares sum to `value` exactly; shards==1 returns `value`.
int shard_share(int value, int shards, int index) {
  const auto lo = static_cast<std::int64_t>(value) * index / shards;
  const auto hi = static_cast<std::int64_t>(value) * (index + 1) / shards;
  return static_cast<int>(hi - lo);
}

}  // namespace

World::World(sim::Network& net, WorldConfig cfg)
    : net_(net),
      cfg_(cfg),
      registry_(cfg.profiles != nullptr ? cfg.profiles
                                        : &profile::Registry::builtin()),
      asdb_(asdb::AsDatabase::standard()) {
  check_total_samples(cfg_.total_samples);
  if (cfg_.family_weights.size() != proto::kFamilyCount) {
    throw std::invalid_argument("World: family_weights size mismatch");
  }
  if (cfg_.shard_count < 1 || cfg_.shard_index < 0 ||
      cfg_.shard_index >= cfg_.shard_count) {
    throw std::invalid_argument("World: bad shard_count/shard_index");
  }
  if (!cfg_.variant_name.empty()) {
    variant_ = registry_->by_name(cfg_.variant_name);
    if (variant_ == nullptr) {
      throw std::invalid_argument("World: unknown variant profile '" +
                                  cfg_.variant_name + "'");
    }
    if (variant_->framing == profile::Framing::kP2p) {
      throw std::invalid_argument("World: variant profile must be centralised");
    }
    if (cfg_.variant_fraction < 0.0 || cfg_.variant_fraction > 1.0) {
      throw std::invalid_argument("World: variant_fraction out of [0,1]");
    }
  }
  util::Rng rng(cfg_.seed, util::fnv1a64("world"));

  // Public recursive resolver every sample uses.
  resolver_ = std::make_unique<dns::DnsServer>(net_, net::Ipv4{1, 1, 1, 1}, "resolver");

  auto c2_rng = rng.fork("c2s");
  plan_c2_population(c2_rng);
  auto attack_rng = rng.fork("attacks");
  plan_attacks(attack_rng);
  auto sample_rng = rng.fork("samples");
  plan_samples(sample_rng);

  // The dedicated (non-C2) downloader boxes persist for the whole study.
  for (const auto ip : dedicated_downloaders_) {
    dl_hosts_.push_back(std::make_unique<DownloaderServer>(net_, ip));
  }

  // Benign telemetry services some samples beacon to (IP-echo / update
  // checks) — the false-positive pressure on the C2 classifier.
  {
    util::Rng trng = rng.fork("telemetry");
    for (const auto* name : kTelemetryDomains) {
      const auto& all = asdb_.all();
      const auto& as = all[static_cast<std::size_t>(trng.uniform(0, all.size() - 1))];
      const auto ip = asdb_.random_ip_in(as.asn, trng);
      telemetry_hosts_.push_back(std::make_unique<inetsim::FakeHttp>(net_, ip));
      resolver_->add_record(name, ip);
    }
  }

  // Register DNS records for domain-fronted C2s (names resolve even when
  // the server behind them is down, as in the wild).
  for (const auto& c2 : c2s_) {
    if (c2.cfg.domain) resolver_->add_record(*c2.cfg.domain, c2.cfg.ip);
  }

  // Birth ordering for lifecycle driving.
  birth_order_.resize(c2s_.size());
  for (std::size_t i = 0; i < c2s_.size(); ++i) birth_order_[i] = i;
  std::sort(birth_order_.begin(), birth_order_.end(),
            [this](std::size_t a, std::size_t b) {
              return c2s_[a].birth_day < c2s_[b].birth_day;
            });
}

World::~World() = default;

net::Endpoint World::resolver() const { return {net::Ipv4{1, 1, 1, 1}, 53}; }

void World::plan_c2_population(util::Rng& rng) {
  const auto& weeks = active_week_start_days();
  const auto& volume = weekly_sample_volume();

  // Top-10 AS shares sum to 0.697 (§3.1); the long tail shares the rest.
  const auto& top10 = asdb::AsDatabase::table2_asns();
  const std::vector<double> top10_share{0.12,  0.047, 0.11, 0.07, 0.05,
                                        0.06,  0.09,  0.055, 0.035, 0.06};

  // C2 births per week track sample volume; roughly 0.8 C2 per sample slot
  // (sharing brings distinct addresses below sample count). Birth slots are
  // numbered across the whole study; a shard materializes only its
  // interleaved share.
  int birth_slot = 0;
  for (std::size_t w = 0; w < weeks.size(); ++w) {
    const int births = std::max(1, static_cast<int>(volume[w] * 1.08));
    for (int b = 0; b < births; ++b) {
      const int slot = birth_slot++;
      if (slot % cfg_.shard_count != cfg_.shard_index) continue;
      PlannedC2 c2;
      c2.birth_day = weeks[w] + static_cast<std::int64_t>(rng.uniform(0, 6));

      // Family: centralised families only, renormalised.
      std::vector<double> fw;
      std::vector<proto::Family> fams;
      for (int f = 0; f < proto::kFamilyCount; ++f) {
        const auto fam = static_cast<proto::Family>(f);
        if (!proto::is_p2p(fam)) {
          fams.push_back(fam);
          fw.push_back(cfg_.family_weights[static_cast<std::size_t>(f)]);
        }
      }
      c2.cfg.family = fams[rng.weighted(std::span<const double>(fw))];
      c2.cfg.profile = registry_->active(c2.cfg.family);
      // Variant routing: only rolls the coin when a variant is configured,
      // so baseline plans draw the same RNG sequence with or without
      // loaded profiles.
      if (variant_ != nullptr && variant_->id == c2.cfg.family &&
          rng.chance(cfg_.variant_fraction)) {
        c2.cfg.profile = variant_;
      }

      // AS and address. Weeks 28+ see the AS-44812 / AS-139884 surge (§3.1).
      std::vector<double> as_w = top10_share;
      if (w + 1 >= 28) {
        as_w[7] *= 3.0;   // IP SERVER LLC (44812)
        as_w[8] *= 2.5;   // Apeiron Global (139884)
      }
      double top_total = 0;
      for (double x : as_w) top_total += x;
      if (rng.uniform01() < top_total / (top_total + 0.303)) {
        c2.asn = top10[rng.weighted(std::span<const double>(as_w))];
      } else {
        // Long tail: everything that is not in the top 10.
        const auto& all = asdb_.all();
        while (true) {
          const auto& pick = all[static_cast<std::size_t>(rng.uniform(0, all.size() - 1))];
          if (std::find(top10.begin(), top10.end(), pick.asn) == top10.end()) {
            c2.asn = pick.asn;
            break;
          }
        }
      }
      // Distinct address per C2.
      net::Ipv4 ip;
      do {
        ip = asdb_.random_ip_in(c2.asn, rng);
      } while (c2_index_.count(net::to_string(ip)) > 0);
      c2.cfg.ip = ip;
      c2.cfg.port = rng.chance(0.5)
                        ? net::Port{23}
                        : rng.pick(c2_port_pool());

      // DNS-fronted minority. The global birth slot keys the name so sibling
      // shards can never mint the same domain (equals c2s_.size() when
      // unsharded).
      if (rng.chance(cfg_.dns_c2_fraction)) {
        c2.cfg.domain = "cnc" + std::to_string(slot) + ".bot-net" +
                        std::to_string(rng.uniform(0, 99)) + ".com";
        c2.address = *c2.cfg.domain;
      } else {
        c2.address = net::to_string(ip);
      }

      // Lifetime mixture (drives Figures 2/3 and the 60% dead-on-arrival).
      const double roll = rng.uniform01();
      if (roll < cfg_.lifetime_one_day) {
        c2.lifetime_days = 1;
      } else if (roll < cfg_.lifetime_one_day + cfg_.lifetime_short) {
        c2.lifetime_days = static_cast<int>(rng.uniform(2, 3));
      } else if (roll < cfg_.lifetime_one_day + cfg_.lifetime_short + cfg_.lifetime_mid) {
        c2.lifetime_days = static_cast<int>(rng.uniform(4, 12));
      } else {
        c2.lifetime_days = static_cast<int>(rng.uniform(20, 48));
      }

      c2.cfg.accept_prob = cfg_.accept_prob;
      c2.cfg.mean_dormancy = cfg_.mean_dormancy;

      c2_index_[c2.address] = c2s_.size();
      // Domain-fronted C2s are *also* reachable (and potentially observed)
      // by IP; index both keys to the same plan entry.
      if (c2.cfg.domain) c2_index_[net::to_string(ip)] = c2s_.size();
      c2s_.push_back(std::move(c2));
    }
  }
}

void World::plan_attacks(util::Rng& rng) {
  // §5: 42 commands from 17 C2s across Mirai (2 variants), Gafgyt (2) and
  // Daddyl33t (2). Attack-issuing servers live ~10 days (vs ~4 overall).
  struct Quota {
    proto::Family family;
    int c2s;
  };
  // Each shard fields its near-even share of the attacker fleet. Per-family
  // quotas come from the active profiles (builtin: Mirai 8, Gafgyt 3,
  // Daddyl33t 6 — the paper's 17-server fleet).
  std::vector<Quota> quotas;
  int fleet = 0;
  for (std::size_t fi = 0; fi < proto::kFamilyCount; ++fi) {
    const auto family = static_cast<proto::Family>(fi);
    const int want = registry_->active(family)->attacker_quota;
    if (want <= 0) continue;
    fleet += want;
    quotas.push_back({family, shard_share(want, cfg_.shard_count, cfg_.shard_index)});
  }

  // Victim pool per §5.3: ISPs 45%, hosting 36%, business the rest; VSE and
  // NFO go to gaming infrastructure.
  std::vector<std::uint32_t> isp_as, hosting_as, business_as, gaming_as;
  std::uint32_t nfo_as = 0;
  for (const auto& a : asdb_.all()) {
    if (a.asn >= 64512) continue;  // keep victims in the named population
    if (a.gaming) gaming_as.push_back(a.asn);
    if (a.name == "NFOservers") nfo_as = a.asn;
    switch (a.type) {
      case asdb::AsType::kIsp: isp_as.push_back(a.asn); break;
      case asdb::AsType::kHosting: hosting_as.push_back(a.asn); break;
      case asdb::AsType::kBusiness: business_as.push_back(a.asn); break;
    }
  }

  auto pick_target = [&](proto::AttackType type) -> net::Endpoint {
    std::uint32_t asn;
    if (type == proto::AttackType::kNfo) {
      asn = nfo_as;
    } else if (type == proto::AttackType::kVse) {
      asn = gaming_as[static_cast<std::size_t>(rng.uniform(0, gaming_as.size() - 1))];
    } else {
      const std::size_t bucket = rng.weighted({0.45, 0.36, 0.19});
      const auto& pool = bucket == 0 ? isp_as : bucket == 1 ? hosting_as : business_as;
      asn = pool[static_cast<std::size_t>(rng.uniform(0, pool.size() - 1))];
    }
    net::Port port;
    if (type == proto::AttackType::kBlacknurse) {
      port = 0;  // ICMP
    } else if (type == proto::AttackType::kNfo) {
      port = 238;  // §5.1: custom payload against UDP/238
    } else if (type == proto::AttackType::kVse) {
      port = 27015;  // Source engine query port
    } else {
      const std::size_t r = rng.weighted({0.21, 0.07, 0.72});
      port = r == 0 ? net::Port{80}
             : r == 1 ? net::Port{443}
                      : static_cast<net::Port>(rng.uniform(1024, 50000));
    }
    return {asdb_.random_ip_in(asn, rng), port};
  };

  // `made` drives the time-spread stride and the 3-vs-2 command plan size;
  // start it at this shard's global fleet offset so the merged command
  // total stays close to the unsharded study's (~42).
  int made = static_cast<int>(static_cast<long long>(fleet) * cfg_.shard_index /
                              cfg_.shard_count);
  for (const auto& quota : quotas) {
    int assigned = 0;
    // Spread attacker C2s across the study; pick matching-family C2s.
    for (std::size_t i = 0; i < c2s_.size() && assigned < quota.c2s; ++i) {
      // Stride deterministically through the population for time spread.
      const std::size_t idx = (i * 37 + static_cast<std::size_t>(made) * 101) % c2s_.size();
      PlannedC2& c2 = c2s_[idx];
      if (c2.attacker || c2.cfg.family != quota.family) continue;
      // The server's own profile (possibly a variant) dictates its command
      // vocabulary; a profile with no attack encoding cannot be an attacker.
      const auto types = c2.cfg.profile->command_types();
      if (types.empty()) continue;
      c2.attacker = true;
      c2.lifetime_days = static_cast<int>(rng.uniform(10, 16));  // ~10 d (§5)
      c2.cfg.accept_prob = 0.98;
      c2.cfg.mean_dormancy = sim::Duration::minutes(30);

      // Plan 2 commands (a couple of servers get 3 so the yearly total
      // lands near the paper's 42 across ~20 observed sessions).
      const int plan_size = (made < 10) ? 3 : 2;
      net::Endpoint shared_target{};  // 25% of targets hit by two types
      const bool reuse_target = rng.chance(0.5);
      for (int k = 0; k < plan_size; ++k) {
        proto::AttackType type =
            types[static_cast<std::size_t>(rng.uniform(0, types.size() - 1))];
        if (k == 1 && type == c2.cfg.attack_plan[0].type && types.size() > 1) {
          // Avoid trivially duplicated commands in one plan.
          type = types[(static_cast<std::size_t>(rng.uniform(0, types.size() - 1)) + 1) %
                       types.size()];
        }
        proto::AttackCommand cmd;
        cmd.family = quota.family;
        cmd.type = type;
        cmd.duration_s = static_cast<std::uint32_t>(rng.uniform(20, 60));
        if (k == 1 && reuse_target && type != proto::AttackType::kNfo &&
            type != proto::AttackType::kBlacknurse) {
          cmd.target = shared_target;  // same victim, second attack type
        } else {
          cmd.target = pick_target(type);
        }
        if (k == 0) shared_target = cmd.target;
        c2.cfg.attack_plan.push_back(std::move(cmd));
      }
      ++assigned;
      ++made;
    }
  }
}

void World::plan_samples(util::Rng& rng) {
  const auto& vdb = vulndb::VulnDatabase::instance();
  const auto vulns = vdb.all();
  std::vector<double> vuln_w;
  vuln_w.reserve(vulns.size());
  for (const auto& v : vulns) vuln_w.push_back(v.corpus_weight);

  // Figure 8's temporal shape: the heavy vulnerabilities are used all year;
  // the rare ones appear in short campaign bursts. Each low-volume
  // vulnerability gets one ~6-week window anchored on an active study week
  // at or after its disclosure (CVE-2021-45382 cannot burst in July 2021).
  std::vector<std::pair<std::int64_t, std::int64_t>> vuln_window(vulns.size(),
                                                                 {0, 1'000'000});
  for (std::size_t vi = 0; vi < vulns.size(); ++vi) {
    if (vulns[vi].paper_samples > 10) continue;  // persistent usage
    const std::int64_t published = vulns[vi].publication_study_day();
    const auto& week_starts = active_week_start_days();
    std::vector<std::int64_t> eligible;
    for (const auto day : week_starts) {
      if (day >= published) eligible.push_back(day);
    }
    const std::int64_t start =
        eligible.empty() ? week_starts.back()
                         : eligible[static_cast<std::size_t>(
                               rng.uniform(0, eligible.size() - 1))];
    vuln_window[vi] = {start, start + 42};
  }

  // Dedicated (non-C2) downloader pool — the minority of §3.1 — split
  // across shards (floor of one so the fallback pick below never starves).
  const int dl_pool =
      std::max(1, shard_share(8, cfg_.shard_count, cfg_.shard_index));
  std::vector<net::Ipv4> dedicated_dl;
  for (int i = 0; i < dl_pool; ++i) {
    const auto& all = asdb_.all();
    const auto& as = all[static_cast<std::size_t>(rng.uniform(0, all.size() - 1))];
    dedicated_dl.push_back(asdb_.random_ip_in(as.asn, rng));
  }
  dedicated_downloaders_ = dedicated_dl;

  // Group C2 indices by birth week so samples reference *recent* servers.
  const auto& weeks = active_week_start_days();
  const auto& volume = weekly_sample_volume();
  std::vector<std::vector<std::size_t>> c2_by_week(weeks.size());
  for (std::size_t i = 0; i < c2s_.size(); ++i) {
    for (std::size_t w = 0; w < weeks.size(); ++w) {
      if (c2s_[i].birth_day >= weeks[w] && c2s_[i].birth_day < weeks[w] + 7) {
        c2_by_week[w].push_back(i);
        break;
      }
    }
  }
  // Longest-lived campaigns distribute the most binaries: order each weekly
  // cohort by lifetime so the Zipf head lands on them. This is what makes
  // multi-day observed lifespans (Figure 2's tail) possible at all.
  for (auto& cohort : c2_by_week) {
    std::sort(cohort.begin(), cohort.end(), [this](std::size_t a, std::size_t b) {
      return c2s_[a].lifetime_days > c2s_[b].lifetime_days;
    });
  }
  // Zipf ranks over a cohort: one weight table per cohort size, built on
  // first use (draws are bit-identical to Rng::zipf(n, s)).
  std::map<std::uint64_t, util::ZipfTable> zipf_tables;
  const auto zipf_rank = [&](std::size_t n) {
    const auto it = zipf_tables.try_emplace(n, n, cfg_.zipf_share_exponent).first;
    return rng.zipf(it->second);
  };
  // Dedicated-C2 cursor: round-robin from the cohort tail (the short-lived
  // majority), so singleton servers skew short-lived as in Figure 2.
  std::vector<std::size_t> next_unused_in_cohort(weeks.size());
  for (std::size_t w = 0; w < weeks.size(); ++w) {
    next_unused_in_cohort[w] = c2_by_week[w].size() / 3;  // skip the Zipf head
  }

  // Attacker-C2 samples are pinned to their server's birth week so every
  // attack plan gets a fresh, live session (target ~20 samples over the
  // 17-server fleet, §5). A few attackers serve two samples.
  std::map<std::size_t, std::vector<std::size_t>> attacker_by_week;  // week -> c2 idx
  {
    std::vector<std::size_t> attacker_idx;
    for (std::size_t i = 0; i < c2s_.size(); ++i) {
      if (c2s_[i].attacker) attacker_idx.push_back(i);
    }
    int budget = shard_share(cfg_.attacker_sample_count, cfg_.shard_count,
                             cfg_.shard_index);
    for (std::size_t k = 0; k < attacker_idx.size() && budget > 0; ++k, --budget) {
      const std::size_t idx = attacker_idx[k];
      for (std::size_t w = 0; w < weeks.size(); ++w) {
        if (c2s_[idx].birth_day >= weeks[w] && c2s_[idx].birth_day < weeks[w] + 7) {
          attacker_by_week[w].push_back(idx);
          break;
        }
      }
    }
    // Remaining budget: second samples for the earliest attackers, one day
    // after birth (still within their 8-14 day lifetime).
    std::size_t k = 0;
    while (budget > 0 && k < attacker_idx.size()) {
      const std::size_t idx = attacker_idx[k++];
      for (std::size_t w = 0; w < weeks.size(); ++w) {
        if (c2s_[idx].birth_day >= weeks[w] && c2s_[idx].birth_day < weeks[w] + 7) {
          attacker_by_week[w].push_back(idx);
          --budget;
          break;
        }
      }
    }
  }

  std::set<std::size_t> attacker_seen;
  std::vector<std::string> recent_downloaders;
  // `total` counts the *study-wide* sample slots so every shard walks the
  // same weekly layout; this shard only materializes its interleaved share.
  int total = 0;
  for (std::size_t w = 0; w < weeks.size() && total < cfg_.total_samples; ++w) {
    for (int s = 0; s < volume[w] && total < cfg_.total_samples; ++s, ++total) {
      if (total % cfg_.shard_count != cfg_.shard_index) continue;
      PlannedSample sample;
      // P2P share first; centralised samples inherit the family of the C2
      // they are built for (a Gafgyt binary talks to a Gafgyt server).
      const double p2p_share =
          cfg_.family_weights[static_cast<std::size_t>(proto::Family::kMozi)] +
          cfg_.family_weights[static_cast<std::size_t>(proto::Family::kHajime)];
      proto::Family family;
      if (rng.chance(p2p_share)) {
        const double mozi_w =
            cfg_.family_weights[static_cast<std::size_t>(proto::Family::kMozi)];
        family = rng.chance(mozi_w / p2p_share) ? proto::Family::kMozi
                                                : proto::Family::kHajime;
      } else {
        family = proto::Family::kMirai;  // provisional; overwritten below
      }

      const PlannedC2* primary = nullptr;
      const PlannedC2* fallback = nullptr;
      std::vector<const PlannedC2*> extras;
      std::int64_t ref_day = weeks[w] + static_cast<std::int64_t>(rng.uniform(0, 6));

      if (!proto::is_p2p(family)) {
        // Attacker-referencing samples are injected first in each week.
        std::size_t c2_idx = SIZE_MAX;
        auto& week_attackers = attacker_by_week[w];
        if (!week_attackers.empty()) {
          c2_idx = week_attackers.back();
          week_attackers.pop_back();
        }
        if (c2_idx == SIZE_MAX) {
          const auto& cohort = !c2_by_week[w].empty()
                                   ? c2_by_week[w]
                                   : c2_by_week[w == 0 ? 0 : w - 1];
          if (cohort.empty()) continue;  // no C2 cohort: skip slot
          if (rng.chance(cfg_.dedicated_c2_fraction) &&
              next_unused_in_cohort[w] < cohort.size()) {
            // A fresh, dedicated server: drives Figure 5's singleton mass.
            c2_idx = cohort[next_unused_in_cohort[w]++];
          } else {
            // Shared infrastructure: Zipf over the cohort (longest-lived
            // campaigns first).
            const auto rank = zipf_rank(cohort.size());
            c2_idx = cohort[static_cast<std::size_t>(rank - 1)];
          }
        }
        primary = &c2s_[c2_idx];
        family = primary->cfg.family;
        // Samples surface with a reporting lag after the server goes up;
        // long-lived campaigns also keep releasing fresh binaries while the
        // server stays alive.
        auto lag = static_cast<std::int64_t>(rng.geometric(cfg_.report_lag_p));
        if (primary->lifetime_days >= 3 && rng.chance(0.7)) {
          lag = static_cast<std::int64_t>(
              rng.uniform(0, static_cast<std::uint64_t>(primary->lifetime_days - 1)));
        }
        ref_day = primary->birth_day + std::min<std::int64_t>(lag, 30);
        if (primary->attacker) {
          // First sample lands on birth day; later ones spread across the
          // attacker's long lifetime (what makes their observed lifespan
          // ~10 days, §5).
          if (attacker_seen.insert(c2_idx).second) {
            ref_day = primary->birth_day;
          } else {
            ref_day = primary->birth_day +
                      static_cast<std::int64_t>(rng.uniform(
                          1, static_cast<std::uint64_t>(primary->lifetime_days - 2)));
          }
        }

        if (rng.chance(cfg_.fallback_ref_prob) && !c2_by_week[w].empty()) {
          // Fallback must speak the same dialect: same profile, IP-only.
          for (int attempt = 0; attempt < 16 && fallback == nullptr; ++attempt) {
            const auto rank = zipf_rank(c2_by_week[w].size());
            const auto* cand = &c2s_[c2_by_week[w][static_cast<std::size_t>(rank - 1)]];
            if (cand != primary && !cand->cfg.domain &&
                cand->cfg.profile == primary->cfg.profile) {
              fallback = cand;
            }
          }
        }

        // Profiles with `fallback.extra` > 0 embed additional failover
        // servers beyond the classic single fallback. Builtin profiles
        // declare none, so baseline plans draw nothing here.
        const int want_extra = primary->cfg.profile->extra_fallbacks;
        if (want_extra > 0 && !c2_by_week[w].empty()) {
          for (int e = 0; e < want_extra; ++e) {
            for (int attempt = 0; attempt < 16; ++attempt) {
              const auto rank = zipf_rank(c2_by_week[w].size());
              const auto* cand = &c2s_[c2_by_week[w][static_cast<std::size_t>(rank - 1)]];
              if (cand == primary || cand == fallback || cand->cfg.domain ||
                  cand->cfg.profile != primary->cfg.profile) {
                continue;
              }
              if (std::find(extras.begin(), extras.end(), cand) != extras.end()) {
                continue;
              }
              extras.push_back(cand);
              break;
            }
          }
        }
      }

      sample.truth_family = family;
      const profile::FamilyProfile* sprof =
          primary != nullptr && primary->cfg.profile != nullptr
              ? primary->cfg.profile
              : registry_->active(family);
      auto spec = make_spec(rng, family, primary, fallback);
      for (const auto* e : extras) {
        spec.extra_c2.push_back({e->cfg.ip, e->cfg.port});
      }
      if (primary != nullptr && primary->attacker) spec.anti_sandbox = false;

      // Exploit-carrying minority (D-Exploits, Table 4, Figures 8/9).
      if (rng.chance(cfg_.exploit_sample_fraction)) {
        const int n_tasks = static_cast<int>(
            rng.uniform(static_cast<std::uint64_t>(cfg_.exploit_tasks_min),
                        static_cast<std::uint64_t>(cfg_.exploit_tasks_max)));
        // Day-conditional weights: rare exploits ship only inside their
        // burst window, boosted so their yearly totals still match Table 4.
        std::vector<double> day_w(vulns.size());
        for (std::size_t vi = 0; vi < vulns.size(); ++vi) {
          const bool in_window = ref_day >= vuln_window[vi].first &&
                                 ref_day <= vuln_window[vi].second;
          const bool bursty = vulns[vi].paper_samples <= 10;
          day_w[vi] = !bursty ? vuln_w[vi]
                      : in_window ? vuln_w[vi] * (365.0 / 42.0)
                                  : 0.0;
        }
        std::vector<vulndb::VulnId> chosen;
        for (int k = 0; k < n_tasks; ++k) {
          const auto vi = rng.weighted(std::span<const double>(day_w));
          const auto& v = vulns[vi];
          if (std::find(chosen.begin(), chosen.end(), v.id) != chosen.end()) continue;
          chosen.push_back(v.id);
          mal::ScanTask task;
          task.port = v.port;
          task.vuln = v.id;
          task.target_count = static_cast<std::uint32_t>(rng.uniform(40, 80));
          task.pps = 5.0 + rng.uniform01() * 15.0;
          spec.scans.push_back(task);
        }
        // Loader choice with exploit affinity (Figure 9).
        const auto& loaders = vdb.loaders();
        std::string loader;
        for (const auto& l : loaders) {
          if (l.affinity &&
              std::find(chosen.begin(), chosen.end(), *l.affinity) != chosen.end() &&
              rng.chance(0.8)) {
            loader = l.name;
            break;
          }
        }
        if (loader.empty()) {
          std::vector<double> lw;
          for (const auto& l : loaders) lw.push_back(l.weight);
          loader = loaders[rng.weighted(std::span<const double>(lw))].name;
        }
        spec.loader_name = loader;
        // Downloader: campaigns reuse a small set of loader servers, most
        // co-hosted on C2 boxes (§3.1: 47 distinct, only 12 not C2s).
        if (!recent_downloaders.empty() && rng.chance(0.78)) {
          spec.downloader_host = rng.pick(recent_downloaders);
        } else if (primary != nullptr && rng.chance(cfg_.downloader_on_c2_prob)) {
          spec.downloader_host = net::to_string(primary->cfg.ip);
          const_cast<PlannedC2*>(primary)->downloader = true;
          recent_downloaders.push_back(spec.downloader_host);
        } else {
          spec.downloader_host = net::to_string(rng.pick(dedicated_dl));
          recent_downloaders.push_back(spec.downloader_host);
        }
        if (recent_downloaders.size() > 8) {
          recent_downloaders.erase(recent_downloaders.begin());
        }
      }

      // Telnet credential sweep for the majority (classic Mirai behaviour).
      if (rng.chance(0.6)) {
        mal::ScanTask telnet;
        telnet.port = 23;
        telnet.target_count = static_cast<std::uint32_t>(rng.uniform(30, 60));
        telnet.pps = 3.0 + rng.uniform01() * 10.0;
        spec.scans.push_back(telnet);
      }

      // Forge the binary.
      mal::MbfBinary content;
      content.behavior = spec;
      content.marker_strings = {sprof->marker, "POST /cdn-cgi/",
                                "/proc/net/tcp", "watchdog"};
      sample.binary = mal::forge(content, rng);
      if (rng.chance(cfg_.corrupt_fraction) &&
          (primary == nullptr || !primary->attacker)) {
        // A damaged download: keep a head fragment (the behaviour section
        // is cut mid-stream) plus a few bytes of line noise so every
        // corrupt artifact still hashes uniquely.
        sample.binary.resize(std::min<std::size_t>(100, sample.binary.size()));
        for (int nb = 0; nb < 4; ++nb) {
          sample.binary.push_back(static_cast<std::uint8_t>(rng.uniform(0, 255)));
        }
        sample.truth_corrupt = true;
      }
      sample.sha256 = mal::digest(sample.binary);
      sample.first_seen_day = ref_day;
      sample.source = rng.chance(0.55) ? FeedSource::kVirusTotal
                                       : FeedSource::kMalwareBazaar;
      sample.vt_detections = static_cast<int>(rng.uniform(6, 42));
      if (primary != nullptr) sample.truth_c2_refs.push_back(primary->address);
      if (fallback != nullptr) {
        sample.truth_c2_refs.push_back(net::to_string(fallback->cfg.ip));
      }
      for (const auto* e : extras) {
        sample.truth_c2_refs.push_back(net::to_string(e->cfg.ip));
      }
      samples_.push_back(std::move(sample));
    }
  }

  // Feed noise: the public feeds also surface ARM/x86 builds of the same
  // families; the paper's pipeline discards them at the architecture gate.
  const int extra = shard_share(
      static_cast<int>(cfg_.total_samples * cfg_.non_mips_extra_fraction),
      cfg_.shard_count, cfg_.shard_index);
  for (int i = 0; i < extra; ++i) {
    PlannedSample decoy;
    mal::MbfBinary content;
    content.arch = rng.chance(0.7) ? mal::Arch::kArm32 : mal::Arch::kX86;
    content.behavior = make_spec(rng, proto::Family::kMozi, nullptr, nullptr);
    content.marker_strings = {registry_->active(proto::Family::kMozi)->marker};
    decoy.binary = mal::forge(content, rng);
    decoy.sha256 = mal::digest(decoy.binary);
    decoy.truth_arch = content.arch;
    decoy.truth_family = proto::Family::kMozi;
    decoy.first_seen_day = static_cast<std::int64_t>(
        rng.uniform(0, static_cast<std::uint64_t>(weeks.back() + 6)));
    decoy.source = rng.chance(0.5) ? FeedSource::kVirusTotal
                                   : FeedSource::kMalwareBazaar;
    decoy.vt_detections = static_cast<int>(rng.uniform(6, 42));
    samples_.push_back(std::move(decoy));
  }

  std::sort(samples_.begin(), samples_.end(),
            [](const PlannedSample& a, const PlannedSample& b) {
              return a.first_seen_day < b.first_seen_day;
            });
}

mal::BehaviorSpec World::make_spec(util::Rng& rng, proto::Family family,
                                   const PlannedC2* primary,
                                   const PlannedC2* fallback) {
  const profile::FamilyProfile* prof =
      primary != nullptr && primary->cfg.profile != nullptr
          ? primary->cfg.profile
          : registry_->active(family);
  mal::BehaviorSpec spec;
  spec.family = family;
  // Variant binaries carry the profile name so the malware process picks up
  // the variant dialect; builtin-named profiles stay implicit (keeps the
  // behaviour-spec wire bytes identical to the pre-profile encoder).
  if (prof->name != proto::to_string(family)) spec.profile_name = prof->name;
  spec.bot_id = default_bot_id(family, rng);
  spec.keepalive_s = static_cast<std::uint32_t>(
      rng.uniform(prof->keepalive_min_s, prof->keepalive_max_s));
  spec.check_internet = rng.chance(0.4);
  spec.anti_sandbox = rng.chance(cfg_.anti_sandbox_fraction);
  if (rng.chance(cfg_.telemetry_fraction)) {
    spec.telemetry_domain =
        kTelemetryDomains[rng.uniform(0, std::size(kTelemetryDomains) - 1)];
  }

  if (proto::is_p2p(family)) {
    spec.node_id.clear();
    for (int i = 0; i < 20; ++i) {
      spec.node_id.push_back(static_cast<char>(rng.uniform(33, 126)));
    }
    for (int i = 0; i < 4; ++i) {
      const auto& all = asdb_.all();
      const auto& as = all[static_cast<std::size_t>(rng.uniform(0, all.size() - 1))];
      spec.p2p_peers.push_back(
          {asdb_.random_ip_in(as.asn, rng), static_cast<net::Port>(rng.uniform(20000, 60000))});
    }
    return spec;
  }

  if (primary == nullptr) throw std::logic_error("make_spec: centralised family needs C2");
  if (primary->cfg.domain) {
    spec.c2_domain = primary->cfg.domain;
  } else {
    spec.c2_ip = primary->cfg.ip;
  }
  spec.c2_port = primary->cfg.port;
  if (fallback != nullptr && prof->topology == profile::Topology::kFallback) {
    spec.c2_fallback_ip = fallback->cfg.ip;
    spec.c2_fallback_port = fallback->cfg.port;
  }
  return spec;
}

void World::advance_to_day(std::int64_t day) {
  if (day < current_day_) throw std::logic_error("World::advance_to_day: time reversal");
  current_day_ = day;

  // Kill servers whose lifetime ended (drain their issued-command log first).
  for (auto it = live_.begin(); it != live_.end();) {
    const PlannedC2& plan = c2s_[c2_index_.at(it->first)];
    if (day >= plan.death_day()) {
      const auto& issued = it->second->issued();
      for (std::size_t k = issued_seen_[it->first]; k < issued.size(); ++k) {
        issued_log_.push_back(issued[k]);
      }
      issued_seen_.erase(it->first);
      util::log_line(util::LogLevel::kDebug, "world",
                     "C2 down " + it->first + " day " + std::to_string(day));
      it = live_.erase(it);
    } else {
      ++it;
    }
  }

  // Bring up servers whose birth day arrived.
  while (next_birth_ < birth_order_.size() &&
         c2s_[birth_order_[next_birth_]].birth_day <= day) {
    const PlannedC2& plan = c2s_[birth_order_[next_birth_]];
    ++next_birth_;
    if (day >= plan.death_day()) continue;  // born and died in the skipped gap
    util::log_line(util::LogLevel::kDebug, "world",
                   "C2 up " + plan.address + ":" + std::to_string(plan.cfg.port) +
                   " day " + std::to_string(day) + (plan.attacker ? " [attacker]" : ""));
    auto rng = util::Rng(cfg_.seed ^ util::fnv1a64(plan.address), 0x5eed);
    auto server = std::make_unique<C2Server>(net_, plan.cfg, std::move(rng));
    if (plan.downloader) {
      DownloaderServer::attach_to(*server, downloader_hits_[plan.address]);
    }
    issued_seen_[plan.address] = 0;
    live_.emplace(plan.address, std::move(server));
  }

  // Refresh the issued-command log for still-live servers.
  for (auto& [addr, server] : live_) {
    const auto& issued = server->issued();
    for (std::size_t k = issued_seen_[addr]; k < issued.size(); ++k) {
      issued_log_.push_back(issued[k]);
    }
    issued_seen_[addr] = issued.size();
  }
}

C2Server* World::live_c2(const std::string& address) const {
  const auto it = live_.find(address);
  if (it != live_.end()) return it->second.get();
  // Domain-keyed servers are also reachable by IP string.
  const auto idx = c2_index_.find(address);
  if (idx == c2_index_.end()) return nullptr;
  const auto it2 = live_.find(c2s_[idx->second].address);
  return it2 == live_.end() ? nullptr : it2->second.get();
}

bool World::c2_alive_on(const std::string& address, std::int64_t day) const {
  const auto* plan = find_c2(address);
  return plan != nullptr && plan->alive_on(day);
}

const PlannedC2* World::find_c2(const std::string& address) const {
  const auto it = c2_index_.find(address);
  return it == c2_index_.end() ? nullptr : &c2s_[it->second];
}

}  // namespace malnet::botnet
