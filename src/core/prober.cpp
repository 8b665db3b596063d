#include "core/prober.hpp"

#include <set>

#include "util/log.hpp"

namespace malnet::core {

void probe_liveness(emu::Sandbox& sandbox, const Weapon& weapon, net::Endpoint target,
                    std::function<void(LivenessResult)> done, sim::Duration duration,
                    ProbePolicy policy) {
  if (!done) throw std::invalid_argument("probe_liveness: null callback");
  emu::SandboxOptions opts;
  opts.mode = emu::SandboxMode::kWeaponized;
  opts.duration = duration;
  opts.c2_hint = weapon.c2_hint;
  opts.mitm_target = target;
  const int attempts_left = std::max(1, policy.attempts) - 1;
  sandbox.start(weapon.binary, opts,
                [&sandbox, weapon, target, duration, policy, attempts_left,
                 done = std::move(done)](const emu::SandboxReport& report) mutable {
                  LivenessResult res;
                  res.first_data = report.mitm_first_data;
                  // A well-known service banner means we reached something
                  // benign, not a C2 (§2.6 filtering).
                  res.engaged =
                      report.mitm_engaged &&
                      !inetsim::is_well_known_banner(util::to_string(res.first_data));
                  if (res.engaged || attempts_left <= 0) {
                    done(res);
                    return;
                  }
                  // Re-probe: a dead first attempt may just be injected loss.
                  ProbePolicy next = policy;
                  next.attempts = attempts_left;
                  sandbox.network().scheduler().after(
                      policy.retry_delay,
                      [&sandbox, weapon, target, duration, next,
                       done = std::move(done)]() mutable {
                        probe_liveness(sandbox, weapon, target, std::move(done),
                                       duration, next);
                      });
                });
}

// ---------------------------------------------------------------------------

struct ProbeCampaign::Round {
  int round = 0;
  std::int64_t start_sim_us = 0;
  std::vector<net::Endpoint> queue;
  std::size_t next = 0;
  int outstanding = 0;
  bool scouting_done = false;
  std::vector<net::Endpoint> candidates;
  std::size_t next_candidate = 0;
  std::size_t weapon_idx = 0;
  std::set<net::Endpoint> responsive;
};

ProbeCampaign::ProbeCampaign(sim::Network& net, emu::Sandbox& sandbox,
                             ProbeCampaignConfig cfg, std::vector<Weapon> weapons,
                             std::function<void(ProbeCampaignResult)> done)
    : net_(net),
      sandbox_(sandbox),
      cfg_(std::move(cfg)),
      weapons_(std::move(weapons)),
      done_(std::move(done)) {
  if (cfg_.subnets.empty() || cfg_.ports.empty() || weapons_.empty() || !done_) {
    throw std::invalid_argument("ProbeCampaign: incomplete configuration");
  }
  scout_ = std::make_unique<sim::Host>(net_, net::Ipv4{192, 0, 2, 9}, "prober-scout");
}

ProbeCampaign::~ProbeCampaign() = default;

void ProbeCampaign::start() { run_round(0); }

void ProbeCampaign::run_round(int round) {
  if (round >= cfg_.rounds) {
    result_.rounds = cfg_.rounds;
    for (auto& [ep, bits] : full_raster_) {
      bool any = false;
      for (const bool b : bits) any |= b;
      if (any) result_.raster.emplace(ep, bits);
    }
    done_(std::move(result_));
    return;
  }
  round_ = std::make_unique<Round>();
  round_->round = round;
  round_->start_sim_us = net_.now().us;
  for (const auto& subnet : cfg_.subnets) {
    for (std::uint32_t h = 1; h + 1 < subnet.size(); ++h) {
      for (const auto port : cfg_.ports) {
        round_->queue.push_back({subnet.host(h), port});
      }
    }
  }
  scout_next();
}

void ProbeCampaign::scout_next() {
  // Issue one 100 ms batch of scout connects.
  Round& r = *round_;
  const auto batch = static_cast<std::size_t>(cfg_.scout_rate_pps / 10.0) + 1;
  for (std::size_t i = 0; i < batch && r.next < r.queue.size(); ++i) {
    const net::Endpoint target = r.queue[r.next++];
    ++result_.scout_probes;
    ++r.outstanding;
    // Capturing only `this` keeps the handler inside std::function's
    // inline buffer: a dark probe, nearly every probe, allocates nothing.
    scout_->tcp_connect(
        target,
        [this](sim::ConnectOutcome outcome, sim::TcpConn* conn) {
          on_scout_outcome(outcome, conn);
        },
        sim::Duration::seconds(2));
  }
  if (r.next < r.queue.size()) {
    scout_->schedule_safe(sim::Duration::millis(100), [this]() { scout_next(); });
  } else {
    r.scouting_done = true;
    if (r.outstanding == 0) engage_candidates();
  }
}

void ProbeCampaign::on_scout_outcome(sim::ConnectOutcome outcome, sim::TcpConn* conn) {
  if (outcome != sim::ConnectOutcome::kConnected || conn == nullptr) {
    scout_settled();
    return;
  }
  // Listener found: wait briefly for a service banner.
  auto banner = std::make_shared<std::string>();
  conn->on_data([banner](sim::TcpConn&, util::BytesView data) {
    banner->append(reinterpret_cast<const char*>(data.data()), data.size());
  });
  scout_->schedule_safe(cfg_.banner_wait, [this, banner, conn]() {
    if (conn->established()) conn->close();
    if (!banner->empty() && inetsim::is_well_known_banner(*banner)) {
      ++result_.banner_filtered;
    } else {
      round_->candidates.push_back(conn->remote());
    }
    scout_settled();
  });
}

void ProbeCampaign::scout_settled() {
  --round_->outstanding;
  if (round_->scouting_done && round_->outstanding == 0) engage_candidates();
}

void ProbeCampaign::engage_candidates() {
  Round& r = *round_;
  if (r.next_candidate >= r.candidates.size()) {
    finish_round();
    return;
  }
  const net::Endpoint target = r.candidates[r.next_candidate];
  if (r.weapon_idx >= weapons_.size()) {
    // No weapon engaged this target; move on.
    r.weapon_idx = 0;
    ++r.next_candidate;
    engage_candidates();
    return;
  }
  const Weapon& weapon = weapons_[r.weapon_idx];
  ++result_.weapon_runs;
  probe_liveness(sandbox_, weapon, target, [this, target](LivenessResult res) {
    Round& cur = *round_;
    if (res.engaged) {
      cur.responsive.insert(target);
      cur.weapon_idx = 0;
      ++cur.next_candidate;
    } else {
      ++cur.weapon_idx;
    }
    engage_candidates();
  });
}

void ProbeCampaign::finish_round() {
  const Round& r = *round_;
  // Record this round's outcome for every target we have ever seen listen.
  for (const auto& ep : r.candidates) {
    full_raster_.try_emplace(ep, std::vector<bool>(static_cast<std::size_t>(cfg_.rounds)));
  }
  for (auto& [ep, bits] : full_raster_) {
    bits[static_cast<std::size_t>(r.round)] = r.responsive.count(ep) > 0;
  }
  if (cfg_.obs != nullptr) {
    cfg_.obs->registry.counter("campaign.rounds").inc();
    if (cfg_.obs->tracer.enabled()) {
      std::string args = "\"round\":" + std::to_string(r.round) +
                         ",\"candidates\":" + std::to_string(r.candidates.size()) +
                         ",\"responsive\":" + std::to_string(r.responsive.size());
      cfg_.obs->tracer.complete("campaign:round " + std::to_string(r.round),
                                "campaign", r.start_sim_us, args);
    }
  }
  const int next_round = r.round + 1;
  scout_->schedule_safe(cfg_.interval, [this, next_round]() { run_round(next_round); });
}

}  // namespace malnet::core
