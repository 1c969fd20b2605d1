// Exactness oracle for the context-skip predicate
// (CappingManager::context_skippable).
//
// The skip is speed-only: a gated cycle whose context build it clears must
// end exactly where the build would have left it. The oracle builds on
// every cycle the collect gate opens — the behaviour before the predicate
// existed — and every run below is compared with it bit for bit: the
// per-cycle ManagerReport state and every registry counter after each
// cycle, final node levels, the Prometheus export with
// wall-clock spans and the skip counter itself stripped, and warm-restart
// images taken along the way. The flat oracle drives one CappingManager
// through open_cycle/close_cycle, widening build_context to the gate; the
// zone-tree oracle is a reference tree driving the shard phase API.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/experiment.hpp"
#include "cluster/scenario.hpp"
#include "power/checkpoint.hpp"
#include "power/manager.hpp"
#include "power/policy_registry.hpp"
#include "power/zone_manager.hpp"

namespace pcap {
namespace {

using power::CappingManager;
using power::ManagerReport;
using power::PowerState;

/// The ManagerReport fields no registry counter carries; doubles in hex so
/// equality is bitwise. Every counted field (targets, stale views, acks,
/// ...) and every mirrored total is compared through counters() below.
std::string describe(const ManagerReport& r) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "s=%d m=%a pl=%a ph=%a tr=%d u=%a hf=%d f=%a fe=%a fs=%d "
                "cd=%d",
                static_cast<int>(r.state), r.measured.value(),
                r.p_low.value(), r.p_high.value(), r.training ? 1 : 0,
                r.manager_utilization, r.has_forecast ? 1 : 0,
                r.forecast.value(), r.forecast_abs_error,
                r.forecast_scored ? 1 : 0, r.controller_down ? 1 : 0);
  return buf;
}

/// Every registry counter after a cycle, minus the ones that legitimately
/// differ from the oracle: the skip counter and, for the tree, the
/// per-zone series (zone activity differs by design). Then the gauges the
/// registry mirrors from instantaneous owner state.
std::string counters(const obs::Registry& reg, bool zone_series) {
  std::string out;
  for (const auto& [key, value] : reg.counter_values()) {
    if (key.find("context_skips") != std::string::npos ||
        (zone_series && key.rfind("pcap_zone_", 0) == 0)) {
      continue;
    }
    out += " " + key + "=" + std::to_string(value);
  }
  for (const char* key :
       {"pcap_manager_commands_in_flight", "pcap_manager_unresponsive_nodes",
        "pcap_telemetry_agents_down", "pcap_ctrl_orphan_zones"}) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), " %s=%a", key,
                  reg.value(*reg.find_gauge(key)));
    out += buf;
  }
  return out;
}

/// Drops the series that legitimately differ from the oracle: wall-clock
/// phase spans, the skip counter, and — for the tree — the per-zone
/// series (zone activity differs by design; zone power and share are
/// compared per cycle instead).
std::string strip(const std::string& prom, bool zone_series) {
  std::string out;
  std::size_t pos = 0;
  while (pos < prom.size()) {
    std::size_t eol = prom.find('\n', pos);
    if (eol == std::string::npos) eol = prom.size();
    const std::string line = prom.substr(pos, eol - pos);
    const bool drop =
        line.find("phase_seconds") != std::string::npos ||
        line.find("context_skips") != std::string::npos ||
        (zone_series && line.find("pcap_zone_") != std::string::npos);
    if (!drop) out += line + '\n';
    pos = eol + 1;
  }
  return out;
}

// -- the zone-tree oracle --------------------------------------------------

/// The zone tree with every gated zone building its context, driven
/// through the shard phase API. Covers what the tree scenario below uses:
/// block assignment, both redistributions, yellow/red quiescence hints —
/// no control faults, watchdog or forecasting.
class ReferenceTree final : public power::PowerManagerBase {
 public:
  ReferenceTree(power::ZoneTreeParams params, power::CappingManagerParams shard,
                const std::function<power::PolicyPtr()>& factory,
                common::Rng rng)
      : params_(params), learner_(shard.thresholds) {
    shard.thresholds.freeze_at_provision = true;
    shard.control = power::ControlFaultParams{};
    shard.prediction = power::PredictionParams{};
    zones_.resize(params_.zone_count);
    for (std::size_t z = 0; z < zones_.size(); ++z) {
      zones_[z].shard = std::make_unique<CappingManager>(
          shard, factory(), rng.fork("zone" + std::to_string(z)));
      shards_.push_back(zones_[z].shard.get());
    }
  }

  [[nodiscard]] std::string name() const override { return "reference"; }
  void bind_metrics(obs::Registry& reg) override { metrics_.bind(reg); }

  void set_candidate_set(std::vector<hw::NodeId> ids) {
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    const std::size_t q = ids.size() / zones_.size();
    const std::size_t r = ids.size() % zones_.size();
    std::size_t begin = 0;
    for (std::size_t z = 0; z < zones_.size(); ++z) {
      const std::size_t len = q + (z < r ? 1 : 0);
      zones_[z].shard->set_candidate_set(std::vector<hw::NodeId>(
          ids.begin() + static_cast<std::ptrdiff_t>(begin),
          ids.begin() + static_cast<std::ptrdiff_t>(begin + len)));
      zones_[z].hints_valid = false;
      zones_[z].ever_measured = false;
      begin += len;
    }
  }

  ManagerReport cycle(Watts measured, std::vector<hw::Node>& nodes,
                      const sched::Scheduler& scheduler,
                      Seconds now) override {
    learner_.observe(measured);
    ManagerReport report;
    report.measured = measured;
    report.p_low = learner_.p_low();
    report.p_high = learner_.p_high();
    report.training = learner_.training();
    report.state = power::classify_power(measured, report.p_low, report.p_high);
    const PowerState state = report.state;
    const std::size_t job_events = scheduler.job_events().size();
    if (state != last_state_ || job_events != job_events_seen_) {
      for (Zone& zone : zones_) zone.hints_valid = false;
    }
    last_state_ = state;
    job_events_seen_ = job_events;

    std::size_t sweeps = 0;
    for (Zone& zone : zones_) {
      CappingManager& m = *zone.shard;
      zone.report = ManagerReport{};
      zone.decision = power::CycleDecision{};
      zone.share = Watts{0.0};
      zone.transitions = 0;
      bool collect = false;
      if (report.training || state == PowerState::kGreen) {
        const bool gate = m.context_gate(state);
        zone.active = !report.training && gate;
        collect = gate || m.collect_due();
      } else {
        const bool nothing_to_shed = state == PowerState::kYellow
                                         ? zone.capacity <= Watts{0.0}
                                         : zone.floored;
        zone.active =
            !(zone.hints_valid && nothing_to_shed &&
              m.reconciler().pending_count() == 0 &&
              m.reconciler().unresponsive_count() == 0 &&
              m.actuation_channel().in_flight_count() == 0 &&
              !m.watchdog_pending());
        collect = zone.active;
      }
      m.collect_phase(collect, nodes, now, scheduler.running_count());
      sweeps += collect ? 1 : 0;
    }
    for (Zone& zone : zones_) {
      const std::uint64_t before =
          zone.shard->actuation_channel().reboot_events();
      zone.shard->begin_actuation_phase(nodes);
      if (zone.shard->actuation_channel().reboot_events() != before) {
        zone.hints_valid = false;
      }
    }
    if (report.training) {
      for (Zone& zone : zones_) zone.shard->apply_deliveries(nodes);
      finish(report, sweeps);
      return report;
    }

    for (Zone& zone : zones_) {
      if (!zone.active) continue;
      zone.shard->context_phase(measured, nodes, scheduler, zone.report);
      Watts power{0.0};
      bool floored = true;
      for (const power::NodeView& nv : zone.shard->context().nodes) {
        power += nv.power;
        if (!nv.at_lowest) floored = false;
      }
      Watts capacity{0.0};
      for (const power::JobView& jv : zone.shard->context().jobs) {
        capacity += jv.saving_one_level;
      }
      zone.power = power;
      zone.capacity = capacity;
      zone.floored = floored;
      zone.ever_measured = true;
    }
    if (state == PowerState::kYellow) {
      const Watts deficit = std::max(Watts{0.0}, measured - report.p_low);
      Watts eligible_power{0.0};
      std::size_t eligible = 0;
      for (const Zone& zone : zones_) {
        if (zone.active && zone.capacity > Watts{0.0}) {
          ++eligible;
          eligible_power += zone.power;
        }
      }
      const bool proportional =
          params_.redistribution ==
              power::ZoneTreeParams::Redistribution::kProportional &&
          eligible_power > Watts{0.0};
      for (Zone& zone : zones_) {
        if (!(zone.active && zone.capacity > Watts{0.0})) continue;
        zone.share = proportional ? deficit * (zone.power.value() /
                                               eligible_power.value())
                                  : deficit / static_cast<double>(eligible);
      }
    }
    for (Zone& zone : zones_) {
      CappingManager& m = *zone.shard;
      if (state == PowerState::kGreen) {
        zone.decision = m.select_phase(Watts{0.0}, Watts{1.0}, Watts{2.0});
      } else if (state == PowerState::kYellow && zone.active &&
                 zone.share > Watts{0.0}) {
        zone.decision = m.select_phase(
            zone.share, Watts{0.0}, Watts{std::numeric_limits<double>::max()});
      } else if (state == PowerState::kRed && zone.active) {
        zone.decision = m.select_phase(Watts{2.0}, Watts{0.0}, Watts{1.0});
      } else {
        m.note_non_green_cycle();
      }
    }
    for (Zone& zone : zones_) {
      CappingManager& m = *zone.shard;
      zone.transitions = m.actuate_phase(zone.decision, nodes);
      if (!zone.active) continue;
      const ManagerReport& zr = zone.report;
      zone.hints_valid =
          zr.stale_nodes == 0 && zr.missing_nodes == 0 &&
          zr.fallback_nodes == 0 && zr.rejected_samples == 0 &&
          zr.unresponsive_nodes == 0 && m.reconciler().pending_count() == 0 &&
          m.reconciler().unresponsive_count() == 0 &&
          m.actuation_channel().in_flight_count() == 0;
    }
    for (const Zone& zone : zones_) {
      report.targets += zone.decision.commands.size();
      report.transitions += zone.transitions;
      report.skipped_targets += zone.decision.skipped;
      report.deferred_targets += zone.decision.deferred_in_flight;
      report.stale_nodes += zone.report.stale_nodes;
      report.missing_nodes += zone.report.missing_nodes;
      report.fallback_nodes += zone.report.fallback_nodes;
      report.rejected_samples += zone.report.rejected_samples;
      report.unresponsive_nodes += zone.report.unresponsive_nodes;
      const auto& work = zone.shard->recon_work();
      report.acks += work.acks;
      report.retries += work.retries;
      report.divergences += work.divergences;
      report.heals += work.heals;
      report.watchdog_adoptions += zone.report.watchdog_adoptions;
    }
    finish(report, sweeps);
    return report;
  }

  [[nodiscard]] std::size_t zone_count() const { return zones_.size(); }
  [[nodiscard]] Watts zone_power(std::size_t z) const {
    return zones_[z].power;
  }
  [[nodiscard]] Watts zone_share(std::size_t z) const {
    return zones_[z].share;
  }

  [[nodiscard]] power::TreeCheckpoint checkpoint() const {
    power::TreeCheckpoint cp;
    cp.learner = learner_.checkpoint();
    cp.last_state = static_cast<int>(last_state_);
    cp.job_events_seen = job_events_seen_;
    for (const Zone& zone : zones_) {
      cp.shards.push_back(zone.shard->checkpoint());
      power::ZoneHintCheckpoint h;
      h.hints_valid = zone.hints_valid;
      h.power = zone.power.value();
      h.capacity = zone.capacity.value();
      h.floored = zone.floored;
      h.ever_measured = zone.ever_measured;
      cp.hints.push_back(h);
    }
    return cp;
  }

 private:
  struct Zone {
    std::unique_ptr<CappingManager> shard;
    bool hints_valid = false;
    Watts power{0.0};
    Watts capacity{0.0};
    bool floored = false;
    bool ever_measured = false;
    bool active = false;
    Watts share{0.0};
    power::CycleDecision decision;
    ManagerReport report;
    std::size_t transitions = 0;
  };

  void finish(ManagerReport& report, std::size_t sweeps) {
    for (const Zone& zone : zones_) {
      report.manager_utilization +=
          zone.shard->collector().last_cycle_manager_utilization();
    }
    metrics_.publish(report, sweeps, 0, shards_, control_, scorer_, 0);
  }

  power::ZoneTreeParams params_;
  power::ThresholdLearner learner_;
  std::vector<Zone> zones_;
  std::vector<const CappingManager*> shards_;
  /// Never-failing, never-forecasting root: its totals stay zero.
  power::ControlFaultInjector control_{power::ControlFaultParams{},
                                       common::Rng(0)};
  power::ForecastScorer scorer_;
  power::ManagerMetrics metrics_;
  PowerState last_state_ = PowerState::kGreen;
  std::size_t job_events_seen_ = 0;
};

// -- the recording harness -------------------------------------------------

struct Outcome {
  std::vector<std::string> trace;   ///< per-cycle report (+ zone hints)
  std::vector<std::string> images;  ///< warm-restart images along the way
  std::vector<hw::Level> levels;
  std::string prom;
  std::uint64_t context_skips = 0;
  std::size_t episodes = 0;  ///< yellow/red -> green transitions
};

/// Masks the yellow-only capacity hint: a skipped green zone keeps the
/// value its last build computed, and no green cycle reads it.
std::string tree_image(power::TreeCheckpoint cp) {
  for (power::ZoneHintCheckpoint& h : cp.hints) h.capacity = 0.0;
  return power::encode_checkpoint(cp);
}

/// Records what the wrapped manager produces. With `oracle` set on a flat
/// manager it widens every opened cycle's context decision to the gate.
class Probe final : public power::PowerManagerBase {
 public:
  Probe(std::unique_ptr<power::PowerManagerBase> inner, bool oracle,
        Outcome& out)
      : inner_(std::move(inner)), oracle_(oracle), out_(out) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void set_thread_pool(common::ThreadPool* pool) override {
    inner_->set_thread_pool(pool);
  }
  void bind_metrics(obs::Registry& reg) override {
    reg_ = &reg;
    inner_->bind_metrics(reg);
  }
  void set_watchdog(hw::FailsafeWatchdog* wd) override {
    inner_->set_watchdog(wd);
  }

  ManagerReport cycle(Watts measured, std::vector<hw::Node>& nodes,
                      const sched::Scheduler& scheduler,
                      Seconds now) override {
    ManagerReport r;
    auto* flat = dynamic_cast<CappingManager*>(inner_.get());
    if (oracle_ && flat != nullptr) {
      CappingManager::CycleOpening opening =
          flat->open_cycle(measured, nodes, scheduler, now);
      if (opening.closed) {
        r = opening.report;
      } else {
        opening.build_context = opening.context_gate;
        r = flat->close_cycle(opening, nodes, scheduler);
      }
    } else {
      r = inner_->cycle(measured, nodes, scheduler, now);
    }
    std::string line = describe(r);
    const power::PowerManagerBase* inner = inner_.get();
    bool zoned = true;
    if (const auto* tree = dynamic_cast<const power::ZoneTreeManager*>(inner)) {
      append_zones(*tree, line);
    } else if (const auto* ref = dynamic_cast<const ReferenceTree*>(inner)) {
      append_zones(*ref, line);
    } else {
      zoned = false;
    }
    line += counters(*reg_, zoned);
    out_.trace.push_back(line);
    if (!r.training && r.state == PowerState::kGreen &&
        last_state_ != PowerState::kGreen) {
      ++out_.episodes;
    }
    last_state_ = r.state;
    if (++cycles_ % 211 == 0) out_.images.push_back(image());
    return r;
  }

  /// The wrapped manager's warm-restart image.
  [[nodiscard]] std::string image() const {
    if (const auto* flat = dynamic_cast<const CappingManager*>(inner_.get())) {
      return power::encode_checkpoint(flat->checkpoint());
    }
    if (const auto* tree =
            dynamic_cast<const power::ZoneTreeManager*>(inner_.get())) {
      return tree_image(tree->checkpoint());
    }
    return tree_image(dynamic_cast<const ReferenceTree&>(*inner_).checkpoint());
  }

 private:
  template <typename Tree>
  static void append_zones(const Tree& tree, std::string& line) {
    for (std::size_t z = 0; z < tree.zone_count(); ++z) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), " z%zu=%a/%a", z,
                    tree.zone_power(z).value(), tree.zone_share(z).value());
      line += buf;
    }
  }

  std::unique_ptr<power::PowerManagerBase> inner_;
  bool oracle_;
  Outcome& out_;
  const obs::Registry* reg_ = nullptr;
  PowerState last_state_ = PowerState::kGreen;
  std::uint64_t cycles_ = 0;
};

/// The manager make_manager would build for a zoned config, as the real
/// tree or the reference, from one set of shard parameters.
std::unique_ptr<power::PowerManagerBase> make_tree(
    const cluster::ExperimentConfig& cfg, Watts provision,
    const std::vector<hw::NodeId>& candidates, bool reference) {
  power::CappingManagerParams p;
  p.thresholds.provision = provision;
  p.thresholds.red_margin = cfg.red_margin;
  p.thresholds.yellow_margin = cfg.yellow_margin;
  p.thresholds.training_cycles =
      static_cast<std::int64_t>(cfg.training / cfg.cluster.control_period);
  p.thresholds.adjust_period_cycles = cfg.adjust_period_cycles;
  p.capping = cfg.capping;
  p.cycle_period = cfg.cluster.control_period;
  p.collector.transport = cfg.transport;
  p.collector.faults = cfg.faults;
  p.max_sample_age_cycles = cfg.max_sample_age_cycles;
  p.stale_power_margin = cfg.stale_power_margin;
  p.actuation = cfg.actuation;
  p.reconciliation = cfg.reconciliation;
  power::ZoneTreeParams zp;
  zp.zone_count = static_cast<std::size_t>(cfg.zone_count);
  zp.redistribution =
      power::parse_zone_redistribution(cfg.zone_redistribution);
  const std::string policy = cfg.manager;
  const auto factory = [policy] { return power::make_policy(policy); };
  const common::Rng rng(cfg.cluster.seed ^ 0x9d2c5680u);
  if (reference) {
    auto tree = std::make_unique<ReferenceTree>(zp, p, factory, rng);
    tree->set_candidate_set(candidates);
    return tree;
  }
  auto tree = std::make_unique<power::ZoneTreeManager>(zp, p, factory, rng);
  tree->set_candidate_set(candidates);
  return tree;
}

Outcome run(const cluster::ExperimentConfig& cfg, bool oracle) {
  Outcome out;
  const Watts provision =
      cluster::probe_uncapped_peak(cfg.cluster, cfg.calibration_duration) *
      cfg.provision_fraction;
  cluster::Cluster cl(cfg.cluster);
  std::vector<hw::NodeId> candidates = cl.controllable_nodes();
  if (cfg.candidate_count >= 0 &&
      static_cast<std::size_t>(cfg.candidate_count) < candidates.size()) {
    candidates.resize(static_cast<std::size_t>(cfg.candidate_count));
  }
  const bool zoned = cfg.zone_count >= 2;
  std::unique_ptr<power::PowerManagerBase> mgr =
      zoned ? make_tree(cfg, provision, candidates, oracle)
            : cluster::make_manager(cfg, cfg.cluster, provision, candidates);
  auto probe = std::make_unique<Probe>(std::move(mgr), oracle, out);
  const Probe* p = probe.get();
  cl.set_manager(std::move(probe));
  cl.run(cfg.training + cfg.measured);

  out.images.push_back(p->image());
  for (const hw::Node& n : cl.nodes()) out.levels.push_back(n.level());
  out.prom = strip(cl.metrics().prometheus_text(), zoned);
  out.context_skips =
      cl.metrics().counter_value("pcap_manager_context_skips_total")
          .value_or(0);
  return out;
}

void expect_matches_oracle(const cluster::ExperimentConfig& cfg,
                           bool expect_skips) {
  const Outcome fast = run(cfg, false);
  const Outcome oracle = run(cfg, true);
  ASSERT_EQ(fast.trace.size(), oracle.trace.size());
  for (std::size_t i = 0; i < fast.trace.size(); ++i) {
    ASSERT_EQ(fast.trace[i], oracle.trace[i]) << "cycle " << i;
  }
  ASSERT_EQ(fast.images.size(), oracle.images.size());
  for (std::size_t i = 0; i < fast.images.size(); ++i) {
    EXPECT_EQ(fast.images[i], oracle.images[i]) << "image " << i;
  }
  EXPECT_EQ(fast.levels, oracle.levels);
  EXPECT_EQ(fast.prom, oracle.prom);
  // Long capped runs: several yellow->green episodes, each a T_g wait.
  EXPECT_GE(fast.episodes, 3u);
  EXPECT_EQ(oracle.context_skips, 0u);
  if (expect_skips) {
    EXPECT_GT(fast.context_skips, 0u);
  }
}

TEST(ContextSkip, PaperScaleCleanTelemetryMatchesOracle) {
  expect_matches_oracle(cluster::paper_scenario(42), true);
}

TEST(ContextSkip, FaultyTelemetryMatchesOracle) {
  cluster::ExperimentConfig cfg = cluster::faulty_telemetry_scenario();
  cfg.measured = Seconds{4 * 3600.0};
  expect_matches_oracle(cfg, false);
  // Undelayed transport: corrupted reports land on the sweep that drew
  // them instead of travelling through the in-flight queue.
  cfg.transport.delay_cycles = 0;
  expect_matches_oracle(cfg, false);
}

TEST(ContextSkip, LossyActuationWithRebootsMatchesOracle) {
  cluster::ExperimentConfig cfg = cluster::lossy_actuation_scenario();
  cfg.measured = Seconds{4 * 3600.0};
  expect_matches_oracle(cfg, false);
}

TEST(ContextSkip, ControllerOutageWithWatchdogMatchesOracle) {
  cluster::ExperimentConfig cfg = cluster::controller_outage_scenario();
  cfg.zone_count = 1;  // the flat manager under root outages
  cfg.measured = Seconds{4 * 3600.0};
  expect_matches_oracle(cfg, false);
}

TEST(ContextSkip, DynamicCandidateSelectorMatchesOracle) {
  cluster::ExperimentConfig cfg = cluster::paper_scenario(7);
  cfg.dynamic_candidates = true;
  cfg.candidate_count = 64;
  expect_matches_oracle(cfg, true);
}

TEST(ContextSkip, EightZoneTreeMatchesReferenceTree) {
  cluster::ExperimentConfig cfg = cluster::paper_scenario(11);
  cfg.manager = "mpc-c";
  cfg.zone_count = 8;
  cfg.zone_redistribution = "proportional";
  expect_matches_oracle(cfg, true);
}

}  // namespace
}  // namespace pcap
