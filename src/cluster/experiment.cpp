#include "cluster/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "baselines/budget_manager.hpp"
#include "baselines/feedback_manager.hpp"
#include "baselines/sla_policy.hpp"
#include "baselines/uniform_policy.hpp"
#include "common/logging.hpp"
#include "power/policy_registry.hpp"
#include "power/zone_manager.hpp"

namespace pcap::cluster {

namespace {

bool is_registry_policy(const std::string& name) {
  const auto names = power::policy_names();
  return std::find(names.begin(), names.end(), name) != names.end();
}

power::PolicyPtr make_policy_any(const std::string& name,
                                 const power::PiTuning& pi) {
  if (name == "uniform") {
    return std::make_unique<baselines::UniformAllNodesPolicy>();
  }
  if (name == "sla") return std::make_unique<baselines::SlaPriorityPolicy>();
  return power::make_policy(name, pi);
}

}  // namespace

Watts probe_uncapped_peak(const ClusterConfig& cluster, Seconds duration) {
  Cluster probe(cluster);
  probe.start_recording();
  probe.run(duration);
  return metrics::peak_power(probe.recorder().power_trace());
}

std::unique_ptr<power::PowerManagerBase> make_manager(
    const ExperimentConfig& config, const ClusterConfig& cluster,
    Watts provision, const std::vector<hw::NodeId>& candidates) {
  common::Rng rng(cluster.seed ^ 0x9d2c5680u);

  if (config.zone_count >= 2 &&
      (config.manager == "none" || config.manager == "budget" ||
       config.manager == "feedback")) {
    throw std::invalid_argument(
        "make_manager: zones.count >= 2 requires a capping-policy manager "
        "(got '" + config.manager + "')");
  }
  if (config.control.enabled() &&
      (config.manager == "none" || config.manager == "budget" ||
       config.manager == "feedback")) {
    throw std::invalid_argument(
        "make_manager: control-plane fault injection requires a "
        "capping-policy manager (got '" + config.manager + "')");
  }
  if (config.manager == "none" || candidates.empty()) {
    return std::make_unique<power::NoCappingManager>();
  }

  if (config.manager == "budget") {
    baselines::BudgetParams p;
    // The meter reads wall power; node budgets are IT-side watts.
    p.global_budget = provision * cluster.meter.psu_efficiency;
    p.cycle_period = cluster.control_period;
    p.collector.transport = config.transport;
    p.collector.faults = config.faults;
    auto mgr = std::make_unique<baselines::BudgetManager>(p, rng);
    mgr->set_candidate_set(candidates);
    return mgr;
  }

  if (config.manager == "feedback") {
    baselines::FeedbackParams p;
    // The feedback baseline regulates to the same yellow threshold the
    // capping architecture would learn, approximated by the provision.
    p.setpoint = provision;
    p.gain = config.feedback_gain;
    p.cycle_period = cluster.control_period;
    p.collector.transport = config.transport;
    p.collector.faults = config.faults;
    auto mgr = std::make_unique<baselines::FeedbackManager>(p, rng);
    mgr->set_candidate_set(candidates);
    return mgr;
  }

  if (!is_registry_policy(config.manager) && config.manager != "uniform" &&
      config.manager != "sla") {
    throw std::invalid_argument("make_manager: unknown manager '" +
                                config.manager + "'");
  }

  power::CappingManagerParams p;
  if (config.dynamic_candidates) {
    if (config.zone_count >= 2) {
      throw std::invalid_argument(
          "make_manager: zones.count >= 2 is incompatible with dynamic "
          "candidate selection");
    }
    power::CandidateSelectorParams sel;
    sel.max_candidates = config.candidate_count;
    p.selector = sel;
  }
  p.thresholds.provision = provision;
  p.thresholds.red_margin = config.red_margin;
  p.thresholds.yellow_margin = config.yellow_margin;
  p.thresholds.training_cycles =
      static_cast<std::int64_t>(config.training / cluster.control_period);
  p.thresholds.adjust_period_cycles = config.adjust_period_cycles;
  p.thresholds.freeze_at_provision = config.thresholds_from_provision;
  p.capping = config.capping;
  p.cycle_period = cluster.control_period;
  p.collector.transport = config.transport;
  p.collector.faults = config.faults;
  p.max_sample_age_cycles = config.max_sample_age_cycles;
  p.stale_power_margin = config.stale_power_margin;
  p.actuation = config.actuation;
  p.reconciliation = config.reconciliation;
  p.control = config.control;
  p.prediction = config.prediction;
  if (!p.prediction.enabled &&
      (config.manager == "pi-c" || config.manager == "pred-c")) {
    // The predictive policies are inert without a forecast: selecting one
    // opts into the default predictor (the explicit [prediction] section
    // still overrides every knob).
    p.prediction.enabled = true;
  }
  if (config.zone_count >= 2) {
    power::ZoneTreeParams zp;
    zp.zone_count = static_cast<std::size_t>(config.zone_count);
    zp.assignment = power::parse_zone_assignment(config.zone_assignment);
    zp.redistribution =
        power::parse_zone_redistribution(config.zone_redistribution);
    const std::string policy_name = config.manager;
    const power::PiTuning pi = config.pi;
    auto mgr = std::make_unique<power::ZoneTreeManager>(
        zp, p, [policy_name, pi] { return make_policy_any(policy_name, pi); },
        rng);
    mgr->set_candidate_set(candidates);
    return mgr;
  }
  auto mgr = std::make_unique<power::CappingManager>(
      p, make_policy_any(config.manager, config.pi), rng);
  mgr->set_candidate_set(candidates);
  return mgr;
}

ExperimentResult run_experiment(const ExperimentConfig& config) {
  // 1. Provision calibration.
  Watts provision = config.provision;
  if (provision <= Watts{0.0}) {
    const Watts peak =
        probe_uncapped_peak(config.cluster, config.calibration_duration);
    provision = peak * config.provision_fraction;
    PCAP_INFO("experiment: calibrated provision to %.0f W (peak %.0f W)",
              provision.value(), peak.value());
  }

  // 2. Build the cluster and manager.
  Cluster cl(config.cluster);
  std::vector<hw::NodeId> candidates = cl.controllable_nodes();
  if (config.candidate_count >= 0 &&
      static_cast<std::size_t>(config.candidate_count) < candidates.size()) {
    candidates.resize(static_cast<std::size_t>(config.candidate_count));
  }
  cl.set_manager(make_manager(config, config.cluster, provision, candidates));

  // 3. Training phase (thresholds learn; no job/power metrics recorded).
  if (config.training > Seconds{0.0}) cl.run(config.training);

  // 4. Measured phase. Counters accumulate over the whole run (training
  // included), so the result keeps each one's delta against this snapshot.
  const std::map<std::string, std::uint64_t> base_counters =
      cl.metrics().counter_values();
  cl.start_recording();
  cl.run(config.measured);

  // 5. Extract metrics.
  ExperimentResult r;
  r.manager = config.manager;
  r.candidate_count = candidates.size();
  r.provision = provision;

  const auto trace = cl.recorder().power_trace();
  r.p_max = metrics::peak_power(trace);
  r.mean_power = metrics::mean_power(trace);
  r.energy = metrics::total_energy(trace);
  r.delta_pxt = metrics::accumulated_overspend(trace, provision);
  r.perf = metrics::summarize_performance(cl.finished_records());

  r.green_cycles = cl.recorder().state_count(0);
  r.yellow_cycles = cl.recorder().state_count(1);
  r.red_cycles = cl.recorder().state_count(2);
  r.never_red = r.red_cycles == 0;

  double util_sum = 0.0;
  std::size_t transitions = 0;
  for (const auto& p : cl.recorder().points()) {
    util_sum += p.manager_utilization;
    transitions += p.transitions;
  }
  for (const auto& [key, value] : cl.metrics().counter_values()) {
    const auto base = base_counters.find(key);
    r.counters[key] =
        value - (base == base_counters.end() ? 0 : base->second);
  }
  const std::size_t cycles = cl.recorder().size();
  r.mean_manager_utilization =
      cycles > 0 ? util_sum / static_cast<double>(cycles) : 0.0;
  r.transitions = transitions;
  r.p_low = cl.last_report().p_low;
  r.p_high = cl.last_report().p_high;
  r.metrics_prometheus = cl.metrics().prometheus_text();
  r.metrics_json = cl.metrics().json_snapshot();
  return r;
}

}  // namespace pcap::cluster
