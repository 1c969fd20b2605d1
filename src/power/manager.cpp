#include "power/manager.hpp"

#include <algorithm>
#include <stdexcept>

#include "power/checkpoint.hpp"

namespace pcap::power {

CappingManager::CappingManager(CappingManagerParams params, PolicyPtr policy,
                               common::Rng rng)
    : params_(params),
      policy_(std::move(policy)),
      // Fork order ("collector" first, then "actuation") is part of the
      // seed-compatibility contract: swapping it would reshuffle every
      // telemetry fault stream from earlier experiments.
      collector_(params.collector, rng.fork("collector")),
      learner_(params.thresholds),
      engine_(params.capping),
      channel_(params.actuation, rng.fork("actuation")),
      reconciler_(params.reconciliation),
      // "control" is forked LAST: appending the new stream after the two
      // existing forks leaves every pre-existing seed's collector and
      // actuation streams untouched.
      ctrl_faults_(params.control, rng.fork("control")),
      forecaster_(params.prediction, params.thresholds.adjust_period_cycles) {
  if (!policy_) throw std::invalid_argument("CappingManager: null policy");
  if (params_.cycle_period <= Seconds{0.0}) {
    throw std::invalid_argument("CappingManager: bad cycle period");
  }
  if (params_.max_sample_age_cycles < 0) {
    throw std::invalid_argument("CappingManager: bad max sample age");
  }
  if (params_.stale_power_margin < 0.0) {
    throw std::invalid_argument("CappingManager: bad stale power margin");
  }
  if (params_.green_collect_stride < 1) {
    throw std::invalid_argument("CappingManager: bad green collect stride");
  }
  // No staleness clamp: any cycle that will build a policy context
  // collects first (the gate runs before the sweep), so a strided skip
  // run can never feed a decision; max_sample_age_cycles keeps governing
  // in-context transport-delay staleness only.
  collect_stride_ = params_.green_collect_stride;
  collector_.set_cycle_period(params_.cycle_period);
  if (params_.selector) selector_.emplace(*params_.selector);
}

std::string CappingManager::name() const {
  return "capping:" + policy_->name();
}

void CappingManager::set_candidate_set(const std::vector<hw::NodeId>& ids) {
  collector_.set_candidate_set(ids);
  channel_.ensure_nodes(ids);
  // The collector's copy is sorted/deduplicated; hand that one to the job
  // index so both agree on membership. The refilter itself is deferred to
  // the next context build.
  job_index_.set_candidate_set(collector_.candidate_set());
  // The slot layout changed: no skip may stand in for the next build.
  quiet_since_build_ = false;
  if (owns_watchdog_groups_ && watchdog_ != nullptr) {
    watchdog_->set_groups({collector_.candidate_set()});
  }
}

void CappingManager::set_watchdog(hw::FailsafeWatchdog* wd) {
  watchdog_ = wd;
  watchdog_group_ = 0;
  owns_watchdog_groups_ = wd != nullptr;
  if (wd != nullptr) {
    wd->set_groups({collector_.candidate_set()});
  }
}

void CappingManager::attach_watchdog(hw::FailsafeWatchdog* wd,
                                     std::size_t group) {
  watchdog_ = wd;
  watchdog_group_ = group;
  owns_watchdog_groups_ = false;
}

void ManagerMetrics::bind(obs::Registry& reg) {
  ManagerMetrics& m = *this;
  m.reg = &reg;

  const std::string cycles = "pcap_manager_cycles_total";
  const std::string cycles_help = "Control cycles by resulting power state";
  m.cycles_green = reg.counter(cycles, cycles_help, "state=\"green\"");
  m.cycles_yellow = reg.counter(cycles, cycles_help, "state=\"yellow\"");
  m.cycles_red = reg.counter(cycles, cycles_help, "state=\"red\"");
  m.training_cycles = reg.counter("pcap_manager_training_cycles_total",
                                  "Cycles spent in threshold training");

  m.targets = reg.counter("pcap_manager_targets_total",
                          "Nodes selected as throttle/restore targets");
  m.transitions = reg.counter("pcap_manager_transitions_total",
                              "Level changes actually applied at nodes");
  m.skipped_targets =
      reg.counter("pcap_manager_skipped_targets_total",
                  "Policy targets the capping engine refused");
  m.deferred_targets =
      reg.counter("pcap_manager_deferred_targets_total",
                  "Targets passed over because a command was in flight");

  m.stale_nodes = reg.counter("pcap_manager_stale_node_cycles_total",
                              "Node-cycles served past the sample-age bound");
  m.missing_nodes = reg.counter("pcap_manager_missing_node_cycles_total",
                                "Node-cycles with no usable sample");
  m.fallback_nodes =
      reg.counter("pcap_manager_fallback_node_cycles_total",
                  "Node-cycles served from a substituted estimate");
  m.rejected_samples = reg.counter("pcap_manager_rejected_samples_total",
                                   "Implausible telemetry samples skipped");
  m.unresponsive_node_cycles =
      reg.counter("pcap_manager_unresponsive_node_cycles_total",
                  "Node-cycles excluded: retry budget exhausted");

  m.acks = reg.counter("pcap_manager_acks_total",
                       "Commands confirmed by telemetry");
  m.retries = reg.counter("pcap_manager_retries_total",
                          "Unacked commands re-sent");
  m.divergences = reg.counter("pcap_manager_divergences_total",
                              "Observed level != believed level");
  m.heals = reg.counter("pcap_manager_heals_total",
                        "Healing commands emitted");

  m.samples_lost = reg.counter("pcap_telemetry_samples_lost_total",
                               "Samples dropped by the transport");
  m.samples_suppressed = reg.counter("pcap_telemetry_samples_suppressed_total",
                                     "Samples that never left the node");
  m.samples_corrupted = reg.counter("pcap_telemetry_samples_corrupted_total",
                                    "Samples delivered with garbage power");
  m.crash_events = reg.counter("pcap_telemetry_crash_events_total",
                               "Profiling agent crash events");
  m.recovery_events = reg.counter("pcap_telemetry_recovery_events_total",
                                  "Profiling agent recovery events");

  m.commands_lost = reg.counter("pcap_actuation_commands_lost_total",
                                "Commands dropped in transit");
  m.commands_rebooting =
      reg.counter("pcap_actuation_commands_rebooting_total",
                  "Commands dropped at a rebooting node");
  m.transitions_failed =
      reg.counter("pcap_actuation_transitions_failed_total",
                  "Delivered commands whose DVFS switch failed");
  m.transitions_partial =
      reg.counter("pcap_actuation_transitions_partial_total",
                  "Delivered commands that landed part-way");
  m.reboot_events = reg.counter("pcap_actuation_reboot_events_total",
                                "Node reboot events");
  m.commands_abandoned = reg.counter("pcap_actuation_commands_abandoned_total",
                                     "Commands whose retry budget ran out");
  m.commands_clamped = reg.counter("pcap_actuation_commands_clamped_total",
                                   "Requests clamped by the node controller");

  m.ctrl_outage_events = reg.counter("pcap_ctrl_outage_events_total",
                                     "Root controller outage windows started");
  m.ctrl_outage_cycles = reg.counter("pcap_ctrl_outage_cycles_total",
                                     "Cycles the root controller was down");
  m.ctrl_delayed_cycles =
      reg.counter("pcap_ctrl_delayed_cycles_total",
                  "Cycles the root controller lost to stalls");
  m.ctrl_zone_outage_cycles =
      reg.counter("pcap_ctrl_zone_outage_cycles_total",
                  "Zone-cycles lost to zone-shard crashes");
  m.watchdog_adoptions =
      reg.counter("pcap_watchdog_adoptions_total",
                  "Failsafe level changes adopted by the reconciler");

  m.predictor_overshoots =
      reg.counter("pcap_predictor_overshoots_total",
                  "Forecasts that called a P_L crossing that never came");
  m.predictor_misses =
      reg.counter("pcap_predictor_misses_total",
                  "P_L crossings the forecast did not see coming");
  m.predictive_elevations =
      reg.counter("pcap_manager_predictive_elevations_total",
                  "Green cycles promoted to the yellow path by a forecast");
  m.telemetry_sweeps =
      reg.counter("pcap_telemetry_sweeps_total",
                  "Real agent sweeps (not clock-only stride/outage ticks)");
  m.context_skips =
      reg.counter("pcap_manager_context_skips_total",
                  "Gated cycles whose idle context build was skipped");

  m.measured_watts = reg.gauge("pcap_manager_measured_watts",
                               "Facility meter reading at the last cycle");
  m.p_low_watts = reg.gauge("pcap_manager_p_low_watts",
                            "Learned lower power threshold");
  m.p_high_watts = reg.gauge("pcap_manager_p_high_watts",
                             "Learned upper power threshold");
  m.commands_in_flight = reg.gauge("pcap_manager_commands_in_flight",
                                   "Unacked commands after actuation");
  m.unresponsive_nodes = reg.gauge("pcap_manager_unresponsive_nodes",
                                   "Candidates currently abandoned");
  m.agents_down = reg.gauge("pcap_telemetry_agents_down",
                            "Profiling agents currently silent");
  m.orphan_zones = reg.gauge("pcap_ctrl_orphan_zones",
                             "Zone shards down at the last cycle");
  m.predictor_forecast_watts =
      reg.gauge("pcap_predictor_forecast_watts",
                "Predicted system power, horizon cycles ahead");
  m.predictor_abs_error_watts =
      reg.gauge("pcap_predictor_abs_error_watts",
                "Absolute error of the forecast that targeted this cycle");

  const std::string span = "pcap_cycle_phase_seconds";
  const std::string span_help = "Wall-clock time per control-loop phase";
  m.collect_span.bind(reg, span, span_help, "phase=\"collect\"");
  m.context_span.bind(reg, span, span_help, "phase=\"context\"");
  m.policy_span.bind(reg, span, span_help, "phase=\"policy\"");
  m.actuate_span.bind(reg, span, span_help, "phase=\"actuate\"");
}

void ManagerMetrics::publish(const ManagerReport& report, std::size_t sweeps,
                             std::size_t context_skips,
                             std::span<const CappingManager* const> shards,
                             const ControlFaultInjector& control,
                             const ForecastScorer& scorer,
                             std::uint64_t predictive_elevations) {
  ManagerMetrics& m = *this;
  obs::Registry* reg = m.reg;
  if (reg == nullptr) return;

  switch (report.state) {
    case PowerState::kGreen: reg->add(m.cycles_green); break;
    case PowerState::kYellow: reg->add(m.cycles_yellow); break;
    case PowerState::kRed: reg->add(m.cycles_red); break;
  }
  if (report.training) reg->add(m.training_cycles);

  reg->add(m.targets, report.targets);
  reg->add(m.transitions, report.transitions);
  reg->add(m.skipped_targets, report.skipped_targets);
  reg->add(m.deferred_targets, report.deferred_targets);

  reg->add(m.stale_nodes, report.stale_nodes);
  reg->add(m.missing_nodes, report.missing_nodes);
  reg->add(m.fallback_nodes, report.fallback_nodes);
  reg->add(m.rejected_samples, report.rejected_samples);
  reg->add(m.unresponsive_node_cycles, report.unresponsive_nodes);

  reg->add(m.acks, report.acks);
  reg->add(m.retries, report.retries);
  reg->add(m.divergences, report.divergences);
  reg->add(m.heals, report.heals);

  reg->add(m.watchdog_adoptions, report.watchdog_adoptions);
  reg->add(m.telemetry_sweeps, sweeps);
  reg->add(m.context_skips, context_skips);

  reg->set(m.predictor_forecast_watts,
           report.has_forecast ? report.forecast.value() : 0.0);
  reg->set(m.predictor_abs_error_watts,
           report.forecast_scored ? report.forecast_abs_error : 0.0);
  reg->set(m.measured_watts, report.measured.value());
  reg->set(m.p_low_watts, report.p_low.value());
  reg->set(m.p_high_watts, report.p_high.value());

  // Lifetime ground truth belongs to the shards' collectors, injectors,
  // channels, reconcilers and controllers: mirror it, don't accumulate,
  // or resets and replays would double-count.
  std::uint64_t lost = 0, suppressed = 0, corrupted = 0, crashes = 0,
                recoveries = 0, agents_down = 0, commands_lost = 0,
                rebooting = 0, failed = 0, partial = 0, reboots = 0,
                abandoned = 0, clamped = 0, in_flight = 0, unresponsive = 0;
  for (const CappingManager* shard : shards) {
    const telemetry::Collector& collector = shard->collector();
    const telemetry::FaultInjector& faults = collector.fault_injector();
    const ActuationChannel& channel = shard->actuation_channel();
    lost += collector.samples_lost();
    suppressed += collector.samples_suppressed();
    corrupted += faults.samples_corrupted();
    crashes += faults.crash_events();
    recoveries += faults.recovery_events();
    agents_down += faults.silent_count();
    commands_lost += channel.commands_lost();
    rebooting += channel.commands_dropped_rebooting();
    failed += channel.transitions_failed();
    partial += channel.transitions_partial();
    reboots += channel.reboot_events();
    abandoned += shard->reconciler().total_abandoned();
    clamped += shard->controller().commands_clamped();
    in_flight += shard->reconciler().pending_count();
    unresponsive += shard->reconciler().unresponsive_count();
  }
  reg->set_total(m.samples_lost, lost);
  reg->set_total(m.samples_suppressed, suppressed);
  reg->set_total(m.samples_corrupted, corrupted);
  reg->set_total(m.crash_events, crashes);
  reg->set_total(m.recovery_events, recoveries);
  reg->set_total(m.commands_lost, commands_lost);
  reg->set_total(m.commands_rebooting, rebooting);
  reg->set_total(m.transitions_failed, failed);
  reg->set_total(m.transitions_partial, partial);
  reg->set_total(m.reboot_events, reboots);
  reg->set_total(m.commands_abandoned, abandoned);
  reg->set_total(m.commands_clamped, clamped);
  reg->set(m.commands_in_flight, static_cast<double>(in_flight));
  reg->set(m.unresponsive_nodes, static_cast<double>(unresponsive));
  reg->set(m.agents_down, static_cast<double>(agents_down));

  // The root owns the control-fault windows (a zone tree clears its
  // shards' injectors), the forecast scorer and the elevation count.
  reg->set_total(m.ctrl_outage_events, control.outages_started());
  reg->set_total(m.ctrl_outage_cycles, control.outage_cycles());
  reg->set_total(m.ctrl_delayed_cycles, control.delayed_cycles());
  reg->set_total(m.ctrl_zone_outage_cycles, control.zone_outage_cycles());
  reg->set(m.orphan_zones, static_cast<double>(control.zones_down()));
  reg->set_total(m.predictor_overshoots, scorer.overshoots());
  reg->set_total(m.predictor_misses, scorer.misses());
  reg->set_total(m.predictive_elevations, predictive_elevations);
}

bool forecast_phase(RootForecaster& forecaster, ManagerReport& report) {
  const std::optional<ForecastScorer::Score> score =
      forecaster.observe(report.measured, report.p_low);
  if (score) {
    report.forecast_abs_error = score->abs_error;
    report.forecast_scored = true;
  }
  const std::optional<Watts> forecast = forecaster.current_forecast();
  report.has_forecast = forecast.has_value();
  if (forecast) report.forecast = *forecast;
  return forecast && *forecast >= report.p_low;
}

void CappingManager::publish(const ManagerReport& report, std::size_t sweeps,
                             std::size_t context_skips) {
  const CappingManager* const self = this;
  metrics_.publish(report, sweeps, context_skips, {&self, 1}, ctrl_faults_,
                   forecaster_.forecast_scorer(),
                   engine_.predictive_elevations());
}

void CappingManager::bind_metrics(obs::Registry& reg) { metrics_.bind(reg); }

PolicyContext CappingManager::build_context(
    Watts measured, const std::vector<hw::Node>& nodes,
    const sched::Scheduler& scheduler) const {
  PolicyContext ctx;
  build_context_into(ctx, measured, nodes, scheduler);
  return ctx;
}

void CappingManager::build_context_into(
    PolicyContext& ctx, Watts measured, const std::vector<hw::Node>& nodes,
    const sched::Scheduler& scheduler) const {
  build_context_with(ctx, measured, nodes, scheduler, nullptr, nullptr);
}

void CappingManager::build_context_with(
    PolicyContext& ctx, Watts measured, const std::vector<hw::Node>& nodes,
    const sched::Scheduler& scheduler, ActuationReconciler* rec,
    ActuationReconciler::CycleWork* work) const {
  const std::uint64_t now_cycle = collector_.cycle_count();
  const auto max_age = static_cast<std::uint64_t>(params_.max_sample_age_cycles);
  const std::vector<hw::NodeId>& candidates = collector_.candidate_set();

  // The candidate set is sorted, so its maximum id validates the whole
  // sweep against the node table in one comparison; every per-candidate
  // access below then indexes unchecked.
  if (!candidates.empty() &&
      static_cast<std::size_t>(collector_.max_candidate_id()) >=
          nodes.size()) {
    throw std::out_of_range(
        "CappingManager::build_context: candidate id out of range");
  }

  ctx.system_power = measured;
  ctx.p_low = learner_.p_low();

  // Phase 1 — sharded view assembly. One ViewRecord per candidate slot,
  // from strictly per-node inputs: this slot's telemetry record, this
  // node's spec/power model (its memoisation caches are touched by
  // exactly one worker), and this node's reconciler entries (read-only
  // here — unresponsive(id) never changes while the shards run, because
  // all reconciler mutation is deferred to the serial merge, and
  // observe_node(j) only ever touches node j's state). Chunk boundaries
  // are fixed by the grain, so the records are identical for any worker
  // count.
  view_records_.resize(candidates.size());
  common::maybe_parallel_for(
      pool_, candidates.size(), params_.collector.parallel_threshold,
      params_.collector.parallel_grain,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t slot = begin; slot < end; ++slot) {
          fill_view_record(slot, candidates, nodes, rec, now_cycle, max_age);
        }
      });

  merge_records(ctx, nodes, rec, work, now_cycle);

  // Phase 2 — job views from the persistent index. entries() mirrors
  // scheduler.running_jobs() in order, and each entry's candidate_nodes
  // keeps Nodes(J) order, so every per-job power sum adds the same values
  // in the same order the full rebuild did.
  job_index_.sync(scheduler);
  job_pass(ctx);
}

void CappingManager::fill_view_record(std::size_t slot,
                                      const std::vector<hw::NodeId>& candidates,
                                      const std::vector<hw::Node>& nodes,
                                      const ActuationReconciler* rec,
                                      std::uint64_t now_cycle,
                                      std::uint64_t max_age) const {
  ViewRecord& vr = view_records_[slot];
  const hw::NodeId id = candidates[slot];
  const telemetry::UsableSample usable = collector_.usable_at_slot(slot);
  const hw::Node& node = nodes[id];
  const bool unresponsive = rec != nullptr && rec->unresponsive(id);
  vr.rejected = usable.rejected;
  vr.substituted = false;

  // The newest sample that passed the collector's sanity check; corrupted
  // deliveries are counted, not trusted.
  if (usable.sample == nullptr) {
    // Never sampled, or nothing in the window survived the sanity check.
    // With no level/busy state to act on, the node cannot be a target;
    // the facility meter still sees its real draw, so the thresholds
    // remain grounded even while we are blind.
    vr.status = unresponsive ? ViewRecord::Status::kMissingUnresponsive
                             : ViewRecord::Status::kMissing;
    return;
  }

  const telemetry::NodeSample& latest = *usable.sample;
  NodeView nv;
  nv.id = id;
  nv.level = latest.level;
  nv.highest_level = node.spec().ladder.highest();
  nv.at_lowest = latest.level == node.spec().ladder.lowest();
  nv.busy = latest.busy;
  nv.power = latest.estimated_power;
  nv.temperature = latest.temperature;
  nv.stale = now_cycle - latest.cycle > max_age;
  if (unresponsive && nv.stale) {
    // Abandoned AND blind: the node stays out of the context entirely —
    // not selectable, not in A_degraded, not worth a command — until a
    // fresh sample earns it a readmission in the merge.
    vr.status = ViewRecord::Status::kExcludedUnresponsive;
    return;
  }
  if (nv.stale) {
    // Conservative fallback: assume the unseen node has drifted UP from
    // its last known draw. Overstating keeps the job totals — and thus
    // how aggressively Algorithm 1 sheds — on the safe side.
    nv.power *= 1.0 + params_.stale_power_margin;
  } else {
    // Fresh enough; if newer corrupt deliveries were discarded to get
    // here, still a substituted estimate.
    vr.substituted = usable.substituted;
  }
  nv.has_prev = usable.has_prev;
  nv.power_prev = usable.prev_power;
  // A node already at the ladder floor has no level below it:
  // estimated_power_at(level - 1) would index off the bottom of the DVFS
  // table. Clamp the hypothetical to the current draw so saving_one_level
  // contributes exactly 0 W for floored nodes — the value every consumer
  // already assumes, since they all skip at_lowest views before reading
  // it.
  nv.power_one_level_down =
      nv.at_lowest ? nv.power : node.estimated_power_at(latest.level - 1);
  vr.view = nv;
  vr.sample_cycle = latest.cycle;
  vr.status = ViewRecord::Status::kOk;
}

void CappingManager::merge_records(PolicyContext& ctx,
                                   const std::vector<hw::Node>& nodes,
                                   ActuationReconciler* rec,
                                   ActuationReconciler::CycleWork* work,
                                   std::uint64_t now_cycle) const {
  // Serial merge, in candidate order — exactly the order the pre-shard
  // loop visited nodes, so reconciler mutations, heal emission, counters
  // and the context layout are all bit-identical to it. clear() keeps the
  // capacity, so after the first cycle this fills existing storage.
  ctx.stale_nodes = 0;
  ctx.missing_nodes = 0;
  ctx.fallback_nodes = 0;
  ctx.rejected_samples = 0;
  ctx.unresponsive_nodes = 0;
  ctx.nodes.clear();
  for (const ViewRecord& vr : view_records_) {
    ctx.rejected_samples += vr.rejected;
    if (vr.status == ViewRecord::Status::kMissing) {
      ++ctx.missing_nodes;
      continue;
    }
    if (vr.status == ViewRecord::Status::kMissingUnresponsive ||
        vr.status == ViewRecord::Status::kExcludedUnresponsive) {
      ++ctx.unresponsive_nodes;
      continue;
    }
    NodeView nv = vr.view;
    if (rec != nullptr && !nv.stale) {
      if (watchdog_ != nullptr && watchdog_->adoption_pending(nv.id)) {
        // The failsafe changed this node during an outage. A fresh sample
        // showing the node's ACTUAL current level is the post-failsafe
        // truth: adopt it outright — feeding it to observe_node instead
        // would log a divergence and heal the node back UP against the
        // watchdog. A fresh-but-earlier sample (collected before the
        // failsafe stepped the node, still inside the age window) shows a
        // level the node no longer holds; holding the node out of the
        // ack machinery for one cycle is strictly safer than acting on it.
        if (nv.level == nodes[nv.id].level()) {
          rec->adopt_reality(nv.id, nv.level, vr.sample_cycle, *work);
          watchdog_->resolve_adoption(nv.id);
        }
      } else {
        // Ack/divergence/readmission processing runs on fresh views only:
        // a stale sample predates whatever is in flight and can neither
        // confirm nor contradict it.
        rec->observe_node(nv.id, nv.level, vr.sample_cycle, now_cycle, *work);
      }
    }
    if (nv.stale) {
      ++ctx.stale_nodes;
      ++ctx.fallback_nodes;
    } else if (vr.substituted) {
      ++ctx.fallback_nodes;
    }
    if (rec != nullptr) {
      // Safe-side accounting for whatever is (still) unacked after the
      // observation above. An unacked restore is assumed already applied
      // when computing headroom (the node may be drawing the higher power
      // right now); an unacked throttle claims nothing — the telemetry
      // power stands and the job-level saving below excludes the node.
      // Both errors overestimate draw, never savings.
      if (const std::optional<hw::Level> target =
              rec->pending_target(nv.id)) {
        nv.command_in_flight = true;
        if (*target > nv.level) {
          const Watts assumed = nodes[nv.id].estimated_power_at(*target);
          if (assumed > nv.power) nv.power = assumed;
        }
      }
    }
    ctx.nodes.push_back(nv);
  }
  ctx.index_nodes();
}

void CappingManager::fill_job_view(const JobIndex::Entry& e,
                                   const PolicyContext& ctx, JobView& jv) {
  jv.id = e.id;
  jv.nodes.clear();
  jv.throttleable.clear();
  jv.power = Watts{0.0};
  jv.power_prev = Watts{0.0};
  jv.saving_one_level = Watts{0.0};
  bool have_all_prev = true;
  for (const hw::NodeId nid : e.candidate_nodes) {
    const NodeView* nv = ctx.node(nid);
    if (nv == nullptr) continue;  // no usable view this cycle
    jv.nodes.push_back(nid);
    jv.power += nv->power;
    // has_prev, not power_prev > 0: an idle or gated node legitimately
    // reports 0.0 W, and treating that as "no history" zeroed the whole
    // job's rate-of-increase signal.
    if (nv->has_prev) {
      jv.power_prev += nv->power_prev;
    } else {
      have_all_prev = false;
    }
    // Stale or in-flight nodes contribute (inflated) power but no claimed
    // saving: a throttle command they will not be selected for cannot be
    // counted as shed watts.
    if (nv->busy && !nv->at_lowest && !nv->stale && !nv->command_in_flight) {
      jv.throttleable.push_back(nid);
      jv.saving_one_level += nv->power - nv->power_one_level_down;
    }
  }
  if (!have_all_prev) jv.power_prev = Watts{0.0};  // no rate
}

void CappingManager::job_pass(PolicyContext& ctx) const {
  // Each stage slot is written by one worker and reads only the frozen
  // context, so this pass shards.
  const std::vector<JobIndex::Entry>& entries = job_index_.entries();
  job_stage_.resize(entries.size());
  common::maybe_parallel_for(
      pool_, entries.size(), params_.collector.parallel_threshold,
      params_.collector.parallel_grain,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t k = begin; k < end; ++k) {
          fill_job_view(entries[k], ctx, job_stage_[k]);
        }
      });
  // Serial compaction: jobs with no usable node this cycle drop out,
  // order is preserved, and swap keeps both sides' vector capacity.
  std::size_t used = 0;
  for (std::size_t k = 0; k < job_stage_.size(); ++k) {
    JobView& staged = job_stage_[k];
    if (staged.nodes.empty()) continue;
    if (used == ctx.jobs.size()) ctx.jobs.emplace_back();
    std::swap(ctx.jobs[used], staged);
    ++used;
  }
  ctx.jobs.erase(ctx.jobs.begin() + static_cast<std::ptrdiff_t>(used),
                 ctx.jobs.end());
  ctx.jobs_have_throttleable = true;
}

void CappingManager::collect_phase(bool collect_now,
                                   const std::vector<hw::Node>& nodes,
                                   Seconds now, std::size_t monitored_jobs) {
  if (collect_now) {
    collector_.collect(nodes, now, monitored_jobs);
    quiet_since_build_ = quiet_since_build_ && collector_.last_sweep_quiet();
  } else {
    // Clock tick only: per-slot staleness stays well-defined and the
    // stride schedule keeps its phase.
    collector_.skip_cycle(monitored_jobs);
  }
}

void CappingManager::begin_actuation_phase(std::vector<hw::Node>& nodes) {
  delivered_scratch_.clear();
  recon_work_.clear();
  channel_.begin_cycle(nodes, delivered_scratch_);
}

void CappingManager::context_phase(Watts measured,
                                   const std::vector<hw::Node>& nodes,
                                   const sched::Scheduler& scheduler,
                                   ManagerReport& report) {
  build_context_with(scratch_ctx_, measured, nodes, scheduler, &reconciler_,
                     &recon_work_);
  reconciler_.finish_observation(collector_.cycle_count(), recon_work_);
  // Failsafe levels adopted above join A_degraded: steady green is what
  // restores them back up once the controller has been back long enough.
  // A node adopted AT its top level (uncommon — safe_level at the top)
  // has nothing to restore and stays out.
  for (const LevelCommand& adopted : recon_work_.adopted_nodes) {
    if (adopted.level < nodes[adopted.node].spec().ladder.highest()) {
      engine_.adopt_degraded(adopted.node);
    }
  }
  report.watchdog_adoptions = recon_work_.adopted_nodes.size();
  report.stale_nodes = scratch_ctx_.stale_nodes;
  report.missing_nodes = scratch_ctx_.missing_nodes;
  report.fallback_nodes = scratch_ctx_.fallback_nodes;
  report.rejected_samples = scratch_ctx_.rejected_samples;
  report.unresponsive_nodes = scratch_ctx_.unresponsive_nodes;
  quiet_since_build_ = report.stale_nodes == 0 && report.missing_nodes == 0 &&
                       report.fallback_nodes == 0 &&
                       report.rejected_samples == 0 &&
                       report.unresponsive_nodes == 0;
  observation_lag_ = false;
}

bool CappingManager::context_skippable(PowerState effective) const {
  return effective == PowerState::kGreen &&
         engine_.green_timer() + 1 < engine_.params().steady_green_cycles &&
         reconciler_.pending_count() == 0 &&
         reconciler_.unresponsive_count() == 0 &&
         channel_.in_flight_count() == 0 && !watchdog_pending() &&
         quiet_since_build_ && collector_.last_sweep_quiet();
}

void CappingManager::skip_context_phase() {
  ++context_skips_;
  observation_lag_ = true;
}

CycleDecision CappingManager::select_phase(Watts measured, Watts p_low,
                                           Watts p_high) {
  // Keep the context's classification inputs consistent with the decision
  // being made: the flat cycle passes the same values the context was
  // built with (a no-op overwrite), while the zone tree re-aims the
  // shard's context at synthetic thresholds encoding its deficit share,
  // so ctx.required_saving() must track (system_power, p_low) here.
  scratch_ctx_.system_power = measured;
  scratch_ctx_.p_low = p_low;
  return engine_.cycle(measured, p_low, p_high, *policy_, scratch_ctx_);
}

std::size_t CappingManager::actuate_phase(const CycleDecision& decision,
                                          std::vector<hw::Node>& nodes) {
  // Heals and due retries are already in recon_work_.commands; the
  // engine's fresh decisions join them after the unresponsive filter and
  // pending dedup. Everything then goes through the (possibly lossy)
  // channel, and only what the channel delivered reaches hardware.
  reconciler_.admit(decision.commands, collector_.cycle_count(), recon_work_);
  channel_.send(recon_work_.commands, nodes, delivered_scratch_);
  stamp_delivery_contacts();
  return controller_.apply(delivered_scratch_, nodes);
}

std::size_t CappingManager::apply_deliveries(std::vector<hw::Node>& nodes) {
  if (delivered_scratch_.empty()) return 0;
  stamp_delivery_contacts();
  return controller_.apply(delivered_scratch_, nodes);
}

void CappingManager::stamp_delivery_contacts() {
  if (watchdog_ == nullptr) return;
  // A delivery is controller traffic the node itself can see, so it
  // resets that node's silence clock — even when it is a leftover delayed
  // command landing mid-outage (the node cannot tell the sender is dead;
  // the timeout budget has to absorb such stragglers).
  for (const LevelCommand& cmd : delivered_scratch_) {
    watchdog_->contact(cmd.node);
  }
}

ManagerReport CappingManager::dead_cycle(Watts measured,
                                         std::vector<hw::Node>& nodes,
                                         const sched::Scheduler& scheduler,
                                         Seconds now) {
  ManagerReport report;
  report.controller_down = true;
  report.measured = measured;
  report.p_low = learner_.p_low();
  report.p_high = learner_.p_high();
  report.training = learner_.training();
  // The band is physical reality whether or not the controller sees it —
  // classify against the last-learned thresholds so observers (and the
  // chaos invariant) keep an honest green/yellow/red record of the
  // outage. The learner itself observes nothing: a dead controller reads
  // no meter, so its observation window freezes mid-outage.
  report.state = classify_power(measured, report.p_low, report.p_high);
  // No heartbeat (that is the whole point), no sweep — but the collector
  // clock ticks so per-slot sample ages stay well-defined at recovery.
  collect_phase(false, nodes, now, scheduler.running_count());
  report.manager_utilization = collector_.last_cycle_manager_utilization();
  // Hardware does not pause with the controller: reboots happen and
  // already-sent delayed commands still land (stamping watchdog contacts
  // — the node cannot tell the sender is dead).
  begin_actuation_phase(nodes);
  report.transitions = apply_deliveries(nodes);
  publish(report, 0, 0);
  return report;
}

ManagerReport CappingManager::cycle(Watts measured,
                                    std::vector<hw::Node>& nodes,
                                    const sched::Scheduler& scheduler,
                                    Seconds now) {
  CycleOpening opening = open_cycle(measured, nodes, scheduler, now);
  if (opening.closed) return opening.report;
  return close_cycle(opening, nodes, scheduler);
}

CappingManager::CycleOpening CappingManager::open_cycle(
    Watts measured, std::vector<hw::Node>& nodes,
    const sched::Scheduler& scheduler, Seconds now) {
  CycleOpening opening;
  ManagerReport& report = opening.report;
  // 0. Control-plane fault process. A blacked-out (or stalled) controller
  // contributes nothing this cycle — the dead path models exactly what
  // still happens without it. With faults disabled begin_cycle() draws
  // nothing and the healthy path below is bit-identical to pre-fault
  // builds.
  if (ctrl_faults_.begin_cycle()) {
    report = dead_cycle(measured, nodes, scheduler, now);
    opening.closed = true;
    return opening;
  }
  // A live cycle IS the liveness beacon: every node in this manager's
  // group hears from its controller this control period.
  if (watchdog_ != nullptr) watchdog_->heartbeat(watchdog_group_);

  // 0b. Candidate set re-selection (§III.A algorithm (c)). Routed through
  // set_candidate_set so the actuation channel learns new nodes too.
  if (selector_ && selector_->due()) {
    set_candidate_set(selector_->select(nodes, scheduler));
  }

  // 1. Threshold learning / classification first: whether this cycle
  // needs a full telemetry sweep depends on the classified state, and the
  // learner reads only the facility meter, never the collector.
  learner_.observe(measured);

  report.measured = measured;
  report.p_low = learner_.p_low();
  report.p_high = learner_.p_high();
  report.training = learner_.training();
  report.state = classify_power(measured, report.p_low, report.p_high);

  // 1b. Forecasting: model update + this cycle's forecast. Runs during
  // training too (the model is warm the moment capping starts), but only
  // arms the predictive path once training is over.
  const bool predictive_alarm = forecast_phase(forecaster_, report) &&
                                !report.training && policy_->forecast_driven();

  // 2. Telemetry sweep over A_candidate — or, on a quiet green cycle
  // between stride marks, just a clock tick. The collect gate is
  // evaluated exactly ONCE, here, strictly before begin_actuation_phase:
  // that call processes reboots and due deliveries and can shrink the
  // in-flight set, so a second evaluation after it could disagree with
  // the collect decision made now — skipping the sweep yet building a
  // context, or (worse) collecting and then not consuming the acks. A
  // predictive alarm forces the build the same way a non-green state
  // does: the elevated yellow path selects against this context, so it
  // must be fresh.
  opening.context_gate = context_gate(report.state) || predictive_alarm;
  opening.swept = opening.context_gate || collect_due();
  {
    const obs::SpanTimer::Scope span = metrics_.collect_span.start();
    collect_phase(opening.swept, nodes, now, scheduler.running_count());
  }
  report.manager_utilization = collector_.last_cycle_manager_utilization();

  // 2b. The context decision, once, after the sweep (the telemetry
  // clauses read it) and before begin_actuation_phase (the reconciler
  // clauses must see the state the collect decision saw). It can only
  // narrow the gate, so a cycle that builds has always just collected.
  const PowerState effective =
      predictive_alarm && report.state == PowerState::kGreen
          ? PowerState::kYellow
          : report.state;
  opening.build_context =
      opening.context_gate && !context_skippable(effective);

  // 2c. Actuation-plane hardware events happen whether or not the manager
  // is ready to react: nodes reboot (resetting to their highest level)
  // and commands whose delivery delay expired land now — even during
  // training, when the arrivals are leftovers from before a reset.
  begin_actuation_phase(nodes);

  // 3. During training the system runs unmanaged (§V.C).
  if (report.training) {
    apply_deliveries(nodes);
    publish(report, opening.swept ? 1 : 0, 0);
    opening.closed = true;
  }
  return opening;
}

ManagerReport CappingManager::close_cycle(CycleOpening& opening,
                                          std::vector<hw::Node>& nodes,
                                          const sched::Scheduler& scheduler) {
  ManagerReport& report = opening.report;
  const Watts measured = report.measured;
  // 4. Algorithm 1 + reconciliation + actuation. The context is built
  // only when the gate opened and the skip predicate could not clear it:
  // a green cycle with nothing degraded, pending or in flight never
  // consults it (the pruning loop and the restore walk both iterate
  // A_degraded), and a green tick inside the T_g wait with quiet
  // telemetry and an idle reconciler would rebuild the context the last
  // build left in place. Unacked or abandoned commands force the build:
  // acks arrive through it, and unresponsive nodes can only be readmitted
  // by looking at telemetry. When it runs, the persistent buffers make it
  // allocation-free.
  const bool skipped = opening.context_gate && !opening.build_context;
  if (opening.build_context) {
    const obs::SpanTimer::Scope span = metrics_.context_span.start();
    context_phase(measured, nodes, scheduler, report);
  } else if (skipped) {
    skip_context_phase();
  }
  // Stamp THIS cycle's forecast into the context (clearing any stale
  // stamp from a previous build): the engine's predictive elevation and
  // the forecast-driven policies read it from here. When the alarm is
  // armed the context above was just rebuilt, so the selection acts on
  // data as fresh as any reactive yellow cycle's.
  scratch_ctx_.has_forecast = !report.training && report.has_forecast;
  scratch_ctx_.forecast_power = report.forecast;
  CycleDecision decision;
  {
    const obs::SpanTimer::Scope span = metrics_.policy_span.start();
    decision = select_phase(measured, report.p_low, report.p_high);
  }
  report.state = decision.state;
  report.targets = decision.commands.size();
  report.skipped_targets = decision.skipped;
  report.deferred_targets = decision.deferred_in_flight;

  {
    const obs::SpanTimer::Scope span = metrics_.actuate_span.start();
    report.transitions = actuate_phase(decision, nodes);
  }

  report.acks = recon_work_.acks;
  report.retries = recon_work_.retries;
  report.divergences = recon_work_.divergences;
  report.heals = recon_work_.heals;
  publish(report, opening.swept ? 1 : 0, skipped ? 1 : 0);
  return report;
}

ShardCheckpoint CappingManager::checkpoint() const {
  ShardCheckpoint cp;
  cp.learner = learner_.checkpoint();
  cp.engine = engine_.checkpoint();
  cp.reconciler = reconciler_.checkpoint();
  if (observation_lag_) {
    // Each skipped build would have fed every candidate's newest sample
    // through observe_node. The skip predicate guaranteed nothing pending
    // or unresponsive and every such sample at its slot's believed level,
    // so all those observations could do is advance observed_cycle to the
    // newest sample's stamp — the image applies exactly that, so a warm
    // restart reads what an every-cycle build would have written.
    for (ReconcilerSlotCheckpoint& sc : cp.reconciler.slots) {
      const std::optional<telemetry::NodeSample> newest =
          collector_.latest(sc.node);
      if (!sc.has_believed || !newest) continue;
      sc.observed_cycle = std::max(sc.observed_cycle, newest->cycle);
    }
  }
  cp.collector_cycles = collector_.cycle_count();
  cp.predictor_state = forecaster_.checkpoint_state();
  cp.policy_state = policy_->checkpoint_state();
  return cp;
}

void CappingManager::restore(const ShardCheckpoint& cp) {
  learner_.restore(cp.learner);
  engine_.restore(cp.engine);
  reconciler_.restore(cp.reconciler);
  forecaster_.restore_state(cp.predictor_state);
  if (!cp.policy_state.empty()) policy_->restore_state(cp.policy_state);
  // Believed/observed stamps in the restored shadow tables are in the
  // checkpointed collector timebase; resume the clock there or every ack
  // and staleness comparison would be skewed by the restart.
  collector_.restore_cycle_count(cp.collector_cycles);
  // Reconciler state just jumped wholesale: no skip may stand in for the
  // next build.
  quiet_since_build_ = false;
  observation_lag_ = false;
}

ManagerReport NoCappingManager::cycle(Watts measured,
                                      std::vector<hw::Node>& /*nodes*/,
                                      const sched::Scheduler& /*scheduler*/,
                                      Seconds /*now*/) {
  ManagerReport report;
  report.measured = measured;
  return report;
}

}  // namespace pcap::power
