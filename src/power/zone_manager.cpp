#include "power/zone_manager.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "power/checkpoint.hpp"

namespace pcap::power {

namespace {

// Synthetic threshold triples the shards' engines classify against. The
// watt values carry no physical meaning — they exist purely so
// classify_power lands in the intended branch and, in yellow, so
// ctx.required_saving() == the zone's deficit share.
constexpr Watts kGreenP{0.0};
constexpr Watts kGreenLow{1.0};
constexpr Watts kGreenHigh{2.0};
constexpr Watts kRedP{2.0};
constexpr Watts kRedLow{0.0};
constexpr Watts kRedHigh{1.0};

}  // namespace

ZoneTreeParams::Assignment parse_zone_assignment(const std::string& s) {
  if (s == "block") return ZoneTreeParams::Assignment::kBlock;
  if (s == "stride") return ZoneTreeParams::Assignment::kStride;
  throw std::invalid_argument("zones.assignment must be block|stride, got '" +
                              s + "'");
}

ZoneTreeParams::Redistribution parse_zone_redistribution(
    const std::string& s) {
  if (s == "uniform") return ZoneTreeParams::Redistribution::kUniform;
  if (s == "proportional") return ZoneTreeParams::Redistribution::kProportional;
  throw std::invalid_argument(
      "zones.redistribution must be uniform|proportional, got '" + s + "'");
}

ZoneTreeManager::ZoneTreeManager(ZoneTreeParams params,
                                 CappingManagerParams shard_params,
                                 std::function<PolicyPtr()> policy_factory,
                                 common::Rng rng)
    : params_(params), learner_(shard_params.thresholds) {
  if (params_.zone_count < 1) {
    throw std::invalid_argument("ZoneTreeManager: zone_count must be >= 1");
  }
  if (!policy_factory) {
    throw std::invalid_argument("ZoneTreeManager: null policy factory");
  }
  if (shard_params.selector) {
    throw std::invalid_argument(
        "ZoneTreeManager: dynamic candidate selection is not supported "
        "under zoning (the selector would re-partition every reselect)");
  }
  // The shards never classify or learn: freeze their learners at the
  // provision so their construction is valid and inert, and root-managed
  // training never double-counts. Their control-fault injectors are
  // cleared for the same reason: the tree owns every outage window (root
  // blackouts and per-zone crashes alike), drawn from its own streams.
  CappingManagerParams zp = shard_params;
  zp.thresholds.freeze_at_provision = true;
  zp.control = ControlFaultParams{};
  // Prediction runs at the root for the same reason learning does: there
  // is one facility meter, so there is one forecastable power series. The
  // shards' prediction params are cleared so they never grow predictors
  // of their own (their "meter" input is the global reading anyway).
  zp.prediction = PredictionParams{};
  orphan_margin_ = shard_params.stale_power_margin;
  prediction_ = shard_params.prediction;
  if (prediction_.enabled) {
    prediction_.validate();
    predictor_ = make_predictor(prediction_);
    predictor_refresh_cycles_ =
        prediction_.refresh_cycles > 0
            ? prediction_.refresh_cycles
            : shard_params.thresholds.adjust_period_cycles;
    scorer_.reset(prediction_.horizon_cycles);
  }
  zones_.resize(params_.zone_count);
  for (std::size_t z = 0; z < zones_.size(); ++z) {
    // One rng branch per zone: zone z's fault/transport streams depend
    // only on (seed, z), not on the zone count or membership.
    zones_[z].shard = std::make_unique<CappingManager>(
        zp, policy_factory(), rng.fork("zone" + std::to_string(z)));
  }
  // Forked after every zone branch so enabling/disabling control faults —
  // or adding this fork at all — cannot perturb the zone streams existing
  // seeds depend on.
  ctrl_faults_.emplace(shard_params.control, rng.fork("control"));
  ctrl_faults_->ensure_zones(zones_.size());
}

std::string ZoneTreeManager::name() const {
  return "zonetree(" + std::to_string(zones_.size()) +
         "):" + zones_.front().shard->name();
}

void ZoneTreeManager::set_candidate_set(const std::vector<hw::NodeId>& ids) {
  std::vector<hw::NodeId> sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());

  const std::size_t n = sorted.size();
  const std::size_t zc = zones_.size();
  for (Zone& zone : zones_) zone.members.clear();
  if (params_.assignment == ZoneTreeParams::Assignment::kBlock) {
    // Balanced contiguous ranges: the first n % zc zones get one extra.
    const std::size_t q = n / zc;
    const std::size_t r = n % zc;
    std::size_t begin = 0;
    for (std::size_t z = 0; z < zc; ++z) {
      const std::size_t len = q + (z < r ? 1 : 0);
      zones_[z].members.assign(sorted.begin() + begin,
                               sorted.begin() + begin + len);
      begin += len;
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      zones_[i % zc].members.push_back(sorted[i]);
    }
  }
  for (Zone& zone : zones_) {
    zone.shard->set_candidate_set(zone.members);
    zone.hints_valid = false;  // membership changed: hints describe the past
    zone.ever_measured = false;
    zone.worst_case_valid = false;
  }
  refresh_watchdog_groups();
}

void ZoneTreeManager::set_watchdog(hw::FailsafeWatchdog* wd) {
  watchdog_ = wd;
  for (std::size_t z = 0; z < zones_.size(); ++z) {
    zones_[z].shard->attach_watchdog(wd, z);
  }
  refresh_watchdog_groups();
}

void ZoneTreeManager::refresh_watchdog_groups() {
  if (watchdog_ == nullptr) return;
  std::vector<std::vector<hw::NodeId>> groups;
  groups.reserve(zones_.size());
  for (const Zone& zone : zones_) groups.push_back(zone.members);
  watchdog_->set_groups(groups);
}

void ZoneTreeManager::invalidate_hints() {
  for (Zone& zone : zones_) zone.hints_valid = false;
}

void ZoneTreeManager::bind_metrics(obs::Registry& reg) {
  reg_ = &reg;
  metrics_.bind(reg);
  for (std::size_t z = 0; z < zones_.size(); ++z) {
    const std::string label = "zone=\"" + std::to_string(z) + "\"";
    zones_[z].power_gauge =
        reg.gauge("pcap_zone_power_watts",
                  "Zone context power at the last active cycle", label);
    zones_[z].share_gauge =
        reg.gauge("pcap_zone_share_watts",
                  "Zone deficit share at the last cycle", label);
    zones_[z].active_cycles =
        reg.counter("pcap_zone_active_cycles_total",
                    "Cycles this zone ran collect+context+select", label);
    zones_[z].targets_total =
        reg.counter("pcap_zone_targets_total",
                    "Throttle/restore targets selected in this zone", label);
  }
}

ManagerReport ZoneTreeManager::cycle(Watts measured,
                                     std::vector<hw::Node>& nodes,
                                     const sched::Scheduler& scheduler,
                                     Seconds now) {
  // Control-fault windows advance first: a root blackout silences the
  // whole tree (no learning, no heartbeats, no decisions), a zone window
  // silences just that shard while the root conservatively re-plans
  // around the orphan.
  const bool root_down = ctrl_faults_->begin_cycle();

  // Root: threshold learning + global classification — one learner, one
  // facility meter reading, exactly like the flat manager's step 1. A
  // dead root cannot observe, but the band it last learned is still real,
  // so classification (and the report) use the frozen thresholds.
  if (!root_down) learner_.observe(measured);

  ManagerReport report;
  report.controller_down = root_down;
  report.measured = measured;
  report.p_low = learner_.p_low();
  report.p_high = learner_.p_high();
  report.training = learner_.training();
  report.state = classify_power(measured, report.p_low, report.p_high);
  const PowerState state = report.state;

  // Root forecasting (the flat manager's step 1b): model update + this
  // cycle's forecast. Runs during training too — the model is warm the
  // moment capping starts — but only arms the predictive path after.
  if (!root_down) predictor_phase(measured, report);
  const bool predictive_alarm =
      !root_down && !report.training && forecast_.has_value() &&
      zones_.front().shard->policy().forecast_driven() &&
      *forecast_ >= report.p_low;

  // Predictive elevation: a green root cycle with an armed alarm drives
  // the zones down the yellow deficit-distribution path, shedding for
  // where the meter is heading instead of where it is. Green→yellow only,
  // never →red — a bad forecast can cost a few conservative throttles but
  // can never floor the whole cluster.
  PowerState effective = state;
  if (predictive_alarm && state == PowerState::kGreen) {
    effective = PowerState::kYellow;
    ++predictive_elevations_;
    report.state = effective;
  }

  if (root_down) {
    // The root is blind this cycle: whatever it believed about the zones
    // is stale by the time it wakes, and the dirty triggers below did not
    // run, so every hint is dropped outright.
    invalidate_hints();
  } else {
    // Root dirty triggers: a global state change re-arms every zone, and
    // so does any job start/finish (membership of busy sets — and
    // therefore shed capacity — may have moved anywhere). The EFFECTIVE
    // state participates: a predictive elevation starting or ending moves
    // the zones between the green and yellow regimes exactly as a real
    // classification change would.
    const std::size_t job_events = scheduler.job_events().size();
    if (effective != last_state_ || job_events != job_events_seen_) {
      invalidate_hints();
    }
    last_state_ = effective;
    job_events_seen_ = job_events;
  }

  // Zone liveness scratch + watchdog heartbeats — serial (the watchdog is
  // shared state). Group z heartbeats exactly when zone z's shard is up
  // AND the root is up: a node's silence clock only resets on controller
  // traffic it could actually have seen.
  for (std::size_t z = 0; z < zones_.size(); ++z) {
    Zone& zone = zones_[z];
    zone.down = root_down || ctrl_faults_->zone_down(z);
    if (zone.down) {
      zone.hints_valid = false;
    } else if (watchdog_ != nullptr) {
      watchdog_->heartbeat(z);
    }
  }

  const bool training = report.training;
  const std::size_t running_jobs = scheduler.running_count();

  // Phase A — per-zone collect decision + telemetry + context decision.
  // The collect gate is O(1) per zone and touches only that zone's state,
  // so it runs serially up front; the sweep that follows goes to the pool
  // only when at least two zones actually collect. A quiescent (or
  // steady-green strided) cycle otherwise pays a pool handoff per phase
  // for zero work per zone — the ~20x quiescent-cycle slowdown recorded
  // in BENCH_control_cycle.json before this gate existed. Each decision
  // is made exactly once per zone, strictly before phase B, mirroring the
  // flat cycle: the collect gate before the sweep, the context decision
  // (the shard's own skip predicate) after it.
  for (std::size_t z = 0; z < zones_.size(); ++z) {
    Zone& zone = zones_[z];
    CappingManager& m = *zone.shard;
    zone.report = ManagerReport{};
    zone.decision = CycleDecision{};
    zone.share = Watts{0.0};
    zone.transitions = 0;
    zone.skipped = false;

    if (zone.down) {
      // Crashed shard: no gate, no sweep, no decision — only the
      // collector clock ticks (sample ages and reconciler deadlines
      // stay well-defined at recovery).
      zone.active = false;
      zone.collected = false;
    } else if (training) {
      const bool gate = m.context_gate(effective);
      zone.active = false;
      zone.collected = gate || m.collect_due();
    } else if (effective == PowerState::kGreen) {
      const bool gate = m.context_gate(effective);
      zone.active = gate;
      zone.collected = gate || m.collect_due();
    } else {
      // Yellow/red quiescence: a hinted zone with nothing left to
      // shed (yellow: zero job capacity; red: every node already at
      // the floor) is skipped. Anything pending, in flight,
      // unresponsive or awaiting watchdog adoption forces activity —
      // acks, readmissions and adoptions only arrive through a
      // context build.
      const bool nothing_to_shed = effective == PowerState::kYellow
                                       ? zone.capacity <= Watts{0.0}
                                       : zone.floored;
      const bool quiescent =
          zone.hints_valid && nothing_to_shed &&
          m.reconciler().pending_count() == 0 &&
          m.reconciler().unresponsive_count() == 0 &&
          m.actuation_channel().in_flight_count() == 0 &&
          !m.watchdog_pending();
      zone.active = !quiescent;
      zone.collected = zone.active;
    }
  }
  std::size_t collecting_zones = 0;
  for (const Zone& zone : zones_) collecting_zones += zone.collected ? 1 : 0;
  common::ThreadPool* const collect_pool =
      collecting_zones >= 2 ? pool_ : nullptr;
  common::maybe_parallel_for(
      collect_pool, zones_.size(), 2, 1,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t z = begin; z < end; ++z) {
          Zone& zone = zones_[z];
          zone.shard->collect_phase(zone.collected, nodes, now, running_jobs);
        }
      });
  // Context decision: a gated green zone whose build the skip predicate
  // proves idle is simply not active this cycle (never true off green).
  std::size_t active_zones = 0;
  for (Zone& zone : zones_) {
    if (zone.active && zone.shard->context_skippable(effective)) {
      zone.active = false;
      zone.skipped = true;
    }
    active_zones += zone.active ? 1 : 0;
  }
  common::ThreadPool* const active_pool = active_zones >= 2 ? pool_ : nullptr;

  // Phase B — actuation-plane hardware events (reboots, due deliveries)
  // mutate nodes: strictly serial, fixed zone order. A reboot resets a
  // node to full power behind the zone's back, so it invalidates that
  // zone's hints (the rebuild lands next cycle — one documented cycle of
  // lag, conservative because the meter still sees the extra draw and the
  // other zones shed for it).
  for (Zone& zone : zones_) {
    const std::uint64_t reboots_before =
        zone.shard->actuation_channel().reboot_events();
    zone.shard->begin_actuation_phase(nodes);
    if (zone.shard->actuation_channel().reboot_events() != reboots_before) {
      zone.hints_valid = false;
    }
  }

  const auto fill_totals = [&] {
    double utilization = 0.0;
    for (Zone& zone : zones_) {
      const CappingManager& m = *zone.shard;
      utilization += m.collector().last_cycle_manager_utilization();
      report.samples_lost += m.collector().samples_lost();
      report.samples_suppressed += m.collector().samples_suppressed();
      const telemetry::FaultInjector& faults = m.collector().fault_injector();
      report.samples_corrupted += faults.samples_corrupted();
      report.crash_events += faults.crash_events();
      report.recovery_events += faults.recovery_events();
      report.agents_down += faults.silent_count();
      report.commands_lost += m.actuation_channel().commands_lost();
      report.commands_rebooting +=
          m.actuation_channel().commands_dropped_rebooting();
      report.transitions_failed += m.actuation_channel().transitions_failed();
      report.transitions_partial +=
          m.actuation_channel().transitions_partial();
      report.reboot_events += m.actuation_channel().reboot_events();
      report.commands_abandoned += m.reconciler().total_abandoned();
      report.commands_clamped += m.controller().commands_clamped();
      report.commands_in_flight += m.reconciler().pending_count();
    }
    report.manager_utilization = utilization;
    // Control-plane fault truth lives in the tree's injector (the shards'
    // own injectors are cleared at construction and count nothing).
    report.zones_down = ctrl_faults_->zones_down();
    report.predictor_overshoots = scorer_.overshoots();
    report.predictor_misses = scorer_.misses();
    report.predictive_elevations = predictive_elevations_;
    report.ctrl_outages = ctrl_faults_->outages_started();
    report.ctrl_outage_cycles = ctrl_faults_->outage_cycles();
    report.ctrl_delayed_cycles = ctrl_faults_->delayed_cycles();
    report.ctrl_zone_outage_cycles = ctrl_faults_->zone_outage_cycles();
  };

  const auto publish = [&] {
    std::size_t unresponsive_now = 0;
    std::size_t active = 0;
    std::size_t sweeps = 0;
    std::size_t skips = 0;
    for (Zone& zone : zones_) {
      unresponsive_now += zone.shard->reconciler().unresponsive_count();
      if (zone.active) ++active;
      if (zone.collected) ++sweeps;
      if (zone.skipped) ++skips;
      if (reg_ != nullptr) {
        reg_->set(zone.power_gauge, zone.power.value());
        reg_->set(zone.share_gauge, zone.share.value());
        if (zone.active) reg_->add(zone.active_cycles);
        reg_->add(zone.targets_total, zone.decision.commands.size());
      }
    }
    active_last_cycle_ = active;
    metrics_.publish(report, unresponsive_now, sweeps, skips);
  };

  // Training: the system runs unmanaged — only due deliveries land.
  if (training) {
    for (Zone& zone : zones_) zone.shard->apply_deliveries(nodes);
    fill_totals();
    publish();
    return report;
  }

  // Phase C — context assembly (parallel over zones when at least two
  // have real work; each shard's reconciler/collector/job-index state is
  // disjoint). The zone's power and shed capacity are serial per-zone
  // folds over its own context, so they are identical whichever worker
  // computed them.
  common::maybe_parallel_for(
      active_pool, zones_.size(), 2, 1,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t z = begin; z < end; ++z) {
          Zone& zone = zones_[z];
          if (zone.skipped) {
            // The skipped build's context would hold every member, clean
            // and at its newest sample, in slot order: the same power fold
            // over the records. Capacity is left as the last build set
            // it — a yellow-only hint, and a green cycle never reads it.
            zone.shard->skip_context_phase();
            zone.power = zone.shard->collector().estimated_candidate_power();
            continue;
          }
          if (!zone.active) continue;
          zone.shard->context_phase(measured, nodes, scheduler, zone.report);
          const PolicyContext& ctx = zone.shard->context();
          Watts power{0.0};
          bool floored = true;
          for (const NodeView& nv : ctx.nodes) {
            power += nv.power;
            if (!nv.at_lowest) floored = false;
          }
          Watts capacity{0.0};
          for (const JobView& jv : ctx.jobs) {
            capacity += jv.saving_one_level;
          }
          zone.power = power;
          zone.capacity = capacity;
          zone.floored = floored;
          zone.ever_measured = true;
        }
      });

  // Root fold — deficit shares, serial in fixed zone order (the only
  // cross-zone arithmetic in the cycle; its inputs are per-zone values
  // already pinned above, so the fold is bit-identical for any worker
  // count). Only zones that are active AND still have shed capacity are
  // eligible; skipped zones keep share 0.
  if (effective == PowerState::kYellow) {
    // Forecast-driven deficit base: with an armed alarm the root sheds
    // for where the meter is heading, not just where it is — on an
    // elevated green cycle the measured deficit is zero by definition, so
    // without this the elevation would distribute nothing. The base never
    // drops below the measured reading: a forecast that undershoots
    // reality can't shrink the reactive response.
    Watts deficit_base = measured;
    if (predictive_alarm && *forecast_ > deficit_base) {
      deficit_base = *forecast_;
    }
    Watts deficit = std::max(Watts{0.0}, deficit_base - report.p_low);
    // Orphan-zone adoption: a downed shard cannot shed its share, and the
    // root cannot see where its draw is heading. The meter already counts
    // the orphan's actual power, so the live zones inherit its share of
    // the deficit by construction (it is simply ineligible below); on top
    // of that the deficit is inflated by margin × the orphan's accounted
    // power — last-known context power when it was ever measured, the
    // members' theoretical max otherwise — so unseen upward drift inside
    // the orphan is shed by its siblings instead of breaching P_H.
    for (Zone& zone : zones_) {
      if (!zone.down) continue;
      if (zone.ever_measured) {
        deficit += zone.power * orphan_margin_;
      } else {
        if (!zone.worst_case_valid) {
          Watts wc{0.0};
          for (const hw::NodeId id : zone.members) {
            wc += nodes[id].spec().power_model.theoretical_max();
          }
          zone.worst_case = wc;
          zone.worst_case_valid = true;
        }
        deficit += zone.worst_case * orphan_margin_;
      }
    }
    Watts eligible_power{0.0};
    std::size_t eligible = 0;
    for (const Zone& zone : zones_) {
      if (zone.active && zone.capacity > Watts{0.0}) {
        ++eligible;
        eligible_power += zone.power;
      }
    }
    const bool proportional =
        params_.redistribution == ZoneTreeParams::Redistribution::kProportional &&
        eligible_power > Watts{0.0};
    for (Zone& zone : zones_) {
      if (!(zone.active && zone.capacity > Watts{0.0})) continue;
      zone.share = proportional
                       ? deficit * (zone.power.value() / eligible_power.value())
                       : deficit / static_cast<double>(eligible);
    }
  }

  // Phase D — selection (parallel when at least two zones are active;
  // per-shard engine/policy state is disjoint — skipped and green-idle
  // zones only tick their engine timers, O(1) work that never justifies a
  // handoff). Green runs every zone's engine — O(1) with nothing
  // degraded — so each shard's green timer ticks exactly as the flat
  // engine's would. Skipped yellow/red zones reset their timer without a
  // decision, as if a decision had run and emitted nothing.
  common::maybe_parallel_for(
      active_pool, zones_.size(), 2, 1,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t z = begin; z < end; ++z) {
          Zone& zone = zones_[z];
          CappingManager& m = *zone.shard;
          // A crashed shard decides nothing — not even a green-timer tick
          // or a non-green reset; its engine clock freezes mid-outage
          // exactly as the flat manager's does on a dead cycle.
          if (zone.down) continue;
          switch (effective) {
            case PowerState::kGreen:
              zone.decision = m.select_phase(kGreenP, kGreenLow, kGreenHigh);
              break;
            case PowerState::kYellow:
              if (zone.active && zone.share > Watts{0.0}) {
                zone.decision = m.select_phase(
                    zone.share, Watts{0.0},
                    Watts{std::numeric_limits<double>::max()});
              } else {
                m.note_non_green_cycle();
              }
              break;
            case PowerState::kRed:
              if (zone.active) {
                zone.decision = m.select_phase(kRedP, kRedLow, kRedHigh);
              } else {
                m.note_non_green_cycle();
              }
              break;
          }
        }
      });

  // Phase E — actuation mutates nodes: strictly serial, fixed zone order.
  // Every zone actuates every cycle (an empty decision still flushes the
  // reconciler's retries/heals and applies due deliveries). Hints refresh
  // here, after actuation: a zone that just sent commands has pending
  // state, so its hints stay invalid until the acks come back through a
  // clean build.
  for (Zone& zone : zones_) {
    CappingManager& m = *zone.shard;
    if (zone.down) {
      // Dead shard: no admissions, no retries, no heals — but commands
      // already in the network still land (stamping watchdog contacts;
      // the node cannot tell the sender died after transmitting).
      zone.transitions = m.apply_deliveries(nodes);
      continue;
    }
    zone.transitions = m.actuate_phase(zone.decision, nodes);
    if (zone.active || zone.skipped) {
      const ManagerReport& zr = zone.report;
      zone.hints_valid =
          zr.stale_nodes == 0 && zr.missing_nodes == 0 &&
          zr.fallback_nodes == 0 && zr.rejected_samples == 0 &&
          zr.unresponsive_nodes == 0 && m.reconciler().pending_count() == 0 &&
          m.reconciler().unresponsive_count() == 0 &&
          m.actuation_channel().in_flight_count() == 0;
    }
  }

  // Root report — serial fixed-order sum over the shards.
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
    const ActuationReconciler::CycleWork& work = zone.shard->recon_work();
    report.acks += work.acks;
    report.retries += work.retries;
    report.divergences += work.divergences;
    report.heals += work.heals;
    report.watchdog_adoptions += zone.report.watchdog_adoptions;
  }
  fill_totals();
  publish();
  return report;
}

void ZoneTreeManager::predictor_phase(Watts measured, ManagerReport& report) {
  if (!predictor_) return;
  predictor_->observe(measured);
  ++predictor_observations_;
  if (auto* periodic = dynamic_cast<PeriodicityPredictor*>(predictor_.get());
      periodic != nullptr &&
      predictor_observations_ % predictor_refresh_cycles_ == 0) {
    // The only super-O(1) model work, scheduled on the root learner's t_p
    // cadence — never on the per-cycle hot path.
    periodic->refresh();
  }
  forecast_ = predictor_->forecast(prediction_.horizon_cycles);
  std::optional<double> raw;
  if (forecast_) raw = forecast_->value();
  const std::optional<ForecastScorer::Score> score =
      scorer_.step(measured.value(), learner_.p_low().value(), raw);
  if (score) {
    report.forecast_abs_error = score->abs_error;
    report.forecast_scored = true;
  }
  report.has_forecast = forecast_.has_value();
  if (forecast_) report.forecast = *forecast_;
}

TreeCheckpoint ZoneTreeManager::checkpoint() const {
  TreeCheckpoint cp;
  cp.learner = learner_.checkpoint();
  // The observation counter rides in front of the opaque model state so
  // the restored refresh cadence stays phase-aligned with the old run.
  if (predictor_) {
    cp.predictor_state.push_back(
        static_cast<double>(predictor_observations_));
    const std::vector<double> model = predictor_->checkpoint_state();
    cp.predictor_state.insert(cp.predictor_state.end(), model.begin(),
                              model.end());
  }
  cp.last_state = static_cast<int>(last_state_);
  cp.job_events_seen = job_events_seen_;
  cp.shards.reserve(zones_.size());
  cp.hints.reserve(zones_.size());
  for (const Zone& zone : zones_) {
    cp.shards.push_back(zone.shard->checkpoint());
    ZoneHintCheckpoint h;
    h.hints_valid = zone.hints_valid;
    h.power = zone.power.value();
    h.capacity = zone.capacity.value();
    h.floored = zone.floored;
    h.ever_measured = zone.ever_measured;
    cp.hints.push_back(h);
  }
  return cp;
}

void ZoneTreeManager::restore(const TreeCheckpoint& cp) {
  if (cp.shards.size() != zones_.size() ||
      cp.hints.size() != zones_.size()) {
    throw std::invalid_argument(
        "ZoneTreeManager::restore: checkpoint zone count (" +
        std::to_string(cp.shards.size()) + ") != tree zone count (" +
        std::to_string(zones_.size()) + ")");
  }
  learner_.restore(cp.learner);
  if (predictor_ && !cp.predictor_state.empty()) {
    predictor_observations_ =
        static_cast<std::int64_t>(cp.predictor_state[0]);
    predictor_->restore_state(std::vector<double>(
        cp.predictor_state.begin() + 1, cp.predictor_state.end()));
    forecast_ = predictor_->forecast(prediction_.horizon_cycles);
  }
  last_state_ = static_cast<PowerState>(cp.last_state);
  job_events_seen_ = cp.job_events_seen;
  for (std::size_t z = 0; z < zones_.size(); ++z) {
    Zone& zone = zones_[z];
    zone.shard->restore(cp.shards[z]);
    const ZoneHintCheckpoint& h = cp.hints[z];
    zone.hints_valid = h.hints_valid;
    zone.power = Watts{h.power};
    zone.capacity = Watts{h.capacity};
    zone.floored = h.floored;
    zone.ever_measured = h.ever_measured;
    // Worst-case caches are re-derived from the live node table, not
    // carried across a restart.
    zone.worst_case_valid = false;
  }
}

}  // namespace pcap::power
