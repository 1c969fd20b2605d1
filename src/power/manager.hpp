// The global power manager (§II, Figure 1).
//
// One instance runs on the management node. Each control cycle it:
//   1. collects samples from the candidate set's profiling agents,
//   2. feeds the facility meter reading to the threshold learner,
//   3. (after training) runs Algorithm 1 with the configured target set
//      selection policy, and
//   4. dispatches the resulting level commands to the node controllers.
//
// PowerManagerBase is the interface the cluster drives; the baselines
// library provides alternative implementations behind the same interface.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <optional>

#include "common/thread_pool.hpp"
#include "common/units.hpp"
#include "hw/watchdog.hpp"
#include "obs/registry.hpp"
#include "obs/spans.hpp"
#include "power/actuation_channel.hpp"
#include "power/candidate_selector.hpp"
#include "power/capping.hpp"
#include "power/control_fault_injector.hpp"
#include "power/job_index.hpp"
#include "power/node_controller.hpp"
#include "power/policy.hpp"
#include "power/predictor.hpp"
#include "power/reconciler.hpp"
#include "power/state.hpp"
#include "power/thresholds.hpp"
#include "sched/scheduler.hpp"
#include "telemetry/collector.hpp"

namespace pcap::power {

struct ShardCheckpoint;  // power/checkpoint.hpp

/// What one control cycle did — recorded by experiments per cycle.
struct ManagerReport {
  PowerState state = PowerState::kGreen;
  Watts measured{0.0};
  Watts p_low{0.0};
  Watts p_high{0.0};
  bool training = false;
  std::size_t targets = 0;      ///< |A_target| this cycle
  std::size_t transitions = 0;  ///< level changes actually applied
  double manager_utilization = 0.0;  ///< Fig.5 cost model, this cycle

  // Telemetry health, this cycle. Zero on the steady-green fast path
  // (no context is built there — nothing was selected against).
  std::size_t stale_nodes = 0;       ///< views past the sample-age bound
  std::size_t missing_nodes = 0;     ///< candidates with no usable sample
  std::size_t fallback_nodes = 0;    ///< views on a substituted estimate
  std::size_t rejected_samples = 0;  ///< implausible samples skipped
  std::size_t skipped_targets = 0;   ///< policy targets the engine refused
  std::size_t deferred_targets = 0;  ///< targets passed over: command in flight

  // Actuation reconciliation, this cycle. Zero whenever no context was
  // built (steady green with nothing pending).
  std::size_t acks = 0;         ///< commands confirmed by telemetry
  std::size_t retries = 0;      ///< unacked commands re-sent
  std::size_t divergences = 0;  ///< observed level != believed level
  std::size_t heals = 0;        ///< healing commands emitted
  std::size_t commands_in_flight = 0;  ///< unacked commands after actuation
  std::size_t unresponsive_nodes = 0;  ///< candidates dropped: no acks left

  // Cumulative fault/transport ground truth (collector + injector
  // lifetime totals; filled every cycle, including steady green).
  std::uint64_t samples_lost = 0;        ///< dropped by the transport
  std::uint64_t samples_suppressed = 0;  ///< never left the node
  std::uint64_t samples_corrupted = 0;   ///< delivered with garbage power
  std::uint64_t crash_events = 0;
  std::uint64_t recovery_events = 0;
  std::size_t agents_down = 0;  ///< nodes currently silent

  // Cumulative actuation-plane ground truth (channel + reconciler +
  // controller lifetime totals; filled every cycle).
  std::uint64_t commands_lost = 0;       ///< dropped in transit
  std::uint64_t commands_rebooting = 0;  ///< dropped at a rebooting node
  std::uint64_t transitions_failed = 0;  ///< delivered, DVFS switch failed
  std::uint64_t transitions_partial = 0; ///< delivered, landed part-way
  std::uint64_t reboot_events = 0;
  std::uint64_t commands_abandoned = 0;  ///< retry budget exhausted
  std::uint64_t commands_clamped = 0;    ///< request clamped by the node

  // Forecasting (managers running a PowerPredictor; all-zero otherwise).
  bool has_forecast = false;  ///< a forecast informed this cycle
  Watts forecast{0.0};        ///< predicted P, horizon cycles ahead
  /// |forecast - realised| for the forecast that targeted THIS cycle
  /// (made horizon cycles ago); valid only when forecast_scored.
  double forecast_abs_error = 0.0;
  bool forecast_scored = false;
  // Cumulative predictor ground truth (scorer/engine lifetime totals).
  std::uint64_t predictor_overshoots = 0;  ///< false alarms (pred>=P_L, real<P_L)
  std::uint64_t predictor_misses = 0;      ///< unseen ramps (pred<P_L, real>=P_L)
  std::uint64_t predictive_elevations = 0; ///< green cycles promoted to yellow

  // Control-plane failure domain (see power/control_fault_injector.hpp).
  bool controller_down = false;  ///< root controller silent this cycle
  std::size_t zones_down = 0;    ///< zone shards silent this cycle
  /// Failsafe watchdog levels the reconciler adopted as reality this
  /// cycle (zero divergence warnings for them by construction).
  std::size_t watchdog_adoptions = 0;
  // Cumulative control-fault ground truth (injector lifetime totals).
  std::uint64_t ctrl_outages = 0;  ///< root outage windows started
  std::uint64_t ctrl_outage_cycles = 0;
  std::uint64_t ctrl_delayed_cycles = 0;
  std::uint64_t ctrl_zone_outage_cycles = 0;
};

/// Registry bindings shared by every capping-style manager (the flat
/// CappingManager and the zone tree publish the same series, so
/// experiment extraction reads one schema whichever control plane ran).
/// Handles are preregistered by bind(), so publish() performs only array
/// stores; everything is inert until a registry is bound.
struct ManagerMetrics {
  obs::Registry* reg = nullptr;
  // Per-cycle accumulators (counter += report value each cycle).
  obs::CounterHandle cycles_green, cycles_yellow, cycles_red, training_cycles;
  obs::CounterHandle targets, transitions, skipped_targets, deferred_targets;
  obs::CounterHandle stale_nodes, missing_nodes, fallback_nodes,
      rejected_samples, unresponsive_node_cycles;
  obs::CounterHandle acks, retries, divergences, heals;
  // Mirrored lifetime ground truth (collector/injector/channel own it).
  obs::CounterHandle samples_lost, samples_suppressed, samples_corrupted,
      crash_events, recovery_events;
  obs::CounterHandle commands_lost, commands_rebooting, transitions_failed,
      transitions_partial, reboot_events, commands_abandoned,
      commands_clamped;
  obs::CounterHandle ctrl_outage_events, ctrl_outage_cycles,
      ctrl_delayed_cycles, ctrl_zone_outage_cycles;
  obs::CounterHandle watchdog_adoptions;
  obs::CounterHandle predictor_overshoots, predictor_misses,
      predictive_elevations;
  // Control-loop work: real telemetry sweeps (not clock-only ticks) and
  // gated cycles whose context build the skip predicate proved idle.
  obs::CounterHandle telemetry_sweeps, context_skips;
  // Instantaneous state.
  obs::GaugeHandle measured_watts, p_low_watts, p_high_watts,
      commands_in_flight, unresponsive_nodes, agents_down, orphan_zones;
  obs::GaugeHandle predictor_forecast_watts, predictor_abs_error_watts;
  // Control-loop stage timers.
  obs::SpanTimer collect_span, context_span, policy_span, actuate_span;

  void bind(obs::Registry& registry);
  /// Pushes one cycle's report into the registry (no-op when unbound).
  /// `unresponsive_now` is the instantaneous reconciler tally; `sweeps`
  /// and `context_skips` count this cycle's real telemetry sweeps and
  /// skipped context builds (all three summed across shards by the zone
  /// tree).
  void publish(const ManagerReport& report, std::size_t unresponsive_now,
               std::size_t sweeps, std::size_t context_skips);
};

class PowerManagerBase {
 public:
  virtual ~PowerManagerBase() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Runs one control cycle against the live node array and scheduler
  /// state. `measured` is the facility meter reading (Algorithm 1's P).
  virtual ManagerReport cycle(Watts measured, std::vector<hw::Node>& nodes,
                              const sched::Scheduler& scheduler,
                              Seconds now) = 0;

  /// Offers a worker pool for intra-cycle sweeps (telemetry collection on
  /// large candidate sets). Managers that cannot use one ignore it; the
  /// pool is owned by the caller (the cluster) and outlives the manager's
  /// use of it. nullptr detaches.
  virtual void set_thread_pool(common::ThreadPool* /*pool*/) {}

  /// Offers a metrics registry (owned by the caller, outliving the
  /// manager's use of it). Managers preregister their series here so the
  /// per-cycle publish is pure array stores; the default implementation
  /// publishes nothing.
  virtual void bind_metrics(obs::Registry& /*reg*/) {}

  /// Offers the cluster's node-local failsafe watchdog (owned by the
  /// caller, outliving the manager's use of it; nullptr detaches). A live
  /// manager heartbeats it every cycle and stamps per-node contacts on
  /// command delivery; managers that model no controller liveness (the
  /// baselines) ignore it — the watchdog then never times out because it
  /// has no groups.
  virtual void set_watchdog(hw::FailsafeWatchdog* /*wd*/) {}
};

struct CappingManagerParams {
  ThresholdParams thresholds;
  CappingParams capping;
  telemetry::CollectorParams collector;
  Seconds cycle_period{1.0};
  /// A node view older than this many collection cycles is stale: it gets
  /// a conservative fallback power estimate and is excluded from target
  /// selection. Delayed transport alone ages samples by delay_cycles, so
  /// keep this above the configured delay.
  std::int64_t max_sample_age_cycles = 5;
  /// Fallback inflation for stale views: last-known power × (1 + margin).
  /// Overstating a blind node's draw keeps the aggregate estimate — and
  /// therefore capping — on the safe side of the provision.
  double stale_power_margin = 0.10;
  /// Steady-green telemetry stride: when the classified state is green and
  /// nothing is degraded, pending, unresponsive or in flight, the full
  /// agent sweep runs only every this many cycles (1 = sweep every cycle,
  /// the legacy cadence). Any cycle that may build a policy context
  /// collects first — the collect decision is made before the sweep, and
  /// the context decision after it can only narrow it — so decisions
  /// never act across a strided gap, and max_sample_age_cycles never has
  /// to cover the stride: staleness only matters on deciding cycles,
  /// which always just collected. The meter (the classification input)
  /// is read every cycle regardless.
  std::int64_t green_collect_stride = 16;
  /// When set, A_candidate is recomputed dynamically (§III.A algorithm
  /// (c)) instead of being fixed by set_candidate_set().
  std::optional<CandidateSelectorParams> selector;
  /// Command-side fault model. Default-constructed = perfect actuation;
  /// the manager then bypasses the channel and the healthy path is
  /// byte-for-byte what it was without one.
  ActuationFaultParams actuation;
  /// Ack/retry/divergence bookkeeping for the lossy channel. Always on:
  /// with perfect actuation every command acks on the next cycle's
  /// telemetry, so the reconciler never emits anything.
  ReconcilerParams reconciliation;
  /// Controller-failure model (outage/stall windows). Default-constructed
  /// = an immortal controller; the injector then draws nothing and the
  /// healthy path is byte-for-byte what it was without one. Under the
  /// zone tree the root owns all windows and clears this on the shards.
  ControlFaultParams control;
  /// System-power forecasting. Disabled by default; when enabled the
  /// manager runs a PowerPredictor over the facility meter stream, stamps
  /// its forecast into every policy context, and lets forecast-driven
  /// policies act before P_L is crossed. refresh_cycles == 0 resolves to
  /// thresholds.adjust_period_cycles (the learner's t_p cadence).
  PredictionParams prediction;
};

/// The paper's architecture: candidate-set telemetry + threshold learning
/// + Algorithm 1 + a pluggable target selection policy.
class CappingManager final : public PowerManagerBase {
 public:
  CappingManager(CappingManagerParams params, PolicyPtr policy,
                 common::Rng rng);

  [[nodiscard]] std::string name() const override;

  /// Defines A_candidate. Uncontrollable nodes are filtered out by the
  /// caller or tolerated here (their commands are no-ops), but monitoring
  /// them wastes management budget, so prefer passing controllable ids.
  void set_candidate_set(const std::vector<hw::NodeId>& ids);
  [[nodiscard]] const std::vector<hw::NodeId>& candidate_set() const {
    return collector_.candidate_set();
  }

  /// open_cycle() then close_cycle().
  ManagerReport cycle(Watts measured, std::vector<hw::Node>& nodes,
                      const sched::Scheduler& scheduler,
                      Seconds now) override;

  /// One control cycle split at its context decision.
  struct CycleOpening {
    ManagerReport report;
    /// Dead (controller outage) or training cycle: `report` is final and
    /// already published; do not call close_cycle().
    bool closed = false;
    bool swept = false;         ///< a real telemetry sweep ran
    bool context_gate = false;  ///< context_gate() or a predictive alarm
    /// context_gate && !context_skippable(). A caller may widen it up to
    /// context_gate before close_cycle() — the tests' parity oracle builds
    /// on every gated cycle that way, and results must not move — but
    /// never narrow it.
    bool build_context = false;
  };
  /// Steps 0-3 of cycle(): control-fault draw (a dead cycle closes here),
  /// heartbeat, candidate reselection, learning + classification,
  /// forecasting, the collect decision and sweep, the context decision,
  /// and the actuation-plane hardware events. Training cycles close here.
  CycleOpening open_cycle(Watts measured, std::vector<hw::Node>& nodes,
                          const sched::Scheduler& scheduler, Seconds now);
  /// Step 4: builds the context iff `opening.build_context` (else
  /// counts a skip when the gate fired), runs Algorithm 1, reconciles,
  /// actuates and publishes.
  ManagerReport close_cycle(CycleOpening& opening,
                            std::vector<hw::Node>& nodes,
                            const sched::Scheduler& scheduler);

  /// Preregisters every manager series (counters, gauges, cycle-phase
  /// spans) in `reg`. ManagerReport and the trace CSV then become views
  /// over the values the registry accumulates — see DESIGN.md §11.
  void bind_metrics(obs::Registry& reg) override;

  /// The pool parallelises both the telemetry sweep and context assembly
  /// (sharded over candidate slots; see build_context_with). Results are
  /// bit-identical with or without it.
  void set_thread_pool(common::ThreadPool* pool) override {
    pool_ = pool;
    collector_.set_thread_pool(pool);
  }

  [[nodiscard]] const ThresholdLearner& thresholds() const {
    return learner_;
  }
  [[nodiscard]] ThresholdLearner& thresholds() { return learner_; }
  [[nodiscard]] const CappingEngine& engine() const { return engine_; }
  [[nodiscard]] const telemetry::Collector& collector() const {
    return collector_;
  }
  [[nodiscard]] const NodeController& controller() const {
    return controller_;
  }
  [[nodiscard]] const ActuationChannel& actuation_channel() const {
    return channel_;
  }
  [[nodiscard]] const ActuationReconciler& reconciler() const {
    return reconciler_;
  }
  [[nodiscard]] const ControlFaultInjector& control_faults() const {
    return ctrl_faults_;
  }
  /// Mutable access for drills: inject a forced outage window from a test
  /// or an operator console. Serial with cycle().
  [[nodiscard]] ControlFaultInjector& control_faults() {
    return ctrl_faults_;
  }
  [[nodiscard]] const TargetSelectionPolicy& policy() const {
    return *policy_;
  }
  /// The forecaster, or nullptr when params.prediction is disabled.
  [[nodiscard]] const PowerPredictor* predictor() const {
    return predictor_.get();
  }
  /// The forecast made this cycle for horizon cycles ahead (empty before
  /// the predictor warms up, on dead cycles, or without a predictor).
  [[nodiscard]] std::optional<Watts> current_forecast() const {
    return forecast_;
  }
  [[nodiscard]] const ForecastScorer& forecast_scorer() const {
    return scorer_;
  }

  /// Gated cycles whose context build was skipped (lifetime total).
  [[nodiscard]] std::uint64_t context_skips() const { return context_skips_; }

  /// Cluster-owned watchdog: this manager becomes group 0 and (re)groups
  /// the watchdog over its candidate set now and on every
  /// set_candidate_set.
  void set_watchdog(hw::FailsafeWatchdog* wd) override;
  /// Tree-driven variant: attach as group `group` without touching the
  /// watchdog's grouping (the zone tree owns the partition).
  void attach_watchdog(hw::FailsafeWatchdog* wd, std::size_t group);
  /// Any failsafe-changed levels in this manager's group still awaiting
  /// reconciler adoption? Forces a context build — adoption only happens
  /// through one.
  [[nodiscard]] bool watchdog_pending() const {
    return watchdog_ != nullptr &&
           watchdog_->adoption_pending_in_group(watchdog_group_);
  }

  /// Captures/restores the warm-restart state (learner, engine,
  /// reconciler shadow tables, collector clock). Restore into a freshly
  /// constructed manager AFTER set_candidate_set: policy scratch and the
  /// job index rebuild from the first context, and injector fault streams
  /// restart — the outside world does not rewind with the controller.
  [[nodiscard]] ShardCheckpoint checkpoint() const;
  void restore(const ShardCheckpoint& cp);

  /// Builds the policy context from current telemetry and scheduler state;
  /// public so benchmarks can measure selection cost in isolation.
  PolicyContext build_context(Watts measured,
                              const std::vector<hw::Node>& nodes,
                              const sched::Scheduler& scheduler) const;

  /// In-place variant: refills `ctx` reusing its existing node/job buffer
  /// capacity, so a steady-state control cycle performs no allocation for
  /// context assembly. cycle() feeds its persistent context through here.
  void build_context_into(PolicyContext& ctx, Watts measured,
                          const std::vector<hw::Node>& nodes,
                          const sched::Scheduler& scheduler) const;

  // --- Shard phase API -------------------------------------------------
  // cycle() is expressed through these phases; the zone tree drives the
  // same phases per shard with the learner/classification hoisted to the
  // root. Call order within one cycle: context_gate (the collect
  // decision, once) → collect_phase → context_skippable (the context
  // decision, once) → begin_actuation_phase → [apply_deliveries on the
  // training path | context_phase or skip_context_phase → select_phase →
  // actuate_phase].

  /// The collect gate: true when this cycle may need a policy context and
  /// must therefore collect first. Evaluate exactly ONCE per cycle, before
  /// the sweep — begin_actuation_phase processes reboots and delayed
  /// deliveries, which can shrink in_flight/pending state; re-evaluating
  /// after it can disagree with the collect decision (collect skipped,
  /// context built on stale views).
  [[nodiscard]] bool context_gate(PowerState state) const {
    return state != PowerState::kGreen || !engine_.degraded().empty() ||
           reconciler_.pending_count() > 0 ||
           reconciler_.unresponsive_count() > 0 ||
           channel_.in_flight_count() > 0 || watchdog_pending();
  }

  /// The context decision: true when a cycle the gate opened provably
  /// gains nothing from a context build, so skip_context_phase stands in
  /// for context_phase. Requires all of:
  ///  - Algorithm 1 cannot act: `effective` (the classification with any
  ///    predictive elevation folded in) is green and this cycle's green
  ///    tick stays inside the T_g wait;
  ///  - the reconciler has nothing to observe: nothing pending,
  ///    unresponsive, in flight or awaiting watchdog adoption;
  ///  - telemetry is quiet: the last build was clean, the candidate set
  ///    and reconciler tables are unchanged since, and every sweep since
  ///    (this one included) was quiet (Collector::last_sweep_quiet).
  /// The context that build would produce then has the same node set, all
  /// clean, at the levels the reconciler believes. Evaluate exactly ONCE,
  /// after collect_phase and before begin_actuation_phase.
  [[nodiscard]] bool context_skippable(PowerState effective) const;

  /// True when the steady-green stride schedule says the upcoming cycle
  /// sweeps anyway (keeps per-slot staleness clocks bounded).
  [[nodiscard]] bool collect_due() const {
    return collect_stride_ <= 1 ||
           (collector_.cycle_count() + 1) % collect_stride_ == 0;
  }

  /// Runs (or stride-skips) the telemetry sweep; either way the
  /// collector's cycle clock advances so staleness stays well-defined.
  void collect_phase(bool collect_now, const std::vector<hw::Node>& nodes,
                     Seconds now, std::size_t monitored_jobs);

  /// Opens the actuation cycle: clears per-cycle scratch, then lets the
  /// channel process reboots and due delayed deliveries (mutates nodes —
  /// serialise across shards). Deliveries land in delivered_scratch_ for
  /// apply_deliveries / actuate_phase.
  void begin_actuation_phase(std::vector<hw::Node>& nodes);

  /// Builds the persistent policy context through the reconciler and
  /// closes the observation window (retries/abandons into recon_work_).
  /// Fills the telemetry-health and per-cycle reconciliation fields of
  /// `report`.
  void context_phase(Watts measured, const std::vector<hw::Node>& nodes,
                     const sched::Scheduler& scheduler, ManagerReport& report);

  /// Stands in for context_phase on a cycle context_skippable() cleared:
  /// counts the skip. The persistent context from the last build stays in
  /// place for select_phase — on a skippable cycle it has the node set
  /// the skipped build would have produced, and the engine reads nothing
  /// else on a green tick inside the T_g wait.
  void skip_context_phase();

  /// Runs Algorithm 1 against the context built by context_phase,
  /// overriding the classification inputs: the zone tree passes synthetic
  /// thresholds that encode (global state, zone deficit share).
  [[nodiscard]] CycleDecision select_phase(Watts measured, Watts p_low,
                                           Watts p_high);

  /// Admits the decision through the reconciler, sends via the channel,
  /// applies everything delivered (mutates nodes — serialise across
  /// shards). Returns the number of level transitions applied.
  std::size_t actuate_phase(const CycleDecision& decision,
                            std::vector<hw::Node>& nodes);

  /// Training-path tail: applies only the channel's due deliveries (no
  /// new commands). Returns transitions applied.
  std::size_t apply_deliveries(std::vector<hw::Node>& nodes);

  /// Zero-decision non-green cycle (zone skipped by the tree): the green
  /// timer resets exactly as if a yellow/red decision had run.
  void note_non_green_cycle() { engine_.note_non_green_cycle(); }

  /// The context select_phase decided against (persistent scratch).
  [[nodiscard]] const PolicyContext& context() const { return scratch_ctx_; }
  /// This cycle's reconciler work (valid after context_phase).
  [[nodiscard]] const ActuationReconciler::CycleWork& recon_work() const {
    return recon_work_;
  }
  [[nodiscard]] const CappingManagerParams& params() const { return params_; }

 private:
  /// The outage path: the controller is silent this cycle. No meter read
  /// reaches the learner, no heartbeat, no sweep, no decision — but
  /// hardware keeps moving (reboots, due deliveries land and stamp
  /// watchdog contacts) and the collector clock ticks so staleness stays
  /// well-defined. The report still classifies against the last-learned
  /// thresholds: the band is physically real whether or not anyone is
  /// watching it.
  ManagerReport dead_cycle(Watts measured, std::vector<hw::Node>& nodes,
                           const sched::Scheduler& scheduler, Seconds now);

  /// Feeds the meter reading through the predictor (model update, t_p
  /// spectrum refresh, fresh forecast, accuracy scoring) and stamps the
  /// forecast fields of `report`. No-op without a predictor. Runs only on
  /// live cycles — a dead controller reads no meter, so the predictor's
  /// window freezes mid-outage exactly like the learner's.
  void predictor_phase(Watts measured, ManagerReport& report);

  /// Report-filling helpers shared by the live and dead paths.
  void fill_telemetry_totals(ManagerReport& report) const;
  void fill_actuation_totals(ManagerReport& report) const;
  void fill_control_totals(ManagerReport& report) const;
  void fill_predictor_totals(ManagerReport& report) const;

  /// Stamps watchdog contact for every command in delivered_scratch_ —
  /// a delivery is the one controller signal a node can see directly.
  void stamp_delivery_contacts();

  /// The real context assembly. When `rec` is non-null, each fresh node
  /// view is fed through the reconciler (acks/divergences/heals into
  /// `work`), in-flight commands mark their views, and the safe-side
  /// power accounting is applied. The public const overloads pass
  /// nullptr: pure read-only assembly for benchmarks.
  ///
  /// Two-phase: a sharded pass builds one ViewRecord per candidate slot
  /// from strictly per-node inputs (telemetry record, node table,
  /// per-node reconciler state — all read-only there), then a serial
  /// merge in candidate order applies everything order-sensitive
  /// (reconciler mutation, counters, safe-side pending accounting). The
  /// merge sees the same values in the same order the old single serial
  /// loop did, so output is bit-identical across worker counts.
  void build_context_with(PolicyContext& ctx, Watts measured,
                          const std::vector<hw::Node>& nodes,
                          const sched::Scheduler& scheduler,
                          ActuationReconciler* rec,
                          ActuationReconciler::CycleWork* work) const;

  /// One candidate slot's output from the sharded assembly pass.
  struct ViewRecord {
    enum class Status : std::uint8_t {
      kMissing,              ///< no plausible sample in the window
      kMissingUnresponsive,  ///< ditto, and the node is abandoned
      kExcludedUnresponsive, ///< abandoned and stale: out of the context
      kOk,
    };
    NodeView view;                  ///< valid only when status == kOk
    std::uint64_t sample_cycle = 0; ///< cycle stamp of the chosen sample
    std::uint32_t rejected = 0;     ///< implausible samples skipped
    Status status = Status::kMissing;
    bool substituted = false;  ///< fresh only after skipping corrupt ones
  };

  /// Phase-1 body for one slot: derives view_records_[slot] from strictly
  /// per-node inputs.
  void fill_view_record(std::size_t slot,
                        const std::vector<hw::NodeId>& candidates,
                        const std::vector<hw::Node>& nodes,
                        const ActuationReconciler* rec,
                        std::uint64_t now_cycle, std::uint64_t max_age) const;

  /// The serial order-sensitive merge over every record, plus
  /// index_nodes(). Resets and re-accumulates the context tallies.
  void merge_records(PolicyContext& ctx, const std::vector<hw::Node>& nodes,
                     ActuationReconciler* rec,
                     ActuationReconciler::CycleWork* work,
                     std::uint64_t now_cycle) const;

  /// Phase 2 over every job entry (parallel stage + serial compaction).
  void job_pass(PolicyContext& ctx) const;

  /// Computes one entry's JobView against the current ctx.nodes.
  static void fill_job_view(const JobIndex::Entry& e, const PolicyContext& ctx,
                            JobView& jv);

  CappingManagerParams params_;
  PolicyPtr policy_;
  // collector_ is declared (and therefore initialised) before channel_:
  // the rng fork order "collector" then "actuation" is part of the seed
  // compatibility contract — reordering would reshuffle every stream.
  telemetry::Collector collector_;
  ThresholdLearner learner_;
  CappingEngine engine_;
  NodeController controller_;
  ActuationChannel channel_;
  ActuationReconciler reconciler_;
  // ctrl_faults_'s rng fork ("control") is appended strictly after
  // "collector" and "actuation": the new stream must not perturb either
  // existing one, or every pre-PR-8 seed would replay differently.
  ControlFaultInjector ctrl_faults_;
  /// Forecasting (params_.prediction.enabled). The predictor is fed the
  /// facility meter on every live cycle; forecast_ is this cycle's output.
  PredictorPtr predictor_;
  ForecastScorer scorer_;
  std::optional<Watts> forecast_;
  /// Resolved spectrum refresh cadence (params value, or the learner's
  /// t_p when configured 0); counts live observations.
  std::int64_t predictor_refresh_cycles_ = 0;
  std::int64_t predictor_observations_ = 0;
  hw::FailsafeWatchdog* watchdog_ = nullptr;
  std::size_t watchdog_group_ = 0;
  /// True when this manager owns the watchdog's grouping (flat mode);
  /// false when the zone tree partitioned it and shards merely attach.
  bool owns_watchdog_groups_ = false;
  std::optional<CandidateSelector> selector_;
  /// Effective steady-green sweep stride (param clamped against the
  /// staleness bound at construction).
  std::int64_t collect_stride_ = 1;
  common::ThreadPool* pool_ = nullptr;
  ManagerMetrics metrics_;
  /// Per-slot staging for the sharded assembly pass; persists across
  /// cycles so the steady state allocates nothing.
  mutable std::vector<ViewRecord> view_records_;
  /// Incremental mirror of the scheduler's running set; synced (O(churn))
  /// at the top of every context build. Mutable because assembly is
  /// logically const — the index is a cache of scheduler state. Assumes
  /// one manager observes one scheduler, as cycle() guarantees.
  mutable JobIndex job_index_;
  /// Per-entry JobView staging for the job pass; compacted into ctx.jobs
  /// by swap so per-job node vectors keep their capacity on both sides.
  mutable std::vector<JobView> job_stage_;
  /// Reused across cycles by cycle(); holds its capacity.
  PolicyContext scratch_ctx_;
  /// Per-cycle scratch, reused: commands that reached hardware this cycle
  /// and the reconciler's outgoing work.
  std::vector<LevelCommand> delivered_scratch_;
  ActuationReconciler::CycleWork recon_work_;

  // --- Context skip (context_skippable) --------------------------------
  /// The last context build was clean and every sweep since was quiet;
  /// cleared by candidate churn and warm restart.
  bool quiet_since_build_ = false;
  /// A build was skipped since the last one. The skipped builds would have
  /// advanced reconciler observed-cycle stamps; checkpoint() applies that
  /// advance to the image.
  bool observation_lag_ = false;
  std::uint64_t context_skips_ = 0;
};

/// A null manager: monitors nothing, throttles nothing. The |A_candidate|=0
/// baseline every normalised figure divides by.
class NoCappingManager final : public PowerManagerBase {
 public:
  [[nodiscard]] std::string name() const override { return "none"; }
  ManagerReport cycle(Watts measured, std::vector<hw::Node>& nodes,
                      const sched::Scheduler& scheduler,
                      Seconds now) override;
};

}  // namespace pcap::power
