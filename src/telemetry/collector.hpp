// Global telemetry collector.
//
// Owns one profiling agent per candidate node and keeps one compact record
// per node: the newest delivery, the newest *usable* delivery (one that
// passed the sanity check at delivery) and the usable power before it, so
// the manager can compute both state-based quantities (current estimated
// power) and change-based ones (ΔP between the last two usable samples,
// §IV.B) in O(1). The candidate set can change at runtime (§II.A: the set
// "may vary during the execution of the system").
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/ring_arena.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "telemetry/agent.hpp"
#include "telemetry/fault_injector.hpp"
#include "telemetry/management_cost.hpp"
#include "telemetry/sample.hpp"

namespace pcap::telemetry {

/// Management-plane transport model. Agent reports travel over the same
/// interconnect the jobs use; on a loaded fabric they arrive late or not
/// at all, and the manager must act on the freshest sample it has.
struct TransportParams {
  double loss_rate = 0.0;  ///< probability an agent report is dropped
  int delay_cycles = 0;    ///< cycles between sampling and delivery
};

struct CollectorParams {
  AgentParams agent;
  /// Window, in deliveries, within which a usable sample still counts:
  /// older than the last history_depth deliveries of a slot, it is gone.
  std::size_t history_depth = 8;
  ManagementCostParams cost;
  TransportParams transport;
  /// Agent dropout / node crash / sample corruption injection. All off by
  /// default; the healthy path pays nothing.
  FaultParams faults;
  /// Candidate-set size at which collect() fans the sweep out over the
  /// attached thread pool (no pool, or fewer candidates: serial). Every
  /// per-candidate draw comes from that candidate's own RNG stream, so
  /// the sweep order — and therefore the worker count — cannot change
  /// the result.
  std::size_t parallel_threshold = 2048;
  /// Candidates per pool chunk in a parallel sweep.
  std::size_t parallel_grain = 256;
};

/// What Algorithm 2 may read of one candidate: the newest usable delivery
/// among its last history_depth deliveries, and the usable one before it.
/// A delivery is usable when its power estimate is finite, non-negative
/// and at most 1.5 x the board's theoretical maximum; anything else is a
/// torn or byte-swapped counter, not a measurement. `sample` points into
/// the collector and is valid until its next collect() or
/// set_candidate_set().
struct UsableSample {
  const NodeSample* sample = nullptr;  ///< nullptr: none usable in the window
  /// Unusable deliveries newer than `sample` (the whole window when none).
  std::uint32_t rejected = 0;
  bool substituted = false;  ///< the newest delivery itself was unusable
  bool has_prev = false;  ///< the usable delivery before it is in the window
  Watts prev_power{0.0};  ///< its power estimate (valid when has_prev)
};

class Collector {
 public:
  Collector(CollectorParams params, common::Rng rng);

  /// Replaces the candidate set; agents for new nodes are created,
  /// agents (and records, and reports still in flight) for removed
  /// nodes are dropped. A re-added node starts empty.
  void set_candidate_set(const std::vector<hw::NodeId>& nodes);
  [[nodiscard]] const std::vector<hw::NodeId>& candidate_set() const {
    return candidates_;
  }
  [[nodiscard]] bool is_candidate(hw::NodeId id) const {
    return slot_of(id) != kNoSlot;
  }

  /// Samples every candidate node present in `nodes` (indexed by id) and
  /// delivers into records. Also records the cost-model accounting for this
  /// cycle given the number of currently monitored jobs.
  void collect(const std::vector<hw::Node>& nodes, Seconds now,
               std::size_t monitored_jobs);

  /// Advances the collection clock without sweeping any agent — the
  /// manager's steady-green collect stride. Sample ages and reconciler
  /// deadlines keep counting (they are denominated in cycles), but no
  /// agent samples, no transport draws, no fault-process steps happen.
  /// In-flight delayed reports stay queued; the manager only reads
  /// records on cycles it collected, so deferring their delivery to the
  /// next real sweep is invisible. Cost accounting records a sweep of
  /// zero nodes (the manager woke up, decoded nothing).
  void skip_cycle(std::size_t monitored_jobs);

  /// Newest delivery of a node, usable or not; nullopt if never sampled /
  /// not a candidate.
  [[nodiscard]] std::optional<NodeSample> latest(hw::NodeId id) const;
  /// The usable view of candidate_set()[slot], in O(1) from the slot's
  /// record. For sweeps that already walk the candidate array in order:
  /// no id->slot translation at all.
  [[nodiscard]] UsableSample usable_at_slot(std::size_t slot) const;
  /// Reports delivered to candidate_set()[slot] since it joined the set.
  [[nodiscard]] std::uint64_t deliveries_at_slot(std::size_t slot) const {
    return records_[slot].delivered;
  }
  /// Largest candidate id (0 when the set is empty). The candidate array
  /// is kept sorted, so consumers validate a whole sweep against a node
  /// table with one comparison instead of one bounds check per candidate.
  [[nodiscard]] hw::NodeId max_candidate_id() const {
    return candidates_.empty() ? hw::NodeId{0} : candidates_.back();
  }

  /// Attaches (or detaches, with nullptr) the pool used to parallelise
  /// collect(). The collector does not own the pool.
  void set_thread_pool(common::ThreadPool* pool) { pool_ = pool; }

  /// Sum of the latest estimated powers over the candidate set.
  [[nodiscard]] Watts estimated_candidate_power() const;

  /// Modelled CPU utilisation of the management node in the last cycle.
  [[nodiscard]] double last_cycle_manager_utilization() const {
    return last_manager_utilization_;
  }
  /// True when the last collection cycle was a real sweep (not a
  /// skip_cycle tick) in which every candidate delivered exactly one
  /// uncorrupted sample at the same DVFS level as that slot's previous
  /// delivery. A lost, suppressed, late or
  /// doubled report, a corrupted payload, or a level change (reboot,
  /// partial transition, operator) on any slot makes it false; so does a
  /// candidate-set change. The manager's context-skip predicate reads it.
  [[nodiscard]] bool last_sweep_quiet() const { return last_sweep_quiet_; }
  /// Reports dropped by the transport so far.
  [[nodiscard]] std::uint64_t samples_lost() const { return samples_lost_; }
  /// Reports taken but not yet delivered (delayed transport), over every
  /// candidate / for candidate_set()[slot]. A slot never holds more than
  /// transport.delay_cycles of them.
  [[nodiscard]] std::size_t reports_in_flight() const {
    return in_flight_.total_size();
  }
  [[nodiscard]] std::size_t reports_in_flight_at_slot(std::size_t slot) const {
    return in_flight_.size(slot);
  }
  /// Entries the in-flight report arena holds room for:
  /// transport.delay_cycles × candidates, so 0 on an undelayed transport.
  [[nodiscard]] std::size_t in_flight_capacity() const {
    return in_flight_.capacity();
  }
  /// Reports delivered into records so far.
  [[nodiscard]] std::uint64_t samples_delivered() const {
    return samples_delivered_;
  }
  /// Reports that never left their node (down agent / crashed node).
  [[nodiscard]] std::uint64_t samples_suppressed() const {
    return fault_injector_.samples_suppressed();
  }
  /// The fault process driving dropout/crash/corruption (counters live
  /// there; inert when params.faults is all-zero).
  [[nodiscard]] const FaultInjector& fault_injector() const {
    return fault_injector_;
  }
  /// Collection cycles run so far. Samples are stamped with the cycle at
  /// which they were taken, so `cycle_count() - sample.cycle` is a
  /// sample's age in cycles.
  [[nodiscard]] std::uint64_t cycle_count() const { return cycle_counter_; }
  [[nodiscard]] const ManagementCostModel& cost_model() const {
    return cost_model_;
  }
  void set_cycle_period(Seconds period) { cycle_period_ = period; }
  /// Warm restart: resumes the cycle clock from a checkpoint. Believed/
  /// observed stamps in the manager's reconciler are in this timebase, so
  /// a restarted collector restarting from zero would skew every ack and
  /// staleness comparison until the clock caught up. Reports still in
  /// flight were addressed to the pre-restart manager: they are discarded
  /// and counted in samples_lost() (their cycle stamps are in the old
  /// timebase, and a clock moved backwards would otherwise hold them
  /// queued past the delay_cycles bound).
  void restore_cycle_count(std::uint64_t cycles);

 private:
  /// A report in transit; it lands on the first sweep at or after
  /// sample.cycle + transport.delay_cycles.
  struct InFlight {
    NodeSample sample;
    bool corrupted;
  };
  /// The sweep-local state of one candidate (records and in-flight reports
  /// live in shared arrays, see records_ and in_flight_). Two workers
  /// sampling different candidates share no state. The transport
  /// RNG is per node: report loss is drawn per candidate, not from one
  /// shared sequence, which is what makes the sweep order-independent.
  struct Monitored {
    ProfilingAgent agent;
    common::Rng transport_rng;
  };
  /// One sweep chunk's counts, published once per chunk so a sweep pays
  /// a handful of atomic updates per chunk instead of several per sample.
  struct SweepTally {
    std::uint64_t delivered = 0;
    std::uint64_t lost = 0;
    std::uint64_t unquiet = 0;  ///< slots that broke last_sweep_quiet()
    FaultInjector::Tally faults;
  };

  /// One candidate's sweep step: deliver the reports that are due, then
  /// sample the node and route the new report through the transport
  /// model (faults, loss, delay).
  void collect_one(std::size_t slot, const hw::Node& node, Seconds now,
                   SweepTally& tally);

  /// One candidate's telemetry, judged at delivery. Deliveries to a slot
  /// are numbered 1, 2, ...; the sequence numbers place the newest usable
  /// delivery and the usable one before it against the last
  /// history_depth deliveries, so usable_at_slot() reproduces a walk over
  /// that window without keeping it. The newest usable delivery is
  /// `latest` itself while usable_seq == delivered (the common case, so a
  /// delivery writes one sample); otherwise it is the slot's entry in
  /// usable_stash_.
  struct Record {
    NodeSample latest;              ///< newest delivery, usable or not
    Watts prev_usable_power{0.0};   ///< the usable delivery before it
    std::uint64_t delivered = 0;    ///< deliveries so far
    std::uint64_t usable_seq = 0;   ///< newest usable delivery; 0 = none
    std::uint64_t prev_usable_seq = 0;
  };

  /// Delivers a sample into slot's record; `node` is the board it came
  /// from, whose spec bounds a usable estimate. Returns whether the slot
  /// already held a delivery at the same DVFS level.
  bool deliver(std::size_t slot, const NodeSample& s, const hw::Node& node);

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  /// Slot index of a node in slots_/candidates_, or kNoSlot.
  [[nodiscard]] std::uint32_t slot_of(hw::NodeId id) const {
    return static_cast<std::size_t>(id) < slot_of_.size() ? slot_of_[id]
                                                          : kNoSlot;
  }

  CollectorParams params_;
  common::Rng rng_;
  ManagementCostModel cost_model_;
  FaultInjector fault_injector_;
  Seconds cycle_period_{1.0};
  common::ThreadPool* pool_ = nullptr;
  std::vector<hw::NodeId> candidates_;
  /// Per-candidate state, aligned with candidates_: the sweep indexes
  /// straight into this array — no hash probe per sample. slot_of_ maps a
  /// node id to its slot for the point lookup (latest).
  std::vector<Monitored> slots_;
  std::vector<std::uint32_t> slot_of_;
  /// Telemetry records, aligned with candidates_, and each slot's newest
  /// usable delivery while a newer unusable one is its `latest`. Kept
  /// apart so the common delivery never touches the stash.
  std::vector<Record> records_;
  std::vector<NodeSample> usable_stash_;
  /// Reports in transit, one FIFO ring of transport.delay_cycles entries
  /// per slot in one slot-major arena (no arena at all on an undelayed
  /// transport). Sample cycles are distinct and increasing and due
  /// reports are delivered before a slot queues its new one, so at most
  /// delay_cycles reports are ever in flight per slot: the ring bound is
  /// exact, and a push past it throws instead of overwriting.
  common::RingArena<InFlight> in_flight_;
  bool last_sweep_quiet_ = false;
  std::uint64_t cycle_counter_ = 0;
  std::atomic<std::uint64_t> samples_lost_{0};
  std::atomic<std::uint64_t> samples_delivered_{0};
  double last_manager_utilization_ = 0.0;
};

}  // namespace pcap::telemetry
