// Management-plane fault injection.
//
// At Tianhe-1A scale the telemetry plane is itself a distributed system:
// profiling agents die and restart, whole nodes crash and come back, and
// counters read mid-update arrive as garbage. The injector drives those
// failure modes per monitored node so the consuming layers (collector,
// manager, capping engine) can be exercised — and hardened — against them.
//
// Determinism contract: every per-node fault process draws from that
// node's own RNG stream (Rng::stream(id)), and apply() touches only state
// owned by its node id. A parallel collection sweep may therefore call
// apply() concurrently for distinct nodes and produce results that are
// bit-identical to a serial sweep. apply() counts its events into a
// caller-owned Tally; the sweep folds each chunk's tally into the shared
// (relaxed atomic) counters once, so workers do not contend per event.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "telemetry/sample.hpp"

namespace pcap::telemetry {

struct FaultParams {
  /// Per-cycle probability that a healthy node's agent stops reporting
  /// (process died, /proc reader wedged). While down, no samples leave
  /// the node.
  double agent_dropout_rate = 0.0;
  /// Per-cycle probability that a down agent restarts and reports again.
  double agent_recovery_rate = 0.25;
  /// Per-cycle probability that a healthy node crashes outright.
  double crash_rate = 0.0;
  /// How long a crash window lasts before the node rejoins, in collection
  /// cycles. A crash also silences the node's agent for the window.
  int crash_duration_cycles = 60;
  /// Probability that a report that does get out carries a corrupted
  /// power estimate (counter torn mid-update, byte-swapped payload). The
  /// corruption is *implausible* — negative or far above the board's
  /// ceiling — so the collector, judging each report as it lands, never
  /// makes one a node's usable sample.
  double corruption_rate = 0.0;

  /// True when any fault channel is active; the collector skips the
  /// injector entirely otherwise, keeping the healthy path unchanged.
  [[nodiscard]] bool enabled() const {
    return agent_dropout_rate > 0.0 || crash_rate > 0.0 ||
           corruption_rate > 0.0;
  }
  /// Throws std::invalid_argument on out-of-range rates/durations.
  void validate() const;
};

class FaultInjector {
 public:
  /// What the injector did to one node's report this cycle.
  struct Outcome {
    bool suppressed = false;     ///< no report left the node this cycle
    bool corrupted = false;      ///< report left, but with a mangled payload
    bool crash_started = false;  ///< node entered a crash window this cycle
    bool recovered = false;      ///< node rejoined this cycle
  };

  /// Events counted by apply() calls not yet folded into the injector's
  /// counters. One per sweep chunk: apply() writes only the caller's
  /// tally, fold() publishes it.
  struct Tally {
    std::uint64_t suppressed = 0;
    std::uint64_t corrupted = 0;
    std::uint64_t dropouts = 0;
    std::uint64_t crashes = 0;
    std::uint64_t recoveries = 0;
    /// Net change in silent nodes (crash start, crash expiry, dropout,
    /// agent recovery).
    std::int64_t silent_delta = 0;
  };

  FaultInjector(FaultParams params, common::Rng rng);

  /// Registers the nodes the collector monitors. Serial — call from
  /// candidate-set changes, never from inside a sweep. Per-node fault
  /// state persists across candidate churn (a crashed node that leaves
  /// and re-enters the candidate set is still crashed).
  void ensure_nodes(const std::vector<hw::NodeId>& ids);

  /// Advances node `sample.node`'s fault process by one cycle and applies
  /// the disposition to the freshly taken sample (possibly corrupting its
  /// power estimate in place). Events are counted into `tally`; they
  /// reach the counters below only through fold(). Thread-safe across
  /// DISTINCT node ids with distinct tallies.
  Outcome apply(NodeSample& sample, Tally& tally);
  /// Adds a tally into the cumulative counters. Thread-safe.
  void fold(const Tally& tally);

  /// Agent or node currently silent (down agent or open crash window)?
  [[nodiscard]] bool is_silent(hw::NodeId id) const;
  /// Number of registered nodes currently silent, kept up to date at each
  /// transition (as of the last fold()): O(1), no scan of the node table.
  [[nodiscard]] std::size_t silent_count() const {
    return static_cast<std::size_t>(
        silent_nodes_.load(std::memory_order_relaxed));
  }

  // Cumulative ground-truth counters (relaxed atomics: sweeps update them
  // concurrently; read them only between sweeps).
  [[nodiscard]] std::uint64_t samples_suppressed() const {
    return samples_suppressed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t samples_corrupted() const {
    return samples_corrupted_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t agent_dropouts() const {
    return agent_dropouts_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t crash_events() const {
    return crash_events_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t recovery_events() const {
    return recovery_events_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] const FaultParams& params() const { return params_; }

 private:
  /// One node's fault process. Only apply() for this node's id touches it.
  struct NodeState {
    common::Rng rng{0};
    bool known = false;      ///< registered via ensure_nodes()
    bool agent_up = true;
    /// Crash windows count down in cycles; 0 = healthy. Decremented once
    /// per apply(), i.e. per collection cycle the node is monitored.
    int crash_cycles_left = 0;
  };

  FaultParams params_;
  common::Rng root_;
  std::vector<NodeState> states_;  ///< indexed by node id
  std::atomic<std::uint64_t> samples_suppressed_{0};
  std::atomic<std::uint64_t> samples_corrupted_{0};
  std::atomic<std::uint64_t> agent_dropouts_{0};
  std::atomic<std::uint64_t> crash_events_{0};
  std::atomic<std::uint64_t> recovery_events_{0};
  std::atomic<std::int64_t> silent_nodes_{0};
};

}  // namespace pcap::telemetry
