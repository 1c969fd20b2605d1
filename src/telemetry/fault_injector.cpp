#include "telemetry/fault_injector.hpp"

#include <stdexcept>

namespace pcap::telemetry {

void FaultParams::validate() const {
  const auto probability = [](double p) { return p >= 0.0 && p <= 1.0; };
  if (!probability(agent_dropout_rate) || !probability(agent_recovery_rate) ||
      !probability(crash_rate) || !probability(corruption_rate)) {
    throw std::invalid_argument("FaultParams: rates must be in [0, 1]");
  }
  if (crash_rate > 0.0 && crash_duration_cycles <= 0) {
    throw std::invalid_argument(
        "FaultParams: crash windows need a positive duration");
  }
}

FaultInjector::FaultInjector(FaultParams params, common::Rng rng)
    : params_(params), root_(rng) {
  params_.validate();
}

void FaultInjector::ensure_nodes(const std::vector<hw::NodeId>& ids) {
  for (const hw::NodeId id : ids) {
    if (static_cast<std::size_t>(id) >= states_.size()) {
      states_.resize(static_cast<std::size_t>(id) + 1);
    }
    NodeState& st = states_[id];
    if (!st.known) {
      // stream(id) derives the node's fault stream as a pure function of
      // (injector seed, id): registration order cannot change the draws.
      st.rng = root_.stream(id);
      st.known = true;
    }
  }
}

FaultInjector::Outcome FaultInjector::apply(NodeSample& sample,
                                            Tally& tally) {
  Outcome out;
  if (static_cast<std::size_t>(sample.node) >= states_.size() ||
      !states_[sample.node].known) {
    // Unregistered node (collector bug rather than injected fault): let
    // the sample through untouched.
    return out;
  }
  NodeState& st = states_[sample.node];

  // Crash process. An open window silences the node; on expiry the node
  // rejoins with its agent up (a rebooted node restarts its agent too).
  if (st.crash_cycles_left > 0) {
    if (--st.crash_cycles_left == 0) {
      out.recovered = true;
      st.agent_up = true;
      ++tally.recoveries;
      --tally.silent_delta;  // may go silent again below (dropout)
    } else {
      out.suppressed = true;
      ++tally.suppressed;
      return out;
    }
  } else if (params_.crash_rate > 0.0 && st.rng.bernoulli(params_.crash_rate)) {
    // A node whose agent was already down was already silent.
    if (st.agent_up) ++tally.silent_delta;
    st.crash_cycles_left = params_.crash_duration_cycles;
    out.crash_started = true;
    out.suppressed = true;
    ++tally.crashes;
    ++tally.suppressed;
    return out;
  }

  // Agent dropout process (independent of crashes).
  if (st.agent_up) {
    if (params_.agent_dropout_rate > 0.0 &&
        st.rng.bernoulli(params_.agent_dropout_rate)) {
      st.agent_up = false;
      ++tally.dropouts;
      ++tally.silent_delta;
    }
  } else if (st.rng.bernoulli(params_.agent_recovery_rate)) {
    st.agent_up = true;
    --tally.silent_delta;
  }
  if (!st.agent_up) {
    out.suppressed = true;
    ++tally.suppressed;
    return out;
  }

  // Corruption: the report escapes, but its power estimate is garbage.
  // Always implausible (negative, or far beyond any board's ceiling), so a
  // sanity-checking consumer can reject it; a naive one mis-caps.
  if (params_.corruption_rate > 0.0 &&
      st.rng.bernoulli(params_.corruption_rate)) {
    out.corrupted = true;
    ++tally.corrupted;
    if (st.rng.bernoulli(0.5)) {
      sample.estimated_power = -sample.estimated_power - Watts{1.0};
    } else {
      sample.estimated_power =
          (sample.estimated_power + Watts{1.0}) * st.rng.uniform(50.0, 500.0);
    }
  }
  return out;
}

void FaultInjector::fold(const Tally& tally) {
  constexpr auto kRelaxed = std::memory_order_relaxed;
  samples_suppressed_.fetch_add(tally.suppressed, kRelaxed);
  samples_corrupted_.fetch_add(tally.corrupted, kRelaxed);
  agent_dropouts_.fetch_add(tally.dropouts, kRelaxed);
  crash_events_.fetch_add(tally.crashes, kRelaxed);
  recovery_events_.fetch_add(tally.recoveries, kRelaxed);
  silent_nodes_.fetch_add(tally.silent_delta, kRelaxed);
}

bool FaultInjector::is_silent(hw::NodeId id) const {
  if (static_cast<std::size_t>(id) >= states_.size() || !states_[id].known) {
    return false;
  }
  const NodeState& st = states_[id];
  return st.crash_cycles_left > 0 || !st.agent_up;
}

}  // namespace pcap::telemetry
