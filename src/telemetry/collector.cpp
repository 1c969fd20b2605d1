#include "telemetry/collector.hpp"

#include <algorithm>
#include <stdexcept>

namespace pcap::telemetry {

Collector::Collector(CollectorParams params, common::Rng rng)
    : params_(params),
      rng_(rng),
      cost_model_(params.cost),
      fault_injector_(params.faults, rng.fork("faults")) {
  if (params_.history_depth < 2) {
    throw std::invalid_argument(
        "Collector: history must hold at least two samples");
  }
  hist_depth_ = static_cast<std::uint32_t>(params_.history_depth);
  if (params_.transport.loss_rate < 0.0 ||
      params_.transport.loss_rate >= 1.0) {
    throw std::invalid_argument("Collector: loss rate must be in [0, 1)");
  }
  if (params_.transport.delay_cycles < 0) {
    throw std::invalid_argument("Collector: negative transport delay");
  }
}

void Collector::set_candidate_set(const std::vector<hw::NodeId>& nodes) {
  std::vector<hw::NodeId> next = nodes;
  std::sort(next.begin(), next.end());
  next.erase(std::unique(next.begin(), next.end()), next.end());

  // Build the new slot array (and re-striped history arena) up front, so
  // the sweep itself never mutates any shared structure (a parallel sweep
  // only touches distinct pre-existing slots). Retained nodes carry their
  // state (agent RNG, history, in-flight reports) over — their history
  // column moves from the old arena stripe-by-stripe and their report
  // ring to their new slot's ring; dropped nodes lose theirs.
  std::vector<Monitored> next_slots;
  next_slots.reserve(next.size());
  const std::size_t depth = params_.history_depth;
  std::vector<NodeSample> next_store(depth * next.size());
  std::vector<std::uint32_t> next_head(next.size(), 0);
  std::vector<std::uint32_t> next_size(next.size(), 0);
  common::RingArena<InFlight> next_in_flight(
      next.size(), static_cast<std::uint32_t>(params_.transport.delay_cycles));
  for (std::size_t s = 0; s < next.size(); ++s) {
    const hw::NodeId id = next[s];
    const std::uint32_t old_slot = slot_of(id);
    if (old_slot != kNoSlot) {
      next_slots.push_back(std::move(slots_[old_slot]));
      for (std::size_t d = 0; d < depth; ++d) {
        next_store[d * next.size() + s] =
            hist_store_[d * hist_stride_ + old_slot];
      }
      next_head[s] = hist_head_[old_slot];
      next_size[s] = hist_size_[old_slot];
      next_in_flight.adopt(s, in_flight_, old_slot);
    } else {
      next_slots.push_back(
          Monitored{ProfilingAgent(id, params_.agent, rng_.fork(id)),
                    rng_.fork(common::hash_tag("transport") ^ id)});
    }
  }
  candidates_ = std::move(next);
  slots_ = std::move(next_slots);
  hist_store_ = std::move(next_store);
  hist_head_ = std::move(next_head);
  hist_size_ = std::move(next_size);
  in_flight_ = std::move(next_in_flight);
  hist_stride_ = candidates_.size();
  last_sweep_quiet_ = false;
  if (params_.faults.enabled()) fault_injector_.ensure_nodes(candidates_);

  slot_of_.assign(
      candidates_.empty()
          ? 0
          : static_cast<std::size_t>(candidates_.back()) + 1,
      kNoSlot);
  for (std::size_t i = 0; i < candidates_.size(); ++i) {
    slot_of_[candidates_[i]] = static_cast<std::uint32_t>(i);
  }
}

bool Collector::deliver(std::size_t slot, const NodeSample& s) {
  const bool same_level = hist_size_[slot] > 0 &&
                          history_at_slot(slot).back().level == s.level;
  push_history(slot, s);
  return same_level;
}

void Collector::collect_one(std::size_t slot, const hw::Node& node,
                            Seconds now, SweepTally& tally) {
  Monitored& m = slots_[slot];
  const TransportParams& tp = params_.transport;

  // Quiet-sweep bookkeeping: this slot keeps the sweep quiet only with
  // exactly one delivery, uncorrupted, at the previous delivery's level.
  int deliveries = 0;
  bool quiet = true;

  // Deliver whatever has arrived by now (in order) before this sweep's
  // report is queued. A report taken this sweep is never due this sweep
  // (delay >= 1), so draining first delivers exactly what queuing first
  // would, and it keeps the ring within its delay_cycles bound.
  const auto delay = static_cast<std::uint64_t>(tp.delay_cycles);
  while (in_flight_.size(slot) != 0 &&
         in_flight_.front(slot).sample.cycle + delay <= cycle_counter_) {
    const InFlight& arrived = in_flight_.front(slot);
    quiet = deliver(slot, arrived.sample) && !arrived.corrupted && quiet;
    ++deliveries;
    in_flight_.pop_front(slot);
    ++tally.delivered;
  }

  NodeSample sample = m.agent.sample(node, now);
  sample.cycle = cycle_counter_;

  // Fault disposition first: a report that never leaves the node sees no
  // transport at all. Corruption mangles the sample in place and lets it
  // travel — the consumer, not the transport, has to notice. Anything
  // already in flight when a fault silences the node still arrived above
  // (it was sent before the fault).
  FaultInjector::Outcome fault;
  if (params_.faults.enabled()) {
    fault = fault_injector_.apply(sample, tally.faults);
  }
  if (fault.suppressed) {
    // Never left the node.
  } else if (tp.loss_rate > 0.0 && m.transport_rng.bernoulli(tp.loss_rate)) {
    ++tally.lost;
  } else if (delay == 0) {
    quiet = deliver(slot, sample) && !fault.corrupted && quiet;
    ++deliveries;
    ++tally.delivered;
  } else {
    in_flight_.push_back(slot, InFlight{sample, fault.corrupted});
  }
  if (deliveries != 1 || !quiet) ++tally.unquiet;
}

void Collector::collect(const std::vector<hw::Node>& nodes, Seconds now,
                        std::size_t monitored_jobs) {
  ++cycle_counter_;
  // candidates_ is sorted, so the whole sweep is validated by its largest
  // id — one comparison, not one bounds check per candidate per cycle.
  if (!candidates_.empty() &&
      static_cast<std::size_t>(candidates_.back()) >= nodes.size()) {
    throw std::out_of_range("Collector::collect: candidate id out of range");
  }
  std::atomic<std::uint64_t> unquiet_slots{0};
  const bool faults = params_.faults.enabled();
  common::maybe_parallel_for(
      pool_, candidates_.size(), params_.parallel_threshold,
      params_.parallel_grain, [&](std::size_t begin, std::size_t end) {
        SweepTally tally;
        for (std::size_t i = begin; i < end; ++i) {
          collect_one(i, nodes[candidates_[i]], now, tally);
        }
        samples_delivered_.fetch_add(tally.delivered,
                                     std::memory_order_relaxed);
        samples_lost_.fetch_add(tally.lost, std::memory_order_relaxed);
        if (tally.unquiet != 0) {
          unquiet_slots.fetch_add(tally.unquiet, std::memory_order_relaxed);
        }
        if (faults) fault_injector_.fold(tally.faults);
      });
  last_sweep_quiet_ = unquiet_slots.load(std::memory_order_relaxed) == 0;
  last_manager_utilization_ =
      cost_model_.cpu_utilization(candidates_.size(), monitored_jobs,
                                  cycle_period_);
}

void Collector::restore_cycle_count(std::uint64_t cycles) {
  samples_lost_.fetch_add(in_flight_.total_size(), std::memory_order_relaxed);
  in_flight_.clear();
  cycle_counter_ = cycles;
}

void Collector::skip_cycle(std::size_t monitored_jobs) {
  ++cycle_counter_;
  last_sweep_quiet_ = false;
  last_manager_utilization_ =
      cost_model_.cpu_utilization(0, monitored_jobs, cycle_period_);
}

std::optional<NodeSample> Collector::latest(hw::NodeId id) const {
  const std::uint32_t slot = slot_of(id);
  if (slot == kNoSlot || hist_size_[slot] == 0) return std::nullopt;
  return history_at_slot(slot).back();
}

std::optional<NodeSample> Collector::previous(hw::NodeId id) const {
  const std::uint32_t slot = slot_of(id);
  if (slot == kNoSlot || hist_size_[slot] < 2) return std::nullopt;
  const SampleHistoryView h = history_at_slot(slot);
  return h[h.size() - 2];
}

std::optional<SampleHistoryView> Collector::history(hw::NodeId id) const {
  const std::uint32_t slot = slot_of(id);
  if (slot == kNoSlot) return std::nullopt;
  return history_at_slot(slot);
}

Watts Collector::estimated_candidate_power() const {
  Watts total{0.0};
  for (std::size_t slot = 0; slot < candidates_.size(); ++slot) {
    if (hist_size_[slot] == 0) continue;
    total += history_at_slot(slot).back().estimated_power;
  }
  return total;
}

}  // namespace pcap::telemetry
