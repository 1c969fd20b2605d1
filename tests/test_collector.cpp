#include "telemetry/collector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <limits>
#include <map>
#include <new>
#include <optional>

#include "hw/node_spec.hpp"

// Counts every global operator new in this test binary, so a test can
// assert that a stretch of code allocates nothing. new[] and delete[]
// forward to these by default. GCC pairs the inlined builtin new with the
// free() below and warns; both sides are replaced here, so they match.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace pcap::telemetry {
namespace {

/// Seed of the randomised properties; CI sweeps PCAP_FAULT_SEED=1..N.
std::uint64_t fault_seed(std::uint64_t fallback) {
  const char* env = std::getenv("PCAP_FAULT_SEED");
  if (env == nullptr || *env == '\0') return fallback;
  return std::strtoull(env, nullptr, 10);
}

std::vector<hw::Node> make_nodes(std::size_t n) {
  std::vector<hw::Node> nodes;
  for (std::size_t i = 0; i < n; ++i) {
    hw::Node node(static_cast<hw::NodeId>(i), hw::tianhe1a_node_spec());
    hw::OperatingPoint op;
    op.cpu_utilization = 0.5;
    op.mem_used = node.spec().mem_total * 0.3;
    op.mem_total = node.spec().mem_total;
    op.tau = Seconds{1.0};
    op.nic_bandwidth = node.spec().nic_bandwidth;
    node.set_operating_point(op);
    node.set_busy(true);
    nodes.push_back(std::move(node));
  }
  return nodes;
}

/// Moves a node's utilisation, so consecutive samples carry distinct
/// power estimates a test can tell apart.
void set_utilization(hw::Node& node, double u) {
  hw::OperatingPoint op = node.operating_point();
  op.cpu_utilization = u;
  node.set_operating_point(op);
}

std::size_t slot_in(const Collector& c, hw::NodeId id) {
  const auto& set = c.candidate_set();
  return static_cast<std::size_t>(
      std::lower_bound(set.begin(), set.end(), id) - set.begin());
}

CollectorParams quiet_params() {
  CollectorParams p;
  p.agent.utilization_noise = 0.0;
  p.agent.nic_noise = 0.0;
  return p;
}

TEST(Collector, CandidateSetSortedAndDeduplicated) {
  Collector c(quiet_params(), common::Rng(1));
  c.set_candidate_set({3, 1, 3, 2});
  EXPECT_EQ(c.candidate_set(), (std::vector<hw::NodeId>{1, 2, 3}));
  EXPECT_TRUE(c.is_candidate(1));
  EXPECT_FALSE(c.is_candidate(0));
}

TEST(Collector, CollectRecordsLatestSample) {
  Collector c(quiet_params(), common::Rng(2));
  c.set_candidate_set({0, 1});
  auto nodes = make_nodes(3);
  c.collect(nodes, Seconds{1.0}, 1);
  const auto s = c.latest(0);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->time, Seconds{1.0});
  EXPECT_DOUBLE_EQ(s->estimated_power.value(),
                   nodes[0].estimated_power().value());
}

TEST(Collector, NonCandidateNotSampled) {
  Collector c(quiet_params(), common::Rng(3));
  c.set_candidate_set({0});
  auto nodes = make_nodes(3);
  c.collect(nodes, Seconds{1.0}, 1);
  EXPECT_FALSE(c.latest(2).has_value());
}

TEST(Collector, PreviousRequiresTwoSamples) {
  Collector c(quiet_params(), common::Rng(4));
  c.set_candidate_set({0});
  auto nodes = make_nodes(1);
  c.collect(nodes, Seconds{1.0}, 1);
  const Watts first = c.latest(0)->estimated_power;
  EXPECT_FALSE(c.usable_at_slot(0).has_prev);
  set_utilization(nodes[0], 0.8);
  c.collect(nodes, Seconds{2.0}, 1);
  const UsableSample u = c.usable_at_slot(0);
  ASSERT_NE(u.sample, nullptr);
  ASSERT_TRUE(u.has_prev);
  EXPECT_EQ(u.prev_power, first);
  EXPECT_NE(u.sample->estimated_power, first);
  EXPECT_EQ(u.sample->time, Seconds{2.0});
  EXPECT_EQ(c.latest(0)->time, Seconds{2.0});
}

TEST(Collector, HistoryRollsOver) {
  CollectorParams p = quiet_params();
  p.history_depth = 3;
  Collector c(p, common::Rng(5));
  c.set_candidate_set({0});
  auto nodes = make_nodes(1);
  std::vector<Watts> power_at(11);
  for (int t = 1; t <= 10; ++t) {
    set_utilization(nodes[0], 0.05 * t);
    c.collect(nodes, Seconds{static_cast<double>(t)}, 1);
    power_at[t] = c.latest(0)->estimated_power;
  }
  EXPECT_EQ(c.latest(0)->time, Seconds{10.0});
  const UsableSample u = c.usable_at_slot(0);
  ASSERT_TRUE(u.has_prev);
  EXPECT_EQ(u.prev_power, power_at[9]);
  EXPECT_EQ(c.deliveries_at_slot(0), 10u);
}

TEST(Collector, RemovedCandidateDropsHistory) {
  Collector c(quiet_params(), common::Rng(6));
  c.set_candidate_set({0, 1});
  auto nodes = make_nodes(2);
  c.collect(nodes, Seconds{1.0}, 1);
  c.set_candidate_set({0});
  EXPECT_FALSE(c.latest(1).has_value());
  // Re-adding starts fresh.
  c.set_candidate_set({0, 1});
  EXPECT_FALSE(c.latest(1).has_value());
}

TEST(Collector, SurvivingCandidateKeepsHistoryAcrossSetChange) {
  Collector c(quiet_params(), common::Rng(7));
  c.set_candidate_set({0, 1});
  auto nodes = make_nodes(2);
  c.collect(nodes, Seconds{1.0}, 1);
  c.set_candidate_set({0});
  EXPECT_TRUE(c.latest(0).has_value());
}

TEST(Collector, EstimatedCandidatePowerSums) {
  Collector c(quiet_params(), common::Rng(8));
  c.set_candidate_set({0, 1});
  auto nodes = make_nodes(2);
  c.collect(nodes, Seconds{1.0}, 1);
  const double expected = nodes[0].estimated_power().value() +
                          nodes[1].estimated_power().value();
  EXPECT_NEAR(c.estimated_candidate_power().value(), expected, 1e-9);
}

TEST(Collector, OutOfRangeCandidateThrows) {
  Collector c(quiet_params(), common::Rng(9));
  c.set_candidate_set({5});
  auto nodes = make_nodes(2);
  EXPECT_THROW(c.collect(nodes, Seconds{1.0}, 1), std::out_of_range);
}

TEST(Collector, ManagerUtilizationGrowsWithCandidates) {
  auto nodes = make_nodes(64);
  Collector small(quiet_params(), common::Rng(10));
  small.set_candidate_set({0, 1, 2, 3});
  small.collect(nodes, Seconds{1.0}, 8);

  Collector large(quiet_params(), common::Rng(10));
  std::vector<hw::NodeId> all;
  for (hw::NodeId i = 0; i < 64; ++i) all.push_back(i);
  large.set_candidate_set(all);
  large.collect(nodes, Seconds{1.0}, 8);

  EXPECT_GT(large.last_cycle_manager_utilization(),
            small.last_cycle_manager_utilization());
}

TEST(Collector, TooShallowHistoryThrows) {
  CollectorParams p = quiet_params();
  p.history_depth = 1;
  EXPECT_THROW(Collector(p, common::Rng(1)), std::invalid_argument);
}

TEST(CollectorTransport, LossDropsSomeReports) {
  CollectorParams p = quiet_params();
  p.transport.loss_rate = 0.5;
  Collector c(p, common::Rng(21));
  c.set_candidate_set({0});
  auto nodes = make_nodes(1);
  for (int t = 1; t <= 400; ++t) {
    c.collect(nodes, Seconds{static_cast<double>(t)}, 1);
  }
  EXPECT_GT(c.samples_lost(), 100u);
  EXPECT_GT(c.samples_delivered(), 100u);
  EXPECT_EQ(c.samples_lost() + c.samples_delivered(), 400u);
}

TEST(CollectorTransport, LatestSurvivesLoss) {
  // Even under heavy loss the manager keeps acting on the freshest
  // delivered sample rather than failing.
  CollectorParams p = quiet_params();
  p.transport.loss_rate = 0.8;
  Collector c(p, common::Rng(22));
  c.set_candidate_set({0});
  auto nodes = make_nodes(1);
  for (int t = 1; t <= 200; ++t) {
    c.collect(nodes, Seconds{static_cast<double>(t)}, 1);
  }
  const auto s = c.latest(0);
  ASSERT_TRUE(s.has_value());
  EXPECT_GT(s->time.value(), 0.0);
  EXPECT_LE(s->time.value(), 200.0);
}

TEST(CollectorTransport, DelayShiftsDelivery) {
  CollectorParams p = quiet_params();
  p.transport.delay_cycles = 2;
  Collector c(p, common::Rng(23));
  c.set_candidate_set({0});
  auto nodes = make_nodes(1);
  c.collect(nodes, Seconds{1.0}, 1);
  EXPECT_FALSE(c.latest(0).has_value());  // still in flight
  c.collect(nodes, Seconds{2.0}, 1);
  EXPECT_FALSE(c.latest(0).has_value());
  c.collect(nodes, Seconds{3.0}, 1);
  const auto s = c.latest(0);
  ASSERT_TRUE(s.has_value());
  EXPECT_DOUBLE_EQ(s->time.value(), 1.0);  // the cycle-1 sample arrived
}

TEST(CollectorTransport, DelayedSamplesArriveInOrder) {
  CollectorParams p = quiet_params();
  p.transport.delay_cycles = 3;
  Collector c(p, common::Rng(24));
  c.set_candidate_set({0});
  auto nodes = make_nodes(1);
  std::vector<Watts> power_at(11);
  for (int t = 1; t <= 10; ++t) {
    set_utilization(nodes[0], 0.05 * t);
    power_at[t] = nodes[0].estimated_power();
    c.collect(nodes, Seconds{static_cast<double>(t)}, 1);
  }
  const auto latest = c.latest(0);
  const UsableSample u = c.usable_at_slot(0);
  ASSERT_TRUE(latest && u.has_prev);
  EXPECT_DOUBLE_EQ(latest->time.value(), 7.0);  // t=10 delivered t-3
  EXPECT_DOUBLE_EQ(latest->estimated_power.value(), power_at[7].value());
  EXPECT_DOUBLE_EQ(u.prev_power.value(), power_at[6].value());
}

TEST(Collector, SamplesAreStampedWithTheCollectionCycle) {
  Collector c(quiet_params(), common::Rng(31));
  c.set_candidate_set({0});
  auto nodes = make_nodes(1);
  EXPECT_EQ(c.cycle_count(), 0u);
  c.collect(nodes, Seconds{1.0}, 1);
  EXPECT_EQ(c.latest(0)->cycle, 1u);
  const Watts first = c.latest(0)->estimated_power;
  set_utilization(nodes[0], 0.8);
  c.collect(nodes, Seconds{2.0}, 1);
  EXPECT_EQ(c.cycle_count(), 2u);
  EXPECT_EQ(c.latest(0)->cycle, 2u);
  // The usable sample is the cycle-2 one; the one before it is cycle 1's.
  const UsableSample u = c.usable_at_slot(0);
  EXPECT_EQ(u.sample->cycle, 2u);
  EXPECT_EQ(u.prev_power, first);
}

TEST(CollectorTransport, DelayedSampleKeepsItsSamplingCycleStamp) {
  // The stamp records when the sample was *taken*, not when it arrived —
  // that difference is exactly the staleness the manager must see.
  CollectorParams p = quiet_params();
  p.transport.delay_cycles = 3;
  Collector c(p, common::Rng(32));
  c.set_candidate_set({0});
  auto nodes = make_nodes(1);
  for (int t = 1; t <= 5; ++t) {
    c.collect(nodes, Seconds{static_cast<double>(t)}, 1);
  }
  const auto s = c.latest(0);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->cycle, 2u);  // taken at cycle 2, delivered at cycle 5
  EXPECT_EQ(c.cycle_count() - s->cycle, 3u);
}

TEST(CollectorTransport, BadParamsThrow) {
  CollectorParams p = quiet_params();
  p.transport.loss_rate = 1.0;
  EXPECT_THROW(Collector(p, common::Rng(1)), std::invalid_argument);
  p = quiet_params();
  p.transport.loss_rate = -0.1;
  EXPECT_THROW(Collector(p, common::Rng(1)), std::invalid_argument);
  p = quiet_params();
  p.transport.delay_cycles = -1;
  EXPECT_THROW(Collector(p, common::Rng(1)), std::invalid_argument);
}

TEST(CollectorRing, ArenaCapacityIsDelayTimesCandidates) {
  for (const int delay : {0, 1, 3}) {
    SCOPED_TRACE(delay);
    CollectorParams p = quiet_params();
    p.transport.delay_cycles = delay;
    Collector c(p, common::Rng(41));
    EXPECT_EQ(c.in_flight_capacity(), 0u);
    c.set_candidate_set({0, 1, 2, 3, 4});
    EXPECT_EQ(c.in_flight_capacity(), 5u * delay);
    c.set_candidate_set({0, 2, 5, 6, 7, 8, 9});
    EXPECT_EQ(c.in_flight_capacity(), 7u * delay);
    c.set_candidate_set({});
    EXPECT_EQ(c.in_flight_capacity(), 0u);
  }
}

TEST(CollectorRing, DelayedSweepsAllocateNothing) {
  for (const int delay : {0, 1, 3}) {
    SCOPED_TRACE(delay);
    CollectorParams p = quiet_params();
    p.transport.delay_cycles = delay;
    p.transport.loss_rate = 0.1;
    p.faults.agent_dropout_rate = 0.05;
    p.faults.crash_rate = 0.02;
    p.faults.crash_duration_cycles = 3;
    p.faults.corruption_rate = 0.1;
    Collector c(p, common::Rng(42));
    c.set_candidate_set({0, 1, 2, 3, 4, 5, 6, 7});
    auto nodes = make_nodes(8);
    c.collect(nodes, Seconds{1.0}, 1);
    const std::uint64_t before = g_allocations.load();
    for (int t = 2; t <= 200; ++t) {
      if (t % 7 == 0) {
        c.skip_cycle(1);
      } else {
        c.collect(nodes, Seconds{static_cast<double>(t)}, 1);
      }
    }
    EXPECT_EQ(g_allocations.load() - before, 0u);
    EXPECT_GT(c.samples_delivered(), 0u);
  }
}

TEST(CollectorRing, PropertiesHoldUnderFaultsLossAndSkips) {
  // A random mix of sweeps and skipped cycles over a lossy, delayed,
  // faulty transport, with DVFS levels moving underneath. Every sweep is
  // checked against a test-side model of what the transport may do.
  const std::uint64_t seed = fault_seed(5);
  for (const int delay : {1, 2, 3}) {
    SCOPED_TRACE(delay);
    CollectorParams p = quiet_params();
    p.transport.delay_cycles = delay;
    p.transport.loss_rate = 0.05;
    p.faults.agent_dropout_rate = 0.02;
    p.faults.agent_recovery_rate = 0.4;
    p.faults.crash_rate = 0.01;
    p.faults.crash_duration_cycles = 4;
    p.faults.corruption_rate = 0.04;
    Collector c(p, common::Rng(seed * 131 + static_cast<std::uint64_t>(delay)));
    constexpr std::size_t kNodes = 5;
    const std::vector<hw::NodeId> candidates = {0, 1, 2, 3, 4};
    c.set_candidate_set(candidates);
    auto nodes = make_nodes(kNodes);
    const hw::Level top = nodes[0].spec().ladder.highest();
    // Corrupted payloads are negative or >= 50x a real estimate; anything
    // above twice the fully loaded top-level estimate is one.
    auto probes = make_nodes(1);
    hw::Node& probe = probes[0];
    set_utilization(probe, 1.0);
    const double ceiling = 2.0 * probe.estimated_power_at(top).value();
    set_utilization(probe, 0.0);
    ASSERT_GT(50.0 * probe.estimated_power_at(0).value(), ceiling);
    const auto corrupted = [&](const NodeSample& s) {
      return s.estimated_power.value() < 0.0 ||
             s.estimated_power.value() > ceiling;
    };

    // Agent noise is off and every sweep gives every node a utilisation
    // of its own, so a usable report's power names the cycle it was taken
    // in. That places the reports latest() never shows: after a skipped
    // cycle several land in one sweep, and only the newest is latest().
    std::vector<ProfilingAgent> reference;
    for (const hw::NodeId id : candidates) {
      reference.emplace_back(id, p.agent, common::Rng(1));
    }
    std::vector<std::map<double, std::uint64_t>> taken_at(kNodes);
    std::vector<std::uint64_t> sweep_cycles;

    common::Rng script(seed ^ 0x9e3779b97f4a7c15ULL);
    std::vector<std::uint64_t> newest(kNodes, 0);
    std::vector<std::uint64_t> seen(kNodes, 0);
    std::vector<std::optional<hw::Level>> last_level(kNodes);
    std::vector<std::optional<std::uint64_t>> usable_cycle(kNodes);
    std::vector<std::optional<std::uint64_t>> prev_cycle(kNodes);
    std::uint64_t taken = 0;
    int quiet_sweeps = 0;
    int noisy_sweeps = 0;
    int shared_landings = 0;  // a usable report and its usable predecessor
                              // landed in the same sweep
    for (int step = 1; step <= 600; ++step) {
      if (script.bernoulli(0.25)) {
        c.skip_cycle(1);
        EXPECT_FALSE(c.last_sweep_quiet());
        continue;
      }
      if (script.bernoulli(0.1)) {
        nodes[script.uniform_int(0, kNodes - 1)].set_level(
            static_cast<hw::Level>(script.uniform_int(0, top)));
      }
      for (std::size_t slot = 0; slot < kNodes; ++slot) {
        set_utilization(nodes[slot],
                        0.05 + 0.9 * static_cast<double>(step * kNodes + slot) /
                                   (601.0 * kNodes));
      }
      const std::uint64_t delivered_before = c.samples_delivered();
      const Seconds t{static_cast<double>(step)};
      c.collect(nodes, t, 1);
      taken += kNodes;
      const std::uint64_t now = c.cycle_count();
      sweep_cycles.push_back(now);
      for (std::size_t slot = 0; slot < kNodes; ++slot) {
        const double w = reference[slot].sample(nodes[slot], t)
                             .estimated_power.value();
        ASSERT_TRUE(taken_at[slot].emplace(w, now).second)
            << "two cycles share a power estimate";
      }

      bool quiet = true;
      std::uint64_t arrivals = 0;
      for (std::size_t slot = 0; slot < kNodes; ++slot) {
        const std::uint64_t landed = c.deliveries_at_slot(slot) - seen[slot];
        seen[slot] += landed;
        const std::optional<NodeSample> back = c.latest(candidates[slot]);
        if (landed != 0) {
          // Arrival order must be sampling order, and nothing lands
          // before its delay is up.
          ASSERT_TRUE(back.has_value());
          ASSERT_GT(back->cycle, newest[slot]) << "slot " << slot;
          EXPECT_LE(back->cycle + static_cast<std::uint64_t>(delay), now);
          // No more landed than were taken in the cycles it spans.
          EXPECT_LE(landed, static_cast<std::uint64_t>(
                                std::upper_bound(sweep_cycles.begin(),
                                                 sweep_cycles.end(),
                                                 back->cycle) -
                                std::upper_bound(sweep_cycles.begin(),
                                                 sweep_cycles.end(),
                                                 newest[slot])));
        }
        // The same two properties for the reports before the newest, by
        // the usable record: a usable report that landed this sweep was
        // taken after the slot's previous newest and no later than this
        // sweep's newest; the usable report before it was taken earlier
        // still. Anything not landed this sweep is what the record held.
        const UsableSample u = c.usable_at_slot(slot);
        std::optional<std::uint64_t> u_cycle;
        std::optional<std::uint64_t> p_cycle;
        if (u.sample != nullptr) {
          u_cycle = u.sample->cycle;
          if (*u_cycle > newest[slot]) {
            ASSERT_NE(landed, 0u) << "slot " << slot;
            EXPECT_LE(*u_cycle, back->cycle);
            EXPECT_LE(*u_cycle + static_cast<std::uint64_t>(delay), now);
          } else {
            EXPECT_EQ(u_cycle, usable_cycle[slot]) << "slot " << slot;
          }
        }
        if (u.has_prev) {
          ASSERT_TRUE(u_cycle.has_value());
          const auto it = taken_at[slot].find(u.prev_power.value());
          ASSERT_NE(it, taken_at[slot].end()) << "slot " << slot;
          p_cycle = it->second;
          EXPECT_LT(*p_cycle, *u_cycle) << "slot " << slot;
          if (*p_cycle > newest[slot]) {
            EXPECT_LE(*p_cycle + static_cast<std::uint64_t>(delay), now);
            ++shared_landings;
          } else if (*u_cycle > newest[slot]) {
            EXPECT_EQ(p_cycle, usable_cycle[slot]) << "slot " << slot;
          } else {
            EXPECT_EQ(p_cycle, prev_cycle[slot]) << "slot " << slot;
          }
        }
        usable_cycle[slot] = u_cycle;
        prev_cycle[slot] = p_cycle;
        if (landed != 1 || !last_level[slot] ||
            *last_level[slot] != back->level || corrupted(*back)) {
          quiet = false;
        }
        if (landed != 0) {
          newest[slot] = back->cycle;
          last_level[slot] = back->level;
        }
        arrivals += landed;
        EXPECT_LE(c.reports_in_flight_at_slot(slot),
                  static_cast<std::size_t>(delay));
      }
      EXPECT_EQ(c.samples_delivered() - delivered_before, arrivals);
      EXPECT_EQ(c.last_sweep_quiet(), quiet) << "cycle " << now;
      EXPECT_EQ(taken, c.samples_delivered() + c.samples_lost() +
                           c.samples_suppressed() + c.reports_in_flight());
      (quiet ? quiet_sweeps : noisy_sweeps) += 1;
    }
    // The mix really exercised every channel and both sweep outcomes.
    EXPECT_GT(c.samples_lost(), 0u);
    EXPECT_GT(c.samples_suppressed(), 0u);
    EXPECT_GT(c.fault_injector().samples_corrupted(), 0u);
    EXPECT_GT(quiet_sweeps, 0);
    EXPECT_GT(noisy_sweeps, 0);
    // With a one-cycle delay a report is always due by the next sweep,
    // so only longer delays can land two in one sweep.
    if (delay >= 2) {
      EXPECT_GT(shared_landings, 0);
    }
  }
}

/// The window walk the collector's per-slot record replaces, kept as an
/// oracle: the last `depth` deliveries of one node, newest last, searched
/// newest-to-oldest for a sample within the sanity bound.
struct WindowWalk {
  const NodeSample* chosen = nullptr;
  std::uint32_t rejected = 0;
  bool substituted = false;
  bool has_prev = false;
  Watts prev_power{0.0};
};

bool plausible(const NodeSample& s, const hw::Node& node) {
  const double w = s.estimated_power.value();
  return std::isfinite(w) && w >= 0.0 &&
         s.estimated_power <= node.spec().power_model.theoretical_max() * 1.5;
}

WindowWalk walk(const std::deque<NodeSample>& window, const hw::Node& node) {
  WindowWalk w;
  std::size_t i = window.size();
  while (i-- > 0) {
    if (plausible(window[i], node)) break;
    ++w.rejected;
  }
  if (i == static_cast<std::size_t>(-1)) return w;
  w.chosen = &window[i];
  w.substituted = i + 1 != window.size();
  while (i-- > 0) {
    if (plausible(window[i], node)) {
      w.has_prev = true;
      w.prev_power = window[i].estimated_power;
      break;
    }
  }
  return w;
}

bool same_sample(const NodeSample& a, const NodeSample& b) {
  return a.node == b.node && a.time == b.time && a.cycle == b.cycle &&
         a.level == b.level && a.busy == b.busy &&
         a.estimated_power == b.estimated_power;
}

TEST(CollectorRecord, MatchesTheWindowWalkOracle) {
  // Every sweep, each slot's O(1) record must say exactly what a walk over
  // its last history_depth deliveries says, under corruption, delay,
  // loss, dropout, crashes, candidate churn and warm-restart clock jumps.
  // No cycle is skipped, so at most one report lands per slot per sweep
  // and the test sees every delivery as the slot's new raw newest
  // (MatchesTheWindowWalkOracleAcrossSkips covers skipped cycles).
  const std::uint64_t seed = fault_seed(11);
  constexpr std::size_t kPool = 8;
  std::map<std::size_t, int> expiries;
  std::map<std::size_t, int> readmissions;
  for (const std::size_t depth : {2u, 3u, 8u}) {
    for (const double corruption : {0.0, 0.005, 0.5, 1.0}) {
      for (const int delay : {0, 1, 2}) {
        SCOPED_TRACE(::testing::Message() << "depth " << depth
                                          << " corruption " << corruption
                                          << " delay " << delay);
        CollectorParams p;  // agent noise on: every sample differs
        p.history_depth = depth;
        p.transport.delay_cycles = delay;
        p.transport.loss_rate = 0.05;
        p.faults.agent_dropout_rate = 0.02;
        p.faults.agent_recovery_rate = 0.4;
        p.faults.crash_rate = 0.005;
        p.faults.crash_duration_cycles = 3;
        p.faults.corruption_rate = corruption;
        Collector c(p, common::Rng(
                           seed * 977 + depth * 31 +
                           static_cast<std::uint64_t>(delay) * 7 +
                           static_cast<std::uint64_t>(corruption * 1000)));
        auto nodes = make_nodes(kPool);
        const auto top = static_cast<std::int64_t>(
            nodes[0].spec().ladder.highest());
        common::Rng script(seed ^ 0x2545f4914f6cdd1dULL ^ depth);

        std::vector<std::deque<NodeSample>> window(kPool);
        std::vector<std::uint64_t> seen(kPool, 0);
        std::vector<bool> usable_now(kPool, false);
        std::vector<bool> expired(kPool, false);
        std::vector<hw::NodeId> set = {0, 1, 2, 3, 4, 5};
        c.set_candidate_set(set);
        for (int step = 1; step <= 400; ++step) {
          if (script.bernoulli(0.03)) {
            std::vector<hw::NodeId> next;
            for (hw::NodeId id = 0; id < kPool; ++id) {
              if (script.bernoulli(0.75)) next.push_back(id);
            }
            for (hw::NodeId id = 0; id < kPool; ++id) {
              if (std::find(next.begin(), next.end(), id) != next.end()) {
                continue;
              }
              // A dropped node's record goes with it; re-added, it
              // starts empty.
              window[id].clear();
              seen[id] = 0;
              usable_now[id] = false;
              expired[id] = false;
            }
            set = next;
            c.set_candidate_set(set);
          }
          if (script.bernoulli(0.02)) {
            const std::uint64_t now = c.cycle_count();
            c.restore_cycle_count(script.bernoulli(0.5) ? now + 50
                                                        : now / 2);
          }
          if (script.bernoulli(0.1)) {
            nodes[script.uniform_int(0, kPool - 1)].set_level(
                static_cast<hw::Level>(script.uniform_int(0, top)));
          }
          set_utilization(nodes[script.uniform_int(0, kPool - 1)],
                          script.uniform(0.0, 1.0));

          const std::uint64_t delivered_before = c.samples_delivered();
          c.collect(nodes, Seconds{static_cast<double>(step)}, 1);
          std::uint64_t arrivals = 0;
          for (std::size_t slot = 0; slot < set.size(); ++slot) {
            const hw::NodeId id = set[slot];
            const std::uint64_t landed = c.deliveries_at_slot(slot) - seen[id];
            ASSERT_LE(landed, 1u) << "node " << id;
            seen[id] += landed;
            arrivals += landed;
            const std::optional<NodeSample> newest = c.latest(id);
            if (landed != 0) {
              ASSERT_TRUE(newest.has_value());
              window[id].push_back(*newest);
              if (window[id].size() > depth) window[id].pop_front();
            }
            // Raw newest: what latest() returns, corrupt or not.
            ASSERT_EQ(newest.has_value(), !window[id].empty());
            if (newest) {
              EXPECT_TRUE(same_sample(*newest, window[id].back()));
            }

            const WindowWalk want = walk(window[id], nodes[id]);
            const UsableSample got = c.usable_at_slot(slot);
            ASSERT_EQ(got.sample != nullptr, want.chosen != nullptr)
                << "node " << id << " step " << step;
            EXPECT_EQ(got.rejected, want.rejected);
            if (want.chosen != nullptr) {
              EXPECT_TRUE(same_sample(*got.sample, *want.chosen));
              EXPECT_EQ(got.substituted, want.substituted);
              EXPECT_EQ(got.has_prev, want.has_prev);
              if (want.has_prev) {
                EXPECT_EQ(got.prev_power, want.prev_power);
              }
            }
            // Window expiry: a usable node that then took history_depth
            // corrupt deliveries in a row has nothing usable left; the
            // next plausible delivery readmits it.
            const bool usable = want.chosen != nullptr;
            if (usable_now[id] && !usable) {
              EXPECT_EQ(want.rejected, depth);
              expired[id] = true;
              ++expiries[depth];
            }
            if (expired[id] && usable) {
              EXPECT_EQ(want.rejected, 0u);
              expired[id] = false;
              ++readmissions[depth];
            }
            usable_now[id] = usable;
          }
          EXPECT_EQ(c.samples_delivered() - delivered_before, arrivals);
        }
      }
    }
  }
  for (const std::size_t depth : {2u, 3u, 8u}) {
    EXPECT_GT(expiries[depth], 0) << "depth " << depth;
    EXPECT_GT(readmissions[depth], 0) << "depth " << depth;
  }
}

TEST(CollectorRecord, MatchesTheWindowWalkOracleAcrossSkips) {
  // After a skipped cycle several delayed reports land in one sweep, and
  // latest() shows only the newest of them. Here each collector watches a
  // single node with agent noise off, so the test rebuilds every landing
  // itself: that collector's counters say whether a sweep's report was
  // suppressed, corrupted or lost, a noise-free agent says what it
  // carried, and the transport delay says on which sweep it lands. The
  // record must agree with the window walk over those deliveries after
  // every sweep, across churn and warm-restart clock jumps too.
  const std::uint64_t seed = fault_seed(13);
  constexpr std::size_t kNodes = 3;
  const double corrupt = std::numeric_limits<double>::quiet_NaN();
  std::map<std::size_t, int> multi_landings;
  std::map<std::size_t, int> shared_prev;
  for (const std::size_t depth : {2u, 3u, 8u}) {
    for (const double corruption : {0.0, 0.005, 0.5, 1.0}) {
      for (const int delay : {0, 1, 2, 3}) {
        SCOPED_TRACE(::testing::Message() << "depth " << depth
                                          << " corruption " << corruption
                                          << " delay " << delay);
        CollectorParams p = quiet_params();
        p.history_depth = depth;
        p.transport.delay_cycles = delay;
        p.transport.loss_rate = 0.05;
        p.faults.agent_dropout_rate = 0.02;
        p.faults.agent_recovery_rate = 0.4;
        p.faults.crash_rate = 0.005;
        p.faults.crash_duration_cycles = 3;
        p.faults.corruption_rate = corruption;
        auto nodes = make_nodes(kNodes);
        const auto top = static_cast<std::int64_t>(
            nodes[0].spec().ladder.highest());
        common::Rng script(seed ^ 0x6a09e667f3bcc909ULL ^ depth);

        // Per watched node: its collector, a reference agent, the reports
        // the test expects in flight and the last `depth` deliveries (a
        // corrupted one carries a NaN power: its payload is unknown).
        std::deque<Collector> collectors;
        std::vector<ProfilingAgent> reference;
        std::vector<std::deque<NodeSample>> in_flight(kNodes);
        std::vector<std::deque<NodeSample>> window(kNodes);
        std::vector<bool> member(kNodes, true);
        std::vector<std::uint64_t> seen(kNodes, 0);
        for (hw::NodeId id = 0; id < kNodes; ++id) {
          collectors.emplace_back(
              p, common::Rng(seed * 1009 + id * 131 + depth * 17 +
                             static_cast<std::uint64_t>(delay) * 7 +
                             static_cast<std::uint64_t>(corruption * 1000)));
          collectors.back().set_candidate_set({id});
          reference.emplace_back(id, p.agent, common::Rng(1));
        }
        for (int step = 1; step <= 300; ++step) {
          if (script.bernoulli(0.1)) {
            nodes[script.uniform_int(0, kNodes - 1)].set_level(
                static_cast<hw::Level>(script.uniform_int(0, top)));
          }
          set_utilization(nodes[script.uniform_int(0, kNodes - 1)],
                          script.uniform(0.0, 1.0));
          const Seconds t{static_cast<double>(step)};
          for (hw::NodeId id = 0; id < kNodes; ++id) {
            Collector& c = collectors[id];
            if (script.bernoulli(member[id] ? 0.02 : 0.3)) {
              // Dropped, a node loses its record and its queued reports;
              // re-added, it starts empty.
              member[id] = !member[id];
              c.set_candidate_set(member[id] ? std::vector<hw::NodeId>{id}
                                             : std::vector<hw::NodeId>{});
              in_flight[id].clear();
              window[id].clear();
              seen[id] = 0;
            }
            if (script.bernoulli(0.02)) {
              const std::uint64_t lost_before = c.samples_lost();
              const std::uint64_t now = c.cycle_count();
              c.restore_cycle_count(script.bernoulli(0.5) ? now + 50
                                                          : now / 2);
              EXPECT_EQ(c.samples_lost() - lost_before, in_flight[id].size());
              in_flight[id].clear();
            }
            if (script.bernoulli(0.3)) {
              c.skip_cycle(1);
              continue;
            }
            const std::uint64_t suppressed = c.samples_suppressed();
            const std::uint64_t corrupted =
                c.fault_injector().samples_corrupted();
            const std::uint64_t lost = c.samples_lost();
            c.collect(nodes, t, 1);
            if (!member[id]) continue;
            const std::uint64_t now = c.cycle_count();

            // Rebuild the sweep: due reports land in order, then this
            // sweep's report is taken and sent.
            std::uint64_t landed = 0;
            const auto land = [&](const NodeSample& s) {
              window[id].push_back(s);
              if (window[id].size() > depth) window[id].pop_front();
              ++landed;
            };
            while (!in_flight[id].empty() &&
                   in_flight[id].front().cycle +
                           static_cast<std::uint64_t>(delay) <=
                       now) {
              land(in_flight[id].front());
              in_flight[id].pop_front();
            }
            const std::uint64_t d_suppressed =
                c.samples_suppressed() - suppressed;
            const std::uint64_t d_corrupted =
                c.fault_injector().samples_corrupted() - corrupted;
            const std::uint64_t d_lost = c.samples_lost() - lost;
            ASSERT_LE(d_suppressed + d_lost, 1u);
            ASSERT_LE(d_corrupted, 1u);
            NodeSample sent = reference[id].sample(nodes[id], t);
            sent.cycle = now;
            if (d_corrupted != 0) sent.estimated_power = Watts{corrupt};
            if (d_suppressed == 0 && d_lost == 0) {
              if (delay == 0) {
                land(sent);
              } else {
                in_flight[id].push_back(sent);
              }
            }
            ASSERT_EQ(c.deliveries_at_slot(0) - seen[id], landed)
                << "node " << id << " step " << step;
            seen[id] += landed;
            ASSERT_EQ(c.reports_in_flight(), in_flight[id].size());

            // Raw newest: what latest() returns, corrupt or not.
            const std::optional<NodeSample> newest = c.latest(id);
            ASSERT_EQ(newest.has_value(), !window[id].empty());
            if (newest) {
              NodeSample want = window[id].back();
              if (std::isnan(want.estimated_power.value())) {
                EXPECT_FALSE(plausible(*newest, nodes[id]));
                want.estimated_power = newest->estimated_power;
              }
              EXPECT_TRUE(same_sample(*newest, want));
            }

            const WindowWalk want = walk(window[id], nodes[id]);
            const UsableSample got = c.usable_at_slot(0);
            ASSERT_EQ(got.sample != nullptr, want.chosen != nullptr)
                << "node " << id << " step " << step;
            EXPECT_EQ(got.rejected, want.rejected);
            if (want.chosen != nullptr) {
              EXPECT_TRUE(same_sample(*got.sample, *want.chosen));
              EXPECT_EQ(got.substituted, want.substituted);
              EXPECT_EQ(got.has_prev, want.has_prev);
              if (want.has_prev) {
                EXPECT_EQ(got.prev_power, want.prev_power);
              }
            }
            if (landed >= 2) {
              ++multi_landings[depth];
              // Did the usable sample and its usable predecessor both
              // land in this sweep?
              std::size_t usable_landed = 0;
              for (std::size_t k =
                       window[id].size() -
                       std::min<std::size_t>(landed, window[id].size());
                   k < window[id].size(); ++k) {
                usable_landed += plausible(window[id][k], nodes[id]) ? 1 : 0;
              }
              if (usable_landed >= 2) ++shared_prev[depth];
            }
          }
        }
      }
    }
  }
  for (const std::size_t depth : {2u, 3u, 8u}) {
    EXPECT_GT(multi_landings[depth], 0) << "depth " << depth;
    EXPECT_GT(shared_prev[depth], 0) << "depth " << depth;
  }
}

TEST(CollectorRing, QueuedReportsFollowTheirNodeAcrossChurn) {
  CollectorParams p = quiet_params();
  p.transport.delay_cycles = 2;
  Collector c(p, common::Rng(43));
  c.set_candidate_set({0, 1, 2});
  auto nodes = make_nodes(4);
  c.collect(nodes, Seconds{1.0}, 1);  // cycle 1: one report per node queued
  EXPECT_EQ(c.reports_in_flight(), 3u);

  // Node 1 leaves (its report is dropped with it); node 2 moves from slot 2
  // to slot 1 and node 3 arrives empty.
  c.set_candidate_set({0, 2, 3});
  EXPECT_EQ(c.reports_in_flight(), 2u);
  EXPECT_EQ(c.reports_in_flight_at_slot(slot_in(c, 2)), 1u);
  EXPECT_EQ(c.reports_in_flight_at_slot(slot_in(c, 3)), 0u);

  // Node 1 comes straight back: it starts with an empty queue.
  c.set_candidate_set({0, 1, 2, 3});
  EXPECT_EQ(c.reports_in_flight_at_slot(slot_in(c, 1)), 0u);

  c.collect(nodes, Seconds{2.0}, 1);  // cycle 2: nothing due yet
  c.collect(nodes, Seconds{3.0}, 1);  // cycle 3: the cycle-1 reports land
  EXPECT_EQ(c.latest(0)->cycle, 1u);
  EXPECT_EQ(c.latest(2)->cycle, 1u);
  EXPECT_FALSE(c.latest(1).has_value());  // its cycle-1 report is gone
  EXPECT_FALSE(c.latest(3).has_value());
  c.collect(nodes, Seconds{4.0}, 1);
  EXPECT_EQ(c.latest(1)->cycle, 2u);
  EXPECT_EQ(c.latest(3)->cycle, 2u);
}

TEST(CollectorRing, RestoreDiscardsQueuedReportsAsLost) {
  // Reports in flight at a warm restart were addressed to the previous
  // manager: restore_cycle_count drops them and counts them lost, so the
  // ring bound holds whichever way the clock jumps.
  for (const std::uint64_t resume : {std::uint64_t{100}, std::uint64_t{0}}) {
    SCOPED_TRACE(resume);
    CollectorParams p = quiet_params();
    p.transport.delay_cycles = 2;
    Collector c(p, common::Rng(44));
    c.set_candidate_set({0, 1});
    auto nodes = make_nodes(2);
    c.collect(nodes, Seconds{1.0}, 1);
    c.collect(nodes, Seconds{2.0}, 1);
    ASSERT_EQ(c.reports_in_flight(), 4u);

    c.restore_cycle_count(resume);
    EXPECT_EQ(c.cycle_count(), resume);
    EXPECT_EQ(c.reports_in_flight(), 0u);
    EXPECT_EQ(c.samples_lost(), 4u);
    EXPECT_EQ(c.samples_delivered(), 0u);

    for (int t = 3; t <= 5; ++t) {
      c.collect(nodes, Seconds{static_cast<double>(t)}, 1);
    }
    // Only post-restart reports ever land, on the resumed clock.
    EXPECT_EQ(c.latest(0)->cycle, resume + 1);
    EXPECT_EQ(c.samples_delivered(), 2u);
    EXPECT_EQ(c.reports_in_flight(), 4u);
  }
}

}  // namespace
}  // namespace pcap::telemetry
