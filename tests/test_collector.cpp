#include "telemetry/collector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
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
  EXPECT_FALSE(c.previous(0).has_value());
  c.collect(nodes, Seconds{2.0}, 1);
  const auto prev = c.previous(0);
  ASSERT_TRUE(prev.has_value());
  EXPECT_EQ(prev->time, Seconds{1.0});
  EXPECT_EQ(c.latest(0)->time, Seconds{2.0});
}

TEST(Collector, HistoryRollsOver) {
  CollectorParams p = quiet_params();
  p.history_depth = 3;
  Collector c(p, common::Rng(5));
  c.set_candidate_set({0});
  auto nodes = make_nodes(1);
  for (int t = 1; t <= 10; ++t) {
    c.collect(nodes, Seconds{static_cast<double>(t)}, 1);
  }
  EXPECT_EQ(c.latest(0)->time, Seconds{10.0});
  EXPECT_EQ(c.previous(0)->time, Seconds{9.0});
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
  for (int t = 1; t <= 10; ++t) {
    c.collect(nodes, Seconds{static_cast<double>(t)}, 1);
  }
  const auto latest = c.latest(0);
  const auto prev = c.previous(0);
  ASSERT_TRUE(latest && prev);
  EXPECT_DOUBLE_EQ(latest->time.value(), 7.0);  // t=10 delivered t-3
  EXPECT_DOUBLE_EQ(prev->time.value(), 6.0);
}

TEST(Collector, SamplesAreStampedWithTheCollectionCycle) {
  Collector c(quiet_params(), common::Rng(31));
  c.set_candidate_set({0});
  auto nodes = make_nodes(1);
  EXPECT_EQ(c.cycle_count(), 0u);
  c.collect(nodes, Seconds{1.0}, 1);
  c.collect(nodes, Seconds{2.0}, 1);
  EXPECT_EQ(c.cycle_count(), 2u);
  EXPECT_EQ(c.latest(0)->cycle, 2u);
  EXPECT_EQ(c.previous(0)->cycle, 1u);
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

std::size_t slot_in(const Collector& c, hw::NodeId id) {
  const auto& set = c.candidate_set();
  return static_cast<std::size_t>(
      std::lower_bound(set.begin(), set.end(), id) - set.begin());
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
    c.set_candidate_set({0, 1, 2, 3, 4});
    auto nodes = make_nodes(kNodes);
    const hw::Level top = nodes[0].spec().ladder.highest();
    // Corrupted payloads are negative or >= 50x a real estimate; anything
    // above twice the top-level estimate is one.
    const double ceiling = 2.0 * nodes[0].estimated_power_at(top).value();
    ASSERT_GT(50.0 * nodes[0].estimated_power_at(0).value(), ceiling);
    const auto corrupted = [&](const NodeSample& s) {
      return s.estimated_power.value() < 0.0 ||
             s.estimated_power.value() > ceiling;
    };

    common::Rng script(seed ^ 0x9e3779b97f4a7c15ULL);
    std::vector<std::uint64_t> newest(kNodes, 0);
    std::vector<std::optional<hw::Level>> last_level(kNodes);
    std::uint64_t taken = 0;
    int quiet_sweeps = 0;
    int noisy_sweeps = 0;
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
      const std::uint64_t delivered_before = c.samples_delivered();
      c.collect(nodes, Seconds{static_cast<double>(step)}, 1);
      taken += kNodes;
      const std::uint64_t now = c.cycle_count();

      bool quiet = true;
      std::uint64_t arrivals = 0;
      for (std::size_t slot = 0; slot < kNodes; ++slot) {
        const SampleHistoryView h = c.history_at_slot(slot);
        // Histories hold deliveries in arrival order: arrival order must
        // be sampling order.
        for (std::size_t k = 1; k < h.size(); ++k) {
          ASSERT_LT(h[k - 1].cycle, h[k].cycle) << "slot " << slot;
        }
        std::size_t first_new = h.size();
        while (first_new > 0 && h[first_new - 1].cycle > newest[slot]) {
          --first_new;
        }
        const std::size_t landed = h.size() - first_new;
        for (std::size_t k = first_new; k < h.size(); ++k) {
          EXPECT_LE(h[k].cycle + static_cast<std::uint64_t>(delay), now);
        }
        if (landed != 1 || !last_level[slot] ||
            *last_level[slot] != h.back().level || corrupted(h.back())) {
          quiet = false;
        }
        if (landed != 0) {
          newest[slot] = h.back().cycle;
          last_level[slot] = h.back().level;
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
