// The sweep engine (cluster/sweep.hpp): per-row means are the seed-order
// average of run_experiment, intervals are Student-t, and results do not
// depend on the pool's worker count.
#include "cluster/sweep.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>

#include "cluster/config_loader.hpp"
#include "cluster/scenario.hpp"

namespace pcap::cluster {
namespace {

common::Config small_base() {
  return common::Config::parse(
      "[cluster]\nnodes = 12\nseed = 7\nnpb_class = C\n"
      "[experiment]\ncalibration_h = 0.25\ntraining_h = 0.25\n"
      "measured_h = 0.5\n");
}

SweepSpec two_by_three() {
  SweepSpec spec;
  spec.base = small_base();
  spec.seeds = {7, 8, 9};
  spec.rows = {"manager.policy=mpc", "manager.policy=hri, manager.tg_cycles=5"};
  return spec;
}

TEST(Sweep, MeansAreTheSeedOrderAverageOfRunExperiment) {
  const SweepSpec spec = two_by_three();
  common::ThreadPool pool(4);
  const SweepResult sweep = run_sweep(spec, pool);
  ASSERT_EQ(sweep.rows.size(), 2u);
  ASSERT_TRUE(sweep.none.has_value());

  const ExperimentConfig base = apply_config(paper_scenario(), spec.base);
  const Watts peak =
      probe_uncapped_peak(base.cluster, base.calibration_duration);
  EXPECT_EQ(sweep.peak.value(), peak.value());
  EXPECT_EQ(sweep.provision.value(), (peak * base.provision_fraction).value());

  for (std::size_t row = 0; row < spec.rows.size(); ++row) {
    common::Config c = spec.base;
    apply_overrides(c, spec.rows[row]);
    ExperimentConfig cfg = apply_config(paper_scenario(), c);
    cfg.provision = sweep.provision;
    double perf = 0.0;
    double p_max = 0.0;
    double dpxt = 0.0;
    double yellow = 0.0;
    double targets = 0.0;
    std::vector<double> p_maxes;
    for (const std::uint64_t seed : spec.seeds) {
      cfg.cluster.seed = seed;
      const ExperimentResult r = run_experiment(cfg);
      perf += r.perf.performance / 3.0;
      p_max += r.p_max.value() / 3.0;
      dpxt += r.delta_pxt / 3.0;
      yellow += static_cast<double>(r.yellow_cycles) / 3.0;
      targets +=
          static_cast<double>(r.counter("pcap_manager_targets_total")) / 3.0;
      p_maxes.push_back(r.p_max.value());
    }
    const RowSummary& s = sweep.rows[row];
    EXPECT_EQ(s.label, spec.rows[row]);
    EXPECT_EQ(s.perf.mean, perf);
    EXPECT_EQ(s.p_max.mean, p_max);
    EXPECT_EQ(s.delta_pxt.mean, dpxt);
    EXPECT_EQ(s.yellow_s.mean, yellow);
    EXPECT_EQ(s.counters.at("pcap_manager_targets_total").mean, targets);
    EXPECT_EQ(s.p_max.n, 3u);

    double ss = 0.0;
    for (const double x : p_maxes) ss += (x - p_max) * (x - p_max);
    EXPECT_DOUBLE_EQ(s.p_max.half_width,
                     4.302652730 * std::sqrt(ss / 2.0) / std::sqrt(3.0));
  }
}

TEST(Sweep, OutputIsIndependentOfWorkerCount) {
  const SweepSpec spec = two_by_three();
  common::ThreadPool one(1);
  common::ThreadPool four(4);
  const std::string a = format_sweep(run_sweep(spec, one));
  const std::string b = format_sweep(run_sweep(spec, four));
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("+-"), std::string::npos) << a;
  EXPECT_NE(a.find("pcap_manager_targets_total"), std::string::npos) << a;
}

TEST(Sweep, StudentHalfWidth) {
  const Estimate e = estimate({1.0, 2.0, 4.0});
  const double mean = 1.0 / 3.0 + 2.0 / 3.0 + 4.0 / 3.0;
  EXPECT_EQ(e.mean, mean);
  const double s = std::sqrt(((1.0 - mean) * (1.0 - mean) +
                              (2.0 - mean) * (2.0 - mean) +
                              (4.0 - mean) * (4.0 - mean)) /
                             2.0);
  EXPECT_DOUBLE_EQ(e.half_width, 4.302652730 * s / std::sqrt(3.0));
  EXPECT_DOUBLE_EQ(student_t95(1), 12.706204736);
  EXPECT_NEAR(student_t95(60), 2.000297822, 1e-5);
  EXPECT_NEAR(student_t95(1000), 1.962339081, 1e-6);

  const Estimate one = estimate({5.0});
  EXPECT_EQ(one.mean, 5.0);
  EXPECT_EQ(one.half_width, 0.0);
}

TEST(Sweep, OneSeedPrintsNoInterval) {
  SweepSpec spec = two_by_three();
  spec.seeds.clear();  // the base's own seed, 7
  common::ThreadPool pool(2);
  const std::string out = format_sweep(run_sweep(spec, pool));
  EXPECT_EQ(out.find("+-"), std::string::npos) << out;
  EXPECT_EQ(out.rfind("seeds 7;", 0), 0u) << out;
  EXPECT_NE(out.find("[2] manager.policy=hri"), std::string::npos) << out;
}

TEST(Sweep, UnknownKeyThrowsBeforeAnyRun) {
  // A calibration probe this long would take many seconds: throwing fast
  // shows that no experiment (and no probe) started.
  SweepSpec spec;
  spec.base = common::Config::parse("[experiment]\ncalibration_h = 1000\n");
  spec.seeds = {1, 2};
  spec.rows = {"manager.policy=mpc", "manager.polcy=hri"};
  common::ThreadPool pool(2);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(run_sweep(spec, pool), std::runtime_error);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(2));
}

TEST(Sweep, MalformedRowsAndSeedsThrow) {
  common::Config c;
  EXPECT_THROW(apply_overrides(c, "manager.policy"), std::runtime_error);
  EXPECT_THROW(apply_overrides(c, "=mpc"), std::runtime_error);
  apply_overrides(c, " manager.policy = hri ,, manager.tg_cycles=3");
  EXPECT_EQ(c.get_string("manager.policy", ""), "hri");
  EXPECT_EQ(c.get_int("manager.tg_cycles", 0), 3);

  EXPECT_EQ(parse_seeds("42, 1234,777"),
            (std::vector<std::uint64_t>{42, 1234, 777}));
  EXPECT_THROW(parse_seeds("42,x"), std::runtime_error);
  EXPECT_THROW(parse_seeds("-1"), std::runtime_error);
  EXPECT_THROW(parse_seeds(""), std::runtime_error);
}

TEST(Sweep, BaseWithoutAnUnmanagedRunStillSweeps) {
  // Zones require a capping manager, so the none reference cannot run.
  SweepSpec spec;
  spec.base = small_base();
  spec.base.set("zones.count", "2");
  spec.seeds = {7};
  spec.rows = {"manager.policy=mpc"};
  common::ThreadPool pool(2);
  const SweepResult sweep = run_sweep(spec, pool);
  EXPECT_FALSE(sweep.none.has_value());
  EXPECT_NE(sweep.none_error.find("zones.count"), std::string::npos);
  ASSERT_EQ(sweep.rows.size(), 1u);
  EXPECT_GT(sweep.rows[0].p_max.mean, 0.0);
  const std::string out = format_sweep(sweep);
  EXPECT_NE(out.find("no none reference"), std::string::npos) << out;
  EXPECT_NE(out.find("n/a"), std::string::npos) << out;
}

}  // namespace
}  // namespace pcap::cluster
