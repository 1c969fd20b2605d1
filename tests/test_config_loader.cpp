#include "cluster/config_loader.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "cluster/scenario.hpp"

namespace pcap::cluster {
namespace {

ExperimentConfig load(const std::string& text) {
  return apply_config(paper_scenario(), common::Config::parse(text));
}

TEST(ConfigLoader, EmptyConfigKeepsDefaults) {
  const ExperimentConfig base = paper_scenario();
  const ExperimentConfig cfg = load("");
  EXPECT_EQ(cfg.cluster.num_nodes, base.cluster.num_nodes);
  EXPECT_EQ(cfg.manager, base.manager);
  EXPECT_EQ(cfg.training.value(), base.training.value());
  EXPECT_EQ(cfg.capping.steady_green_cycles,
            base.capping.steady_green_cycles);
}

TEST(ConfigLoader, ClusterSection) {
  const ExperimentConfig cfg = load(
      "[cluster]\n"
      "nodes = 48\n"
      "seed = 99\n"
      "tick_s = 0.5\n"
      "control_period_s = 2.0\n"
      "npb_class = C\n"
      "max_procs_per_node = 6\n"
      "privileged_fraction = 0.15\n");
  EXPECT_EQ(cfg.cluster.num_nodes, 48u);
  EXPECT_EQ(cfg.cluster.seed, 99u);
  EXPECT_DOUBLE_EQ(cfg.cluster.tick.value(), 0.5);
  EXPECT_DOUBLE_EQ(cfg.cluster.control_period.value(), 2.0);
  EXPECT_EQ(cfg.cluster.npb_class, workload::NpbClass::kC);
  EXPECT_EQ(cfg.cluster.scheduler.max_procs_per_node, 6);
  EXPECT_DOUBLE_EQ(cfg.cluster.privileged_job_fraction, 0.15);
}

// Regression: an absent npb_class fell back to a hard-coded class D, so
// any config applied to a class-C base silently switched it to class D.
TEST(ConfigLoader, AbsentNpbClassKeepsTheBaseClass) {
  const auto on_small = [](const std::string& text) {
    return apply_config(small_scenario(), common::Config::parse(text))
        .cluster.npb_class;
  };
  ASSERT_EQ(small_scenario().cluster.npb_class, workload::NpbClass::kC);
  EXPECT_EQ(on_small(""), workload::NpbClass::kC);
  EXPECT_EQ(on_small("[cluster]\nnodes = 8\n"), workload::NpbClass::kC);
  EXPECT_EQ(on_small("[cluster]\nnpb_class = D\n"), workload::NpbClass::kD);
  EXPECT_EQ(load("").cluster.npb_class, workload::NpbClass::kD);
}

TEST(ConfigLoader, ManagerSection) {
  const ExperimentConfig cfg = load(
      "[manager]\n"
      "policy = hri-c\n"
      "candidate_count = 32\n"
      "dynamic_candidates = true\n"
      "tg_cycles = 20\n"
      "red_margin = 0.05\n"
      "yellow_margin = 0.12\n"
      "thresholds_from_provision = true\n");
  EXPECT_EQ(cfg.manager, "hri-c");
  EXPECT_EQ(cfg.candidate_count, 32);
  EXPECT_TRUE(cfg.dynamic_candidates);
  EXPECT_EQ(cfg.capping.steady_green_cycles, 20);
  EXPECT_DOUBLE_EQ(cfg.red_margin, 0.05);
  EXPECT_DOUBLE_EQ(cfg.yellow_margin, 0.12);
  EXPECT_TRUE(cfg.thresholds_from_provision);
}

TEST(ConfigLoader, ExperimentSection) {
  const ExperimentConfig cfg = load(
      "[experiment]\n"
      "training_h = 1.5\n"
      "measured_h = 3\n"
      "provision_w = 30000\n");
  EXPECT_DOUBLE_EQ(cfg.training.value(), 1.5 * 3600.0);
  EXPECT_DOUBLE_EQ(cfg.measured.value(), 3 * 3600.0);
  EXPECT_DOUBLE_EQ(cfg.provision.value(), 30000.0);
}

TEST(ConfigLoader, TelemetrySection) {
  const ExperimentConfig cfg = load(
      "[telemetry]\n"
      "loss_rate = 0.2\n"
      "delay_cycles = 3\n");
  EXPECT_DOUBLE_EQ(cfg.transport.loss_rate, 0.2);
  EXPECT_EQ(cfg.transport.delay_cycles, 3);
}

TEST(ConfigLoader, ActuationSection) {
  const ExperimentConfig cfg = load(
      "[actuation]\n"
      "loss_rate = 0.1\n"
      "delay_cycles = 2\n"
      "failure_rate = 0.02\n"
      "partial_rate = 0.05\n"
      "reboot_rate = 0.001\n"
      "reboot_duration_cycles = 25\n"
      "max_retries = 4\n"
      "retry_backoff_cycles = 3\n"
      "retry_backoff_cap_cycles = 12\n");
  EXPECT_DOUBLE_EQ(cfg.actuation.command_loss_rate, 0.1);
  EXPECT_EQ(cfg.actuation.delivery_delay_cycles, 2);
  EXPECT_DOUBLE_EQ(cfg.actuation.transition_failure_rate, 0.02);
  EXPECT_DOUBLE_EQ(cfg.actuation.partial_transition_rate, 0.05);
  EXPECT_DOUBLE_EQ(cfg.actuation.reboot_rate, 0.001);
  EXPECT_EQ(cfg.actuation.reboot_duration_cycles, 25);
  EXPECT_EQ(cfg.reconciliation.max_retries, 4);
  EXPECT_EQ(cfg.reconciliation.retry_backoff_base_cycles, 3);
  EXPECT_EQ(cfg.reconciliation.retry_backoff_cap_cycles, 12);
}

// Fault-model knobs are validated at the key level: a stray NaN or
// negative would otherwise sail through into the params structs ([0,1]
// range checks pass NaN through every comparison).
TEST(ConfigLoader, NonFiniteFaultRateThrows) {
  EXPECT_THROW(load("[telemetry]\nloss_rate = nan\n"), std::runtime_error);
  EXPECT_THROW(load("[telemetry]\ncorruption_rate = inf\n"),
               std::runtime_error);
  EXPECT_THROW(load("[actuation]\nloss_rate = nan\n"), std::runtime_error);
  EXPECT_THROW(load("[actuation]\nreboot_rate = 1e999\n"),
               std::runtime_error);
}

TEST(ConfigLoader, NegativeFaultKnobThrows) {
  EXPECT_THROW(load("[telemetry]\nloss_rate = -0.1\n"), std::runtime_error);
  EXPECT_THROW(load("[telemetry]\ndelay_cycles = -1\n"), std::runtime_error);
  EXPECT_THROW(load("[telemetry]\nstale_margin = -0.5\n"),
               std::runtime_error);
  EXPECT_THROW(load("[actuation]\nfailure_rate = -0.1\n"),
               std::runtime_error);
  EXPECT_THROW(load("[actuation]\ndelay_cycles = -2\n"), std::runtime_error);
  EXPECT_THROW(load("[actuation]\nmax_retries = -1\n"), std::runtime_error);
}

// The [cluster] keys are checked at parse time too: a negative node
// count or a NaN period used to pass parsing and fail deep inside the run
// (a vector length error, a learner complaining about cycle counts) with
// a message that named no key.
TEST(ConfigLoader, RejectsMalformedClusterKeys) {
  const auto rejects = [](const std::string& key, const std::string& value) {
    try {
      load("[cluster]\n" + key + " = " + value + "\n");
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::strstr(e.what(), ("cluster." + key).c_str()), nullptr)
          << e.what();
      return;
    }
    ADD_FAILURE() << "cluster." << key << " = " << value << " was accepted";
  };
  rejects("nodes", "-3");
  rejects("nodes", "0");
  for (const char* key : {"tick_s", "control_period_s"}) {
    rejects(key, "nan");
    rejects(key, "inf");
    rejects(key, "0");
    rejects(key, "-1");
  }
  rejects("max_procs_per_node", "-1");
  for (const char* key : {"privileged_fraction", "idle_utilization",
                          "utilization_noise", "ramp_tau_s"}) {
    rejects(key, "nan");
    rejects(key, "inf");
    rejects(key, "-0.5");
  }
  // The boundary values stay accepted.
  const ExperimentConfig cfg =
      load("[cluster]\nnodes = 1\ntick_s = 0.5\ncontrol_period_s = 0.5\n"
           "max_procs_per_node = 0\nprivileged_fraction = 0\n"
           "idle_utilization = 0\nutilization_noise = 0\nramp_tau_s = 0\n");
  EXPECT_EQ(cfg.cluster.num_nodes, 1u);
  EXPECT_DOUBLE_EQ(cfg.cluster.tick.value(), 0.5);
  EXPECT_DOUBLE_EQ(cfg.cluster.control_period.value(), 0.5);
  EXPECT_EQ(cfg.cluster.scheduler.max_procs_per_node, 0);
  EXPECT_DOUBLE_EQ(cfg.cluster.utilization_ramp_tau_s, 0.0);
}

TEST(ConfigLoader, OutOfRangeRateStillCaughtByParamsValidate) {
  // checked_double only guards finiteness/sign; the params' own validate()
  // must still reject rates above 1.
  EXPECT_THROW(load("[actuation]\nloss_rate = 1.5\n"), std::invalid_argument);
}

TEST(ConfigLoader, UnknownKeyThrows) {
  EXPECT_THROW(load("[cluster]\nnoodles = 128\n"), std::runtime_error);
  EXPECT_THROW(load("typo = 1\n"), std::runtime_error);
  // The delta context plane's switch (`[context] incremental`) is gone: an
  // old config that still sets it must fail loudly, not be ignored.
  EXPECT_THROW(load("[context]\nincremental = on\n"), std::runtime_error);
}

TEST(ConfigLoader, BadNpbClassThrows) {
  EXPECT_THROW(load("[cluster]\nnpb_class = E\n"), std::runtime_error);
}

TEST(ConfigLoader, MissingFileThrows) {
  EXPECT_THROW(experiment_from_file("/no/such/file.ini"),
               std::runtime_error);
}

TEST(ConfigLoader, LoadedConfigRunsEndToEnd) {
  ExperimentConfig cfg = load(
      "[cluster]\n"
      "nodes = 12\n"
      "npb_class = C\n"
      "[manager]\n"
      "policy = mpc\n"
      "dynamic_candidates = true\n"
      "[experiment]\n"
      "training_h = 0.25\n"
      "measured_h = 0.5\n"
      "calibration_h = 0.25\n"
      "[telemetry]\n"
      "loss_rate = 0.1\n");
  const ExperimentResult r = run_experiment(cfg);
  EXPECT_EQ(r.manager, "mpc");
  EXPECT_GT(r.p_max, Watts{0.0});
}

TEST(ConfigLoader, ZonesSection) {
  const ExperimentConfig cfg = load(
      "[zones]\n"
      "count = 8\n"
      "assignment = STRIDE\n"
      "redistribution = Proportional\n");
  EXPECT_EQ(cfg.zone_count, 8);
  EXPECT_EQ(cfg.zone_assignment, "stride");
  EXPECT_EQ(cfg.zone_redistribution, "proportional");
}

TEST(ConfigLoader, ZonesValidation) {
  EXPECT_THROW(load("[zones]\ncount = 0\n"), std::runtime_error);
  EXPECT_THROW(load("[zones]\nassignment = diagonal\n"),
               std::invalid_argument);
  EXPECT_THROW(load("[zones]\nredistribution = greedy\n"),
               std::invalid_argument);
}

// zones.count goes through the checked_int guard like every other count:
// garbage and negatives die at the key, not deep inside the tree ctor.
TEST(ConfigLoader, ZoneCountRejectsGarbage) {
  EXPECT_THROW(load("[zones]\ncount = banana\n"), std::runtime_error);
  EXPECT_THROW(load("[zones]\ncount = -4\n"), std::runtime_error);
  EXPECT_THROW(load("[zones]\ncount = nan\n"), std::runtime_error);
}

TEST(ConfigLoader, ControlSection) {
  const ExperimentConfig cfg = load(
      "[control]\n"
      "outage_rate = 0.002\n"
      "outage_duration_cycles = 40\n"
      "zone_outage_rate = 0.003\n"
      "zone_outage_duration_cycles = 30\n"
      "delay_rate = 0.005\n"
      "delay_max_cycles = 3\n");
  EXPECT_DOUBLE_EQ(cfg.control.outage_rate, 0.002);
  EXPECT_EQ(cfg.control.outage_duration_cycles, 40);
  EXPECT_DOUBLE_EQ(cfg.control.zone_outage_rate, 0.003);
  EXPECT_EQ(cfg.control.zone_outage_duration_cycles, 30);
  EXPECT_DOUBLE_EQ(cfg.control.delay_rate, 0.005);
  EXPECT_EQ(cfg.control.delay_max_cycles, 3);
  EXPECT_TRUE(cfg.control.enabled());
}

TEST(ConfigLoader, WatchdogSection) {
  const ExperimentConfig cfg = load(
      "[watchdog]\n"
      "timeout_cycles = 8\n"
      "safe_level = 2\n");
  EXPECT_EQ(cfg.cluster.watchdog.timeout_cycles, 8);
  EXPECT_EQ(cfg.cluster.watchdog.safe_level, 2);
  EXPECT_TRUE(cfg.cluster.watchdog.enabled());
}

TEST(ConfigLoader, ControlAndWatchdogValidation) {
  EXPECT_THROW(load("[control]\noutage_rate = -0.1\n"), std::runtime_error);
  EXPECT_THROW(load("[control]\noutage_rate = nan\n"), std::runtime_error);
  EXPECT_THROW(load("[control]\noutage_rate = 1.5\n"),
               std::invalid_argument);
  EXPECT_THROW(load("[control]\noutage_duration_cycles = 0\n"),
               std::invalid_argument);
  EXPECT_THROW(load("[control]\nblackout = 1\n"), std::runtime_error);
  EXPECT_THROW(load("[watchdog]\ntimeout_cycles = -1\n"),
               std::runtime_error);
  EXPECT_THROW(load("[watchdog]\ntimeout_cycles = banana\n"),
               std::runtime_error);
}

// Each fault INI under examples/configs is the same run as its scenario
// builder: the sweep-engine tables (pcapsweep --config <ini>) stand in for
// the builder-driven fault examples, so the two must agree bit for bit.
void expect_same_run(const char* ini, const ExperimentConfig& builder) {
  SCOPED_TRACE(ini);
  const ExperimentConfig loaded = experiment_from_file(
      std::string(PCAP_SOURCE_DIR) + "/examples/configs/" + ini);
  const ExperimentResult a = run_experiment(loaded);
  const ExperimentResult b = run_experiment(builder);
  const auto bits = [](double x) {
    std::uint64_t u = 0;
    std::memcpy(&u, &x, sizeof(u));
    return u;
  };
  EXPECT_EQ(a.candidate_count, b.candidate_count);
  EXPECT_EQ(bits(a.provision.value()), bits(b.provision.value()));
  EXPECT_EQ(bits(a.p_max.value()), bits(b.p_max.value()));
  EXPECT_EQ(bits(a.delta_pxt), bits(b.delta_pxt));
  EXPECT_EQ(bits(a.perf.performance), bits(b.perf.performance));
  EXPECT_EQ(a.green_cycles, b.green_cycles);
  EXPECT_EQ(a.yellow_cycles, b.yellow_cycles);
  EXPECT_EQ(a.red_cycles, b.red_cycles);
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_FALSE(a.counters.empty());
}

TEST(ConfigLoader, FaultInisReproduceTheirScenarioBuilders) {
  expect_same_run("faulty_telemetry.ini", faulty_telemetry_scenario(23));
  expect_same_run("lossy_actuation.ini", lossy_actuation_scenario(31));
  expect_same_run("controller_outage.ini", controller_outage_scenario(47));
}

}  // namespace
}  // namespace pcap::cluster
