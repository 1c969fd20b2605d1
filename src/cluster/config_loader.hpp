// Builds experiment configurations from INI-style config files, so runs
// can be described declaratively (see examples/configs/*.ini and the
// pcapsim driver).
//
// Recognised keys (all optional; defaults come from paper_scenario()):
//
//   [cluster]
//   nodes = 128                 node count (homogeneous Tianhe boards)
//   seed = 42
//   tick_s = 1.0                simulation step
//   control_period_s = 4.0      manager cycle
//   npb_class = D               C or D
//   max_procs_per_node = 3      rank placement width
//   privileged_fraction = 0.0   fraction of jobs marked privileged
//   idle_utilization = 0.02
//   utilization_noise = 0.02
//   ramp_tau_s = 45
//
//   [manager]
//   policy = mpc                none|mpc|mpc-c|lpc|lpc-c|bfp|hri|hri-c|
//                               uniform|sla|feedback
//   candidate_count = -1        -1 = all controllable nodes
//   dynamic_candidates = false  use the §III.A selection algorithm
//   tg_cycles = 10              steady-green timer T_g
//   red_margin = 0.07
//   yellow_margin = 0.16
//   adjust_period_cycles = 3600 t_p
//   thresholds_from_provision = false  derive P_L/P_H from the provision
//   feedback_gain = 1.0
//
//   [experiment]
//   training_h = 4
//   measured_h = 12
//   calibration_h = 2
//   provision_w = 0             explicit P_Max (0 = calibrate)
//   provision_fraction = 0.84   calibration factor
//
//   [telemetry]
//   loss_rate = 0.0             agent-report loss probability
//   delay_cycles = 0            agent-report delivery delay
//   agent_dropout_rate = 0.0    per-cycle P(healthy agent stops reporting)
//   agent_recovery_rate = 0.25  per-cycle P(down agent restarts)
//   crash_rate = 0.0            per-cycle P(node crashes)
//   crash_duration_cycles = 60  length of a crash window
//   corruption_rate = 0.0       P(delivered report has a garbage power)
//   max_sample_age_cycles = 5   older views are stale (fallback estimate)
//   stale_margin = 0.10         stale power = last known × (1 + margin)
#pragma once

#include <string>

#include "cluster/experiment.hpp"
#include "common/config.hpp"

namespace pcap::cluster {

/// Applies config keys on top of `base` (typically paper_scenario()).
/// Unknown keys are rejected with std::runtime_error so typos do not
/// silently produce default-valued experiments.
ExperimentConfig apply_config(ExperimentConfig base,
                              const common::Config& cfg);

/// Convenience: paper_scenario() + apply_config(load_file(path)).
ExperimentConfig experiment_from_file(const std::string& path);

}  // namespace pcap::cluster
