// One experiment sweep engine: a base INI, a seed list and rows of
// `section.key=value` overrides.
//
// Every figure-style experiment in this repo has the same shape: run a few
// variants of one configuration over several seeds, average each metric,
// and compare against the unmanaged (`manager.policy=none`) run. A row is
// a comma-separated override list applied on top of the base config
// through apply_config, so unknown keys are rejected exactly as in an INI
// file. The provision is calibrated once from the base (the facility's
// budget, not a property of the policy under test) and every (row x seed)
// run goes through one ThreadPool::parallel_for; results are independent
// of the worker count.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cluster/experiment.hpp"
#include "common/config.hpp"
#include "common/thread_pool.hpp"

namespace pcap::cluster {

/// Mean and 95 % Student-t confidence half-width of one metric over seeds.
struct Estimate {
  double mean = 0.0;
  double half_width = 0.0;  ///< 0 with fewer than two samples
  std::size_t n = 0;
};

/// Two-sided 95 % Student-t quantile t_{0.975, df}, df >= 1.
double student_t95(std::size_t df);

/// The mean is accumulated as Σ x_i / n in input (seed) order.
Estimate estimate(const std::vector<double>& xs);

struct RowSummary {
  std::string label;   ///< the row's override text ("none" for the reference)
  Estimate perf;       ///< Performance(cap)
  Estimate cplj;       ///< lossless (CPLJ) fraction
  Estimate p_max;      ///< watts
  Estimate delta_pxt;
  Estimate yellow_s;   ///< seconds in the yellow band
  Estimate red_s;
  Estimate utilization;  ///< mean manager utilisation (fraction)
  std::map<std::string, Estimate> counters;  ///< measured-window deltas
};

struct SweepSpec {
  common::Config base;               ///< applied on top of paper_scenario()
  std::vector<std::uint64_t> seeds;  ///< empty: the base's cluster.seed
  std::vector<std::string> rows;     ///< "a.b=v,c.d=w" override lists
};

struct SweepResult {
  Watts peak{0.0};       ///< uncapped probe peak; 0 when provision_w is set
  Watts provision{0.0};  ///< the base P_Max
  std::vector<std::uint64_t> seeds;
  /// The manager.policy=none run of the same base and seeds, or nullopt
  /// with `none_error` set when the base admits no unmanaged run (e.g.
  /// zones or control faults require a capping manager).
  std::optional<RowSummary> none;
  std::string none_error;
  std::vector<RowSummary> rows;
};

/// Merges one row's overrides into `cfg`: each comma-separated entry is
/// parsed as one INI line, so a malformed entry throws std::runtime_error
/// naming its position as the line number.
void apply_overrides(common::Config& cfg, std::string row);

/// Parses "42,1234,777"; throws std::runtime_error on a bad entry.
std::vector<std::uint64_t> parse_seeds(const std::string& text);

/// Builds every row's config first (so a bad key throws before any run),
/// calibrates the provision, then runs all (row x seed) experiments.
SweepResult run_sweep(const SweepSpec& spec, common::ThreadPool& pool);

/// The metrics table (mean +- half-width, plus P_max and dPxT relative to
/// none) and a second table of every counter non-zero in some row.
std::string format_sweep(const SweepResult& result);

}  // namespace pcap::cluster
