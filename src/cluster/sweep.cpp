#include "cluster/sweep.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <set>
#include <stdexcept>

#include "cluster/config_loader.hpp"
#include "cluster/scenario.hpp"
#include "common/string_util.hpp"
#include "metrics/report.hpp"

namespace pcap::cluster {

namespace {

RowSummary summarize(std::string label, Seconds tick,
                     const ExperimentResult* runs, std::size_t n) {
  const auto over = [&](const auto& metric) {
    std::vector<double> xs;
    for (std::size_t i = 0; i < n; ++i) xs.push_back(metric(runs[i]));
    return estimate(xs);
  };
  RowSummary s;
  s.label = std::move(label);
  s.perf = over([](const ExperimentResult& r) { return r.perf.performance; });
  s.cplj = over(
      [](const ExperimentResult& r) { return r.perf.lossless_fraction; });
  s.p_max = over([](const ExperimentResult& r) { return r.p_max.value(); });
  s.delta_pxt = over([](const ExperimentResult& r) { return r.delta_pxt; });
  // The recorder counts ticks, so a band's seconds are its count x tick.
  s.yellow_s = over([tick](const ExperimentResult& r) {
    return static_cast<double>(r.yellow_cycles) * tick.value();
  });
  s.red_s = over([tick](const ExperimentResult& r) {
    return static_cast<double>(r.red_cycles) * tick.value();
  });
  s.utilization = over(
      [](const ExperimentResult& r) { return r.mean_manager_utilization; });
  // Seeds do not change which series a configuration registers.
  for (const auto& [key, value] : runs[0].counters) {
    s.counters[key] = over([&key = key](const ExperimentResult& r) {
      return static_cast<double>(r.counter(key));
    });
  }
  return s;
}

std::string cell(const Estimate& e, int precision, double scale = 1.0) {
  if (e.n < 2) return common::strprintf("%.*f", precision, e.mean * scale);
  return common::strprintf("%.*f +- %.*f", precision, e.mean * scale,
                           precision, e.half_width * scale);
}

/// Relative change of a row mean against the none mean, in percent.
std::string versus(const std::optional<RowSummary>& none,
                   Estimate RowSummary::*metric, const RowSummary& row) {
  if (!none || ((*none).*metric).mean <= 0.0) return "n/a";
  return common::strprintf(
      "%.2f", ((row.*metric).mean / ((*none).*metric).mean - 1.0) * 100.0);
}

}  // namespace

double student_t95(std::size_t df) {
  static const double kTable[] = {
      12.706204736, 4.302652730, 3.182446305, 2.776445105, 2.570581836,
      2.446911851,  2.364624252, 2.306004135, 2.262157163, 2.228138852,
      2.200985160,  2.178812830, 2.160368656, 2.144786688, 2.131449546,
      2.119905299,  2.109815578, 2.100922040, 2.093024054, 2.085963447,
      2.079613845,  2.073873068, 2.068657610, 2.063898562, 2.059538553,
      2.055529439,  2.051830516, 2.048407142, 2.045229642, 2.042272456};
  if (df == 0) throw std::invalid_argument("student_t95: df must be >= 1");
  if (df <= 30) return kTable[df - 1];
  // Cornish-Fisher expansion around the normal quantile; within 1e-5 of
  // the exact value beyond df = 30.
  const double z = 1.959963984540054;
  const double v = static_cast<double>(df);
  const double z3 = z * z * z;
  const double z5 = z3 * z * z;
  const double z7 = z5 * z * z;
  return z + (z3 + z) / (4.0 * v) +
         (5.0 * z5 + 16.0 * z3 + 3.0 * z) / (96.0 * v * v) +
         (3.0 * z7 + 19.0 * z5 + 17.0 * z3 - 15.0 * z) / (384.0 * v * v * v);
}

Estimate estimate(const std::vector<double>& xs) {
  Estimate e;
  e.n = xs.size();
  if (xs.empty()) return e;
  const double n = static_cast<double>(xs.size());
  for (const double x : xs) e.mean += x / n;
  if (xs.size() < 2) return e;
  double ss = 0.0;
  for (const double x : xs) ss += (x - e.mean) * (x - e.mean);
  e.half_width =
      student_t95(xs.size() - 1) * std::sqrt(ss / (n - 1.0)) / std::sqrt(n);
  return e;
}

void apply_overrides(common::Config& cfg, std::string row) {
  std::replace(row.begin(), row.end(), ',', '\n');
  cfg.merge(common::Config::parse(row));
}

std::vector<std::uint64_t> parse_seeds(const std::string& text) {
  std::vector<std::uint64_t> seeds;
  for (const std::string& item : common::split(text, ',')) {
    const std::string s(common::trim(item));
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (s.empty() || s.front() == '-' || *end != '\0' || errno != 0) {
      throw std::runtime_error("sweep: bad seed '" + s + "'");
    }
    seeds.push_back(v);
  }
  return seeds;
}

SweepResult run_sweep(const SweepSpec& spec, common::ThreadPool& pool) {
  std::vector<std::string> labels = {"none"};
  labels.insert(labels.end(), spec.rows.begin(), spec.rows.end());
  std::vector<ExperimentConfig> configs;
  for (std::size_t r = 0; r < labels.size(); ++r) {
    common::Config c = spec.base;
    apply_overrides(c, r == 0 ? "manager.policy=none" : labels[r]);
    configs.push_back(apply_config(paper_scenario(), c));
  }

  const ExperimentConfig base = apply_config(paper_scenario(), spec.base);
  SweepResult out;
  out.seeds = spec.seeds;
  if (out.seeds.empty()) out.seeds = {base.cluster.seed};
  out.provision = base.provision;
  if (out.provision <= Watts{0.0}) {
    out.peak = probe_uncapped_peak(base.cluster, base.calibration_duration);
    out.provision = out.peak * base.provision_fraction;
  }
  for (ExperimentConfig& c : configs) {
    if (c.provision <= Watts{0.0}) c.provision = out.peak * c.provision_fraction;
  }

  const std::size_t n = out.seeds.size();
  std::vector<ExperimentResult> results(configs.size() * n);
  std::vector<std::string> none_errors(n);
  pool.parallel_for(results.size(), [&](std::size_t i) {
    ExperimentConfig c = configs[i / n];
    c.cluster.seed = out.seeds[i % n];
    if (i >= n) {
      results[i] = run_experiment(c);
      return;
    }
    try {
      results[i] = run_experiment(c);
    } catch (const std::invalid_argument& e) {
      none_errors[i] = e.what();
    }
  });

  for (const std::string& e : none_errors) {
    if (!e.empty()) out.none_error = e;
  }
  if (out.none_error.empty()) {
    out.none = summarize("none", configs[0].cluster.tick, results.data(), n);
  }
  for (std::size_t r = 1; r < configs.size(); ++r) {
    out.rows.push_back(summarize(labels[r], configs[r].cluster.tick,
                                 results.data() + r * n, n));
  }
  return out;
}

std::string format_sweep(const SweepResult& result) {
  std::vector<std::string> seeds;
  for (const std::uint64_t s : result.seeds) seeds.push_back(std::to_string(s));
  std::string out = common::strprintf(
      "seeds %s; P_Max = %.0f W", common::join(seeds, ",").c_str(),
      result.provision.value());
  if (result.peak > Watts{0.0}) {
    out += common::strprintf(" (uncapped probe peak %.0f W)",
                             result.peak.value());
  }
  out += "\n";
  if (!result.none) out += "no none reference: " + result.none_error + "\n";
  out += "\n";

  // Rows are numbered [1]..[N]; the counter table's columns use the same
  // names.
  std::vector<const RowSummary*> all;
  std::vector<std::string> names;
  if (result.none) {
    all.push_back(&*result.none);
    names.emplace_back("none");
  }
  for (const RowSummary& r : result.rows) {
    all.push_back(&r);
    names.push_back(common::strprintf("[%zu]", names.size() + !result.none));
  }

  metrics::Table table({"row", "perf", "CPLJ (%)", "P_max (W)",
                        "P_max vs none (%)", "dPxT", "dPxT vs none (%)",
                        "yellow (s)", "red (s)", "mgr util (%)"});
  for (std::size_t i = 0; i < all.size(); ++i) {
    const RowSummary& r = *all[i];
    table.cell(result.none && i == 0 ? names[i] : names[i] + " " + r.label)
        .cell(cell(r.perf, 4))
        .cell(cell(r.cplj, 2, 100.0))
        .cell(cell(r.p_max, 0))
        .cell(versus(result.none, &RowSummary::p_max, r))
        .cell(cell(r.delta_pxt, 5))
        .cell(versus(result.none, &RowSummary::delta_pxt, r))
        .cell(cell(r.yellow_s, 1))
        .cell(cell(r.red_s, 1))
        .cell(cell(r.utilization, 3, 100.0));
    table.end_row();
  }
  out += table.to_string();

  std::set<std::string> keys;
  for (const RowSummary* r : all) {
    for (const auto& [key, e] : r->counters) {
      if (e.mean != 0.0) keys.insert(key);
    }
  }
  if (keys.empty()) return out;
  std::vector<std::string> header = {"counter (measured window)"};
  header.insert(header.end(), names.begin(), names.end());
  metrics::Table counters(header);
  for (const std::string& key : keys) {
    counters.cell(key);
    for (const RowSummary* r : all) {
      const auto it = r->counters.find(key);
      counters.cell(it == r->counters.end() ? 0.0 : it->second.mean,
                    result.seeds.size() > 1 ? 1 : 0);
    }
    counters.end_row();
  }
  return out + "\n" + counters.to_string();
}

}  // namespace pcap::cluster
