// End-to-end benchmark for the power capping simulator.
//
//   e2ebench --workload paper_fig7|scale_131k|faults_8k --seed N
//            --seconds S --traced 0|1
//
// One process runs one workload, so its peak RSS belongs to that workload.
// Experiments run one after another on this thread; the only other threads
// are the cluster's own pool (clusters of >= 2048 nodes). Every experiment
// is driven step by step through the public API — calibration probe,
// Cluster constructor, make_manager + set_manager, Cluster::run one control
// period at a time, then the metrics:: extraction calls — with the
// benchmark's own timers around each call and a forwarding wrapper timing
// every PowerManagerBase::cycle.
//
// --traced 0 runs with ClusterConfig::obs_timing off and reports the
// end-to-end metrics. --traced 1 turns the program's span timers on and
// additionally reports the per-layer ledger, read from the registry
// (counters and pcap_cycle_phase_seconds spans) after each experiment.
//
// The last line of stdout is one JSON object: metrics, failure accounting,
// the simulated-state digest and the host facts run.py prints. See
// README.md in this directory for the workloads and the metric map.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/experiment.hpp"
#include "cluster/scenario.hpp"
#include "common/logging.hpp"
#include "metrics/power_metrics.hpp"

namespace {

using namespace pcap;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// FNV-1a (64-bit) over the simulated state an experiment produced.
class Digest {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double x) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    u64(bits);
  }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// What the cycle wrapper saw. Samples are floats and the run-long record
/// is a deque: a sweep records millions of cycles, and the ledger should not
/// dominate the run's peak RSS.
struct CycleLedger {
  std::deque<float> cycle_s;      ///< wall time of every cycle in the run
  std::vector<float> deciding_s;  ///< this experiment's yellow and red cycles
                                  ///< after training
  std::uint64_t deciding = 0;     ///< deciding cycles in the run
  double total_s = 0.0;
  std::uint64_t red = 0;
  std::uint64_t targets = 0;
  std::uint64_t transitions = 0;
};

/// Forwards every PowerManagerBase call to the manager make_manager built
/// and times cycle() with the benchmark's own clock.
class TimedManager final : public power::PowerManagerBase {
 public:
  TimedManager(std::unique_ptr<power::PowerManagerBase> inner,
               CycleLedger& ledger)
      : inner_(std::move(inner)), ledger_(ledger) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }

  power::ManagerReport cycle(Watts measured, std::vector<hw::Node>& nodes,
                             const sched::Scheduler& scheduler,
                             Seconds now) override {
    const auto t0 = Clock::now();
    power::ManagerReport r = inner_->cycle(measured, nodes, scheduler, now);
    const double dt = since(t0);
    ledger_.cycle_s.push_back(static_cast<float>(dt));
    ledger_.total_s += dt;
    // A training cycle classifies against unlearnt thresholds but decides
    // nothing (the system runs unmanaged until the learner is done).
    if (!r.training && r.state != power::PowerState::kGreen) {
      ledger_.deciding_s.push_back(static_cast<float>(dt));
      ++ledger_.deciding;
      if (r.state == power::PowerState::kRed) ++ledger_.red;
    }
    ledger_.targets += r.targets;
    ledger_.transitions += r.transitions;
    return r;
  }

  void set_thread_pool(common::ThreadPool* pool) override {
    inner_->set_thread_pool(pool);
  }
  void bind_metrics(obs::Registry& reg) override { inner_->bind_metrics(reg); }
  void set_watchdog(hw::FailsafeWatchdog* wd) override {
    inner_->set_watchdog(wd);
  }

 private:
  std::unique_ptr<power::PowerManagerBase> inner_;
  CycleLedger& ledger_;
};

/// One set-up unit: the calls that build what a measurement runs on.
struct SetupUnit {
  double calibrate_s = 0.0;
  double cluster_ctor_s = 0.0;
  double manager_ctor_s = 0.0;
  [[nodiscard]] double total() const {
    return calibrate_s + cluster_ctor_s + manager_ctor_s;
  }
  void add(const SetupUnit& o) {
    calibrate_s += o.calibrate_s;
    cluster_ctor_s += o.cluster_ctor_s;
    manager_ctor_s += o.manager_ctor_s;
  }
};

/// Registry reads summed over the run's experiments (traced runs only for
/// the spans; counters are live either way).
struct RegistryLedger {
  std::map<std::string, double> span_s;
  std::map<std::string, std::uint64_t> span_n;
  std::map<std::string, std::uint64_t> counters;
  std::uint64_t zone_active_cycles = 0;
  std::uint64_t zone_cycle_slots = 0;  ///< Z x cycles
};

struct RunLedger {
  std::vector<SetupUnit> setups;  ///< what setup_s takes the median of
  double sim_s = 0.0;     ///< simulated training + measured seconds
  double run_s = 0.0;     ///< wall seconds inside Cluster::run
  double report_s = 0.0;  ///< wall seconds in metrics extraction
  CycleLedger cycles;
  RegistryLedger reg;
  std::size_t pool_threads = 0;
};

/// The measured-window results the invariants and the reference check
/// compare, plus how the experiment was set up.
struct Outcome {
  Watts provision{0.0};
  SetupUnit setup;  ///< cluster and manager construction
  double p_max = 0.0;
  double mean_power = 0.0;
  double energy = 0.0;
  double delta_pxt = 0.0;
  metrics::PerformanceSummary perf;
  std::size_t green = 0;
  std::size_t yellow = 0;
  std::size_t red = 0;
};

const char* const kSpanPhases[] = {"node_sweep", "jobs",   "launch", "collect",
                                   "context",    "policy", "actuate"};
const char* const kCounters[] = {
    "pcap_cluster_ticks_total",
    "pcap_cluster_node_refreshes_total",
    "pcap_cluster_jobs_finished_total",
    "pcap_sim_events_total",
    "pcap_telemetry_samples_suppressed_total",
    "pcap_telemetry_samples_lost_total",
    "pcap_manager_stale_node_cycles_total",
    "pcap_manager_acks_total",
    "pcap_manager_retries_total",
    "pcap_manager_heals_total",
    "pcap_manager_divergences_total",
    "pcap_ctrl_outage_cycles_total",
    "pcap_watchdog_adoptions_total",
};

void read_registry(const obs::Registry& reg, std::uint64_t cycles,
                   RegistryLedger& out) {
  for (const char* phase : kSpanPhases) {
    const auto h = reg.find_histogram(
        obs::series_key("pcap_cycle_phase_seconds",
                        std::string("phase=\"") + phase + "\""));
    if (!h) continue;
    out.span_s[phase] += reg.sum(*h);
    out.span_n[phase] += reg.count(*h);
  }
  for (const char* key : kCounters) {
    out.counters[key] += reg.counter_value(key).value_or(0);
  }
  for (std::size_t z = 0;; ++z) {
    const auto v = reg.counter_value(obs::series_key(
        "pcap_zone_active_cycles_total",
        "zone=\"" + std::to_string(z) + "\""));
    if (!v) break;
    out.zone_active_cycles += *v;
    out.zone_cycle_slots += cycles;
  }
}

void run_for(cluster::Cluster& cl, Seconds duration, RunLedger& led) {
  const double period = cl.config().control_period.value();
  const auto periods = std::llround(duration.value() / period);
  if (std::abs(static_cast<double>(periods) * period - duration.value()) >
      1e-9) {
    throw std::invalid_argument("duration is not a whole number of periods");
  }
  const auto t0 = Clock::now();
  for (long long i = 0; i < periods; ++i) cl.run(Seconds{period});
  led.run_s += since(t0);
  led.sim_s += duration.value();
}

/// Drives one experiment exactly as run_experiment does, timing each call.
/// `provision` <= 0 means administrator mode: the provision is
/// `provision_of_peak` x Cluster::theoretical_peak().
Outcome drive(const cluster::ExperimentConfig& cfg, Watts provision,
              double provision_of_peak, RunLedger& led, Digest& digest) {
  Outcome o;
  auto t0 = Clock::now();
  cluster::Cluster cl(cfg.cluster);
  o.setup.cluster_ctor_s = since(t0);
  t0 = Clock::now();
  if (provision <= Watts{0.0}) {
    provision = cl.theoretical_peak() * provision_of_peak;
  }
  std::vector<hw::NodeId> candidates = cl.controllable_nodes();
  if (cfg.candidate_count >= 0 &&
      static_cast<std::size_t>(cfg.candidate_count) < candidates.size()) {
    candidates.resize(static_cast<std::size_t>(cfg.candidate_count));
  }
  auto mgr = cluster::make_manager(cfg, cfg.cluster, provision, candidates);
  cl.set_manager(std::make_unique<TimedManager>(std::move(mgr), led.cycles));
  o.setup.manager_ctor_s = since(t0);
  o.provision = provision;
  led.pool_threads = cl.thread_pool() ? cl.thread_pool()->thread_count() : 0;
  const std::size_t cycles_before = led.cycles.cycle_s.size();
  led.cycles.deciding_s.clear();

  if (cfg.training > Seconds{0.0}) run_for(cl, cfg.training, led);
  cl.start_recording();
  run_for(cl, cfg.measured, led);

  t0 = Clock::now();
  const metrics::PowerTrace trace = cl.recorder().power_trace();
  o.p_max = metrics::peak_power(trace).value();
  o.mean_power = metrics::mean_power(trace).value();
  o.energy = metrics::total_energy(trace).value();
  o.delta_pxt = metrics::accumulated_overspend(trace, provision);
  o.perf = metrics::summarize_performance(cl.finished_records());
  o.green = cl.recorder().state_count(0);
  o.yellow = cl.recorder().state_count(1);
  o.red = cl.recorder().state_count(2);
  const std::string prom = cl.metrics().prometheus_text();
  led.report_s += since(t0);
  if (prom.empty()) throw std::runtime_error("empty Prometheus export");

  for (double w : trace.watts) digest.f64(w);
  for (const auto& p : cl.recorder().points()) digest.u64(p.state);
  for (const auto& j : cl.finished_records()) {
    digest.u64(j.id);
    digest.str(j.app);
    digest.u64(static_cast<std::uint64_t>(j.nprocs));
    digest.f64(j.baseline_s);
    digest.f64(j.actual_s);
    digest.f64(j.energy_j);
  }
  read_registry(cl.metrics(), led.cycles.cycle_s.size() - cycles_before,
                led.reg);
  return o;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// The step-by-step drive must reproduce run_experiment bit for bit.
std::vector<std::string> reference_mismatches(
    const cluster::ExperimentConfig& cfg, const Outcome& o) {
  cluster::ExperimentConfig ref_cfg = cfg;
  ref_cfg.provision = o.provision;
  const cluster::ExperimentResult r = cluster::run_experiment(ref_cfg);
  std::vector<std::string> bad;
  if (!same_bits(r.p_max.value(), o.p_max)) bad.emplace_back("P_max");
  if (!same_bits(r.delta_pxt, o.delta_pxt)) bad.emplace_back("dPxT");
  if (!same_bits(r.perf.performance, o.perf.performance)) {
    bad.emplace_back("Performance(cap)");
  }
  if (r.green_cycles != o.green || r.yellow_cycles != o.yellow ||
      r.red_cycles != o.red) {
    bad.emplace_back("band counts");
  }
  return bad;
}

std::vector<std::string> invariant_failures(const Outcome& o) {
  std::vector<std::string> bad;
  for (double v : {o.p_max, o.mean_power, o.energy, o.delta_pxt,
                   o.perf.performance, o.perf.lossless_fraction}) {
    if (!std::isfinite(v)) {
      bad.emplace_back("non-finite metric");
      break;
    }
  }
  if (o.perf.finished_jobs == 0) bad.emplace_back("no finished jobs");
  if (o.green + o.yellow + o.red == 0) bad.emplace_back("no recorded cycles");
  return bad;
}

/// Nearest-rank percentile of a sorted sample.
template <class Sorted>
double percentile(const Sorted& sorted, double p) {
  if (sorted.empty()) return std::nan("");
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

/// The highest of a fixed ladder of percentiles that still leaves at least
/// ten samples above it.
double tail_percentile(std::size_t n) {
  double best = 50.0;
  for (double p : {90.0, 95.0, 99.0, 99.9, 99.99}) {
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0) best = p;
  }
  return best;
}

/// One experiment's timings. Experiments of one group (the same manager on
/// the same scenario, differing only in seed) repeat the same shape of work,
/// so the best of them is the run's estimate: interference from the rest of
/// the host only ever adds time, and on a shared host it comes in bursts.
struct UnitTiming {
  std::string group;
  double sim_s = 0.0;
  double wall_s = 0.0;
  std::vector<float> deciding_s;  ///< sorted
};

// -- run state ---------------------------------------------------------------

struct Run {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool traced = false;

  RunLedger led;
  Digest digest;
  std::vector<std::uint64_t> seeds;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool reference_checked = false;
  std::vector<UnitTiming> units;
  std::map<std::string, std::pair<double, std::string>> metrics;
  /// Figure-7 fidelity; only paper_fig7 runs the sweep (0 elsewhere).
  double fig7_err_pp = 0.0;

  /// Runs one experiment with failure accounting; the first experiment of
  /// the run is also replayed through run_experiment.
  std::optional<Outcome> experiment(const std::string& label,
                                    const cluster::ExperimentConfig& cfg,
                                    Watts provision,
                                    double provision_of_peak) {
    ++attempted;
    try {
      const double sim0 = led.sim_s;
      const double wall0 = led.run_s + led.report_s;
      const Outcome o = drive(cfg, provision, provision_of_peak, led, digest);
      std::vector<std::string> bad = invariant_failures(o);
      if (!reference_checked) {
        reference_checked = true;
        const auto ref = reference_mismatches(cfg, o);
        for (const auto& m : ref) bad.push_back("run_experiment differs on " + m);
        std::printf("  reference: step-by-step drive %s run_experiment\n",
                    ref.empty() ? "reproduces" : "DIFFERS FROM");
      }
      UnitTiming& u = units.emplace_back(
          UnitTiming{cfg.manager, led.sim_s - sim0,
                     led.run_s + led.report_s - wall0, led.cycles.deciding_s});
      std::sort(u.deciding_s.begin(), u.deciding_s.end());
      std::printf("  %-22s P_max %.0f W  dPxT %.5f  perf %.4f  jobs %zu  "
                  "g/y/r %zu/%zu/%zu  %.0f sim-s/s  decide p50 %.2f us "
                  "of %zu\n",
                  label.c_str(), o.p_max, o.delta_pxt, o.perf.performance,
                  o.perf.finished_jobs, o.green, o.yellow, o.red,
                  u.sim_s / u.wall_s, percentile(u.deciding_s, 50.0) * 1e6,
                  u.deciding_s.size());
      if (!bad.empty()) {
        for (const auto& m : bad) {
          std::printf("  FAILED %s: %s\n", label.c_str(), m.c_str());
        }
        ++failed;
      }
      return o;
    } catch (const std::exception& e) {
      std::printf("  FAILED %s: %s\n", label.c_str(), e.what());
      ++failed;
      return std::nullopt;
    }
  }

  void fail_check(const std::string& what) {
    std::printf("  FAILED check: %s\n", what.c_str());
    ++failed;
  }

  void put(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
};

std::size_t units_for(double seconds, double seconds_per_unit,
                      std::size_t at_least) {
  return std::max<std::size_t>(
      at_least,
      static_cast<std::size_t>(std::llround(seconds / seconds_per_unit)));
}

// -- workloads ---------------------------------------------------------------

/// Paper headline numbers (§V.D): performance loss, P_max reduction and
/// ΔP×T reduction for MPC and HRI, in percent.
struct Headline {
  double perf_loss = 0.0;
  double pmax_reduction = 0.0;
  double dpxt_reduction = 0.0;
};

void paper_fig7(Run& run) {
  // One seed's sweep (calibration + 7 experiments of 16 simulated hours)
  // costs about 1.3 s on a 4-core x86-64 host.
  const std::size_t n_seeds = units_for(run.seconds, 1.4, 2);
  const std::vector<std::string> policies = {"mpc",   "hri",  "mpc-c", "hri-c",
                                             "pi-c",  "pred-c", "none"};
  std::map<std::string, std::vector<Outcome>> by_policy;
  std::uint64_t state = run.seed;
  for (std::size_t s = 0; s < n_seeds; ++s) {
    const std::uint64_t seed = splitmix64(state) & 0xffffffffull;
    run.seeds.push_back(seed);
    cluster::ExperimentConfig base = cluster::paper_scenario(seed);
    base.cluster.obs_timing = run.traced;

    // The calibration probe and the seven constructions form one set-up
    // unit.
    SetupUnit unit;
    const auto t0 = Clock::now();
    const Watts peak = cluster::probe_uncapped_peak(
        base.cluster, base.calibration_duration);
    unit.calibrate_s = since(t0);
    const Watts provision = peak * base.provision_fraction;
    std::printf("seed %llu: provision %.0f W\n",
                static_cast<unsigned long long>(seed), provision.value());

    std::map<std::string, Outcome> results;
    for (const auto& policy : policies) {
      cluster::ExperimentConfig cfg = base;
      cfg.manager = policy;
      const auto o = run.experiment(policy + " seed " + std::to_string(seed),
                                    cfg, provision, 0.0);
      if (!o) continue;
      unit.add(o->setup);
      results[policy] = *o;
    }
    run.led.setups.push_back(unit);

    const auto none = results.find("none");
    for (const auto& [policy, o] : results) {
      by_policy[policy].push_back(o);
      if (policy == "none" || none == results.end()) continue;
      if (o.delta_pxt > none->second.delta_pxt) {
        run.fail_check(policy + " dPxT above uncapped on seed " +
                       std::to_string(seed));
      }
      if (o.p_max > none->second.p_max) {
        run.fail_check(policy + " P_max above uncapped on seed " +
                       std::to_string(seed));
      }
    }
  }

  // fig7_err_pp: mean |ours - paper| over the six headline numbers, from
  // seed-averaged results as bench_fig7_policies reports them.
  const auto mean_of = [&](const std::string& policy, auto field) {
    const auto& v = by_policy[policy];
    double sum = 0.0;
    for (const auto& o : v) sum += field(o);
    return v.empty() ? std::nan("") : sum / static_cast<double>(v.size());
  };
  const auto perf = [](const Outcome& o) { return o.perf.performance; };
  const auto pmax = [](const Outcome& o) { return o.p_max; };
  const auto dpxt = [](const Outcome& o) { return o.delta_pxt; };
  const double none_pmax = mean_of("none", pmax);
  const double none_dpxt = mean_of("none", dpxt);
  const auto headline = [&](const std::string& policy) {
    return Headline{(1.0 - mean_of(policy, perf)) * 100.0,
                    (1.0 - mean_of(policy, pmax) / none_pmax) * 100.0,
                    (1.0 - mean_of(policy, dpxt) / none_dpxt) * 100.0};
  };
  const Headline mpc = headline("mpc");
  const Headline hri = headline("hri");
  const double err =
      (std::abs(mpc.perf_loss - 2.0) + std::abs(hri.perf_loss - 2.0) +
       std::abs(mpc.pmax_reduction - 10.0) +
       std::abs(hri.pmax_reduction - 10.0) +
       std::abs(mpc.dpxt_reduction - 73.0) +
       std::abs(hri.dpxt_reduction - 66.0)) /
      6.0;
  std::printf("headline vs paper: perf loss MPC %.2f%% HRI %.2f%% (2%%), "
              "P_max reduction MPC %.2f%% HRI %.2f%% (10%%), dPxT reduction "
              "MPC %.1f%% (73%%) HRI %.1f%% (66%%) -> fig7_err_pp %.3f\n",
              mpc.perf_loss, hri.perf_loss, mpc.pmax_reduction,
              hri.pmax_reduction, mpc.dpxt_reduction, hri.dpxt_reduction, err);
  if (!std::isfinite(err)) run.fail_check("fig7_err_pp is not finite");
  run.fig7_err_pp = err;
}

void scale_131k(Run& run) {
  // One experiment (30 min fill, 1 h measured) costs about 6 s on a 4-core
  // x86-64 host.
  const std::size_t n = units_for(run.seconds, 6.0, 2);
  std::uint64_t state = run.seed;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t seed = splitmix64(state) & 0xffffffffull;
    run.seeds.push_back(seed);
    cluster::ExperimentConfig cfg = cluster::paper_scenario(seed);
    cfg.cluster.num_nodes = 131072;
    cfg.cluster.obs_timing = run.traced;
    cfg.manager = "mpc-c";
    cfg.zone_count = 8;
    cfg.zone_redistribution = "proportional";
    // Administrator mode: P_L/P_H derive from a provision of 0.460 x the
    // theoretical peak. The paper's arrival rule fills this machine to a
    // slowly rising plateau by about 30 min; P_L sits just above it, so
    // the measured window is mostly green with yellow episodes (about a
    // sixth of the cycles, enough for a p90 tail) that drain and
    // re-quiesce.
    cfg.thresholds_from_provision = true;
    cfg.training = Seconds{1800.0};
    cfg.measured = Seconds{3600.0};
    const auto o = run.experiment("mpc-c zones=8 seed " + std::to_string(seed),
                                  cfg, Watts{0.0}, 0.460);
    if (o) run.led.setups.push_back(o->setup);
  }
}

void faults_8k(Run& run) {
  // One experiment (30 min calibration, 30 min training, 1 h measured)
  // costs about 2.2 s on a 4-core x86-64 host.
  const std::size_t n = units_for(run.seconds, 2.5, 2);
  std::uint64_t state = run.seed;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t seed = splitmix64(state) & 0xffffffffull;
    run.seeds.push_back(seed);
    cluster::ExperimentConfig cfg = cluster::small_scenario(seed);
    cfg.cluster.num_nodes = 8192;
    cfg.cluster.obs_timing = run.traced;
    cfg.manager = "mpc";
    cfg.provision_fraction = 0.95;
    // Telemetry faults (faulty_telemetry_scenario).
    cfg.transport.loss_rate = 0.02;
    cfg.transport.delay_cycles = 1;
    cfg.faults.agent_dropout_rate = 0.01;
    cfg.faults.agent_recovery_rate = 0.2;
    cfg.faults.crash_rate = 1e-4;
    cfg.faults.crash_duration_cycles = 60;
    cfg.faults.corruption_rate = 0.005;
    // Actuation faults (lossy_actuation_scenario).
    cfg.actuation.command_loss_rate = 0.10;
    cfg.actuation.delivery_delay_cycles = 2;
    cfg.actuation.reboot_rate = 2e-4;
    cfg.actuation.reboot_duration_cycles = 30;
    cfg.reconciliation.max_retries = 5;
    cfg.reconciliation.retry_backoff_base_cycles = 2;
    cfg.reconciliation.retry_backoff_cap_cycles = 16;
    // Root-controller blackouts under a failsafe watchdog
    // (controller_outage_scenario).
    cfg.control.outage_rate = 2e-3;
    cfg.control.outage_duration_cycles = 40;
    cfg.cluster.watchdog.timeout_cycles = 8;
    cfg.cluster.watchdog.safe_level = 2;

    SetupUnit unit;
    const auto t0 = Clock::now();
    const Watts peak = cluster::probe_uncapped_peak(
        cfg.cluster, cfg.calibration_duration);
    unit.calibrate_s = since(t0);
    const auto o = run.experiment("mpc faults seed " + std::to_string(seed),
                                  cfg, peak * cfg.provision_fraction, 0.0);
    if (!o) continue;
    unit.add(o->setup);
    run.led.setups.push_back(unit);
  }
}

// -- metrics -----------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void finish_metrics(Run& run) {
  RunLedger& led = run.led;
  std::vector<double> setup_total;
  std::vector<double> cal;
  std::vector<double> ctor;
  std::vector<double> mgr;
  for (const SetupUnit& u : led.setups) {
    setup_total.push_back(u.total());
    cal.push_back(u.calibrate_s);
    ctor.push_back(u.cluster_ctor_s);
    mgr.push_back(u.manager_ctor_s);
  }
  // Timings take each group's best experiment (see UnitTiming). The rate is
  // the whole run's simulated time over the wall time it would have taken
  // had every experiment run as fast as the fastest of its group. Decision
  // timings cover deciding cycles only: over all cycles the median falls
  // between the near-free green cycles and the full ones, and jumps between
  // them as the band mix shifts.
  std::map<std::string, std::vector<const UnitTiming*>> groups;
  for (const UnitTiming& u : run.units) groups[u.group].push_back(&u);
  double sim_s = 0.0;
  double best_wall_s = 0.0;
  std::vector<double> group_p50;
  std::vector<double> group_tail;
  for (const auto& [name, units] : groups) {
    double group_sim = 0.0;
    double best_rate = 0.0;
    // The tail percentile is the highest that leaves ten samples above it
    // in every experiment of the group, so the experiments compare alike.
    std::size_t fewest = 0;
    for (const UnitTiming* u : units) {
      group_sim += u->sim_s;
      best_rate = std::max(best_rate, u->sim_s / u->wall_s);
      const std::size_t n = u->deciding_s.size();
      if (n > 0 && (fewest == 0 || n < fewest)) fewest = n;
    }
    sim_s += group_sim;
    best_wall_s += group_sim / best_rate;
    std::printf("group %s: %zu experiments, best %.0f sim-s/s", name.c_str(),
                units.size(), best_rate);
    if (fewest > 0) {
      const double tail_p = tail_percentile(fewest);
      double p50 = INFINITY;
      double tail = INFINITY;
      for (const UnitTiming* u : units) {
        if (u->deciding_s.empty()) continue;
        p50 = std::min(p50, percentile(u->deciding_s, 50.0) * 1e6);
        tail = std::min(tail, percentile(u->deciding_s, tail_p) * 1e6);
      }
      group_p50.push_back(p50);
      group_tail.push_back(tail);
      std::printf(", best decide p50 %.2f us, best p%g %.2f us (fewest "
                  "deciding cycles in an experiment: %zu)",
                  p50, tail_p, tail, fewest);
    }
    std::printf("\n");
  }
  if (led.cycles.deciding < 20) run.fail_check("fewer than 20 deciding cycles");

  // End to end.
  run.put("sim_s_per_wall_s", sim_s / best_wall_s, "s/s");
  run.put("setup_s", median(setup_total), "s");
  run.put("peak_rss_mb", peak_rss_mb(), "MB");
  run.put("decide_p50_us", median(group_p50), "us");
  run.put("decide_tail_us", median(group_tail), "us");
  if (!run.traced) return;

  // Per layer.
  const RegistryLedger& reg = led.reg;
  const auto span_s = [&](const char* phase) {
    const auto it = reg.span_s.find(phase);
    return it == reg.span_s.end() ? 0.0 : it->second;
  };
  const auto span_n = [&](const char* phase) {
    const auto it = reg.span_n.find(phase);
    return it == reg.span_n.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto counter = [&](const char* key) {
    const auto it = reg.counters.find(key);
    return it == reg.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const double cycles = static_cast<double>(led.cycles.cycle_s.size());
  const double ticks = counter("pcap_cluster_ticks_total");
  const double retries = counter("pcap_manager_retries_total");
  const double transitions = static_cast<double>(led.cycles.transitions);
  const double deciding = static_cast<double>(led.cycles.deciding);
  std::deque<float>& cyc = led.cycles.cycle_s;
  std::sort(cyc.begin(), cyc.end());

  run.put("setup.calibrate_s", median(cal), "s");
  run.put("setup.cluster_ctor_s", median(ctor), "s");
  run.put("setup.manager_ctor_s", median(mgr), "s");
  run.put("cluster.run_s", led.run_s, "s");
  run.put("cluster.tick_self_s", led.run_s - led.cycles.total_s, "s");
  run.put("cluster.ticks", ticks, "count");
  run.put("pool.threads", static_cast<double>(led.pool_threads), "count");
  run.put("hw.node_sweep_s", span_s("node_sweep"), "s");
  run.put("hw.refreshes_per_tick",
          ratio(counter("pcap_cluster_node_refreshes_total"), ticks), "nodes");
  run.put("workload.jobs_s", span_s("jobs"), "s");
  run.put("sched.launch_s", span_s("launch"), "s");
  run.put("workload.jobs_finished", counter("pcap_cluster_jobs_finished_total"),
          "count");
  run.put("power.cycle_s", led.cycles.total_s, "s");
  run.put("power.cycles", cycles, "count");
  run.put("power.cycle_p50_us", percentile(cyc, 50.0) * 1e6, "us");
  run.put("power.cycle_p99_us", percentile(cyc, 99.0) * 1e6, "us");
  run.put("power.deciding_cycles", deciding, "count");
  run.put("power.red_cycles", static_cast<double>(led.cycles.red), "count");
  run.put("power.targets", static_cast<double>(led.cycles.targets), "count");
  run.put("power.transitions", transitions, "count");
  run.put("power.context_s", span_s("context"), "s");
  run.put("power.context_builds", span_n("context"), "count");
  run.put("power.context_per_deciding", ratio(span_n("context"), deciding),
          "ratio");
  run.put("power.policy_s", span_s("policy"), "s");
  run.put("power.actuate_s", span_s("actuate"), "s");
  run.put("zone.active_frac",
          ratio(static_cast<double>(reg.zone_active_cycles),
                static_cast<double>(reg.zone_cycle_slots)),
          "ratio");
  run.put("telemetry.collect_s", span_s("collect"), "s");
  run.put("telemetry.collects_per_cycle", ratio(span_n("collect"), cycles),
          "ratio");
  run.put("telemetry.samples_suppressed",
          counter("pcap_telemetry_samples_suppressed_total"), "count");
  run.put("telemetry.samples_lost",
          counter("pcap_telemetry_samples_lost_total"), "count");
  run.put("telemetry.stale_node_cycles",
          counter("pcap_manager_stale_node_cycles_total"), "count");
  run.put("actuation.acks", counter("pcap_manager_acks_total"), "count");
  run.put("actuation.retries", retries, "count");
  run.put("actuation.heals", counter("pcap_manager_heals_total"), "count");
  run.put("actuation.divergences", counter("pcap_manager_divergences_total"),
          "count");
  run.put("actuation.retry_ratio", ratio(retries, transitions + retries),
          "ratio");
  run.put("ctrl.outage_cycles", counter("pcap_ctrl_outage_cycles_total"),
          "count");
  run.put("watchdog.adoptions", counter("pcap_watchdog_adoptions_total"),
          "count");
  run.put("metrics.report_s", led.report_s, "s");
  run.put("sim.events", counter("pcap_sim_events_total"), "count");
  run.put("fidelity.fig7_err_pp", run.fig7_err_pp, "pp");
}

void print_json(const Run& run, std::uint64_t log_messages) {
  std::printf("{\"seeds\": [");
  for (std::size_t i = 0; i < run.seeds.size(); ++i) {
    std::printf("%s%llu", i ? ", " : "",
                static_cast<unsigned long long>(run.seeds[i]));
  }
  std::printf("], \"attempted\": %llu, \"failed\": %llu, "
              "\"digest\": \"%016llx\", \"pool_threads\": %zu, "
              "\"log_messages\": %llu, \"compiler\": \"%s\", "
              "\"build_type\": \"%s\", \"metrics\": {",
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed),
              static_cast<unsigned long long>(run.digest.value()),
              run.led.pool_threads,
              static_cast<unsigned long long>(log_messages), E2E_COMPILER,
              E2E_BUILD_TYPE);
  bool first = true;
  for (const auto& [name, vu] : run.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(),
                std::isfinite(vu.first) ? vu.first : 0.0, vu.second.c_str());
    first = false;
  }
  std::printf("}}\n");
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload "
               "paper_fig7|scale_131k|faults_8k --seed N --seconds S "
               "--traced 0|1\n",
               msg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Run run;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    try {
      if (key == "--workload") {
        run.workload = val;
      } else if (key == "--seed") {
        run.seed = std::stoull(val);
      } else if (key == "--seconds") {
        run.seconds = std::stod(val);
      } else if (key == "--traced") {
        run.traced = val == "1";
      } else {
        usage(("unknown option " + key).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + key).c_str());
    }
  }
  if (argc % 2 == 0) usage("options come in --key value pairs");
  if (!(run.seconds > 0.0)) usage("--seconds must be positive");

  // Warnings from the fault workloads are expected; count them instead of
  // writing thousands of lines to stderr.
  std::uint64_t log_messages = 0;
  common::Logger::instance().set_sink(
      [&log_messages](common::LogLevel, const std::string&) {
        ++log_messages;
      });

  std::printf("e2ebench %s seed %llu seconds %g traced %d\n",
              run.workload.c_str(), static_cast<unsigned long long>(run.seed),
              run.seconds, run.traced ? 1 : 0);
  if (run.workload == "paper_fig7") {
    paper_fig7(run);
  } else if (run.workload == "scale_131k") {
    scale_131k(run);
  } else if (run.workload == "faults_8k") {
    faults_8k(run);
  } else {
    usage(("unknown workload '" + run.workload + "'").c_str());
  }
  finish_metrics(run);
  std::printf("digest %016llx over %llu experiments (%llu failed)\n",
              static_cast<unsigned long long>(run.digest.value()),
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed));
  std::fflush(stdout);
  print_json(run, log_messages);
  return run.failed == 0 ? 0 : 1;
}
