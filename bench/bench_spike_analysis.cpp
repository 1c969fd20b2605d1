// Spike-structure analysis: how capping reshapes the power trace.
//
// ΔP×T condenses the whole behaviour into one number; this bench breaks
// it apart — how many excursions above the provision survive capping, how
// long they last, how tall they get — and reports the yellow-episode
// structure (count, length, quick re-entries) per policy. This is the
// §IV.A intuition made measurable: MPC resolves an excursion in few, big
// steps; LPC nibbles and oscillates.
#include <cstdio>

#include "cluster/cluster.hpp"
#include "cluster/scenario.hpp"
#include "metrics/report.hpp"
#include "metrics/trace_analysis.hpp"

int main() {
  using namespace pcap;
  std::printf(
      "\n=== Spike structure under capping (provision excursions) ===\n"
      "paper: capping should turn few long, tall excursions into fewer, "
      "shorter, flatter ones\n\n");

  cluster::ExperimentConfig base = cluster::paper_scenario();
  base.training = Seconds{2 * 3600.0};
  base.measured = Seconds{6 * 3600.0};
  base.provision =
      cluster::probe_uncapped_peak(base.cluster, base.calibration_duration) *
      base.provision_fraction;
  std::printf("provision P_Max = %.0f W\n", base.provision.value());

  metrics::Table table({"manager", "excursions", "total (s)", "mean (s)",
                        "max (s)", "mean peak (W)", "max peak (W)",
                        "yellow episodes", "mean len (s)", "re-entries"});

  for (const char* manager : {"none", "mpc", "lpc", "hri"}) {
    // One full run per manager, recording the trace.
    cluster::ExperimentConfig cfg = base;
    cfg.manager = manager;
    cluster::Cluster cl(cfg.cluster);
    std::vector<hw::NodeId> candidates = cl.controllable_nodes();
    cl.set_manager(cluster::make_manager(cfg, cfg.cluster, cfg.provision,
                                         candidates));
    cl.run(cfg.training);
    cl.start_recording();
    cl.run(cfg.measured);

    const auto trace = cl.recorder().power_trace();
    const metrics::ExcursionStats ex =
        metrics::summarize_excursions(trace, cfg.provision);
    const metrics::EpisodeStats yellow =
        metrics::summarize_episodes(cl.recorder().points(), 1);
    const std::size_t reentries = metrics::count_rethrottle_oscillations(
        cl.recorder().points(), 60);

    table.cell(manager)
        .cell(ex.count)
        .cell(ex.total_time_s, 0)
        .cell(ex.mean_duration_s, 1)
        .cell(ex.max_duration_s, 0)
        .cell(ex.mean_peak_w, 0)
        .cell(ex.max_peak_w, 0)
        .cell(yellow.count)
        .cell(yellow.mean_length, 1)
        .cell(reentries);
    table.end_row();
  }
  table.print();

  std::printf(
      "\nreading guide: 'excursions' counts maximal runs above P_Max;\n"
      "yellow-episode lengths are in recorder ticks (1 s). LPC's small\n"
      "per-cycle savings show up as more yellow episodes and re-entries.\n");
  return 0;
}
