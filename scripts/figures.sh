#!/usr/bin/env bash
# Reproduces the sweep tables of EXPERIMENTS.md: one line per figure,
# each a pcapsweep invocation (base INI + seeds + override rows) except
# Figure 7, whose bench adds the paper's claim lines to the same table.
#
#   scripts/figures.sh [figure...]     # default: every figure, in order
#   BUILD=build-release scripts/figures.sh fig7 tg
#
# Run from the repository root after `cmake --build build`.
set -euo pipefail

BUILD=${BUILD:-build}
SWEEP=$BUILD/examples/pcapsweep
C=examples/configs
# Fault-free rows for the fault INIs: every fault rate and delay at 0.
# (The remaining knobs only shape faults that then never fire; setting
# them to their defaults as well changes no result.)
TELEMETRY_OFF=telemetry.loss_rate=0,telemetry.delay_cycles=0,telemetry.agent_dropout_rate=0,telemetry.crash_rate=0,telemetry.corruption_rate=0
ACTUATION_OFF=actuation.loss_rate=0,actuation.delay_cycles=0,actuation.failure_rate=0,actuation.partial_rate=0,actuation.reboot_rate=0
CONTROL_OFF=control.outage_rate=0,control.zone_outage_rate=0,control.delay_rate=0,watchdog.timeout_cycles=0

figure() {
  case "$1" in
    fig7) "$BUILD/bench/bench_fig7_policies" ;;
    fig6) "$SWEEP" --config $C/paper_sweep.ini --seeds 42,1234,777 manager.policy={mpc,hri},manager.candidate_count={8,16,32,48,64,96,128} ;;
    policies) "$SWEEP" --config $C/paper_sweep.ini --seeds 42,1234 manager.policy={mpc,mpc-c,lpc,lpc-c,bfp,hri,hri-c} ;;
    baselines) "$SWEEP" --config $C/paper_sweep.ini --seeds 42,1234 manager.policy={mpc,uniform,sla,feedback,budget} ;;
    thresholds) "$SWEEP" --config $C/paper_sweep.ini --seeds 42,1234 manager.red_margin=0.02,manager.yellow_margin=0.06 manager.red_margin=0.04,manager.yellow_margin=0.10 manager.red_margin=0.07,manager.yellow_margin=0.16 manager.red_margin=0.10,manager.yellow_margin=0.22 manager.red_margin=0.15,manager.yellow_margin=0.30 ;;
    tg) "$SWEEP" --config $C/paper_sweep.ini --seeds 42,1234 manager.tg_cycles={1,2,5,10,20,40,80} ;;
    provision) "$SWEEP" --config $C/paper_sweep.ini --seeds 42,1234 manager.thresholds_from_provision=true,experiment.provision_fraction={0.95,0.90,0.84,0.78,0.72,0.65} ;;
    period) "$SWEEP" --config $C/paper_sweep.ini --seeds 42,1234 manager.policy={mpc,hri},cluster.control_period_s={1,2,4,8,16} ;;
    all_policies) "$SWEEP" --config $C/paper_short.ini --seeds 42 manager.policy={mpc,mpc-c,lpc,lpc-c,bfp,hri,hri-c,ht,ht-c,pi-c,pred-c} ;;
    telemetry_faults) "$SWEEP" --config $C/faulty_telemetry.ini --seeds 23 "$TELEMETRY_OFF" manager.policy=mpc manager.policy=uniform ;;
    actuation_faults) "$SWEEP" --config $C/lossy_actuation.ini --seeds 31 "$ACTUATION_OFF" manager.policy=mpc manager.policy=uniform ;;
    controller_outage) "$SWEEP" --config $C/controller_outage.ini --seeds 47 "$CONTROL_OFF" manager.policy=mpc ;;
    *) echo "figures.sh: unknown figure '$1'" >&2; return 2 ;;
  esac
}

ALL=(fig7 fig6 policies baselines thresholds tg provision period all_policies
     telemetry_faults actuation_faults controller_outage)
[ $# -gt 0 ] || set -- "${ALL[@]}"
for f in "$@"; do
  echo "=== $f ==="
  figure "$f"
  echo
done
