// pcapsweep — run rows of config overrides over seeds and print mean ±
// 95 % CI per row, relative to an unmanaged run of the same base.
//
//   pcapsweep --config examples/configs/paper_sweep.ini --seeds 42,1234
//       manager.policy=mpc manager.policy=hri
//   pcapsweep --seeds 1,2,3 manager.policy={mpc,hri},manager.tg_cycles={5,10}
//
// Each positional argument is one row: comma-separated section.key=value
// overrides applied on top of the base INI (default: the paper scenario);
// a row overriding experiment.provision_fraction gets that fraction of the
// base's probe peak.
// scripts/figures.sh holds the invocations behind EXPERIMENTS.md.
#include <cstdio>
#include <cstring>
#include <exception>

#include "cluster/sweep.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: pcapsweep [--config file.ini] [--seeds a,b,...] "
               "row...\n  row = section.key=value[,section.key=value...]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pcap;

  cluster::SweepSpec spec;
  int arg = 1;
  try {
    for (; arg < argc && std::strncmp(argv[arg], "--", 2) == 0; arg += 2) {
      if (arg + 1 >= argc) return usage();
      if (std::strcmp(argv[arg], "--config") == 0) {
        spec.base = common::Config::load_file(argv[arg + 1]);
      } else if (std::strcmp(argv[arg], "--seeds") == 0) {
        spec.seeds = cluster::parse_seeds(argv[arg + 1]);
      } else {
        return usage();
      }
    }
    if (arg >= argc) return usage();
    spec.rows.assign(argv + arg, argv + argc);
    common::ThreadPool pool;
    std::fputs(cluster::format_sweep(cluster::run_sweep(spec, pool)).c_str(),
               stdout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pcapsweep: %s\n", e.what());
    return 1;
  }
  return 0;
}
