// Scenario: Monday 9am at a 1024-seat VDI site — every desktop boots at
// once off the same golden image, and the question is whether adding filer
// shards keeps the storm survivable.
//
//   filers=N (SimConfig::num_filers) changes the modeled system: the boot
//   image's misses spread over N service pools, so storm latency really
//   drops (DESIGN.md §11).
//
// After each desktop pulls the (small, shared) image once, the measured
// phase is almost pure per-host RAM hits, so the miss-heavy warmup tail is
// where the filer count shows. wall_s and kops_s time the simulator itself
// on this machine.
#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"
#include "src/consistency/directory.h"
#include "src/core/experiment.h"
#include "src/harness/harness.h"
#include "src/util/table.h"

using namespace flashsim;

int main(int argc, char** argv) {
  int hosts = 1024;
  BenchFlags flags;
  flags.parser().AddInt("hosts", "desktops booting simultaneously", &hosts, 1,
                        Directory::kMaxHosts);
  const BenchOptions options = flags.ParseOrExit(argc, argv);

  ExperimentParams base = BaselineParams(options);
  // 1024 hosts: default to a much coarser scale than the figure benches so
  // the grid stays minutes (still ~10M block I/Os across the fleet).
  base.scale = std::max<uint64_t>(base.scale, 4096);
  base.hosts = hosts;
  base.threads_per_host = 2;
  base.arch = Architecture::kUnified;
  // The golden image: a 4 GB shared working set, far below the 8 GB
  // per-desktop RAM, so the post-warmup storm is RAM-hit dominated. The
  // storm is pure reads: a VDI boot writes to per-VM delta disks, never the
  // shared image — and in this model an image write would invalidate the
  // block in every other desktop's cache (§3.8), which is a different
  // experiment (Fig 11's write-sharing sweep). Trace volume is fleet-total
  // (generator.h: total = volume_multiplier x working set), so scale the
  // multiplier with the host count: every desktop replays the image ~4x.
  base.working_set_gib = 4.0;
  base.shared_working_set = true;
  base.write_fraction = 0.0;
  base.working_set_io_fraction = 0.95;
  base.volume_multiplier = 4.0 * hosts;
  PrintExperimentHeader("boot storm: 1024 desktops, one golden image (filers)", base);
  std::printf("hosts: %d x %d threads\n\n", base.hosts, base.threads_per_host);

  Sweep sweep(base);
  sweep.AddAxis("filers", FilersAxis({1, 4}));

  Table table({"filers", "read_us", "ram_hit_pct", "blocks", "wall_s", "kops_s"});
  RunSweepIntoTable(sweep, options, &table,
                    [](const SweepPoint& point, const ExperimentResult& result) {
                      const Metrics& m = result.metrics;
                      const uint64_t blocks = m.measured_read_blocks + m.measured_write_blocks;
                      const double kops = blocks / std::max(result.wall_seconds, 1e-9) / 1000.0;
                      return std::vector<std::string>{
                          point.label(0), Table::Cell(m.mean_read_us(), 2),
                          Table::Cell(100.0 * m.ram_hit_rate(), 1), Table::Cell(blocks),
                          Table::Cell(result.wall_seconds, 2), Table::Cell(kops, 1)};
                    });
  PrintTable(table, options);

  std::printf(
      "\nfilers=4 cuts read_us during the miss-heavy warmup tail: the boot\n"
      "image's misses queue at four filer shards instead of one.\n");
  return 0;
}
