// Policy explorer: interactively compare architectures and writeback
// policies for a workload you describe on the command line.
//
//   policy_explorer [--arch=naive|lookaside|unified] [--ram-policy=POL]
//                   [--flash-policy=POL] [--ws-gib=N] [--write-pct=N]
//                   [--ram-gib=N] [--flash-gib=N] [--scale=N] [--jobs=N]
//                   [--out=table|csv|json]
//
// A negative capacity, a percentage outside 0..100 or --scale=0 exits 2
// naming the flag.
//
// POL is one of: s (sync write-through), a (async write-through),
// p1/p5/p15/p30 (periodic syncer), n (writeback on eviction only).
//
// With no configuration arguments it sweeps all three architectures at the
// paper's chosen policies and prints a comparison — a compact version of
// the Fig 2 study, run through the sweep harness.
#include <cstdio>
#include <iostream>
#include <string>

#include "src/core/experiment.h"
#include "src/harness/harness.h"
#include "src/util/table.h"

using namespace flashsim;

int main(int argc, char** argv) {
  ExperimentParams params;
  params.scale = 128;
  bool explicit_config = false;
  int jobs = 0;
  OutputFormat out = OutputFormat::kAligned;
  double write_pct = 100.0 * params.write_fraction;

  FlagParser parser;
  parser.AddCustom("arch", "naive|lookaside|unified", "cache architecture",
                   [&](const std::string& value) {
                     const auto arch = ParseArchitecture(value);
                     if (!arch) {
                       return false;
                     }
                     params.arch = *arch;
                     explicit_config = true;
                     return true;
                   });
  parser.AddCustom("ram-policy", "POL", "RAM writeback policy (s a p1 p5 p15 p30 n)",
                   [&](const std::string& value) {
                     const auto policy = ParsePolicy(value);
                     if (!policy) {
                       return false;
                     }
                     params.ram_policy = *policy;
                     explicit_config = true;
                     return true;
                   });
  parser.AddCustom("flash-policy", "POL", "flash writeback policy",
                   [&](const std::string& value) {
                     const auto policy = ParsePolicy(value);
                     if (!policy) {
                       return false;
                     }
                     params.flash_policy = *policy;
                     explicit_config = true;
                     return true;
                   });
  AddCapacityFlag(parser, "ws-gib", "working set GiB", kGiB, &params.working_set_gib);
  parser.AddDouble("write-pct", "write percentage", &write_pct, 0.0, 100.0);
  AddCapacityFlag(parser, "ram-gib", "RAM cache GiB", kGiB, &params.ram_gib);
  AddCapacityFlag(parser, "flash-gib", "flash cache GiB", kGiB, &params.flash_gib);
  parser.AddUint64("scale", "capacity scale divisor", &params.scale, 1);
  parser.AddInt("jobs", "worker threads", &jobs);
  parser.AddCustom("out", "table|csv|json", "output format", [&](const std::string& value) {
    const auto format = ParseOutputFormat(value);
    if (!format) {
      return false;
    }
    out = *format;
    return true;
  });
  parser.ParseOrExit(argc, argv);
  params.write_fraction = write_pct / 100.0;

  PrintExperimentHeader("policy explorer", params);

  Sweep sweep(params);
  if (explicit_config) {
    sweep.AppendPoint({ArchitectureName(params.arch)}, params);
  } else {
    // Default: the paper's §7.1 comparison at its chosen policies.
    sweep.AddAxis("arch", [&] {
      std::vector<Sweep::AxisValue> values;
      for (Architecture arch : kAllArchitectures) {
        values.push_back({ArchitectureName(arch),
                          [arch](ExperimentParams& p) { p.arch = arch; }});
      }
      return values;
    }());
  }

  Table table({"arch", "ram_policy", "flash_policy", "read_us", "write_us", "ram_hit_pct",
               "flash_hit_pct", "sync_evictions"});
  ParallelRunner(jobs).RunOrdered(
      sweep.Expand(),
      [](const SweepPoint& point) { return RunExperiment(point.params); },
      [&table](const SweepPoint& point, const ExperimentResult& result) {
        const Metrics& m = result.metrics;
        table.AddRow({ArchitectureName(point.params.arch), PolicyName(point.params.ram_policy),
                      PolicyName(point.params.flash_policy), Table::Cell(m.mean_read_us(), 2),
                      Table::Cell(m.mean_write_us(), 2), Table::Cell(100.0 * m.ram_hit_rate(), 1),
                      Table::Cell(100.0 * m.flash_hit_rate(), 1),
                      Table::Cell(m.stack_totals.sync_ram_evictions +
                                  m.stack_totals.sync_flash_evictions)});
      });
  EmitTable(table, out, std::cout);

  if (out == OutputFormat::kAligned) {
    std::printf("\nReading the table: the unified architecture reads fastest (its effective\n"
                "capacity is RAM+flash) but pays flash latency on most writes; naive and\n"
                "lookaside write at RAM speed. Policies only matter when they put synchronous\n"
                "filer writes on the application's path (ram-policy=s, or n once full).\n");
  }
  return 0;
}
