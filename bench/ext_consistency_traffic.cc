// Extension bench: what the paper's free-invalidation assumption hides.
//
// §3.8 counts invalidations but does not charge their protocol traffic.
// This bench reruns the Fig 11 worst case (two hosts, one shared working
// set) under the paper's free model (--coherence=perfect) and the modeled
// coherence protocols (--coherence=directory|lease, DESIGN.md §15), to
// quantify how much of the write-latency advantage of client flash caching
// survives a real consistency protocol.
//
// Expected shape: directory makes every invalidating write wait for a
// report -> callback -> ack -> grant exchange, which at high sharing rates
// erases the "writes at RAM speed" property; lease breaks only live leases
// and pays renewal round trips on the read side instead.
#include "bench/bench_util.h"

using namespace flashsim;

int main(int argc, char** argv) {
  const BenchOptions options = ParseBenchOptions(argc, argv);
  ExperimentParams base = BaselineParams(options);
  base.hosts = 2;
  base.shared_working_set = true;
  base.working_set_gib = 60.0;
  PrintExperimentHeader("Extension: consistency protocol traffic (2 hosts, shared set)", base);

  std::vector<Sweep::AxisValue> write_axis;
  for (int write_pct : {10, 30, 60, 90}) {
    write_axis.push_back({Table::Cell(static_cast<int64_t>(write_pct)),
                          [write_pct](ExperimentParams& p) {
                            p.write_fraction = write_pct / 100.0;
                          }});
  }

  Sweep sweep(base);
  sweep.AddAxis("write_pct", std::move(write_axis))
      .AddAxis("coherence", CoherenceAxis({CoherenceModel::kPerfect, CoherenceModel::kDirectory,
                                           CoherenceModel::kLease}));

  Table table({"write_pct", "coherence", "write_us", "read_us", "invalidation_pct",
               "messages"});
  RunSweepIntoTable(sweep, options, &table,
                    [](const SweepPoint& point, const ExperimentResult& result) {
                      const Metrics& m = result.metrics;
                      return std::vector<std::string>{
                          point.label(0), point.label(1), Table::Cell(m.mean_write_us(), 2),
                          Table::Cell(m.mean_read_us(), 2),
                          Table::Cell(100.0 * m.invalidation_rate(), 1),
                          Table::Cell(m.invalidation_messages)};
                    });
  PrintTable(table, options);
  return 0;
}
