// Telemetry registry: the one object a run's observability hangs off.
//
// Off by default (SimConfig::telemetry all zeros): the simulation then
// creates no Telemetry at all and every service point reduces to one null
// pointer test — the hot path performs no telemetry work and no telemetry
// allocations (enforced by tests/telemetry_alloc_test.cc). When on, the
// registry owns:
//
//  - named histograms (obs::Histogram), registered up front so recording
//    never allocates;
//  - device probes: one histogram + optional trace lane group per service
//    point (RAM access, flash read/write, network directions, filer
//    read/write), handed to the device as a raw pointer;
//  - the scoped-span trace writer (Chrome trace_event export);
//  - the periodic sampler (sim-time stride snapshots).
//
// Determinism contract (DESIGN.md §10): everything recorded is a pure
// function of the simulated run — no wall-clock, no addresses, no
// iteration over unordered containers — and Histogram merge is exact
// integer arithmetic, so per-run telemetry merged in sweep order is
// byte-identical between --jobs=1 and --jobs=N.
#ifndef FLASHSIM_SRC_OBS_TELEMETRY_H_
#define FLASHSIM_SRC_OBS_TELEMETRY_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/obs/histogram.h"
#include "src/obs/sampler.h"
#include "src/obs/trace_writer.h"
#include "src/sim/sim_time.h"
#include "src/util/json.h"

namespace flashsim {
namespace obs {

// What to collect. Default-constructed = everything off; the simulation
// then never instantiates Telemetry.
struct TelemetryConfig {
  bool histograms = false;          // service-point latency histograms
  bool spans = false;               // Chrome-trace span capture
  SimDuration sample_stride_ns = 0;  // 0 = sampler off
  uint64_t max_spans = 4000000;      // span cap; overflow is counted

  bool any() const { return histograms || spans || sample_stride_ns > 0; }
};

// One service point's recording handle: a histogram plus an optional trace
// lane group. Devices hold these as raw pointers (null = telemetry off) and
// call Record per serviced request.
class DeviceProbe {
 public:
  DeviceProbe(Histogram* histogram, TraceWriter* trace, int lane_group, int name)
      : histogram_(histogram), trace_(trace), lane_group_(lane_group), name_(name) {}

  // `request` is when the operation was issued, `service_start` when the
  // device began working on it (request <= service_start <= end). The
  // histogram gets the full queue+service latency; the trace draws the
  // service interval, so lane packing needs at most one lane per unit of
  // device concurrency.
  void Record(SimTime request, SimTime service_start, SimTime end) {
    histogram_->Record(end - request);
    if (trace_ != nullptr) {
      trace_->AddGroupSpan(lane_group_, name_, service_start, end);
    }
  }

 private:
  Histogram* histogram_;
  TraceWriter* trace_;
  int lane_group_;
  int name_;
};

class Telemetry {
 public:
  explicit Telemetry(const TelemetryConfig& config) : config_(config) {
    if (config_.spans) {
      trace_ = std::make_unique<TraceWriter>(config_.max_spans);
    }
    if (config_.sample_stride_ns > 0) {
      sampler_ = std::make_unique<Sampler>(config_.sample_stride_ns);
    }
  }

  const TelemetryConfig& config() const { return config_; }

  // Registration (construction time). Returned pointers are stable for the
  // Telemetry's lifetime.
  Histogram* RegisterHistogram(std::string name);
  DeviceProbe* RegisterProbe(std::string histogram_name, int pid, std::string track_name,
                             int max_lanes);

  const Histogram* FindHistogram(const std::string& name) const;

  // Null when the corresponding config knob is off.
  TraceWriter* trace() { return trace_.get(); }
  const TraceWriter* trace() const { return trace_.get(); }
  Sampler* sampler() { return sampler_.get(); }
  const Sampler* sampler() const { return sampler_.get(); }

  // Stores one sampler snapshot and, when spans are armed, mirrors it into
  // the trace as Chrome counter tracks (occupancies raw, hit rates as
  // per-window percentages). Requires the sampler to be armed.
  void RecordSample(const Sample& sample);

  // Merges another run's histograms into this one, matched by name;
  // histograms only `other` has are appended in its registration order.
  // Exact integer merge — the sweep-aggregation primitive.
  void MergeFrom(const Telemetry& other);

  // Canonical text form of every histogram, one "name: state" line in
  // registration order (the determinism tests' byte-comparison surface).
  std::string SerializeHistograms() const;

  // {"histograms":{name:{...}},"samples":[...],"sample_stride_ms":..,
  //  "spans":{"recorded":..,"dropped":..}} — sampler/spans keys only when
  //  those collectors are armed.
  JsonValue StatsJson() const;

  // Chrome trace_event JSON, including the sampler's series as counter
  // tracks. Requires spans to have been armed.
  void WriteChromeTrace(std::ostream& os) const;

 private:
  TelemetryConfig config_;
  // Registration-ordered; deque gives stable addresses.
  std::deque<std::pair<std::string, Histogram>> histograms_;
  std::deque<DeviceProbe> probes_;
  std::unique_ptr<TraceWriter> trace_;
  std::unique_ptr<Sampler> sampler_;

  // Counter-track state, registered on the first RecordSample with spans
  // armed (deterministic: the first sample always fires the same way).
  int counter_track_ = -1;
  int name_dirty_ = -1;
  int name_writeback_ = -1;
  int name_queue_ = -1;
  int name_ram_rate_ = -1;
  int name_flash_rate_ = -1;
  Sample last_sample_;
};

}  // namespace obs
}  // namespace flashsim

#endif  // FLASHSIM_SRC_OBS_TELEMETRY_H_
