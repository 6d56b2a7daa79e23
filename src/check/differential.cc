#include "src/check/differential.h"

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "src/arch/subset_stack.h"
#include "src/backend/storage_backend.h"
#include "src/consistency/directory.h"
#include "src/device/background_writer.h"
#include "src/device/flash_device.h"
#include "src/device/network_link.h"
#include "src/device/ram_device.h"
#include "src/device/timing.h"
#include "src/sim/event_queue.h"
#include "src/util/rng.h"

namespace flashsim {

std::string DiffConfig::Summary() const {
  std::ostringstream os;
  os << ArchitectureName(arch) << " ram=" << PolicyName(ram_policy)
     << " flash=" << PolicyName(flash_policy)
     << " policy=" << ReplacementPolicyName(replacement)
     << " admission=" << AdmissionPolicyName(admission) << " ram_blocks=" << ram_blocks
     << " flash_blocks=" << flash_blocks << " hosts=" << num_hosts
     << " keys=" << key_space << " seed=" << seed
     << " coherence=" << CoherenceModelName(coherence);
  return os.str();
}

namespace {

const char* OpKindToken(DiffOpKind kind) {
  switch (kind) {
    case DiffOpKind::kRead:
      return "r";
    case DiffOpKind::kWrite:
      return "w";
    case DiffOpKind::kFlushRam:
      return "fr";
    case DiffOpKind::kFlushFlash:
      return "ff";
    case DiffOpKind::kInvalidate:
      return "inv";
  }
  return "?";
}

bool ParseOpKind(const std::string& token, DiffOpKind* kind) {
  if (token == "r") {
    *kind = DiffOpKind::kRead;
  } else if (token == "w") {
    *kind = DiffOpKind::kWrite;
  } else if (token == "fr") {
    *kind = DiffOpKind::kFlushRam;
  } else if (token == "ff") {
    *kind = DiffOpKind::kFlushFlash;
  } else if (token == "inv") {
    *kind = DiffOpKind::kInvalidate;
  } else {
    return false;
  }
  return true;
}

std::string DescribeOp(const DiffOp& op) {
  std::ostringstream os;
  os << OpKindToken(op.kind) << " host=" << op.host;
  if (op.kind != DiffOpKind::kFlushRam && op.kind != DiffOpKind::kFlushFlash) {
    os << " key=" << op.key;
  }
  return os.str();
}

// Forwards one host's residency transitions into the shared directory
// (mirrors Simulation::HostResidencyBridge).
class Bridge : public ResidencyListener {
 public:
  Bridge(Directory& directory, int host) : directory_(&directory), host_(host) {}
  void OnCached(BlockKey key) override { directory_->NoteCached(host_, key); }
  void OnDropped(BlockKey key) override { directory_->NoteDropped(host_, key); }

 private:
  Directory* directory_;
  int host_;
};

// One host's real-side rig (devices + stack) plus its oracle.
struct DiffHost {
  DiffHost(const DiffConfig& config, const TimingModel& timing, EventQueue& queue,
           StorageBackend& backend, Directory& directory, int host_id)
      : ram_dev(timing),
        flash_dev(timing),
        link(timing, 4096, queue.clock()),
        remote(link, backend),
        writer(queue, remote, &flash_dev, timing.writeback_window),
        bridge(directory, host_id) {
    StackConfig stack_config;
    stack_config.ram_blocks = config.ram_blocks;
    stack_config.flash_blocks = config.flash_blocks;
    stack_config.ram_policy = config.ram_policy;
    stack_config.flash_policy = config.flash_policy;
    stack_config.replacement = config.replacement;
    stack_config.admission = config.admission;
    stack = MakeCacheStack(config.arch, stack_config, ram_dev, flash_dev, remote, writer);
    stack->set_residency_listener(&bridge);
    oracle = MakeOracleStack(config.arch, stack_config);
    if (config.inject_subset_eviction_bug && config.arch != Architecture::kUnified) {
      static_cast<SubsetStackBase*>(stack.get())->test_only_break_subset_eviction();
    }
    // Bug seams arm the real side only; the oracle keeps the correct
    // behavior, so the suite must diverge if the seam has any effect.
    if (config.inject_replacement_bug) {
      stack->test_only_break_replacement();
    }
    if (config.inject_admission_bug) {
      stack->test_only_break_admission();
    }
  }

  RamDevice ram_dev;
  FlashDevice flash_dev;
  NetworkLink link;
  StorageService remote;
  BackgroundWriter writer;
  Bridge bridge;
  std::unique_ptr<CacheStack> stack;
  std::unique_ptr<OracleStack> oracle;
};

// CoherenceTransport over the rig's hosts and the shared 1-shard backend
// (mirrors Simulation::CoherenceFabric). Protocol drops land on the *real*
// stacks; the residency bridges keep the directory in step.
class DiffFabric : public CoherenceTransport {
 public:
  DiffFabric(std::vector<std::unique_ptr<DiffHost>>& hosts, StorageBackend& backend)
      : hosts_(&hosts), backend_(&backend) {}

  SimTime HostToFiler(int host, SimTime now, bool carries_data) override {
    return at(host).link.SendToFiler(now, carries_data);
  }
  SimTime FilerToHost(int host, SimTime now, bool carries_data) override {
    return at(host).link.SendToHost(now, carries_data);
  }
  SimTime FilerService(BlockKey key, SimTime arrival, SimDuration service) override {
    return backend_->shard(backend_->ShardOf(key)).ServeControl(arrival, service);
  }
  void DropCopy(int host, BlockKey key) override { at(host).stack->Invalidate(key); }
  bool HoldsCopy(int host, BlockKey key) const override { return at(host).stack->Holds(key); }
  bool HoldsDirty(int host, BlockKey key) const override {
    return at(host).stack->HoldsDirty(key);
  }

 private:
  DiffHost& at(int host) { return *(*hosts_)[static_cast<size_t>(host)]; }
  const DiffHost& at(int host) const { return *(*hosts_)[static_cast<size_t>(host)]; }

  std::vector<std::unique_ptr<DiffHost>>* hosts_;
  StorageBackend* backend_;
};

// OracleCoherence's residency window over the *oracle* stacks — the model
// side never reads real-stack state.
class DiffOracleView : public OracleResidencyView {
 public:
  explicit DiffOracleView(std::vector<std::unique_ptr<DiffHost>>& hosts) : hosts_(&hosts) {}

  bool HoldsCopy(int host, BlockKey key) const override {
    return (*hosts_)[static_cast<size_t>(host)]->oracle->Holds(key);
  }
  bool HoldsDirty(int host, BlockKey key) const override {
    return (*hosts_)[static_cast<size_t>(host)]->oracle->HoldsDirty(key);
  }
  void DropCopy(int host, BlockKey key) override {
    (*hosts_)[static_cast<size_t>(host)]->oracle->Invalidate(key);
  }

 private:
  std::vector<std::unique_ptr<DiffHost>>* hosts_;
};

void AppendFieldDiff(std::ostringstream& os, const char* name, uint64_t real, uint64_t want) {
  if (real != want) {
    os << " " << name << ": real=" << real << " oracle=" << want;
  }
}

// Returns empty string when the host's observables agree.
std::string CompareHost(int host, const DiffHost& h) {
  const StackCounters& real = h.stack->counters();
  const StackCounters& want = h.oracle->counters();
  std::ostringstream os;
  if (!(real == want)) {
    os << "counters diverged on host " << host << ":";
    AppendFieldDiff(os, "ram_hits", real.ram_hits, want.ram_hits);
    AppendFieldDiff(os, "flash_hits", real.flash_hits, want.flash_hits);
    AppendFieldDiff(os, "filer_reads", real.filer_reads, want.filer_reads);
    AppendFieldDiff(os, "sync_ram_evictions", real.sync_ram_evictions, want.sync_ram_evictions);
    AppendFieldDiff(os, "sync_flash_evictions", real.sync_flash_evictions,
                    want.sync_flash_evictions);
    AppendFieldDiff(os, "flash_installs", real.flash_installs, want.flash_installs);
    AppendFieldDiff(os, "filer_writebacks", real.filer_writebacks, want.filer_writebacks);
    AppendFieldDiff(os, "sync_filer_writes", real.sync_filer_writes, want.sync_filer_writes);
    AppendFieldDiff(os, "flash_admission_rejects", real.flash_admission_rejects,
                    want.flash_admission_rejects);
    return os.str();
  }
  if (h.stack->RamResident() != h.oracle->RamResident() ||
      h.stack->FlashResident() != h.oracle->FlashResident() ||
      h.stack->DirtyBlocks() != h.oracle->DirtyBlocks()) {
    os << "residency diverged on host " << host << ":";
    AppendFieldDiff(os, "ram_resident", h.stack->RamResident(), h.oracle->RamResident());
    AppendFieldDiff(os, "flash_resident", h.stack->FlashResident(), h.oracle->FlashResident());
    AppendFieldDiff(os, "dirty_blocks", h.stack->DirtyBlocks(), h.oracle->DirtyBlocks());
    return os.str();
  }
  return "";
}

// Decision counters only: the oracle does not model timing, so the
// stalled_*_ns fields are excluded. Empty string when they agree.
std::string CompareCoherenceCounters(const CoherenceCounters& real,
                                     const CoherenceCounters& want) {
  std::ostringstream diffs;
  AppendFieldDiff(diffs, "lookups", real.lookups, want.lookups);
  AppendFieldDiff(diffs, "invalidation_messages", real.invalidation_messages,
                  want.invalidation_messages);
  AppendFieldDiff(diffs, "acks", real.acks, want.acks);
  AppendFieldDiff(diffs, "lease_grants", real.lease_grants, want.lease_grants);
  AppendFieldDiff(diffs, "lease_renewals", real.lease_renewals, want.lease_renewals);
  AppendFieldDiff(diffs, "lease_breaks", real.lease_breaks, want.lease_breaks);
  AppendFieldDiff(diffs, "dirty_fetches", real.dirty_fetches, want.dirty_fetches);
  AppendFieldDiff(diffs, "stalled_reads", real.stalled_reads, want.stalled_reads);
  AppendFieldDiff(diffs, "stalled_writes", real.stalled_writes, want.stalled_writes);
  if (diffs.str().empty()) {
    return "";
  }
  return "coherence counters diverged:" + diffs.str();
}

std::string DescribeBlock(const OracleBlock& block) {
  std::ostringstream os;
  os << "{key=" << block.key << " medium=" << (block.medium == Medium::kRam ? "ram" : "flash")
     << " dirty=" << (block.dirty ? 1 : 0) << "}";
  return os.str();
}

// Deep state comparison; empty string when identical.
std::string CompareSnapshots(int host, const DiffConfig& config, const DiffHost& h) {
  const OracleStack::Snapshot real = SnapshotRealStack(config.arch, *h.stack);
  const OracleStack::Snapshot want = h.oracle->TakeSnapshot();
  if (real == want) {
    return "";
  }
  std::ostringstream os;
  os << "state snapshot diverged on host " << host << ":";
  for (size_t c = 0; c < real.caches.size() && c < want.caches.size(); ++c) {
    const auto& r = real.caches[c];
    const auto& w = want.caches[c];
    if (r == w) {
      continue;
    }
    os << " cache " << c << " (sizes " << r.size() << "/" << w.size() << ")";
    for (size_t i = 0; i < r.size() && i < w.size(); ++i) {
      if (!(r[i] == w[i])) {
        os << " first mismatch at lru position " << i << ": real=" << DescribeBlock(r[i])
           << " oracle=" << DescribeBlock(w[i]);
        break;
      }
    }
  }
  for (size_t d = 0; d < real.dirty_orders.size() && d < want.dirty_orders.size(); ++d) {
    if (real.dirty_orders[d] != want.dirty_orders[d]) {
      os << " dirty order " << d << " differs (sizes " << real.dirty_orders[d].size() << "/"
         << want.dirty_orders[d].size() << ")";
    }
  }
  return os.str();
}

}  // namespace

std::vector<DiffOp> GenerateSchedule(const DiffConfig& config) {
  Rng rng(Mix64(config.seed ^ 0xd1ffULL));
  std::vector<DiffOp> ops;
  ops.reserve(config.num_ops);
  for (uint64_t i = 0; i < config.num_ops; ++i) {
    DiffOp op;
    op.host = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(config.num_hosts)));
    op.key = MakeBlockKey(0, rng.NextBounded(config.key_space));
    const uint64_t draw = rng.NextBounded(100);
    if (draw < 45) {
      op.kind = DiffOpKind::kRead;
    } else if (draw < 80) {
      op.kind = DiffOpKind::kWrite;
    } else if (draw < 88) {
      op.kind = DiffOpKind::kFlushRam;
    } else if (draw < 92) {
      op.kind = DiffOpKind::kFlushFlash;
    } else {
      op.kind = DiffOpKind::kInvalidate;
    }
    ops.push_back(op);
  }
  return ops;
}

std::vector<DiffOp> ScheduleFromTrace(TraceSource& source, int num_hosts, uint64_t max_ops) {
  std::vector<DiffOp> ops;
  TraceRecord record;
  while (ops.size() < max_ops && source.Next(&record)) {
    for (uint32_t i = 0; i < record.block_count && ops.size() < max_ops; ++i) {
      DiffOp op;
      op.kind = record.op == TraceOp::kRead ? DiffOpKind::kRead : DiffOpKind::kWrite;
      op.host = record.host % num_hosts;
      op.key = MakeBlockKey(record.file_id, record.block + i);
      ops.push_back(op);
    }
  }
  return ops;
}

DiffResult RunSchedule(const DiffConfig& config, const std::vector<DiffOp>& ops) {
  DiffResult result;
  TimingModel timing;
  timing.filer_fast_read_rate = 1.0;  // deterministic filer reads
  // Short leases so the schedule exercises renewals and silent expired-
  // holder drops, not just grants (ops are microseconds apart).
  timing.lease_ns = kMillisecond;
  EventQueue queue;
  StorageBackend backend(timing, /*num_shards=*/1, config.seed);
  Directory directory(config.num_hosts);
  std::vector<std::unique_ptr<DiffHost>> hosts;
  hosts.reserve(static_cast<size_t>(config.num_hosts));
  for (int h = 0; h < config.num_hosts; ++h) {
    hosts.push_back(std::make_unique<DiffHost>(config, timing, queue, backend, directory, h));
  }
  DiffFabric fabric(hosts, backend);
  CoherenceParams cparams;
  cparams.model = config.coherence;
  cparams.num_hosts = config.num_hosts;
  cparams.directory_service_ns = timing.coherence_ctrl_ns;
  cparams.flush_service_ns = timing.filer_write_ns;
  cparams.lease_ns = timing.lease_ns;
  const std::unique_ptr<CoherenceProtocol> coherence =
      MakeCoherenceProtocol(cparams, &directory, &fabric);
  if (config.inject_coherence_bug) {
    coherence->test_only_break_protocol();
  }
  DiffOracleView oracle_view(hosts);
  OracleCoherence oracle_coherence(config.coherence, config.num_hosts, timing.lease_ns,
                                   oracle_view);

  const auto diverge = [&](uint64_t index, const DiffOp& op, std::string message) {
    result.ok = false;
    result.op_index = index;
    result.message = "op " + std::to_string(index) + " (" + DescribeOp(op) + "): " +
                     std::move(message);
    return result;
  };
  const auto compare_all = [&](bool deep) -> std::string {
    if (std::string msg =
            CompareCoherenceCounters(coherence->totals(), oracle_coherence.totals());
        !msg.empty()) {
      return msg;
    }
    for (int h = 0; h < config.num_hosts; ++h) {
      std::string msg = CompareHost(h, *hosts[static_cast<size_t>(h)]);
      if (!msg.empty()) {
        return msg;
      }
      if (deep) {
        msg = CompareSnapshots(h, config, *hosts[static_cast<size_t>(h)]);
        if (!msg.empty()) {
          return msg;
        }
      }
    }
    return "";
  };

  SimTime now = 0;
  for (uint64_t i = 0; i < ops.size(); ++i) {
    const DiffOp& op = ops[i];
    DiffHost& host = *hosts[static_cast<size_t>(op.host)];
    switch (op.kind) {
      case DiffOpKind::kRead: {
        // The protocol runs before the stack on both sides: the real
        // BeforeRead reconciles remote Dirty copies through the fabric and
        // returns the (possibly stalled) read start; the longhand model
        // mirrors its decisions against the oracle stacks.
        const SimTime start = coherence->BeforeRead(op.host, op.key, now);
        oracle_coherence.OnRead(op.host, op.key, now, start);
        HitLevel level = HitLevel::kRam;
        now = host.stack->Read(start, op.key, &level);
        const OracleHit want = host.oracle->Read(op.key);
        if (CollapseHitLevel(level) != want) {
          return diverge(i, op,
                         std::string("hit tier: real=") + HitLevelName(level) +
                             " oracle=" + OracleHitName(want));
        }
        break;
      }
      case DiffOpKind::kWrite: {
        now = host.stack->Write(now, op.key);
        // The protocol is the write path's only invalidator for every
        // model (it owns Directory::OnBlockWrite and drops stale copies
        // through the fabric); the longhand model does the same to the
        // oracle stacks from its own stale-set computation.
        const SimTime entered = now;
        now = coherence->OnWrite(op.host, op.key, entered, /*measured=*/true);
        host.oracle->Write(op.key);
        oracle_coherence.OnWrite(op.host, op.key, entered);
        // Protocol-driven invalidation must leave every host's real and
        // oracle residency of the written key in agreement.
        for (int other = 0; other < config.num_hosts; ++other) {
          const DiffHost& o = *hosts[static_cast<size_t>(other)];
          if (o.stack->Holds(op.key) != o.oracle->Holds(op.key)) {
            std::ostringstream os;
            os << "invalidation: host " << other << " Holds(" << op.key
               << "): real=" << o.stack->Holds(op.key)
               << " oracle=" << o.oracle->Holds(op.key);
            return diverge(i, op, os.str());
          }
        }
        break;
      }
      case DiffOpKind::kFlushRam:
      case DiffOpKind::kFlushFlash: {
        const bool ram_tier = op.kind == DiffOpKind::kFlushRam;
        const std::optional<SimTime> done = ram_tier ? host.stack->FlushOneRamBlock(now)
                                                     : host.stack->FlushOneFlashBlock(now);
        const bool want =
            ram_tier ? host.oracle->FlushOneRamBlock() : host.oracle->FlushOneFlashBlock();
        if (done.has_value() != want) {
          std::ostringstream os;
          os << "flush outcome: real=" << (done.has_value() ? "wrote" : "clean")
             << " oracle=" << (want ? "wrote" : "clean");
          return diverge(i, op, os.str());
        }
        if (done.has_value()) {
          now = *done;
        }
        break;
      }
      case DiffOpKind::kInvalidate: {
        host.stack->Invalidate(op.key);
        host.oracle->Invalidate(op.key);
        break;
      }
    }
    // Residency agreement on the touched key, both directions.
    if (host.stack->Holds(op.key) != host.oracle->Holds(op.key)) {
      std::ostringstream os;
      os << "Holds(" << op.key << "): real=" << host.stack->Holds(op.key)
         << " oracle=" << host.oracle->Holds(op.key);
      return diverge(i, op, os.str());
    }
    // Lease protocol: the touched key's lease-table entry (presence and
    // absolute expiry) must agree with the longhand model's.
    if (config.coherence == CoherenceModel::kLease) {
      const std::optional<SimTime> real_lease = coherence->LeaseExpiry(op.host, op.key);
      const std::optional<SimTime> want_lease =
          oracle_coherence.LeaseExpiry(op.host, op.key);
      if (real_lease != want_lease) {
        std::ostringstream os;
        os << "lease expiry on host " << op.host << " key " << op.key
           << ": real=" << (real_lease ? std::to_string(*real_lease) : "none")
           << " oracle=" << (want_lease ? std::to_string(*want_lease) : "none");
        return diverge(i, op, os.str());
      }
    }
    queue.RunUntil(now);  // drain due background-writer completions
    const bool deep = config.snapshot_stride != 0 && (i + 1) % config.snapshot_stride == 0;
    if (std::string msg = compare_all(deep); !msg.empty()) {
      return diverge(i, op, std::move(msg));
    }
    ++result.ops_executed;
  }
  queue.RunToCompletion();
  if (std::string msg = compare_all(/*deep=*/true); !msg.empty()) {
    result.ok = false;
    result.op_index = ops.empty() ? 0 : ops.size() - 1;
    result.message = "after final drain: " + std::move(msg);
  }
  return result;
}

std::vector<DiffOp> MinimizeSchedule(const DiffConfig& config, std::vector<DiffOp> ops) {
  DiffResult full = RunSchedule(config, ops);
  if (full.ok) {
    return ops;  // nothing to minimize
  }
  // Ops after the first divergence are irrelevant.
  if (full.op_index + 1 < ops.size()) {
    ops.resize(static_cast<size_t>(full.op_index) + 1);
  }
  // Greedy chunk removal, halving the chunk until single ops.
  size_t chunk = ops.size() / 2;
  while (chunk >= 1) {
    bool removed = false;
    size_t start = 0;
    while (start + chunk <= ops.size()) {
      std::vector<DiffOp> candidate;
      candidate.reserve(ops.size() - chunk);
      candidate.insert(candidate.end(), ops.begin(),
                       ops.begin() + static_cast<ptrdiff_t>(start));
      candidate.insert(candidate.end(), ops.begin() + static_cast<ptrdiff_t>(start + chunk),
                       ops.end());
      if (!RunSchedule(config, candidate).ok) {
        ops = std::move(candidate);
        removed = true;
      } else {
        start += chunk;
      }
    }
    if (chunk == 1) {
      if (!removed) {
        break;
      }
    } else {
      chunk /= 2;
    }
  }
  return ops;
}

DiffResult RunDifferential(const DiffConfig& config, const std::string& diverge_dir) {
  std::vector<DiffOp> ops = GenerateSchedule(config);
  DiffResult result = RunSchedule(config, ops);
  if (result.ok) {
    return result;
  }
  const std::vector<DiffOp> minimized = MinimizeSchedule(config, ops);
  DiffResult final_result = RunSchedule(config, minimized);
  if (final_result.ok) {
    // Minimization should preserve failure; fall back to the original.
    final_result = result;
  } else if (!diverge_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(diverge_dir, ec);
    std::ostringstream name;
    name << ArchitectureName(config.arch) << "_" << PolicyName(config.ram_policy) << "_"
         << PolicyName(config.flash_policy) << "_" << ReplacementPolicyName(config.replacement);
    if (config.coherence != CoherenceModel::kPerfect) {
      name << "_" << CoherenceModelName(config.coherence);
    }
    name << "_seed" << config.seed << ".diverge";
    const std::string path = diverge_dir + "/" + name.str();
    if (WriteDivergeFile(path, config, minimized)) {
      final_result.diverge_file = path;
      final_result.message += " [replay: " + path + "]";
    }
  }
  return final_result;
}

bool WriteDivergeFile(const std::string& path, const DiffConfig& config,
                      const std::vector<DiffOp>& ops) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << "flashsim-diverge v1\n";
  out << "arch " << ArchitectureName(config.arch) << "\n";
  out << "ram_policy " << PolicyName(config.ram_policy) << "\n";
  out << "flash_policy " << PolicyName(config.flash_policy) << "\n";
  out << "replacement " << ReplacementPolicyName(config.replacement) << "\n";
  out << "admission " << AdmissionPolicyName(config.admission) << "\n";
  out << "ram_blocks " << config.ram_blocks << "\n";
  out << "flash_blocks " << config.flash_blocks << "\n";
  out << "hosts " << config.num_hosts << "\n";
  out << "key_space " << config.key_space << "\n";
  out << "seed " << config.seed << "\n";
  out << "snapshot_stride " << config.snapshot_stride << "\n";
  out << "coherence " << CoherenceModelName(config.coherence) << "\n";
  out << "inject_subset_eviction_bug " << (config.inject_subset_eviction_bug ? 1 : 0) << "\n";
  out << "inject_replacement_bug " << (config.inject_replacement_bug ? 1 : 0) << "\n";
  out << "inject_admission_bug " << (config.inject_admission_bug ? 1 : 0) << "\n";
  out << "inject_coherence_bug " << (config.inject_coherence_bug ? 1 : 0) << "\n";
  out << "ops " << ops.size() << "\n";
  for (const DiffOp& op : ops) {
    out << OpKindToken(op.kind) << " " << op.host << " " << op.key << "\n";
  }
  return static_cast<bool>(out);
}

bool LoadDivergeFile(const std::string& path, DiffConfig* config, std::vector<DiffOp>* ops) {
  std::ifstream in(path);
  if (!in) {
    return false;
  }
  std::string line;
  if (!std::getline(in, line) || line != "flashsim-diverge v1") {
    return false;
  }
  *config = DiffConfig{};
  ops->clear();
  uint64_t declared_ops = 0;
  std::string key;
  while (in >> key) {
    if (key == "arch") {
      std::string value;
      in >> value;
      const auto arch = ParseArchitecture(value);
      if (!arch.has_value()) {
        return false;
      }
      config->arch = *arch;
    } else if (key == "ram_policy" || key == "flash_policy") {
      std::string value;
      in >> value;
      const auto policy = ParsePolicy(value);
      if (!policy.has_value()) {
        return false;
      }
      (key == "ram_policy" ? config->ram_policy : config->flash_policy) = *policy;
    } else if (key == "replacement") {
      std::string value;
      in >> value;
      const auto replacement = ParseReplacementPolicy(value);
      if (!replacement.has_value()) {
        return false;
      }
      config->replacement = *replacement;
    } else if (key == "admission") {
      std::string value;
      in >> value;
      const auto admission = ParseAdmissionPolicy(value);
      if (!admission.has_value()) {
        return false;
      }
      config->admission = *admission;
    } else if (key == "ram_blocks") {
      in >> config->ram_blocks;
    } else if (key == "flash_blocks") {
      in >> config->flash_blocks;
    } else if (key == "hosts") {
      in >> config->num_hosts;
    } else if (key == "key_space") {
      in >> config->key_space;
    } else if (key == "seed") {
      in >> config->seed;
    } else if (key == "snapshot_stride") {
      in >> config->snapshot_stride;
    } else if (key == "coherence") {
      std::string value;
      in >> value;
      const auto model = ParseCoherenceModel(value);
      if (!model.has_value()) {
        return false;
      }
      config->coherence = *model;
    } else if (key == "inject_subset_eviction_bug" || key == "inject_replacement_bug" ||
               key == "inject_admission_bug" || key == "inject_coherence_bug") {
      int flag = 0;
      in >> flag;
      if (key == "inject_subset_eviction_bug") {
        config->inject_subset_eviction_bug = flag != 0;
      } else if (key == "inject_replacement_bug") {
        config->inject_replacement_bug = flag != 0;
      } else if (key == "inject_admission_bug") {
        config->inject_admission_bug = flag != 0;
      } else {
        config->inject_coherence_bug = flag != 0;
      }
    } else if (key == "ops") {
      in >> declared_ops;
      break;
    } else {
      return false;  // unknown header key
    }
    if (!in) {
      return false;
    }
  }
  for (uint64_t i = 0; i < declared_ops; ++i) {
    std::string kind_token;
    DiffOp op;
    if (!(in >> kind_token >> op.host >> op.key) || !ParseOpKind(kind_token, &op.kind) ||
        op.host < 0 || op.host >= config->num_hosts) {
      return false;
    }
    ops->push_back(op);
  }
  return true;
}

DiffResult ReplayDivergeFile(const std::string& path) {
  DiffConfig config;
  std::vector<DiffOp> ops;
  if (!LoadDivergeFile(path, &config, &ops)) {
    DiffResult result;
    result.ok = false;
    result.message = "load: failed to read diverge file " + path;
    return result;
  }
  return RunSchedule(config, ops);
}

}  // namespace flashsim
