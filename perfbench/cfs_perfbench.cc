// cfs_perfbench — the repository's benchmark program.
//
// Runs full CFS on the bench-scale cluster of bench/bench_common.h (8
// servers, 8 TafDB shards, 8 FileStore nodes) in virtual-time mode: one
// simtime::Scheduler thread drives every simulated client, so the modelled
// numbers (virt_*) depend only on the seed and the window, and the real
// numbers are this process's own CPU. The system is driven only through
// MetadataClient; the layers are observed through their public stats
// accessors, the global MetricsRegistry counters and the per-op phase split
// OpTrace returns.
//
// Usage:
//   cfs_perfbench --workload table1-mix|shared-dir-churn|large-dir-read
//                 --seed N --seconds S --trace 0|1 [--spans-out FILE]
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the workload
// twice on fresh clusters with the same seed — an untraced replay, then a
// window whose slices alternate untraced and traced (an in-memory span
// around every MetadataClient call) — and prints the per-layer metrics:
// counts per op, modelled phase time per op, each layer's real self time
// from timings of its public entry point taken on the state the traced
// window left, the tracing overhead and whether the two same-seed windows
// produced the same fingerprint. Either way the last stdout line is one
// JSON object {"correct", "attempted", "failed", "metrics"}; --spans-out
// writes the traced spans as CSV.
//
// Every run audits the namespace afterwards (children counters, attribute
// resolution, parent backpointers, reserved names) and checks that exactly
// the names the workload holds live exist and every name it removed is
// gone. A violation prints the seed and fails the run.

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/logging.h"
#include "src/common/metrics.h"
#include "src/common/random.h"
#include "src/common/simtime.h"
#include "src/core/cfs.h"

namespace cfs::perfbench {
namespace {

// ---------------------------------------------------------------------------
// Clocks

int64_t RealNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// User+system CPU of every thread of the process (FileStore's async unref
// pool included).
int64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

int64_t RssKb() {
  long pages = 0, resident = 0;
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
  std::fclose(f);
  return resident * (sysconf(_SC_PAGESIZE) / 1024);
}

int64_t PeakRssKb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

const int64_t kProcessStartNs = RealNs();

// ---------------------------------------------------------------------------
// Workloads

enum class Op : uint8_t {
  kGetAttr, kLookup, kSetAttr, kCreate, kUnlink, kReadDir, kRename, kMkdir,
  kRmdir,
};
constexpr size_t kNumOps = 9;
constexpr const char* kOpNames[kNumOps] = {
    "getattr", "lookup", "setattr", "create", "unlink",
    "readdir", "rename", "mkdir",   "rmdir"};

// What a client may draw; both rename kinds report as Op::kRename.
enum class Action : uint8_t {
  kGetAttr, kLookup, kSetAttr, kCreate, kUnlink, kReadDir, kRenameIntra,
  kRenameCross, kMkdir, kRmdir,
};

enum class Shape { kTable1Mix, kSharedDirChurn, kLargeDirRead };

struct WorkloadSpec {
  const char* name;
  Shape shape;
  size_t clients;
  // table1-mix: files in each client's directory; shared-dir-churn: files
  // each client owns in the shared directory at the start.
  size_t files_per_client;
  // large-dir-read: names in the one big directory.
  size_t big_dir_files;
  // Virtual window per requested real second: sized so a run measures
  // about --seconds of real time on the reference box (4-core x86-64,
  // RelWithDebInfo, lock-order and race hooks compiled in).
  double virt_ms_per_second;
  // Identical set-ups per untraced run; setup_s is their median. More for
  // the workloads whose set-up is short, so it is not one noisy sample.
  size_t setups;
  std::vector<std::pair<Action, double>> mix;
};

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> specs = {
      // Table 1 op shares (percent of production metadata requests); the
      // rename share is cross-directory.
      {"table1-mix", Shape::kTable1Mix, 1000, 32, 0, 12.0, 3,
       {{Action::kGetAttr, 75.25}, {Action::kLookup, 17.80},
        {Action::kSetAttr, 3.21}, {Action::kCreate, 1.44},
        {Action::kUnlink, 1.14}, {Action::kReadDir, 0.92},
        {Action::kRenameCross, 0.12}, {Action::kMkdir, 0.08},
        {Action::kRmdir, 0.04}}},
      // Namespace mutations only, in one shared directory; about 1% of ops
      // leave it through the Renamer.
      {"shared-dir-churn", Shape::kSharedDirChurn, 256, 8, 0, 40.0, 9,
       {{Action::kCreate, 30}, {Action::kUnlink, 24}, {Action::kMkdir, 12},
        {Action::kRmdir, 11}, {Action::kRenameIntra, 22},
        {Action::kRenameCross, 1}}},
      // Uniform point reads over a directory larger than a client's dentry
      // cache (65,536 entries).
      {"large-dir-read", Shape::kLargeDirRead, 128, 0, 100000, 260.0, 3,
       {{Action::kGetAttr, 50}, {Action::kLookup, 50}}},
  };
  return specs;
}

// ---------------------------------------------------------------------------
// Cluster

// The bench-scale cluster of bench/bench_common.h, in virtual time.
CfsOptions BenchScaleSimOptions(uint64_t seed) {
  return bench::WithSimMode(bench::BenchCfsOptions(CfsFullOptions()), seed);
}

// Cluster threads may still run, so skip static destructors.
[[noreturn]] void Die(uint64_t seed, const std::string& what) {
  std::fflush(stdout);
  std::fprintf(stderr, "perfbench: FAILED (seed %" PRIu64 "): %s\n", seed,
               what.c_str());
  std::_Exit(1);
}

// Runs `fn` as one scheduler task, so every modelled delay it hits accrues
// virtual time instead of sleeping.
void RunTask(simtime::Scheduler& sched, const std::function<void()>& fn) {
  sched.At(sched.now_us(), fn);
  sched.RunUntil(sched.now_us());
}

// Dispatches until no event is pending, advancing the virtual clock only
// to just past the last one (RunUntil leaves the clock at its deadline).
void RunToIdle(simtime::Scheduler& sched) {
  while (sched.pending() > 0) sched.RunUntil(sched.now_us() + 1000);
}

struct Client {
  std::unique_ptr<MetadataClient> fs;
  Rng rng;
  uint64_t seq = 0;
  std::string home;   // directory the client's namespace ops target
  std::string away;   // cross-directory rename destination
  std::vector<std::string> files;  // live files in `home` this client owns
  std::vector<std::string> dirs;   // live (empty) subdirectories it owns
  size_t populated = 0;            // set-up progress
};

// Per-op record of a measured window.
struct OpRecord {
  Op op;
  ErrorCode code;
  int64_t virt_start_us;
  int64_t virt_us;
  int64_t real_start_ns;  // traced slices only
  int64_t real_ns;
  bool traced;
};

struct Slice {
  uint64_t ops = 0;
  int64_t real_ns = 0;
  int64_t cpu_ns = 0;
  bool traced = false;
};

// Global counter snapshot (deltas over the measured window).
struct Counters {
  std::map<std::string, uint64_t> values;
  static Counters Take() {
    static const char* kNames[] = {
        "dentry_cache.hit",   "dentry_cache.miss", "dentry_cache.negative_hit",
        "dentry_cache.stale", "dentry_cache.evict", "dentry_cache.revalidate",
        "tafdb.primitives",   "tafdb.reads",       "raft.proposals",
        "wal.appends",        "wal.synced_appends", "filestore.attr_reads",
        "filestore.mutations", "renamer.renames",  "renamer.committed",
        "lockmgr.acquisitions", "lockmgr.contended", "lockmgr.wait_us",
        "2pc.runs",           "2pc.aborted"};
    Counters c;
    for (const char* name : kNames) {
      c.values[name] = MetricsRegistry::Global().GetCounter(name)->value();
    }
    return c;
  }
  double Delta(const Counters& before, const std::string& name) const {
    return static_cast<double>(values.at(name) - before.values.at(name));
  }
};

struct KvTotals {
  uint64_t puts = 0, gets = 0, flushes = 0, compactions = 0;
  uint64_t tafdb_gets = 0, fs_gets = 0;
  std::vector<uint64_t> shard_puts;  // per TafDB shard, all replicas
};

KvTotals TakeKv(Cfs& fs) {
  KvTotals t;
  TafDbCluster* tafdb = fs.tafdb();
  for (size_t s = 0; s < tafdb->num_shards(); s++) {
    RaftGroup* group = tafdb->shard(s)->raft_group();
    uint64_t shard_puts = 0;
    for (size_t r = 0; r < group->size(); r++) {
      KvStore::Stats st =
          static_cast<TafDbShardSm*>(group->state_machine(r))->kv().stats();
      shard_puts += st.puts;
      t.puts += st.puts;
      t.gets += st.gets;
      t.tafdb_gets += st.gets;
      t.flushes += st.flushes;
      t.compactions += st.compactions;
    }
    t.shard_puts.push_back(shard_puts);
  }
  FileStoreCluster* store = fs.filestore();
  for (size_t n = 0; n < store->num_nodes(); n++) {
    RaftGroup* group = store->node(n)->raft_group();
    for (size_t r = 0; r < group->size(); r++) {
      KvStore::Stats st =
          static_cast<FileStoreSm*>(group->state_machine(r))->kv().stats();
      t.puts += st.puts;
      t.gets += st.gets;
      t.fs_gets += st.gets;
      t.flushes += st.flushes;
      t.compactions += st.compactions;
    }
  }
  return t;
}

size_t LeaderReplica(RaftGroup* group) {
  RaftNode* leader = group->Leader();
  return leader != nullptr ? leader->id() : 0;
}

const KvStore& LeaderKv(TafDbShard* shard) {
  RaftGroup* group = shard->raft_group();
  return static_cast<TafDbShardSm*>(group->state_machine(LeaderReplica(group)))
      ->kv();
}

const KvStore& LeaderKv(FileStoreNode* node) {
  RaftGroup* group = node->raft_group();
  return static_cast<FileStoreSm*>(group->state_machine(LeaderReplica(group)))
      ->kv();
}

// Percentile of integer-valued samples (virtual microseconds, real
// nanoseconds), interpolated as grouped data: a value v stands for the
// interval [v - 0.5, v + 0.5), and the percentile is placed inside the
// interval of the value the rank falls on, in proportion to the samples
// below it. Unlike picking one sample, this resolves a shift of the
// distribution smaller than the 1 us quantum of virtual time.
double Percentile(const std::vector<int64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double rank = q * static_cast<double>(sorted.size());
  const size_t i = std::min(sorted.size() - 1, static_cast<size_t>(rank));
  const int64_t v = sorted[i];
  const auto lo = std::lower_bound(sorted.begin(), sorted.end(), v);
  const auto hi = std::upper_bound(sorted.begin(), sorted.end(), v);
  const double below = static_cast<double>(lo - sorted.begin());
  const double at = static_cast<double>(hi - lo);
  return static_cast<double>(v) - 0.5 + (rank - below) / at;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

uint64_t Fnv(uint64_t h, const void* data, size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; i++) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

// ---------------------------------------------------------------------------
// One set-up: a fresh cluster, its clients, the population.

class Bench {
 public:
  Bench(const WorkloadSpec& spec, uint64_t seed, double seconds)
      : spec_(spec),
        seed_(seed),
        sched_(seed),
        window_us_(static_cast<int64_t>(spec.virt_ms_per_second * seconds *
                                        1000)),
        warmup_us_(window_us_ / 5) {
    // Every name the run creates lives under a per-run nonce directory.
    uint64_t state = seed ^ 0x5eedba5eULL;
    char nonce[32];
    std::snprintf(nonce, sizeof(nonce), "%016" PRIx64, SplitMix64(state));
    root_ = std::string("/run") + nonce;
  }

  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  ~Bench() {
    sched_.CancelPending();
    if (fs_ != nullptr) fs_->filestore()->DrainAsync();
    clients_.clear();
    audit_.reset();
    if (fs_ != nullptr) fs_->Stop();
  }

  // Cluster start, client construction, population. Returns real seconds.
  double SetUp() {
    int64_t t0 = RealNs();
    fs_ = std::make_unique<Cfs>(BenchScaleSimOptions(seed_));
    Status st = fs_->Start();
    if (!st.ok()) Die(seed_, "cluster start: " + st.ToString());
    rss_before_clients_kb_ = RssKb();
    clients_.resize(spec_.clients);
    for (size_t i = 0; i < spec_.clients; i++) {
      Client& c = clients_[i];
      c.fs = fs_->NewClient();
      c.rng = Rng(seed_ ^ 0xbadc0ffeeULL ^ (i * 0x9e3779b97f4a7c15ULL));
    }
    Populate();
    const KvStore::Stats hot =
        LeaderKv(fs_->tafdb()->ShardFor(hot_dir_id_)).stats();
    setup_hot_flushes_ = hot.flushes;
    setup_hot_writes_ = hot.puts + hot.deletes;
    return static_cast<double>(RealNs() - t0) / 1e9;
  }

  struct Window {
    std::vector<OpRecord> ops;
    std::vector<Slice> slices;
    PhaseBreakdown phases;
    uint64_t fingerprint = 0xcbf29ce484222325ULL;
    uint64_t events = 0;
    int64_t virt_window_us = 0;
    int64_t real_ns = 0;
    int64_t rss_kb_per_client = 0;
    // Writes into the hot shard's active memtable at the window's end.
    uint64_t hot_memtable_entries = 0;
    Counters before, after;
    KvTotals kv_before, kv_after;
    uint64_t net_before = 0, net_after = 0;
    uint64_t bcast_before = 0, bcast_after = 0;
    uint64_t renamer_commits = 0, renamer_broadcasts = 0;

    uint64_t failed() const {
      uint64_t n = 0;
      for (const OpRecord& r : ops) n += r.code != ErrorCode::kOk;
      return n;
    }
  };

  // Warm-up (a fifth of the window, unmeasured), then the measured virtual
  // window in `num_slices` equal slices. With `trace`, slices alternate
  // untraced/traced in ABBA order (off, on, on, off, off, on, ...), so the
  // tracing overhead is measured on one cluster state, free of the trend
  // a growing namespace puts on consecutive slices.
  Window Run(bool trace, size_t num_slices) {
    Window w;
    w.virt_window_us = window_us_;
    const int64_t start_us = sched_.now_us();
    const int64_t measure_us = start_us + warmup_us_;
    const int64_t end_us = measure_us + window_us_;
    const KvStore& hot_kv = LeaderKv(fs_->tafdb()->ShardFor(hot_dir_id_));
    uint64_t hot_writes_at_flush = 0, hot_flushes = 0;
    {
      KvStore::Stats st = hot_kv.stats();
      hot_writes_at_flush = st.puts + st.deletes;
      hot_flushes = st.flushes;
    }
    w.ops.reserve(1 << 20);
    std::function<void(size_t)> step = [&](size_t t) {
      const bool measured = sched_.now_us() >= measure_us;
      OpTrace::Begin(measured ? "perfbench" : "warmup");
      const int64_t v0 = sched_.task_now_us();
      auto [op, st] = Issue(clients_[t]);
      OpTraceData phases = OpTrace::Finish();
      if (measured) {
        OpRecord rec{op,
                     st.code(),
                     v0,
                     sched_.task_now_us() - v0,
                     span_start_ns_,
                     span_end_ns_ - span_start_ns_,
                     tracing_};
        w.fingerprint = Fnv(w.fingerprint, &rec.op, sizeof(rec.op));
        w.fingerprint = Fnv(w.fingerprint, &rec.code, sizeof(rec.code));
        w.fingerprint = Fnv(w.fingerprint, &rec.virt_us, sizeof(rec.virt_us));
        w.ops.push_back(rec);
        w.phases.Add(phases);
        if (tracing_) {
          KvStore::Stats st_kv = hot_kv.stats();
          if (st_kv.flushes != hot_flushes) {
            hot_flushes = st_kv.flushes;
            hot_writes_at_flush = st_kv.puts + st_kv.deletes;
          }
        }
      }
      int64_t next_us = sched_.task_now_us();
      if (next_us < end_us) sched_.At(next_us, [&step, t] { step(t); });
    };
    for (size_t t = 0; t < clients_.size(); t++) {
      sched_.At(start_us, [&step, t] { step(t); });
    }
    sched_.RunUntil(measure_us - 1);

    w.before = Counters::Take();
    w.kv_before = TakeKv(*fs_);
    w.net_before = fs_->net()->TotalCalls();
    w.bcast_before = BroadcastDeliveries();
    Renamer::Stats ren_before = fs_->renamer()->stats();
    const uint64_t events_before = sched_.events_run();
    const int64_t real0 = RealNs();
    const int64_t cpu0 = CpuNs();
    int64_t slice_real = real0, slice_cpu = cpu0;
    size_t slice_ops = 0;
    for (size_t s = 0; s < num_slices; s++) {
      tracing_ = trace && ((s + 1) / 2) % 2 == 1;
      sched_.RunUntil(measure_us - 1 +
                      window_us_ * static_cast<int64_t>(s + 1) /
                          static_cast<int64_t>(num_slices));
      int64_t r = RealNs(), c = CpuNs();
      w.slices.push_back(Slice{w.ops.size() - slice_ops, r - slice_real,
                               c - slice_cpu, tracing_});
      slice_ops = w.ops.size();
      slice_real = r;
      slice_cpu = c;
    }
    tracing_ = false;
    w.real_ns = RealNs() - real0;
    w.events = sched_.events_run() - events_before;
    (void)sched_.CancelPending();
    fs_->filestore()->DrainAsync();

    w.after = Counters::Take();
    w.kv_after = TakeKv(*fs_);
    w.net_after = fs_->net()->TotalCalls();
    w.bcast_after = BroadcastDeliveries();
    Renamer::Stats ren_after = fs_->renamer()->stats();
    w.renamer_commits = ren_after.committed - ren_before.committed;
    w.renamer_broadcasts =
        ren_after.invalidations_broadcast - ren_before.invalidations_broadcast;
    w.rss_kb_per_client =
        (RssKb() - rss_before_clients_kb_) /
        static_cast<int64_t>(std::max<size_t>(clients_.size(), 1));
    KvStore::Stats hot = hot_kv.stats();
    w.hot_memtable_entries = hot.puts + hot.deletes - hot_writes_at_flush;
    return w;
  }

  // Namespace audit plus the live/removed name check. Returns the first
  // violation, or "" when the namespace is sound.
  std::string Audit() {
    fs_->filestore()->DrainAsync();
    audit_ = fs_->NewClient();
    std::string violation;
    std::unordered_set<std::string> seen;
    RunTask(sched_, [&] {
      std::deque<std::pair<std::string, InodeId>> queue;
      queue.emplace_back("/", kRootInode);
      while (!queue.empty() && violation.empty()) {
        auto [path, id] = queue.front();
        queue.pop_front();
        auto listing = audit_->ReadDir(path);
        auto attr = audit_->GetAttr(path);
        if (!listing.ok() || !attr.ok()) {
          violation = "cannot list or stat directory " + path;
          break;
        }
        if (static_cast<size_t>(attr->children) != listing->size()) {
          violation = path + ": children counter " +
                      std::to_string(attr->children) + " != readdir size " +
                      std::to_string(listing->size());
          break;
        }
        for (const DirEntry& entry : *listing) {
          if (entry.name == kAttrKeyStr) {
            violation = path + ": reserved attribute key listed";
            break;
          }
          std::string child = (path == "/" ? "" : path) + "/" + entry.name;
          seen.insert(child);
          auto child_attr = audit_->GetAttr(child);
          if (!child_attr.ok()) {
            violation = child + ": attributes do not resolve: " +
                        child_attr.status().ToString();
            break;
          }
          if (entry.type == InodeType::kDirectory) {
            auto rec = fs_->tafdb()->ShardFor(entry.id)->Get(
                InodeKey::AttrRecord(entry.id));
            if (!rec.ok() || rec->parent != id) {
              violation = child + ": parent backpointer is wrong";
              break;
            }
            queue.emplace_back(child, entry.id);
          }
        }
      }
      if (!violation.empty()) return;
      for (const std::string& path : live_) {
        if (seen.count(path) == 0) {
          violation = "live name missing: " + path;
          return;
        }
      }
      for (const std::string& path : seen) {
        if (live_.count(path) == 0) {
          violation = "unexpected name present: " + path;
          return;
        }
      }
      for (const std::string& path : removed_) {
        auto st = audit_->Lookup(path);
        if (!st.status().IsNotFound()) {
          violation = "removed name does not return NotFound: " + path;
          return;
        }
      }
    });
    return violation;
  }

  // The names a client's read ops draw from.
  const std::vector<std::string>& ReadPool(const Client& c) const {
    return spec_.shape == Shape::kLargeDirRead ? big_dir_names_ : c.files;
  }
  size_t hot_shard_index() const {
    return fs_->tafdb()->ShardIndexFor(hot_dir_id_);
  }
  size_t num_clients() const { return clients_.size(); }
  size_t live_names() const { return live_.size(); }
  // The hot shard leader's KV writes and memtable flushes during set-up.
  std::string SetUpSummary() const {
    return std::to_string(setup_hot_writes_) + " hot-shard KV writes, " +
           std::to_string(setup_hot_flushes_) + " flushes";
  }
  size_t removed_names() const { return removed_.size(); }
  Cfs& fs() { return *fs_; }
  simtime::Scheduler& sched() { return sched_; }
  std::vector<Client>& clients() { return clients_; }
  InodeId hot_dir_id() const { return hot_dir_id_; }

 private:
  // Set-up: the run root, then every client's population as a closed loop
  // on the scheduler (virtual time, so modelled delays cost no real sleep).
  void Populate() {
    RunTask(sched_, [&] {
      MustOk(clients_[0].fs->Mkdir(root_, 0755), "mkdir " + root_);
      live_.insert(root_);
      if (spec_.shape == Shape::kSharedDirChurn) {
        MustOk(clients_[0].fs->Mkdir(root_ + "/shared", 0755), "mkdir shared");
        live_.insert(root_ + "/shared");
      } else if (spec_.shape == Shape::kLargeDirRead) {
        MustOk(clients_[0].fs->Mkdir(root_ + "/big", 0755), "mkdir big");
        live_.insert(root_ + "/big");
      }
    });
    for (size_t i = 0; i < clients_.size(); i++) {
      Client& c = clients_[i];
      std::string id = std::to_string(i);
      switch (spec_.shape) {
        case Shape::kTable1Mix:
          c.home = root_ + "/c" + id;
          c.away = root_ + "/c" + id + ".away";
          break;
        case Shape::kSharedDirChurn:
          c.home = root_ + "/shared";
          c.away = root_ + "/p" + id;
          break;
        case Shape::kLargeDirRead:
          c.home = root_ + "/big";
          break;
      }
    }
    std::function<void(size_t)> step = [&](size_t t) {
      if (PopulateStep(t)) {
        sched_.At(sched_.task_now_us(), [&step, t] { step(t); });
      }
    };
    for (size_t t = 0; t < clients_.size(); t++) {
      sched_.At(sched_.now_us(), [&step, t] { step(t); });
    }
    RunToIdle(sched_);
    RunTask(sched_, [&] {
      auto dir = clients_[0].fs->Lookup(clients_[0].home);
      if (!dir.ok()) Die(seed_, "lookup " + clients_[0].home);
      hot_dir_id_ = dir->id;
    });
  }

  // One population op for client t; false when its share is done.
  bool PopulateStep(size_t t) {
    Client& c = clients_[t];
    size_t k = c.populated++;
    switch (spec_.shape) {
      case Shape::kTable1Mix:
        if (k < 2) {
          MakeDir(c, k == 0 ? c.home : c.away, false);
          return true;
        }
        if (k - 2 < spec_.files_per_client) {
          MakeFile(c, c.home + "/f" + std::to_string(k - 2), true);
          return k - 2 + 1 < spec_.files_per_client;
        }
        return false;
      case Shape::kSharedDirChurn:
        if (k == 0) {
          MakeDir(c, c.away, false);
          return true;
        }
        if (k - 1 < spec_.files_per_client) {
          MakeFile(c, c.home + "/s" + std::to_string(t) + "_" +
                          std::to_string(k - 1),
                   true);
          return k - 1 + 1 < spec_.files_per_client;
        }
        return false;
      case Shape::kLargeDirRead: {
        size_t per = (spec_.big_dir_files + clients_.size() - 1) /
                     clients_.size();
        size_t index = t * per + k;
        if (k >= per || index >= spec_.big_dir_files) return false;
        std::string path = c.home + "/f" + std::to_string(index);
        MustOk(c.fs->Create(path, 0644), "create " + path);
        live_.insert(path);
        big_dir_names_.push_back(std::move(path));
        return k + 1 < per;
      }
    }
    return false;
  }

  void MustOk(const Status& st, const std::string& what) {
    if (!st.ok()) Die(seed_, "set-up " + what + ": " + st.ToString());
  }
  void MakeDir(Client& c, const std::string& path, bool own) {
    MustOk(c.fs->Mkdir(path, 0755), "mkdir " + path);
    live_.insert(path);
    if (own) c.dirs.push_back(path);
  }
  void MakeFile(Client& c, const std::string& path, bool own) {
    MustOk(c.fs->Create(path, 0644), "create " + path);
    live_.insert(path);
    if (own) c.files.push_back(path);
  }

  // Issues one MetadataClient call, keeping its real start and end while
  // a traced slice runs.
  template <typename Fn>
  auto Call(Fn&& fn) {
    if (tracing_) span_start_ns_ = RealNs();
    auto result = fn();
    if (tracing_) span_end_ns_ = RealNs();
    return result;
  }

  std::string FreshName(Client& c, const char* tag, size_t t) {
    return tag + std::to_string(t) + "_" + std::to_string(c.seq++);
  }

  // Draws and issues one op. Generators only create fresh names and only
  // remove or move names the client holds live, so no op can fail on a
  // correct system; an action with nothing to act on falls back to a
  // create (unlink, rename) or mkdir (rmdir).
  std::pair<Op, Status> Issue(Client& c) {
    double total = 0;
    for (const auto& [a, w] : spec_.mix) total += w;
    double draw = static_cast<double>(c.rng.Next() >> 11) * 0x1.0p-53 * total;
    Action action = spec_.mix.back().first;
    for (const auto& [a, w] : spec_.mix) {
      if (draw < w) {
        action = a;
        break;
      }
      draw -= w;
    }
    const size_t t = static_cast<size_t>(&c - clients_.data());
    const std::vector<std::string>& pool = ReadPool(c);
    if ((action == Action::kUnlink || action == Action::kRenameIntra ||
         action == Action::kRenameCross) &&
        c.files.empty()) {
      action = Action::kCreate;
    }
    if ((action == Action::kGetAttr || action == Action::kLookup ||
         action == Action::kSetAttr) &&
        pool.empty()) {
      action = Action::kCreate;
    }
    if (action == Action::kRmdir && c.dirs.empty()) action = Action::kMkdir;

    switch (action) {
      case Action::kGetAttr: {
        const std::string& path = pool[c.rng.Uniform(pool.size())];
        return {Op::kGetAttr,
                Call([&] { return c.fs->GetAttr(path).status(); })};
      }
      case Action::kLookup: {
        const std::string& path = pool[c.rng.Uniform(pool.size())];
        return {Op::kLookup,
                Call([&] { return c.fs->Lookup(path).status(); })};
      }
      case Action::kSetAttr: {
        const std::string& path = pool[c.rng.Uniform(pool.size())];
        SetAttrSpec spec;
        spec.mtime = c.seq++;
        return {Op::kSetAttr, Call([&] { return c.fs->SetAttr(path, spec); })};
      }
      case Action::kReadDir:
        return {Op::kReadDir,
                Call([&] { return c.fs->ReadDir(c.home).status(); })};
      case Action::kCreate: {
        std::string path = c.home + "/" + FreshName(c, "n", t);
        Status st = Call([&] { return c.fs->Create(path, 0644); });
        if (st.ok()) {
          live_.insert(path);
          c.files.push_back(std::move(path));
        }
        return {Op::kCreate, st};
      }
      case Action::kMkdir: {
        std::string path = c.home + "/" + FreshName(c, "d", t);
        Status st = Call([&] { return c.fs->Mkdir(path, 0755); });
        if (st.ok()) {
          live_.insert(path);
          c.dirs.push_back(std::move(path));
        }
        return {Op::kMkdir, st};
      }
      case Action::kUnlink: {
        size_t i = c.rng.Uniform(c.files.size());
        Status st = Call([&] { return c.fs->Unlink(c.files[i]); });
        if (st.ok()) Forget(c.files, i);
        return {Op::kUnlink, st};
      }
      case Action::kRmdir: {
        size_t i = c.rng.Uniform(c.dirs.size());
        Status st = Call([&] { return c.fs->Rmdir(c.dirs[i]); });
        if (st.ok()) Forget(c.dirs, i);
        return {Op::kRmdir, st};
      }
      case Action::kRenameIntra:
      case Action::kRenameCross: {
        size_t i = c.rng.Uniform(c.files.size());
        bool intra = action == Action::kRenameIntra;
        std::string to = (intra ? c.home : c.away) + "/" + FreshName(c, "m", t);
        Status st = Call([&] { return c.fs->Rename(c.files[i], to); });
        if (st.ok()) {
          Forget(c.files, i);
          live_.insert(to);
          // A file moved away leaves the working set but stays live.
          if (intra) c.files.push_back(std::move(to));
        }
        return {Op::kRename, st};
      }
    }
    return {Op::kCreate, Status::Internal("unreachable")};
  }

  // Removes names[i] (swap-remove) and records it as removed.
  void Forget(std::vector<std::string>& names, size_t i) {
    live_.erase(names[i]);
    removed_.push_back(std::move(names[i]));
    names[i] = std::move(names.back());
    names.pop_back();
  }

  uint64_t BroadcastDeliveries() const {
    const NodeId coordinator = fs_->renamer()->CoordinatorNetId();
    std::unordered_set<NodeId> engines;
    for (const Client& c : clients_) {
      engines.insert(static_cast<CfsEngine*>(c.fs.get())->self());
    }
    uint64_t n = 0;
    for (const auto& [edge, stat] : fs_->net()->EdgeStats()) {
      if (edge.first == coordinator && engines.count(edge.second) != 0) {
        n += stat.calls;
      }
    }
    return n;
  }

  const WorkloadSpec& spec_;
  uint64_t seed_;
  simtime::Scheduler sched_;
  int64_t window_us_;
  int64_t warmup_us_;
  std::string root_;
  std::unique_ptr<Cfs> fs_;
  std::vector<Client> clients_;
  std::unique_ptr<MetadataClient> audit_;
  std::vector<std::string> big_dir_names_;
  std::unordered_set<std::string> live_;
  std::vector<std::string> removed_;
  InodeId hot_dir_id_ = kInvalidInode;
  int64_t rss_before_clients_kb_ = 0;
  uint64_t setup_hot_writes_ = 0;
  uint64_t setup_hot_flushes_ = 0;
  // Span of the last MetadataClient call, kept while a traced slice runs.
  bool tracing_ = false;
  int64_t span_start_ns_ = 0;
  int64_t span_end_ns_ = 0;
};

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string samples;  // what the value was computed from
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-40s %16.6f %-6s  [%s]\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); i++) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void PrintFailures(const Bench::Window& w) {
  uint64_t attempts[kNumOps] = {};
  std::map<std::pair<size_t, ErrorCode>, uint64_t> failures;
  for (const OpRecord& r : w.ops) {
    attempts[static_cast<size_t>(r.op)]++;
    if (r.code != ErrorCode::kOk) {
      failures[{static_cast<size_t>(r.op), r.code}]++;
    }
  }
  std::printf("  ops attempted per type:");
  for (size_t i = 0; i < kNumOps; i++) {
    if (attempts[i] != 0) {
      std::printf(" %s=%" PRIu64, kOpNames[i], attempts[i]);
    }
  }
  std::printf("\n  failures per type and status:%s\n",
              failures.empty() ? " none" : "");
  for (const auto& [key, n] : failures) {
    std::printf("    %s %s: %" PRIu64 " of %" PRIu64 "\n", kOpNames[key.first],
                std::string(ErrorCodeName(key.second)).c_str(), n,
                attempts[key.first]);
  }
}

std::string Count(uint64_t n, const char* what) {
  return std::to_string(n) + " " + what;
}

// End-to-end metrics of one untraced window.
std::vector<Metric> EndToEnd(const Bench::Window& w,
                             const std::vector<double>& setups) {
  std::vector<double> rate, cpu;
  std::printf("  slices (ops/s, cpu us/op):");
  for (const Slice& s : w.slices) {
    if (s.ops == 0 || s.real_ns <= 0) continue;
    rate.push_back(static_cast<double>(s.ops) * 1e9 /
                   static_cast<double>(s.real_ns));
    cpu.push_back(static_cast<double>(s.cpu_ns) / 1e3 /
                  static_cast<double>(s.ops));
    std::printf(" %.0f/%.1f", rate.back(), cpu.back());
  }
  std::printf("\n");
  std::vector<int64_t> lat;
  lat.reserve(w.ops.size());
  for (const OpRecord& r : w.ops) lat.push_back(r.virt_us);
  std::sort(lat.begin(), lat.end());
  const uint64_t n = lat.size();
  const std::string slices =
      Count(w.slices.size(), "slices") + ", " + Count(n, "ops");
  return {
      {"sim_ops_per_s", Median(rate), "1/s", "median of " + slices},
      {"cpu_us_per_op", Median(cpu), "us", "median of " + slices},
      {"setup_s", Median(setups), "s",
       "median of " + Count(setups.size(), "set-ups")},
      {"peak_rss_mb", static_cast<double>(PeakRssKb()) / 1024.0, "MB",
       "process peak"},
      {"virt_ops_per_s",
       static_cast<double>(n) * 1e6 / static_cast<double>(w.virt_window_us),
       "1/s", Count(n, "ops") + " in " +
                  std::to_string(w.virt_window_us / 1000) + " virtual ms"},
      {"virt_p50_us", Percentile(lat, 0.5), "us", Count(n, "ops")},
      {"virt_p999_us", Percentile(lat, 0.999), "us",
       Count(n, "ops") + ", " + Count(n / 1000, "beyond p99.9")},
  };
}

// ---------------------------------------------------------------------------
// Layer timings on the state a traced window left.

struct LayerTimes {
  double sched_ns_per_event = 0;
  double net_ns_per_call = 0;
  double dentry_ns_per_lookup = 0;
  double tafdb_us_per_get = 0;
  double tafdb_us_per_primitive = 0;
  double kv_ns_per_get = 0;     // hot TafDB shard's leader replica
  double kv_fs_ns_per_get = 0;  // FileStore leader replicas
  double fs_us_per_getattr = 0;
};

// Inputs drawn from the workload's live names: (client, path, parent id,
// inode id).
struct Sample {
  CfsEngine* engine;
  std::string path;
  InodeId parent;
  InodeId id;
};

template <typename Fn>
double TimeNs(size_t iterations, Fn&& fn) {
  int64_t t0 = RealNs();
  for (size_t i = 0; i < iterations; i++) fn(i);
  return static_cast<double>(RealNs() - t0) / static_cast<double>(iterations);
}

LayerTimes TimeLayers(Bench& bench, uint64_t seed) {
  LayerTimes lt;
  Cfs& fs = bench.fs();
  simtime::Scheduler& sched = bench.sched();
  std::vector<Client>& clients = bench.clients();

  // Scheduler: self-rescheduling events with one pending per client, the
  // heap shape of the workload.
  {
    const size_t kEvents = 400000;
    size_t dispatched = 0;
    Rng rng(seed);
    std::function<void()> tick = [&] {
      if (++dispatched < kEvents) {
        sched.At(sched.now_us() + 1 + static_cast<int64_t>(rng.Uniform(300)),
                 tick);
      }
    };
    for (size_t i = 0; i < clients.size(); i++) {
      sched.At(sched.now_us() + static_cast<int64_t>(rng.Uniform(300)), tick);
    }
    int64_t t0 = RealNs();
    RunToIdle(sched);
    lt.sched_ns_per_event =
        static_cast<double>(RealNs() - t0) / static_cast<double>(dispatched);
    (void)sched.CancelPending();
  }

  std::vector<Sample> samples;
  RunTask(sched, [&] {
    Rng rng(seed ^ 0x1a7e5ULL);
    for (size_t i = 0; samples.size() < 1024 && i < 64 * 1024; i++) {
      Client& c = clients[rng.Uniform(clients.size())];
      const std::vector<std::string>& pool = bench.ReadPool(c);
      if (pool.empty()) continue;
      const std::string& path = pool[rng.Uniform(pool.size())];
      auto parent = c.fs->Lookup(c.home);
      auto entry = c.fs->Lookup(path);
      if (!parent.ok() || !entry.ok()) Die(seed, "layer sample " + path);
      samples.push_back(Sample{static_cast<CfsEngine*>(c.fs.get()), path,
                               parent->id, entry->id});
    }
  });
  if (samples.empty()) Die(seed, "no live names to time layers with");
  const size_t n = samples.size();

  RunTask(sched, [&] {
    TafDbShard* hot_shard = fs.tafdb()->ShardFor(bench.hot_dir_id());
    const NodeId shard_node = hot_shard->ServiceNetId();
    lt.net_ns_per_call = TimeNs(200000, [&](size_t i) {
      const Sample& s = samples[i % n];
      (void)fs.net()->Call(s.engine->self(), shard_node,
                           [] { return Status::Ok(); });
    });
    // The engine owns its cache non-const; dentry_cache() only exposes it
    // const, and Lookup (LRU touch, counters) is the entry point timed.
    lt.dentry_ns_per_lookup = TimeNs(400000, [&](size_t i) {
      const Sample& s = samples[i % n];
      (void)const_cast<DentryCache&>(s.engine->dentry_cache())
          .Lookup(s.path, s.parent);
    });
    std::vector<std::pair<TafDbShard*, InodeKey>> keys;
    std::vector<std::string> encoded;
    for (const Sample& s : samples) {
      auto name = s.path.substr(s.path.rfind('/') + 1);
      keys.emplace_back(fs.tafdb()->ShardFor(s.parent),
                        InodeKey::IdRecord(s.parent, name));
      encoded.push_back(keys.back().second.Encode());
    }
    lt.tafdb_us_per_get = TimeNs(50000, [&](size_t i) {
                            auto& [shard, key] = keys[i % n];
                            (void)shard->Get(key);
                          }) /
                          1e3;
    std::vector<std::string> hot_keys;
    for (size_t i = 0; i < n; i++) {
      if (keys[i].first == hot_shard) hot_keys.push_back(encoded[i]);
    }
    if (hot_keys.empty()) hot_keys = encoded;
    lt.kv_ns_per_get = TimeNs(200000, [&](size_t i) {
      (void)LeaderKv(hot_shard).Get(hot_keys[i % hot_keys.size()]);
    });
    std::vector<std::string> attr_keys;
    for (const Sample& s : samples) {
      attr_keys.push_back(FileStoreSm::AttrKey(s.id));
    }
    lt.kv_fs_ns_per_get = TimeNs(200000, [&](size_t i) {
      InodeId id = samples[i % n].id;
      (void)LeaderKv(fs.filestore()->NodeFor(id)).Get(attr_keys[i % n]);
    });
    lt.fs_us_per_getattr = TimeNs(50000, [&](size_t i) {
                             InodeId id = samples[i % n].id;
                             (void)fs.filestore()->NodeFor(id)->GetAttr(id);
                           }) /
                           1e3;
    // A real primitive that leaves the namespace as it was: an LWW mtime
    // touch of a sampled file's parent directory.
    uint64_t ts = uint64_t{1} << 62;
    lt.tafdb_us_per_primitive = TimeNs(3000, [&](size_t i) {
                                  const Sample& s = samples[i % n];
                                  PrimitiveOp op;
                                  UpdateSpec touch;
                                  touch.key = InodeKey::AttrRecord(s.parent);
                                  touch.lww.mtime = ts + i;
                                  touch.lww.ts = ts + i;
                                  op.updates.push_back(touch);
                                  (void)fs.tafdb()
                                      ->ShardFor(s.parent)
                                      ->ExecutePrimitive(op);
                                }) /
                                1e3;
  });
  return lt;
}

std::vector<Metric> PerLayer(const Bench& bench, const Bench::Window& w,
                             const LayerTimes& lt, bool same_seed_match) {
  const double ops = static_cast<double>(std::max<size_t>(w.ops.size(), 1));
  auto per_op = [&](const std::string& counter) {
    return w.after.Delta(w.before, counter) / ops;
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  auto phase = [&](Phase p) {
    return static_cast<double>(w.phases.PhaseUs(p)) / ops;
  };

  // Real time per op from the spans of the traced slices.
  std::vector<int64_t> real;
  double real_sum[kNumOps] = {};
  uint64_t real_count[kNumOps] = {};
  double span_ns = 0;
  uint64_t failed = 0;
  for (const OpRecord& r : w.ops) {
    failed += r.code != ErrorCode::kOk;
    if (!r.traced) continue;
    real.push_back(r.real_ns);
    real_sum[static_cast<size_t>(r.op)] += static_cast<double>(r.real_ns);
    real_count[static_cast<size_t>(r.op)]++;
    span_ns += static_cast<double>(r.real_ns);
  }
  std::sort(real.begin(), real.end());
  const double traced_ops =
      static_cast<double>(std::max<size_t>(real.size(), 1));
  std::vector<double> rate[2];
  double traced_window_ns = 0;
  for (const Slice& sl : w.slices) {
    if (sl.real_ns <= 0) continue;
    rate[sl.traced].push_back(static_cast<double>(sl.ops) * 1e9 /
                              static_cast<double>(sl.real_ns));
    if (sl.traced) traced_window_ns += static_cast<double>(sl.real_ns);
  }

  const double bcast = static_cast<double>(w.bcast_after - w.bcast_before);
  const double rpcs =
      static_cast<double>(w.net_after - w.net_before) - bcast;
  const double lookups = w.after.Delta(w.before, "dentry_cache.hit") +
                         w.after.Delta(w.before, "dentry_cache.miss") +
                         w.after.Delta(w.before, "dentry_cache.negative_hit");
  const double kv_puts =
      static_cast<double>(w.kv_after.puts - w.kv_before.puts);
  const double kv_gets =
      static_cast<double>(w.kv_after.gets - w.kv_before.gets);
  const double kv_tafdb_gets =
      static_cast<double>(w.kv_after.tafdb_gets - w.kv_before.tafdb_gets);
  const double kv_fs_gets =
      static_cast<double>(w.kv_after.fs_gets - w.kv_before.fs_gets);
  const size_t hot_shard = bench.hot_shard_index();
  const double hot_puts = static_cast<double>(
      w.kv_after.shard_puts[hot_shard] - w.kv_before.shard_puts[hot_shard]);
  double shard_puts = 0;
  for (size_t s = 0; s < w.kv_after.shard_puts.size(); s++) {
    shard_puts += static_cast<double>(w.kv_after.shard_puts[s] -
                                      w.kv_before.shard_puts[s]);
  }
  const double renames = w.after.Delta(w.before, "renamer.renames");
  const double acquisitions = w.after.Delta(w.before, "lockmgr.acquisitions");
  const double pc_runs = w.after.Delta(w.before, "2pc.runs");

  // Real self time per op (us): a layer's inclusive time per call (timed
  // in isolation) x its calls per op (counted in the window), minus the
  // same figure for the layers beneath it. The layer tree: core (the
  // engine, measured by the op spans) over dentry cache, SimNet, TafDB
  // (reads, primitives) and FileStore (attribute reads); TafDB and
  // FileStore over KV. Each FileStore attribute read is one KV get; the
  // other FileStore-side KV gets belong to mutations, which are not timed
  // in isolation and stay in core. Core's self time is therefore also the
  // home of every layer not timed alone (Raft, WAL, Renamer, FileStore
  // mutations).
  const double events_per_op = static_cast<double>(w.events) / ops;
  const double attr_reads = per_op("filestore.attr_reads");
  const double sched_us = lt.sched_ns_per_event * events_per_op / 1e3;
  const double net_us = lt.net_ns_per_call * rpcs / ops / 1e3;
  const double dentry_us = lt.dentry_ns_per_lookup * lookups / ops / 1e3;
  const double kv_tafdb_us = lt.kv_ns_per_get * kv_tafdb_gets / ops / 1e3;
  const double kv_fs_read_us = lt.kv_fs_ns_per_get * attr_reads / 1e3;
  const double kv_fs_other_us =
      lt.kv_fs_ns_per_get * kv_fs_gets / ops / 1e3 - kv_fs_read_us;
  const double kv_us = kv_tafdb_us + kv_fs_read_us + kv_fs_other_us;
  const double tafdb_incl =
      lt.tafdb_us_per_get * per_op("tafdb.reads") +
      lt.tafdb_us_per_primitive * per_op("tafdb.primitives");
  const double fs_incl = lt.fs_us_per_getattr * attr_reads;
  const double core_incl = span_ns / traced_ops / 1e3;
  const double core_self =
      core_incl - net_us - dentry_us - tafdb_incl - fs_incl - kv_fs_other_us;
  // What no layer accounts for: traced window time outside the op spans
  // and outside scheduler dispatch (the benchmark's own op generation and
  // bookkeeping).
  const double unattributed =
      ratio(traced_window_ns - span_ns - sched_us * 1e3 * traced_ops,
            traced_window_ns);
  const double overhead = 1.0 - ratio(Median(rate[1]), Median(rate[0]));

  const std::string nops = Count(w.ops.size(), "ops");
  const std::string ntraced = Count(real.size(), "traced ops");
  std::vector<Metric> m = {
      {"sched.events_per_op", events_per_op, "count", nops},
      {"sched.real_ns_per_event", lt.sched_ns_per_event, "ns", "400000 events"},
      {"core.real_us_p50", Percentile(real, 0.5) / 1e3, "us", ntraced},
      {"core.real_us_p99", Percentile(real, 0.99) / 1e3, "us", ntraced},
      {"core.real_us_max",
       real.empty() ? 0.0 : static_cast<double>(real.back()) / 1e3, "us",
       ntraced},
  };
  for (size_t i = 0; i < kNumOps; i++) {
    m.push_back({std::string("core.") + kOpNames[i] + ".real_us_mean",
                 ratio(real_sum[i], static_cast<double>(real_count[i])) / 1e3,
                 "us", Count(real_count[i], "ops")});
  }
  std::vector<Metric> rest = {
      {"phase.resolve.virt_us_per_op", phase(Phase::kResolve), "us", nops},
      {"dentry_cache.hit_ratio",
       ratio(w.after.Delta(w.before, "dentry_cache.hit"), lookups), "ratio",
       "base: " + Count(static_cast<uint64_t>(lookups), "lookups")},
      {"dentry_cache.stale_per_op", per_op("dentry_cache.stale"), "count",
       nops},
      {"dentry_cache.revalidations_per_op", per_op("dentry_cache.revalidate"),
       "count", nops},
      {"dentry_cache.evictions", w.after.Delta(w.before, "dentry_cache.evict"),
       "count", "window"},
      {"dentry_cache.real_ns_per_lookup", lt.dentry_ns_per_lookup, "ns",
       "400000 calls"},
      {"phase.resolve_cached.virt_us_per_op", phase(Phase::kResolveCached),
       "us", nops},
      {"net.rpcs_per_op", rpcs / ops, "count", nops},
      {"net.broadcast_deliveries_per_op", bcast / ops, "count", nops},
      {"net.real_ns_per_call", lt.net_ns_per_call, "ns", "200000 calls"},
      {"phase.rpc.virt_us_per_op", phase(Phase::kRpc), "us", nops},
      {"tafdb.primitives_per_op", per_op("tafdb.primitives"), "count", nops},
      {"tafdb.reads_per_op", per_op("tafdb.reads"), "count", nops},
      {"tafdb.hot_shard_put_share", ratio(hot_puts, shard_puts), "ratio",
       "base: TafDB KV puts"},
      {"tafdb.real_us_per_primitive", lt.tafdb_us_per_primitive, "us",
       "3000 calls"},
      {"tafdb.real_us_per_get", lt.tafdb_us_per_get, "us", "50000 calls"},
      {"phase.shard_exec.virt_us_per_op", phase(Phase::kShardExec), "us", nops},
      {"raft.proposals_per_op", per_op("raft.proposals"), "count", nops},
      {"phase.raft_append.virt_us_per_op", phase(Phase::kRaftAppend), "us",
       nops},
      {"wal.appends_per_op", per_op("wal.appends"), "count", nops},
      {"wal.synced_appends_per_op", per_op("wal.synced_appends"), "count",
       nops},
      {"phase.wal_fsync.virt_us_per_op", phase(Phase::kWalFsync), "us", nops},
      {"kv.puts_per_op", kv_puts / ops, "count", nops},
      {"kv.gets_per_op", kv_gets / ops, "count", nops},
      {"kv.flushes",
       static_cast<double>(w.kv_after.flushes - w.kv_before.flushes), "count",
       "window"},
      {"kv.compactions",
       static_cast<double>(w.kv_after.compactions - w.kv_before.compactions),
       "count", "window"},
      {"kv.hot_memtable_entries", static_cast<double>(w.hot_memtable_entries),
       "count", "end of window"},
      {"kv.real_ns_per_get", lt.kv_ns_per_get, "ns",
       "200000 calls, hot shard leader"},
      {"kv.filestore_real_ns_per_get", lt.kv_fs_ns_per_get, "ns",
       "200000 calls, FileStore leaders"},
      {"filestore.attr_reads_per_op", per_op("filestore.attr_reads"), "count",
       nops},
      {"filestore.mutations_per_op", per_op("filestore.mutations"), "count",
       nops},
      {"filestore.real_us_per_getattr", lt.fs_us_per_getattr, "us",
       "50000 calls"},
      {"renamer.renames_per_op", renames / ops, "count", nops},
      {"renamer.commit_ratio",
       ratio(static_cast<double>(w.renamer_commits), renames), "ratio",
       "base: " + Count(static_cast<uint64_t>(renames), "renames")},
      {"renamer.broadcasts_per_op",
       static_cast<double>(w.renamer_broadcasts) / ops, "count", nops},
      {"phase.renamer.virt_us_per_op", phase(Phase::kRenamer), "us", nops},
      {"lockmgr.acquisitions_per_op", acquisitions / ops, "count", nops},
      {"lockmgr.contended_ratio",
       ratio(w.after.Delta(w.before, "lockmgr.contended"), acquisitions),
       "ratio", "base: lock acquisitions"},
      {"lockmgr.wait_us_per_op", per_op("lockmgr.wait_us"), "us", nops},
      {"2pc.runs_per_op", pc_runs / ops, "count", nops},
      {"2pc.abort_ratio",
       ratio(w.after.Delta(w.before, "2pc.aborted"), pc_runs), "ratio",
       "base: 2PC runs"},
      {"phase.lock_wait.virt_us_per_op", phase(Phase::kLockWait), "us", nops},
      {"phase.2pc_prepare.virt_us_per_op", phase(Phase::kTwoPcPrepare), "us",
       nops},
      {"phase.2pc_decision.virt_us_per_op", phase(Phase::kTwoPcDecision), "us",
       nops},
      {"rss_kb_per_client", static_cast<double>(w.rss_kb_per_client), "KB",
       Count(bench.num_clients(), "clients")},
      {"failed_op_ratio", ratio(static_cast<double>(failed), ops), "ratio",
       "base: " + nops},
      {"selftime.sched.real_us_per_op", sched_us, "us", "timed x counted"},
      {"selftime.core.real_us_per_op", core_self, "us", "timed x counted"},
      {"selftime.dentry_cache.real_us_per_op", dentry_us, "us",
       "timed x counted"},
      {"selftime.net.real_us_per_op", net_us, "us", "timed x counted"},
      {"selftime.tafdb.real_us_per_op", tafdb_incl - kv_tafdb_us, "us",
       "timed x counted"},
      {"selftime.kv.real_us_per_op", kv_us, "us", "timed x counted"},
      {"selftime.filestore.real_us_per_op", fs_incl - kv_fs_read_us, "us",
       "timed x counted"},
      {"trace.unattributed_share", unattributed, "ratio",
       "base: traced slices' real time"},
      {"trace.overhead_share", overhead, "ratio",
       "base: median sim_ops_per_s of " + Count(rate[0].size(), "untraced") +
           " vs " + Count(rate[1].size(), "traced slices")},
      {"determinism.same_seed_match", same_seed_match ? 1.0 : 0.0, "bool",
       "untraced vs traced window fingerprints"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

void WriteSpans(const std::string& path, const Bench::Window& w) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "trace_id,op,status,real_start_ns,real_end_ns,virt_start_us,"
               "virt_end_us\n");
  int64_t base = -1;
  for (size_t i = 0; i < w.ops.size(); i++) {
    const OpRecord& r = w.ops[i];
    if (!r.traced) continue;
    if (base < 0) base = r.real_start_ns;
    std::fprintf(f, "%zu,%s,%s,%" PRId64 ",%" PRId64 ",%" PRId64 ",%" PRId64
                    "\n",
                 i, kOpNames[static_cast<size_t>(r.op)],
                 std::string(ErrorCodeName(r.code)).c_str(),
                 r.real_start_ns - base, r.real_start_ns - base + r.real_ns,
                 r.virt_start_us, r.virt_start_us + r.virt_us);
  }
  std::fclose(f);
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: cfs_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--spans-out FILE]\n",
               msg);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; i++) {
    std::string key = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + key).c_str());
    std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--spans-out") {
      a.spans_out = value;
    } else {
      Usage(("unknown flag " + key).c_str());
    }
  }
  if (!(a.seconds > 0 && a.seconds <= 600)) Usage("--seconds out of range");
  return a;
}

int Main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& s : Workloads()) {
    if (args.workload == s.name) spec = &s;
  }
  if (spec == nullptr) {
    Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  Logger::Get().set_level(LogLevel::kWarn);

  constexpr size_t kSlices = 20;
  std::printf("perfbench: workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              spec->name, args.seed, args.seconds, args.trace ? 1 : 0);

  bool correct = true;
  auto check = [&](Bench& bench, const Bench::Window& w, const char* label) {
    std::string violation = bench.Audit();
    std::printf("  %s window: %zu ops, fingerprint %016" PRIx64
                ", audit %s (%zu live names, %zu removed names checked); "
                "set-up: %s\n",
                label, w.ops.size(), w.fingerprint,
                violation.empty() ? "ok" : "FAILED", bench.live_names(),
                bench.removed_names(), bench.SetUpSummary().c_str());
    PrintFailures(w);
    if (!violation.empty()) {
      std::fprintf(stderr,
                   "perfbench: audit FAILED (workload %s, seed %" PRIu64
                   "): %s\n",
                   spec->name, args.seed, violation.c_str());
      correct = false;
    }
  };

  if (!args.trace) {
    std::vector<double> setups;
    Bench::Window w;
    {
      Bench bench(*spec, args.seed, args.seconds);
      (void)bench.SetUp();
      // The first set-up counts from process start.
      setups.push_back(static_cast<double>(RealNs() - kProcessStartNs) / 1e9);
      w = bench.Run(false, kSlices);
      check(bench, w, "measured");
    }
    // Identical set-ups on fresh clusters, timed and torn down.
    for (size_t i = 1; i < spec->setups; i++) {
      Bench extra(*spec, args.seed, args.seconds);
      setups.push_back(extra.SetUp());
    }
    PrintResult(correct, w.ops.size(), w.failed(), EndToEnd(w, setups));
    return correct ? 0 : 1;
  }

  // Same seed twice: an untraced replay whose fingerprint the traced
  // window must reproduce.
  uint64_t replay_fingerprint = 0;
  {
    Bench bench(*spec, args.seed, args.seconds);
    (void)bench.SetUp();
    Bench::Window w = bench.Run(false, kSlices);
    check(bench, w, "replay");
    replay_fingerprint = w.fingerprint;
  }
  Bench bench(*spec, args.seed, args.seconds);
  (void)bench.SetUp();
  Bench::Window w = bench.Run(true, 2 * kSlices);
  check(bench, w, "traced");
  const bool match = w.fingerprint == replay_fingerprint;
  std::printf("  same-seed fingerprints %s\n", match ? "match" : "DIFFER");
  LayerTimes lt = TimeLayers(bench, args.seed);
  std::vector<Metric> metrics = PerLayer(bench, w, lt, match);
  if (!args.spans_out.empty()) WriteSpans(args.spans_out, w);
  PrintResult(correct, w.ops.size(), w.failed(), metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace cfs::perfbench

int main(int argc, char** argv) { return cfs::perfbench::Main(argc, argv); }
