// Substrate micro-benchmarks (google-benchmark): the building blocks under
// every table/figure bench — encoding, CRC, memtable/KV ops, primitive
// execution, lock acquisition, SimNet dispatch, a raft commit round, the
// retained heap per inline-replicated raft entry and a cross-directory
// rename in zero-latency mode.

#include <benchmark/benchmark.h>
#include <malloc.h>

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/common/crc32.h"
#include "src/common/encoding.h"
#include "src/common/histogram.h"
#include "src/common/random.h"
#include "src/core/cfs.h"
#include "src/core/dentry_cache.h"
#include "src/core/metadata_client.h"
#include "src/kv/kvstore.h"
#include "src/raft/raft.h"
#include "src/tafdb/primitives.h"
#include "src/txn/lock_manager.h"

namespace cfs {
namespace {

void BM_VarintRoundTrip(benchmark::State& state) {
  for (auto _ : state) {
    std::string buf;
    PutVarint64(&buf, 0x123456789aULL);
    Decoder dec(buf);
    uint64_t v = 0;
    if (!dec.GetVarint64(&v)) state.SkipWithError("varint decode failed");
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_VarintRoundTrip);

void BM_Crc32c(benchmark::State& state) {
  std::string data(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(4096);

void BM_InodeKeyEncode(benchmark::State& state) {
  InodeKey key = InodeKey::IdRecord(123456, "some-file-name.dat");
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.Encode());
  }
}
BENCHMARK(BM_InodeKeyEncode);

void BM_RecordEncodeDecode(benchmark::State& state) {
  InodeRecord rec = InodeRecord::MakeDirAttr(42, 1000, 0755, 1, 2, 7);
  for (auto _ : state) {
    auto decoded = InodeRecord::DecodeValue(rec.key, rec.EncodeValue());
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_RecordEncodeDecode);

// Write-path fixtures on TafDB-shaped keys (8-byte parent id + name, longer
// than the std::string SSO limit) and 48-byte values, at 50k keys.
constexpr int kAddKeys = 50000;

std::vector<std::string> TafDbKeys() {
  std::vector<std::string> keys;
  for (int i = 0; i < kAddKeys; i++) {
    keys.push_back(
        InodeKey::IdRecord(4096, "file-" + std::to_string(i) + ".dat")
            .Encode());
  }
  Rng rng(1);
  for (size_t i = keys.size() - 1; i > 0; i--) {
    std::swap(keys[i], keys[rng.Uniform(i + 1)]);
  }
  return keys;
}

// Each Add inserts a key the memtable does not hold yet; a full memtable is
// replaced (untimed) by an empty one.
void BM_MemTableAddNewKey(benchmark::State& state) {
  const auto keys = TafDbKeys();
  const std::string value(48, 'v');
  auto mt = std::make_unique<MemTable>();
  uint64_t seq = 0;
  size_t i = 0;
  for (auto _ : state) {
    if (i == keys.size()) {
      state.PauseTiming();
      mt = std::make_unique<MemTable>();
      i = 0;
      state.ResumeTiming();
    }
    mt->Add(keys[i++], value, ++seq, ValueType::kPut);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_MemTableAddNewKey);

// Each Add writes a newer version of one of 50k stored keys (a parent attr
// bump, a setattr, a tombstone); every 500k versions the memtable is rebuilt
// (untimed) so it stays near the flush size.
void BM_MemTableAddNewVersion(benchmark::State& state) {
  const auto keys = TafDbKeys();
  const std::string value(48, 'v');
  std::unique_ptr<MemTable> mt;
  uint64_t seq = 0;
  size_t added = 0;
  Rng rng(2);
  for (auto _ : state) {
    if (added % 500000 == 0) {
      state.PauseTiming();
      mt = std::make_unique<MemTable>();
      for (const auto& key : keys) mt->Add(key, value, ++seq, ValueType::kPut);
      state.ResumeTiming();
    }
    mt->Add(keys[rng.Uniform(keys.size())], value, ++seq, ValueType::kPut);
    benchmark::ClobberMemory();
    added++;
  }
}
BENCHMARK(BM_MemTableAddNewVersion);

// Point-read fixtures: state.range(0) keys, state.range(1) = 1 for hits (a
// stored key, in random order) or 0 for misses (an absent key that sorts
// right after a stored one, so ordered searches go the full depth).
std::vector<std::string> PointReadKeys(int64_t n, bool hit) {
  std::vector<std::string> keys;
  Rng rng(3);
  for (int64_t i = 0; i < 4096; i++) {
    keys.push_back("key" +
                   std::to_string(rng.Uniform(static_cast<uint64_t>(n))) +
                   (hit ? "" : "-"));
  }
  return keys;
}

void BM_MemTableGet(benchmark::State& state) {
  MemTable mt;
  uint64_t seq = 0;
  for (int64_t i = 0; i < state.range(0); i++) {
    mt.Add("key" + std::to_string(i), "value", ++seq, ValueType::kPut);
  }
  const auto keys = PointReadKeys(state.range(0), state.range(1) != 0);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mt.Get(keys[i++ % keys.size()], UINT64_MAX));
  }
}
BENCHMARK(BM_MemTableGet)->ArgsProduct({{50000, 200000}, {1, 0}});

void BM_SortedRunGet(benchmark::State& state) {
  std::vector<KvEntry> entries;
  for (int64_t i = 0; i < state.range(0); i++) {
    entries.push_back({"key" + std::to_string(i), "value", 1, ValueType::kPut});
  }
  std::sort(entries.begin(), entries.end(),
            [](const KvEntry& a, const KvEntry& b) { return a.key < b.key; });
  SortedRun run(std::move(entries));
  const auto keys = PointReadKeys(state.range(0), state.range(1) != 0);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run.Get(keys[i++ % keys.size()], UINT64_MAX));
  }
}
BENCHMARK(BM_SortedRunGet)->ArgsProduct({{50000, 200000}, {1, 0}});

void BM_KvStorePutGet(benchmark::State& state) {
  KvStore kv;
  (void)kv.Open();
  Rng rng(2);
  for (auto _ : state) {
    std::string key = "k" + std::to_string(rng.Uniform(10000));
    (void)kv.Put(key, "payload", /*sync=*/false);
    benchmark::DoNotOptimize(kv.Get(key));
  }
}
BENCHMARK(BM_KvStorePutGet);

void BM_KvStoreScan100(benchmark::State& state) {
  KvStore kv;
  (void)kv.Open();
  for (int i = 0; i < 1000; i++) {
    (void)kv.Put("scan" + std::to_string(1000 + i), "v", false);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(kv.Scan("scan1100", "scan1200"));
  }
}
BENCHMARK(BM_KvStoreScan100);

void BM_ExecutePrimitiveCreate(benchmark::State& state) {
  KvStore kv;
  (void)kv.Open();
  PrimitiveOp bootstrap;
  bootstrap.inserts.push_back(InodeRecord::MakeDirAttr(1, 1, 0755, 0, 0));
  (void)ExecutePrimitive(bootstrap, &kv);
  InodeId next_id = 1;
  for (auto _ : state) {
    const InodeId id = ++next_id;
    Predicate check;
    check.key = InodeKey::AttrRecord(1);
    check.kind = Predicate::Kind::kExistsWithType;
    check.type = InodeType::kDirectory;
    UpdateSpec bump;
    bump.key = InodeKey::AttrRecord(1);
    bump.children_delta = 1;
    auto op = PrimitiveOp::InsertWithUpdate(
        InodeRecord::MakeIdRecord(1, "f" + std::to_string(id), id,
                                  InodeType::kFile),
        check, bump);
    benchmark::DoNotOptimize(ExecutePrimitive(op, &kv));
  }
}
BENCHMARK(BM_ExecutePrimitiveCreate);

void BM_PrimitiveEncodeDecode(benchmark::State& state) {
  Predicate check;
  check.key = InodeKey::AttrRecord(1);
  check.kind = Predicate::Kind::kExistsWithType;
  check.type = InodeType::kDirectory;
  UpdateSpec bump;
  bump.key = InodeKey::AttrRecord(1);
  bump.children_delta = 1;
  bump.lww.mtime = 99;
  bump.lww.ts = 99;
  auto op = PrimitiveOp::InsertWithUpdate(
      InodeRecord::MakeIdRecord(1, "file", 2, InodeType::kFile), check, bump);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PrimitiveOp::Decode(op.Encode()));
  }
}
BENCHMARK(BM_PrimitiveEncodeDecode);

void BM_LockUncontended(benchmark::State& state) {
  LockManager lm;
  TxnId txn = 1;
  for (auto _ : state) {
    (void)lm.Lock(txn, "row", LockMode::kExclusive);
    lm.Unlock(txn, "row");
  }
}
BENCHMARK(BM_LockUncontended);

void BM_SimNetCallZeroLatency(benchmark::State& state) {
  SimNet net;
  NodeId a = net.AddNode("a", 0);
  NodeId b = net.AddNode("b", 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.Call(a, b, [] { return Status::Ok(); }));
  }
}
BENCHMARK(BM_SimNetCallZeroLatency);

class CountingSm : public StateMachine {
 public:
  std::string Apply(LogIndex, std::string_view) override {
    count++;
    return "ok";
  }
  uint64_t count = 0;
};

void BM_RaftProposeCommit(benchmark::State& state) {
  SimNet net;
  RaftOptions options;
  options.election_timeout_min_ms = 50;
  options.election_timeout_max_ms = 100;
  options.heartbeat_interval_ms = 20;
  RaftGroup group(&net, "bench", {0, 1, 2},
                  [](ReplicaId) { return std::make_unique<CountingSm>(); },
                  options);
  if (!group.Start().ok() || !group.WaitForLeader().ok()) {
    state.SkipWithError("no leader");
    return;
  }
  for (auto _ : state) {
    auto result = group.Propose("command");
    if (!result.ok()) {
      state.SkipWithError("propose failed");
      break;
    }
  }
  group.Stop();
}
BENCHMARK(BM_RaftProposeCommit)->Unit(benchmark::kMicrosecond);

// --- raft log memory under inline replication (the simulated clusters) ---
//
// A 3-replica inline group on a zero-latency SimNet proposing distinct
// 200-byte commands. retained_bytes_per_entry is the heap the timed
// proposals leave allocated (mallinfo2 uordblks delta) per committed
// entry: the three logs, the three WAL windows and the records they hold.

class RaftInlinePropose : public benchmark::Fixture {
 public:
  void SetUp(const benchmark::State&) override {
    net_ = std::make_unique<SimNet>();
    RaftOptions options;
    options.inline_replication = true;
    group_ = std::make_unique<RaftGroup>(
        net_.get(), "inline", std::vector<uint32_t>{0, 1, 2},
        [](ReplicaId) { return std::make_unique<CountingSm>(); }, options);
    ok_ = group_->Start().ok();
  }
  void TearDown(const benchmark::State&) override {
    group_.reset();
    net_.reset();
    ok_ = false;
  }

 protected:
  std::unique_ptr<SimNet> net_;
  std::unique_ptr<RaftGroup> group_;
  bool ok_ = false;
};

BENCHMARK_DEFINE_F(RaftInlinePropose, Command200B)(benchmark::State& state) {
  if (!ok_) {
    state.SkipWithError("group start failed");
    return;
  }
  std::string command(200, 'c');
  uint64_t seq = 0;
  const size_t heap_before = mallinfo2().uordblks;
  for (auto _ : state) {
    const std::string tag = std::to_string(seq++);
    command.replace(0, tag.size(), tag);
    if (!group_->Propose(command).ok()) {
      state.SkipWithError("propose failed");
      break;
    }
  }
  const double retained =
      static_cast<double>(mallinfo2().uordblks) - static_cast<double>(heap_before);
  state.counters["retained_bytes_per_entry"] =
      retained / static_cast<double>(std::max<uint64_t>(seq, 1));
}
BENCHMARK_REGISTER_F(RaftInlinePropose, Command200B);

// --- dentry cache: sharded lookups vs. the old process-wide mutex map ---
//
// The resolve hot path used to take one engine-global std::mutex around a
// std::map for every cached component. Run these two at ->Threads(8) to see
// the difference: the sharded cache scales with threads, the mutex map
// serializes them.

constexpr int kCachePaths = 1024;

std::string CachePath(uint64_t i) { return "/dir/file" + std::to_string(i); }

class DentryCacheBench : public benchmark::Fixture {
 public:
  void SetUp(const benchmark::State& state) override {
    if (state.thread_index() == 0) {
      DentryCache::Options options;
      options.capacity = 1 << 16;
      options.shards = 16;
      cache_ = std::make_unique<DentryCache>(options);
      cache_->ObserveDirEpoch(1, 1);
      for (int i = 0; i < kCachePaths; i++) {
        cache_->PutPositive(CachePath(i), 1, 100 + i, InodeType::kFile,
                            /*epoch=*/1);
      }
    }
  }
  void TearDown(const benchmark::State& state) override {
    if (state.thread_index() == 0) cache_.reset();
  }

 protected:
  std::unique_ptr<DentryCache> cache_;
};

BENCHMARK_DEFINE_F(DentryCacheBench, ShardedLookup)(benchmark::State& state) {
  Rng rng(7 + static_cast<uint64_t>(state.thread_index()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache_->Lookup(CachePath(rng.Uniform(kCachePaths)), 1));
  }
}
BENCHMARK_REGISTER_F(DentryCacheBench, ShardedLookup)->Threads(1)->Threads(8);

// --- dentry cache at cluster scale: one cache per client, 1000 clients ---
//
// The table1-mix shape: each client's cache holds its own directory and
// that directory's 32 names, and consecutive operations come from
// different clients, so every call lands on a cache whose lines have gone
// cold. Default options (65,536 entries, 16 shards) as in CfsOptions.

constexpr int kColdCaches = 1000;
constexpr int kColdNames = 32;
// Clients whose renames' invalidations the delivery fixture applies; each
// rename delivers to every cache, as when all clients read both parents.
constexpr int kColdRenamers = 64;

InodeId ColdHomeDir(int client) {
  return 1000 + 2 * static_cast<InodeId>(client);
}
InodeId ColdAwayDir(int client) { return ColdHomeDir(client) + 1; }

class DentryCacheColdBench : public benchmark::Fixture {
 public:
  void SetUp(const benchmark::State&) override {
    caches_.clear();
    home_paths_.assign(kColdCaches, {});
    away_paths_.assign(kColdCaches, {});
    for (int c = 0; c < kColdCaches; c++) {
      const std::string home = "/bench/home" + std::to_string(c);
      const std::string away = "/bench/away" + std::to_string(c);
      auto cache = std::make_unique<DentryCache>(DentryCache::Options());
      cache->ObserveDirEpoch(kRootInode, 1);
      cache->ObserveDirEpoch(ColdHomeDir(c), 1);
      cache->PutPositive(home, kRootInode, ColdHomeDir(c),
                         InodeType::kDirectory, 1);
      cache->PutPositive(away, kRootInode, ColdAwayDir(c),
                         InodeType::kDirectory, 1);
      for (int n = 0; n < kColdNames; n++) {
        const std::string name = "/f" + std::to_string(n);
        home_paths_[c].push_back(home + name);
        away_paths_[c].push_back(away + name);
        cache->PutPositive(home + name, ColdHomeDir(c), 5000000 + n,
                           InodeType::kFile, 1);
      }
      caches_.push_back(std::move(cache));
    }
  }
  void TearDown(const benchmark::State&) override { caches_.clear(); }

 protected:
  std::vector<std::unique_ptr<DentryCache>> caches_;
  std::vector<std::vector<std::string>> home_paths_;
  std::vector<std::vector<std::string>> away_paths_;
};

// One resolved component per iteration, each from the next client's cache.
BENCHMARK_DEFINE_F(DentryCacheColdBench, RotatingLookup)
(benchmark::State& state) {
  uint64_t k = 0;
  for (auto _ : state) {
    const int c = static_cast<int>(k % kColdCaches);
    const auto& path = home_paths_[c][(k / kColdCaches) % kColdNames];
    benchmark::DoNotOptimize(caches_[c]->Lookup(path, ColdHomeDir(c)));
    k++;
  }
}
BENCHMARK_REGISTER_F(DentryCacheColdBench, RotatingLookup);

// One delivery of a cross-directory file rename's invalidation per
// iteration, to the next client's cache, doing what
// CfsEngine::ApplyInvalidation does: erase the source and destination
// paths, adopt both parents' bumped epochs. Every kColdCaches iterations
// the next of kColdRenamers clients renames.
BENCHMARK_DEFINE_F(DentryCacheColdBench, InvalidationDelivery)
(benchmark::State& state) {
  uint64_t k = 0;
  for (auto _ : state) {
    const uint64_t round = k / kColdCaches;
    const int renamer = static_cast<int>(round % kColdRenamers);
    const size_t name = (round / kColdRenamers) % kColdNames;
    DentryCache& cache = *caches_[k % kColdCaches];
    cache.Erase(home_paths_[renamer][name]);
    cache.Erase(away_paths_[renamer][name]);
    cache.ObserveDirEpoch(ColdHomeDir(renamer), 2 + round);
    cache.ObserveDirEpoch(ColdAwayDir(renamer), 2 + round);
    k++;
  }
}
BENCHMARK_REGISTER_F(DentryCacheColdBench, InvalidationDelivery);

// --- rename invalidation through the assembled system ---
//
// One cross-directory file rename per iteration, through the Renamer, on a
// zero-latency cluster with range(0) client engines of which only the
// renaming one has read the two directories. The invalidation goes to the
// parents' subscribers, so the real cost per rename should not grow with
// the engine count.

class CfsRenameInvalidation : public benchmark::Fixture {
 public:
  void SetUp(const benchmark::State& state) override {
    CfsOptions options = CfsFullOptions();
    options.start_gc = false;
    fs_ = std::make_unique<Cfs>(options);
    if (!fs_->Start().ok()) return;
    for (int64_t i = 0; i < state.range(0); i++) {
      clients_.push_back(fs_->NewClient());
    }
    MetadataClient& renamer = *clients_[0];
    ok_ = renamer.Mkdir("/a", 0755).ok() && renamer.Mkdir("/b", 0755).ok() &&
          renamer.Create("/a/f", 0644).ok();
  }
  void TearDown(const benchmark::State&) override {
    clients_.clear();
    fs_.reset();
    ok_ = false;
  }

 protected:
  std::unique_ptr<Cfs> fs_;
  std::vector<std::unique_ptr<MetadataClient>> clients_;
  bool ok_ = false;
};

BENCHMARK_DEFINE_F(CfsRenameInvalidation, CrossDirRename)
(benchmark::State& state) {
  if (!ok_) {
    state.SkipWithError("cluster set-up failed");
    return;
  }
  MetadataClient& renamer = *clients_[0];
  bool in_a = true;
  for (auto _ : state) {
    if (!renamer.Rename(in_a ? "/a/f" : "/b/f", in_a ? "/b/f" : "/a/f").ok()) {
      state.SkipWithError("rename failed");
      break;
    }
    in_a = !in_a;
  }
}
BENCHMARK_REGISTER_F(CfsRenameInvalidation, CrossDirRename)
    ->Arg(16)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

class MutexMapCacheBench : public benchmark::Fixture {
 public:
  void SetUp(const benchmark::State& state) override {
    if (state.thread_index() == 0) {
      map_.clear();
      for (int i = 0; i < kCachePaths; i++) {
        map_[CachePath(i)] = {100 + i, InodeType::kFile};
      }
    }
  }

 protected:
  std::mutex mu_;
  std::map<std::string, std::pair<InodeId, InodeType>> map_;
};

BENCHMARK_DEFINE_F(MutexMapCacheBench, GlobalLockLookup)
(benchmark::State& state) {
  Rng rng(7 + static_cast<uint64_t>(state.thread_index()));
  for (auto _ : state) {
    std::string path = CachePath(rng.Uniform(kCachePaths));
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(path);
    benchmark::DoNotOptimize(it);
  }
}
BENCHMARK_REGISTER_F(MutexMapCacheBench, GlobalLockLookup)
    ->Threads(1)
    ->Threads(8);

void BM_PathSplit(benchmark::State& state) {
  std::string path = "/a/bb/ccc/dddd/eeeee/file.txt";
  for (auto _ : state) {
    benchmark::DoNotOptimize(SplitPath(path));
  }
}
BENCHMARK(BM_PathSplit);

void BM_HistogramRecord(benchmark::State& state) {
  Histogram h;
  Rng rng(5);
  for (auto _ : state) {
    h.Record(static_cast<int64_t>(rng.Uniform(100000)));
  }
  benchmark::DoNotOptimize(h.P99());
}
BENCHMARK(BM_HistogramRecord);

}  // namespace
}  // namespace cfs

BENCHMARK_MAIN();
