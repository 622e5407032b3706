// Tests for the LSM KV store: memtable versioning, batches, scans,
// snapshots, flush/compaction, WAL recovery, plus a randomized property test
// against a reference model.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <thread>
#include <tuple>
#include <vector>

#include "src/common/random.h"
#include "src/kv/kvstore.h"

namespace cfs {
namespace {

TEST(MemTableTest, VersionedGet) {
  MemTable mt;
  mt.Add("k", "v1", 1, ValueType::kPut);
  mt.Add("k", "v2", 5, ValueType::kPut);
  auto latest = mt.Get("k", UINT64_MAX);
  ASSERT_TRUE(latest);
  EXPECT_EQ(latest->value, "v2");
  auto old = mt.Get("k", 3);
  ASSERT_TRUE(old);
  EXPECT_EQ(old->value, "v1");
  EXPECT_FALSE(mt.Get("k", 0));
  EXPECT_FALSE(mt.Get("other", UINT64_MAX));
}

TEST(MemTableTest, TombstoneIsVisibleVersion) {
  MemTable mt;
  mt.Add("k", "v", 1, ValueType::kPut);
  mt.Add("k", "", 2, ValueType::kDelete);
  auto e = mt.Get("k", UINT64_MAX);
  ASSERT_TRUE(e);
  EXPECT_EQ(e->type, ValueType::kDelete);
}

// Older versions added after a newer one stay reachable by snapshot reads
// and never shadow the newest.
TEST(MemTableTest, OutOfOrderVersions) {
  MemTable mt;
  mt.Add("k", "v5", 5, ValueType::kPut);
  mt.Add("k", "v1", 1, ValueType::kPut);
  mt.Add("k", "v3", 3, ValueType::kPut);
  EXPECT_EQ(mt.Get("k", UINT64_MAX)->value, "v5");
  EXPECT_EQ(mt.Get("k", 4)->value, "v3");
  EXPECT_EQ(mt.Get("k", 2)->value, "v1");
  EXPECT_FALSE(mt.Get("k", 0));
}

// More distinct keys than index buckets, so every chain holds several keys,
// and a slice of them carry many versions: each read must return its own
// key's version at the snapshot, and misses must stay misses.
TEST(MemTableTest, IndexCollisionsAndVersions) {
  constexpr int kKeys = 100000;
  constexpr int kVersioned = 1000;
  constexpr int kVersions = 20;
  MemTable mt;
  uint64_t seq = 0;
  for (int i = 0; i < kKeys; i++) {
    mt.Add("key" + std::to_string(i), "v0", ++seq, ValueType::kPut);
  }
  const uint64_t base_seq = seq;
  // Versions interleave across keys; version r of key i has seq
  // base_seq + (r - 1) * kVersioned + i + 1.
  for (int r = 1; r < kVersions; r++) {
    for (int i = 0; i < kVersioned; i++) {
      mt.Add("key" + std::to_string(i), "v" + std::to_string(r), ++seq,
             r == kVersions - 1 && i % 2 == 0 ? ValueType::kDelete
                                              : ValueType::kPut);
    }
  }
  for (int i = 0; i < kKeys; i++) {
    std::string key = "key" + std::to_string(i);
    auto e = mt.Get(key, UINT64_MAX);
    ASSERT_TRUE(e) << key;
    ASSERT_EQ(e->key, key);
    if (i >= kVersioned) {
      EXPECT_EQ(e->value, "v0");
      continue;
    }
    EXPECT_EQ(e->type, i % 2 == 0 ? ValueType::kDelete : ValueType::kPut);
    for (int r = 0; r < kVersions; r++) {
      uint64_t at = r == 0 ? base_seq
                           : base_seq + (r - 1) * kVersioned + i + 1;
      auto v = mt.Get(key, at);
      ASSERT_TRUE(v) << key << "@" << at;
      EXPECT_EQ(v->key, key);
      EXPECT_EQ(v->value, "v" + std::to_string(r)) << key << "@" << at;
    }
    EXPECT_FALSE(mt.Get(key, static_cast<uint64_t>(i)));
  }
  for (int i = 0; i < 1000; i++) {
    EXPECT_FALSE(mt.Get("miss" + std::to_string(i), UINT64_MAX));
  }
}

// One writer adds keys and new versions while four readers look up keys the
// writer has already published or may be adding, and visit ranges starting
// at published keys; every read must see a complete version, and every
// visit internal order.
TEST(MemTableTest, ConcurrentReadersWithOneWriter) {
  constexpr int kKeys = 20000;
  MemTable mt;
  std::atomic<int> published{0};
  std::atomic<bool> readers_ok{true};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; t++) {
    readers.emplace_back([&, t] {
      Rng rng(100 + t);
      int n;
      uint64_t round = 0;
      while ((n = published.load(std::memory_order_acquire)) < kKeys) {
        if (n == 0) continue;
        int i = static_cast<int>(rng.Uniform(n));
        const std::string key = "key" + std::to_string(i);
        if (++round % 16 != 0) {
          auto e = mt.Get(key, UINT64_MAX);
          if (!e || e->key != key || e->value != "v" + std::to_string(i)) {
            readers_ok.store(false);
          }
          // A key the writer may be adding right now: absent, or complete.
          const int ahead = n + static_cast<int>(rng.Uniform(2));
          auto a = mt.Get("key" + std::to_string(ahead), UINT64_MAX);
          if (a && a->value != "v" + std::to_string(ahead)) {
            readers_ok.store(false);
          }
          continue;
        }
        // The range starts at a published key, so that key comes first;
        // then keys ascend and each key's versions descend by seq.
        std::string prev_key;
        uint64_t prev_seq = 0;
        int seen = 0;
        mt.VisitRange(key, "", [&](const KvView& v) {
          bool ok = seen > 0 || v.key == key;
          ok = ok && (seen == 0 || v.key > prev_key ||
                      (v.key == prev_key && v.seq < prev_seq));
          ok = ok && v.value == "v" + std::string(v.key.substr(3));
          if (!ok) readers_ok.store(false);
          prev_key = std::string(v.key);
          prev_seq = v.seq;
          return ok && ++seen < 64;
        });
        if (seen == 0) readers_ok.store(false);
      }
    });
  }
  uint64_t seq = 0;
  for (int i = 0; i < kKeys; i++) {
    mt.Add("key" + std::to_string(i), "v" + std::to_string(i), ++seq,
           ValueType::kPut);
    // A newer version of an already-published key (same value) goes to the
    // head of that key's version chain under the readers.
    if (i > 0) {
      int j = i / 2;
      mt.Add("key" + std::to_string(j), "v" + std::to_string(j), ++seq,
             ValueType::kPut);
    }
    published.store(i + 1, std::memory_order_release);
  }
  for (auto& r : readers) r.join();
  EXPECT_TRUE(readers_ok.load());
}

// Property test: random keys, versions added out of seq order, and
// tombstones, against a per-key version model. Checks the full and
// random-range visits (key asc, seq desc) and Get at random snapshots.
class MemTablePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MemTablePropertyTest, MatchesVersionModel) {
  struct Version {
    ValueType type;
    std::string value;
  };
  // key -> seq -> version, newest first.
  std::map<std::string, std::map<uint64_t, Version, std::greater<>>> model;
  Rng rng(GetParam());
  constexpr uint64_t kAdds = 6000;
  // Sequences 1..kAdds, added in an order that is mostly ascending with
  // random swaps, so many versions arrive behind newer ones.
  std::vector<uint64_t> seqs(kAdds);
  for (uint64_t i = 0; i < kAdds; i++) seqs[i] = i + 1;
  for (uint64_t i = 0; i < kAdds / 3; i++) {
    std::swap(seqs[rng.Uniform(kAdds)], seqs[rng.Uniform(kAdds)]);
  }
  auto random_key = [&] {
    // A few hundred keys of 0..40 bytes, one of them empty.
    uint64_t k = rng.Uniform(400);
    return k == 0 ? std::string()
                  : std::string(k % 24, 'p') + "/" + std::to_string(k);
  };
  MemTable mt;
  for (uint64_t seq : seqs) {
    std::string key = random_key();
    Version v{rng.Uniform(5) == 0 ? ValueType::kDelete : ValueType::kPut, ""};
    if (v.type == ValueType::kPut) {
      v.value = std::string(rng.Uniform(40),
                            static_cast<char>('a' + seq % 26));
    }
    mt.Add(key, v.value, seq, v.type);
    model[key].emplace(seq, v);
  }
  EXPECT_EQ(mt.EntryCount(), kAdds);

  using Rows =
      std::vector<std::tuple<std::string, uint64_t, ValueType, std::string>>;
  auto model_range = [&](const std::string& start, const std::string& end) {
    Rows rows;
    for (auto it = model.lower_bound(start);
         it != model.end() && (end.empty() || it->first < end); ++it) {
      for (const auto& [seq, v] : it->second) {
        rows.emplace_back(it->first, seq, v.type, v.value);
      }
    }
    return rows;
  };
  Rows visited;
  auto collect = [&](const KvView& v) {
    visited.emplace_back(std::string(v.key), v.seq, v.type,
                         std::string(v.value));
    return true;
  };
  mt.VisitAll(collect);
  EXPECT_EQ(visited.size(), kAdds);
  EXPECT_EQ(visited, model_range("", ""));
  auto expect_range = [&](const std::string& start, const std::string& end) {
    visited.clear();
    mt.VisitRange(start, end, collect);
    EXPECT_EQ(visited, model_range(start, end))
        << "[" << start << ", " << end << ")";
  };
  expect_range("", "");
  for (int i = 0; i < 200; i++) {
    std::string a = random_key(), b = random_key();
    if (b < a) std::swap(a, b);
    expect_range(a, rng.Uniform(4) == 0 ? std::string() : b);
  }
  for (int i = 0; i < 5000; i++) {
    std::string key = rng.Uniform(10) == 0 ? "absent" : random_key();
    uint64_t snap = rng.Uniform(kAdds + 2);
    auto got = mt.Get(key, snap);
    auto it = model.find(key);
    const Version* want = nullptr;
    uint64_t want_seq = 0;
    if (it != model.end()) {
      auto v = it->second.lower_bound(snap);  // newest seq <= snap
      if (v != it->second.end()) {
        want = &v->second;
        want_seq = v->first;
      }
    }
    if (want == nullptr) {
      EXPECT_FALSE(got) << key << "@" << snap;
      continue;
    }
    ASSERT_TRUE(got) << key << "@" << snap;
    EXPECT_EQ(got->key, key);
    EXPECT_EQ(got->seq, want_seq);
    EXPECT_EQ(got->type, want->type);
    EXPECT_EQ(got->value, want->value);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemTablePropertyTest,
                         ::testing::Values(1, 2, 3, 17, 99));

// Views point into the memtable's arena: one taken before several arena
// blocks' worth of later Adds (new keys and new versions of its own key)
// still reads the same bytes.
TEST(MemTableTest, ViewsStayValidAcrossLaterAdds) {
  MemTable mt;
  const std::string key = "parent/" + std::string(40, 'k');
  const std::string value(100, 'x');
  mt.Add(key, value, 1, ValueType::kPut);
  auto got = mt.Get(key, UINT64_MAX);
  ASSERT_TRUE(got);
  KvView visited;
  mt.VisitAll([&](const KvView& v) {
    visited = v;
    return false;
  });
  uint64_t seq = 1;
  for (int i = 0; i < 4000; i++) {  // ~600 KB; the first block is 64 KB
    mt.Add("other" + std::to_string(i), std::string(100, 'y'), ++seq,
           ValueType::kPut);
    if (i % 10 == 0) mt.Add(key, std::string(100, 'z'), ++seq, ValueType::kPut);
  }
  for (const KvView& v : {*got, visited}) {
    EXPECT_EQ(v.key, key);
    EXPECT_EQ(v.value, value);
    EXPECT_EQ(v.seq, 1u);
  }
  EXPECT_EQ(mt.Get(key, 1)->value, value);
  EXPECT_EQ(mt.Get(key, UINT64_MAX)->value, std::string(100, 'z'));
}

// Sizes at the arena's edges: a value larger than the first arena block,
// an empty key, an empty value, and small pieces around the big one.
TEST(MemTableTest, OversizedAndEmptyKeysAndValues) {
  MemTable mt;
  const std::string big(200 << 10, 'b');
  mt.Add("a", "small", 1, ValueType::kPut);
  mt.Add("big", big, 2, ValueType::kPut);
  mt.Add("", "empty-key", 3, ValueType::kPut);
  mt.Add("empty-value", "", 4, ValueType::kPut);
  mt.Add("big", "", 5, ValueType::kDelete);
  mt.Add("z", "after", 6, ValueType::kPut);
  EXPECT_EQ(mt.Get("big", 4)->value, big);
  EXPECT_EQ(mt.Get("big", UINT64_MAX)->type, ValueType::kDelete);
  EXPECT_EQ(mt.Get("", UINT64_MAX)->value, "empty-key");
  auto empty = mt.Get("empty-value", UINT64_MAX);
  ASSERT_TRUE(empty);
  EXPECT_TRUE(empty->value.empty());
  EXPECT_EQ(empty->type, ValueType::kPut);
  EXPECT_EQ(mt.Get("a", UINT64_MAX)->value, "small");
  EXPECT_EQ(mt.Get("z", UINT64_MAX)->value, "after");
  std::vector<std::pair<std::string, uint64_t>> order;
  mt.VisitAll([&](const KvView& v) {
    order.emplace_back(v.key, v.seq);
    return true;
  });
  EXPECT_EQ(order, (std::vector<std::pair<std::string, uint64_t>>{
                       {"", 3}, {"a", 1}, {"big", 5}, {"big", 2},
                       {"empty-value", 4}, {"z", 6}}));
  EXPECT_EQ(mt.ApproximateBytes(),
            (1 + 5) + (3 + big.size()) + (0 + 9) + (11 + 0) + (3 + 0) +
                (1 + 5) + 6 * 48);
}

TEST(MemTableTest, RangeVisitInOrder) {
  MemTable mt;
  mt.Add("b", "2", 2, ValueType::kPut);
  mt.Add("a", "1", 1, ValueType::kPut);
  mt.Add("c", "3", 3, ValueType::kPut);
  std::vector<std::string> keys;
  mt.VisitRange("a", "c", [&](const KvView& e) {
    keys.emplace_back(e.key);
    return true;
  });
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b"}));
}

TEST(SortedRunTest, GetHonorsSnapshot) {
  std::vector<KvEntry> entries = {
      {"k", "v2", 5, ValueType::kPut},
      {"k", "v1", 1, ValueType::kPut},
  };
  SortedRun run(std::move(entries));
  auto latest = run.Get("k", UINT64_MAX);
  ASSERT_TRUE(latest);
  EXPECT_EQ(latest->value, "v2");
  auto old = run.Get("k", 2);
  ASSERT_TRUE(old);
  EXPECT_EQ(old->value, "v1");
  EXPECT_FALSE(run.Get("k", 0));
  EXPECT_FALSE(run.Get("other", UINT64_MAX));
}

TEST(SortedRunTest, IndexedGetAcrossManyKeys) {
  constexpr int kKeys = 50000;
  std::vector<std::string> keys;
  for (int i = 0; i < kKeys; i++) keys.push_back("key" + std::to_string(i));
  std::sort(keys.begin(), keys.end());
  // Every third key has an older version at seq 1; the rest only seq 2.
  std::vector<KvEntry> entries;
  for (int i = 0; i < kKeys; i++) {
    entries.push_back({keys[i], "new", 2, ValueType::kPut});
    if (i % 3 == 0) entries.push_back({keys[i], "old", 1, ValueType::kPut});
  }
  SortedRun run(std::move(entries));
  for (int i = 0; i < kKeys; i++) {
    auto e = run.Get(keys[i], UINT64_MAX);
    ASSERT_TRUE(e) << keys[i];
    EXPECT_EQ(e->key, keys[i]);
    EXPECT_EQ(e->value, "new");
    auto old = run.Get(keys[i], 1);
    if (i % 3 == 0) {
      ASSERT_TRUE(old) << keys[i];
      EXPECT_EQ(old->value, "old");
    } else {
      EXPECT_FALSE(old) << keys[i];
    }
    EXPECT_FALSE(run.Get(keys[i] + "x", UINT64_MAX));
  }
  SortedRun empty({});
  EXPECT_FALSE(empty.Get("key0", UINT64_MAX));
}

TEST(SortedRunTest, MergeKeepsNewestAndSnapshotVersions) {
  auto run1 = std::make_shared<SortedRun>(std::vector<KvEntry>{
      {"a", "new", 10, ValueType::kPut},
  });
  auto run2 = std::make_shared<SortedRun>(std::vector<KvEntry>{
      {"a", "mid", 5, ValueType::kPut},
      {"a", "old", 2, ValueType::kPut},
  });
  // Snapshot at seq 6 pins "mid"; "old" is shadowed for every reader.
  auto merged = SortedRun::Merge({run1, run2}, /*keep_seq=*/6, true);
  ASSERT_EQ(merged->size(), 2u);
  EXPECT_EQ(merged->entries()[0].value, "new");
  EXPECT_EQ(merged->entries()[1].value, "mid");
}

TEST(SortedRunTest, MergeDropsShadowedTombstones) {
  auto run = std::make_shared<SortedRun>(std::vector<KvEntry>{
      {"a", "", 10, ValueType::kDelete},
      {"a", "v", 2, ValueType::kPut},
  });
  auto merged = SortedRun::Merge({run}, UINT64_MAX, /*drop_tombstones=*/true);
  EXPECT_EQ(merged->size(), 0u);
}

TEST(KvStoreTest, PutGetDelete) {
  KvStore kv;
  ASSERT_TRUE(kv.Open().ok());
  ASSERT_TRUE(kv.Put("key", "value").ok());
  auto got = kv.Get("key");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "value");
  ASSERT_TRUE(kv.Delete("key").ok());
  EXPECT_TRUE(kv.Get("key").status().IsNotFound());
}

TEST(KvStoreTest, BatchIsAppliedInOrder) {
  KvStore kv;
  ASSERT_TRUE(kv.Open().ok());
  WriteBatch batch;
  batch.Put("k", "first");
  batch.Delete("k");
  batch.Put("k", "second");
  ASSERT_TRUE(kv.Write(batch).ok());
  auto got = kv.Get("k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "second");
}

TEST(KvStoreTest, ScanRangeSortedAndBounded) {
  KvStore kv;
  ASSERT_TRUE(kv.Open().ok());
  for (int i = 9; i >= 0; i--) {
    ASSERT_TRUE(kv.Put("k" + std::to_string(i), std::to_string(i)).ok());
  }
  auto rows = kv.Scan("k2", "k7");
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows.front().first, "k2");
  EXPECT_EQ(rows.back().first, "k6");
  auto limited = kv.Scan("k0", "", 3);
  EXPECT_EQ(limited.size(), 3u);
}

TEST(KvStoreTest, ScanSkipsTombstones) {
  KvStore kv;
  ASSERT_TRUE(kv.Open().ok());
  ASSERT_TRUE(kv.Put("a", "1").ok());
  ASSERT_TRUE(kv.Put("b", "2").ok());
  ASSERT_TRUE(kv.Delete("a").ok());
  auto rows = kv.Scan("", "");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].first, "b");
  EXPECT_EQ(kv.CountRange("", ""), 1u);
}

TEST(KvStoreTest, SnapshotReadsAreStable) {
  KvStore kv;
  ASSERT_TRUE(kv.Open().ok());
  ASSERT_TRUE(kv.Put("k", "old").ok());
  uint64_t snap = kv.GetSnapshot();
  ASSERT_TRUE(kv.Put("k", "new").ok());
  ASSERT_TRUE(kv.Put("k2", "added-later").ok());
  auto at_snap = kv.Get("k", snap);
  ASSERT_TRUE(at_snap.ok());
  EXPECT_EQ(*at_snap, "old");
  EXPECT_TRUE(kv.Get("k2", snap).status().IsNotFound());
  EXPECT_EQ(kv.Scan("", "", 0, snap).size(), 1u);
  kv.ReleaseSnapshot(snap);
}

TEST(KvStoreTest, SnapshotSurvivesFlushAndCompaction) {
  KvOptions options;
  options.memtable_flush_bytes = 1;  // flush on every write
  options.max_runs_before_compaction = 2;
  KvStore kv(options);
  ASSERT_TRUE(kv.Open().ok());
  ASSERT_TRUE(kv.Put("k", "v1").ok());
  uint64_t snap = kv.GetSnapshot();
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(kv.Put("k", "v" + std::to_string(i + 2)).ok());
  }
  ASSERT_TRUE(kv.Compact().ok());
  auto old = kv.Get("k", snap);
  ASSERT_TRUE(old.ok());
  EXPECT_EQ(*old, "v1");
  kv.ReleaseSnapshot(snap);
}

TEST(KvStoreTest, FlushAndCompactPreserveData) {
  KvOptions options;
  options.memtable_flush_bytes = 256;
  options.max_runs_before_compaction = 2;
  KvStore kv(options);
  ASSERT_TRUE(kv.Open().ok());
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(kv.Put("key" + std::to_string(i), std::string(32, 'x')).ok());
  }
  EXPECT_GT(kv.stats().flushes, 0u);
  EXPECT_GT(kv.stats().compactions, 0u);
  for (int i = 0; i < 500; i++) {
    EXPECT_TRUE(kv.Get("key" + std::to_string(i)).ok()) << i;
  }
}

TEST(KvStoreTest, DeleteAcrossFlushIsHonored) {
  KvOptions options;
  options.memtable_flush_bytes = 128;
  KvStore kv(options);
  ASSERT_TRUE(kv.Open().ok());
  ASSERT_TRUE(kv.Put("victim", std::string(200, 'v')).ok());  // forces flush
  ASSERT_TRUE(kv.Delete("victim").ok());
  ASSERT_TRUE(kv.Flush().ok());
  ASSERT_TRUE(kv.Compact().ok());
  EXPECT_TRUE(kv.Get("victim").status().IsNotFound());
}

TEST(KvStoreTest, RecoversFromWal) {
  std::string path =
      (std::filesystem::temp_directory_path() /
       ("cfs_kv_recover_" + std::to_string(::getpid())))
          .string();
  std::remove(path.c_str());
  {
    KvOptions options;
    options.wal.path = path;
    KvStore kv(options);
    ASSERT_TRUE(kv.Open().ok());
    ASSERT_TRUE(kv.Put("persist-me", "yes").ok());
    ASSERT_TRUE(kv.Delete("persist-me-not").ok());
  }
  KvOptions options;
  options.wal.path = path;
  KvStore kv(options);
  ASSERT_TRUE(kv.Open().ok());
  auto got = kv.Get("persist-me");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "yes");
  std::remove(path.c_str());
}

TEST(WriteBatchTest, EncodeDecodeRoundTrip) {
  WriteBatch batch;
  batch.Put("alpha", "1");
  batch.Delete("beta");
  batch.Put("gamma", std::string(300, 'g'));
  auto decoded = WriteBatch::Decode(batch.Encode());
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->ops().size(), 3u);
  EXPECT_EQ(decoded->ops()[0].key, "alpha");
  EXPECT_EQ(decoded->ops()[1].type, ValueType::kDelete);
  EXPECT_EQ(decoded->ops()[2].value.size(), 300u);
}

TEST(WriteBatchTest, DecodeRejectsUnknownOpType) {
  WriteBatch batch;
  batch.Put("alpha", "1");
  std::string data = batch.Encode();
  // Layout: varint count (1 byte here), then the op-type byte.
  ASSERT_EQ(data[1], static_cast<char>(ValueType::kPut));
  data[1] = 7;
  auto decoded = WriteBatch::Decode(data);
  EXPECT_EQ(decoded.status().code(), ErrorCode::kCorruption);
}

// Property test: random workload against a std::map reference model, with
// aggressive flush/compaction settings, across several seeds. Snapshots
// taken at random steps are read back against the model as it was then,
// across the flushes and compactions that follow.
class KvPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KvPropertyTest, MatchesReferenceModel) {
  KvOptions options;
  options.memtable_flush_bytes = 512;
  options.max_runs_before_compaction = 3;
  KvStore kv(options);
  ASSERT_TRUE(kv.Open().ok());
  using Model = std::map<std::string, std::string>;
  Model model;
  std::vector<std::pair<uint64_t, Model>> snapshots;  // seq, model then
  Rng rng(GetParam());

  auto expect_matches = [&](const std::string& key, uint64_t snap,
                            const Model& m) {
    auto got = kv.Get(key, snap);
    auto it = m.find(key);
    if (it == m.end()) {
      EXPECT_TRUE(got.status().IsNotFound()) << key << "@" << snap;
    } else {
      ASSERT_TRUE(got.ok()) << key << "@" << snap;
      EXPECT_EQ(*got, it->second) << key << "@" << snap;
    }
  };

  for (int step = 0; step < 3000; step++) {
    std::string key = "k" + std::to_string(rng.Uniform(200));
    uint64_t action = rng.Uniform(10);
    if (action < 6) {
      std::string value = "v" + std::to_string(rng.Next() % 100000);
      ASSERT_TRUE(kv.Put(key, value).ok());
      model[key] = value;
    } else if (action < 8) {
      ASSERT_TRUE(kv.Delete(key).ok());
      model.erase(key);
    } else if (action == 8) {
      expect_matches(key, UINT64_MAX, model);
      if (!snapshots.empty()) {
        const auto& [snap, then] = snapshots[rng.Uniform(snapshots.size())];
        expect_matches(key, snap, then);
      }
    } else {
      auto rows = kv.Scan("k", "l");
      EXPECT_EQ(rows.size(), model.size());
    }
    // Keep up to four snapshots open, replacing a random one now and then
    // so compaction sees both pinned and released versions.
    if (rng.Uniform(50) == 0) {
      if (snapshots.size() == 4) {
        size_t victim = rng.Uniform(snapshots.size());
        kv.ReleaseSnapshot(snapshots[victim].first);
        snapshots.erase(snapshots.begin() + static_cast<ptrdiff_t>(victim));
      }
      snapshots.emplace_back(kv.GetSnapshot(), model);
    }
  }
  EXPECT_GT(kv.stats().compactions, 0u);
  // Final full comparison, at the latest state and at every open snapshot.
  auto rows = kv.Scan("", "");
  ASSERT_EQ(rows.size(), model.size());
  auto it = model.begin();
  for (const auto& [k, v] : rows) {
    EXPECT_EQ(k, it->first);
    EXPECT_EQ(v, it->second);
    ++it;
  }
  for (const auto& [snap, then] : snapshots) {
    for (int i = 0; i < 200; i++) {
      expect_matches("k" + std::to_string(i), snap, then);
    }
    kv.ReleaseSnapshot(snap);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KvPropertyTest,
                         ::testing::Values(1, 2, 3, 17, 99));

}  // namespace
}  // namespace cfs
