// Unit tests for the sharded, epoch-tagged client dentry cache
// (src/core/dentry_cache.h): LRU bounds, negative-entry TTLs, epoch
// staleness and revalidation, prefix invalidation, and concurrent use.

#include "src/core/dentry_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <list>
#include <map>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/clock.h"
#include "src/common/random.h"

namespace cfs {
namespace {

using Outcome = DentryCache::Outcome;

constexpr InodeId kDir = 7;

DentryCache::Options SmallOptions() {
  DentryCache::Options o;
  o.capacity = 8;
  o.shards = 1;  // deterministic LRU order
  o.negative_ttl_ms = 10;
  o.epoch_ttl_ms = 100;
  return o;
}

TEST(DentryCacheTest, MissThenHitAfterFill) {
  ManualClock clock;
  DentryCache cache(SmallOptions(), &clock);
  cache.ObserveDirEpoch(kDir, 0);

  EXPECT_EQ(cache.Lookup("/d/a", kDir).outcome, Outcome::kMiss);
  cache.PutPositive("/d/a", kDir, 42, InodeType::kFile, /*epoch=*/0);

  auto hit = cache.Lookup("/d/a", kDir);
  EXPECT_EQ(hit.outcome, Outcome::kHit);
  EXPECT_EQ(hit.id, 42u);
  EXPECT_EQ(hit.type, InodeType::kFile);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(DentryCacheTest, EntryWithoutEpochViewIsStale) {
  ManualClock clock;
  DentryCache cache(SmallOptions(), &clock);
  // Fill without ever observing the parent's epoch: the entry must not be
  // trusted (it has no coherence baseline).
  cache.PutPositive("/d/a", kDir, 42, InodeType::kFile, /*epoch=*/0);
  EXPECT_EQ(cache.Lookup("/d/a", kDir).outcome, Outcome::kMiss);
  EXPECT_EQ(cache.stats().stale_drops, 1u);
}

TEST(DentryCacheTest, EpochMismatchDropsEntry) {
  ManualClock clock;
  DentryCache cache(SmallOptions(), &clock);
  cache.ObserveDirEpoch(kDir, 3);
  cache.PutPositive("/d/a", kDir, 42, InodeType::kFile, /*epoch=*/3);
  EXPECT_EQ(cache.Lookup("/d/a", kDir).outcome, Outcome::kHit);

  // A directory mutation elsewhere bumps the epoch; once this engine
  // observes it, the tagged entry is stale on first touch.
  cache.ObserveDirEpoch(kDir, 4);
  EXPECT_EQ(cache.Lookup("/d/a", kDir).outcome, Outcome::kMiss);
  EXPECT_EQ(cache.stats().stale_drops, 1u);
  // And the entry is gone, not resurrectable.
  EXPECT_EQ(cache.Lookup("/d/a", kDir).outcome, Outcome::kMiss);
}

TEST(DentryCacheTest, ParentMismatchDropsEntry) {
  ManualClock clock;
  DentryCache cache(SmallOptions(), &clock);
  cache.ObserveDirEpoch(kDir, 1);
  cache.PutPositive("/d/a", kDir, 42, InodeType::kFile, /*epoch=*/1);
  // Same path string, different parent directory id (the directory was
  // replaced): the entry must not serve.
  cache.ObserveDirEpoch(kDir + 1, 1);
  EXPECT_EQ(cache.Lookup("/d/a", kDir + 1).outcome, Outcome::kMiss);
}

TEST(DentryCacheTest, AgedEpochViewDemandsValidation) {
  ManualClock clock;
  DentryCache cache(SmallOptions(), &clock);  // epoch_ttl_ms = 100
  cache.ObserveDirEpoch(kDir, 5);
  cache.PutPositive("/d/a", kDir, 42, InodeType::kFile, /*epoch=*/5);
  EXPECT_EQ(cache.Lookup("/d/a", kDir).outcome, Outcome::kHit);

  clock.AdvanceMicros(101 * 1000);
  EXPECT_EQ(cache.Lookup("/d/a", kDir).outcome, Outcome::kNeedsValidation);
  EXPECT_EQ(cache.stats().revalidations, 1u);

  // Revalidation with an unchanged epoch refreshes the view; the entry
  // serves again.
  cache.ObserveDirEpoch(kDir, 5);
  EXPECT_EQ(cache.Lookup("/d/a", kDir).outcome, Outcome::kHit);

  // Revalidation that surfaces a bump turns the entry stale instead.
  clock.AdvanceMicros(101 * 1000);
  EXPECT_EQ(cache.Lookup("/d/a", kDir).outcome, Outcome::kNeedsValidation);
  cache.ObserveDirEpoch(kDir, 6);
  EXPECT_EQ(cache.Lookup("/d/a", kDir).outcome, Outcome::kMiss);
}

TEST(DentryCacheTest, NegativeEntryServesThenExpires) {
  ManualClock clock;
  DentryCache cache(SmallOptions(), &clock);  // negative_ttl_ms = 10
  cache.ObserveDirEpoch(kDir, 1);
  cache.PutNegative("/d/missing", kDir, /*epoch=*/1);

  EXPECT_EQ(cache.Lookup("/d/missing", kDir).outcome, Outcome::kNegativeHit);
  EXPECT_EQ(cache.stats().negative_hits, 1u);

  clock.AdvanceMicros(11 * 1000);
  EXPECT_EQ(cache.Lookup("/d/missing", kDir).outcome, Outcome::kMiss);
  EXPECT_EQ(cache.stats().stale_drops, 1u);
}

TEST(DentryCacheTest, ZeroNegativeTtlDisablesNegativeCaching) {
  ManualClock clock;
  DentryCache::Options options = SmallOptions();
  options.negative_ttl_ms = 0;
  DentryCache cache(options, &clock);
  cache.ObserveDirEpoch(kDir, 1);
  cache.PutPositive("/d/a", kDir, 42, InodeType::kFile, /*epoch=*/1);

  // PutNegative with the TTL disabled must not plant an ENOENT — but it
  // must still retire the contradicted positive entry.
  cache.PutNegative("/d/a", kDir, /*epoch=*/1);
  EXPECT_EQ(cache.Lookup("/d/a", kDir).outcome, Outcome::kMiss);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(DentryCacheTest, LruEvictsOldestWithinCapacity) {
  ManualClock clock;
  DentryCache cache(SmallOptions(), &clock);  // capacity 8, one shard
  cache.ObserveDirEpoch(kDir, 1);
  for (int i = 0; i < 8; i++) {
    cache.PutPositive("/d/e" + std::to_string(i), kDir, 100 + i,
                      InodeType::kFile, /*epoch=*/1);
  }
  // Touch the oldest so it moves to the front.
  EXPECT_EQ(cache.Lookup("/d/e0", kDir).outcome, Outcome::kHit);

  cache.PutPositive("/d/e8", kDir, 108, InodeType::kFile, /*epoch=*/1);
  EXPECT_EQ(cache.size(), 8u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  // e1 (now the LRU tail) was evicted; e0 survived its touch.
  EXPECT_EQ(cache.Lookup("/d/e1", kDir).outcome, Outcome::kMiss);
  EXPECT_EQ(cache.Lookup("/d/e0", kDir).outcome, Outcome::kHit);
}

TEST(DentryCacheTest, ErasePrefixDropsSubtreeButNotSiblingPrefix) {
  ManualClock clock;
  DentryCache::Options options = SmallOptions();
  options.capacity = 64;
  options.shards = 4;  // prefix scan must cover every shard
  DentryCache cache(options, &clock);
  cache.ObserveDirEpoch(kDir, 1);
  cache.PutPositive("/a", kDir, 1, InodeType::kDirectory, /*epoch=*/1);
  cache.PutPositive("/a/x", kDir, 2, InodeType::kFile, /*epoch=*/1);
  cache.PutPositive("/a/x/y", kDir, 3, InodeType::kFile, /*epoch=*/1);
  cache.PutPositive("/ab", kDir, 4, InodeType::kFile,
                    /*epoch=*/1);  // sibling, not child

  cache.ErasePrefix("/a");
  EXPECT_EQ(cache.Lookup("/a", kDir).outcome, Outcome::kMiss);
  EXPECT_EQ(cache.Lookup("/a/x", kDir).outcome, Outcome::kMiss);
  EXPECT_EQ(cache.Lookup("/a/x/y", kDir).outcome, Outcome::kMiss);
  // "/ab" shares the byte prefix but is not inside "/a": must survive.
  EXPECT_EQ(cache.Lookup("/ab", kDir).outcome, Outcome::kHit);
  EXPECT_EQ(cache.stats().prefix_drops, 2u);  // "/a/x", "/a/x/y"
}

TEST(DentryCacheTest, ZeroCapacityDisablesCache) {
  ManualClock clock;
  DentryCache::Options options = SmallOptions();
  options.capacity = 0;
  DentryCache cache(options, &clock);
  cache.ObserveDirEpoch(kDir, 1);
  cache.PutPositive("/d/a", kDir, 42, InodeType::kFile, /*epoch=*/1);
  EXPECT_EQ(cache.Lookup("/d/a", kDir).outcome, Outcome::kMiss);
  EXPECT_EQ(cache.size(), 0u);
  // Disabled-cache lookups do not pollute the hit/miss counters.
  EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(DentryCacheTest, EpochRegressionIsIgnored) {
  ManualClock clock;
  DentryCache cache(SmallOptions(), &clock);
  cache.ObserveDirEpoch(kDir, 9);
  cache.PutPositive("/d/a", kDir, 42, InodeType::kFile, /*epoch=*/9);

  // A reordered (older) observation must not roll the view back, and
  // neither may 0: shard epochs never reset.
  cache.ObserveDirEpoch(kDir, 8);
  EXPECT_EQ(cache.ObservedDirEpoch(kDir), 9u);
  EXPECT_EQ(cache.Lookup("/d/a", kDir).outcome, Outcome::kHit);
  cache.ObserveDirEpoch(kDir, 0);
  EXPECT_EQ(cache.ObservedDirEpoch(kDir), 9u);
  EXPECT_EQ(cache.Lookup("/d/a", kDir).outcome, Outcome::kHit);
}

// Regression for a late epoch-0 read: a ReadEntry reads epoch 0 and the
// pre-rename dentry, the rename's invalidation delivery moves the view to
// 1, then the read completes. Its observation of 0 must not reset the
// view, or its fill (tagged 0) would hit as fresh.
TEST(DentryCacheTest, LateEpochZeroReadDoesNotResetView) {
  ManualClock clock;
  DentryCache cache(SmallOptions(), &clock);
  cache.ObserveDirEpoch(kDir, 1);  // invalidation delivery
  cache.ObserveDirEpoch(kDir, 0);  // the late read's piggybacked epoch
  cache.PutPositive("/d/a", kDir, 42, InodeType::kFile, /*epoch=*/0);

  EXPECT_EQ(cache.ObservedDirEpoch(kDir), 1u);
  EXPECT_NE(cache.Lookup("/d/a", kDir).outcome, Outcome::kHit);
}

// Regression for the fill/broadcast race: a resolve reads a dentry while
// the parent is at epoch 1; before the fill lands, a rename commits, bumps
// the epoch, and its invalidation broadcast refreshes this engine's view
// to 2. The fill is tagged with the epoch observed WITH the data (1), so
// it must be treated as stale — tagging with the refreshed view would
// make pre-rename data indistinguishable from fresh.
TEST(DentryCacheTest, FillTaggedOlderThanViewIsStaleNotFresh) {
  ManualClock clock;
  DentryCache cache(SmallOptions(), &clock);
  cache.ObserveDirEpoch(kDir, 1);
  // ... dentry read happens here, piggybacking epoch 1 ...
  cache.ObserveDirEpoch(kDir, 2);  // broadcast lands before the fill
  cache.PutPositive("/d/a", kDir, 42, InodeType::kFile, /*epoch=*/1);

  EXPECT_EQ(cache.Lookup("/d/a", kDir).outcome, Outcome::kMiss);
  EXPECT_EQ(cache.stats().stale_drops, 1u);
}

TEST(DentryCacheTest, LookupValidatedRefreshesAgedViewAndServesHit) {
  ManualClock clock;
  DentryCache cache(SmallOptions(), &clock);  // epoch_ttl_ms = 100
  cache.ObserveDirEpoch(kDir, 5);
  cache.PutPositive("/d/a", kDir, 42, InodeType::kFile, /*epoch=*/5);
  clock.AdvanceMicros(101 * 1000);

  int refreshes = 0;
  auto refresh = [&](uint64_t* epoch) {
    refreshes++;
    *epoch = 5;  // unchanged on the shard
    return true;
  };
  auto result = cache.LookupValidated("/d/a", kDir, refresh);
  EXPECT_EQ(result.outcome, Outcome::kHit);
  EXPECT_EQ(result.id, 42u);
  EXPECT_EQ(refreshes, 1);
  // One logical lookup: one terminal outcome, plus the revalidate event.
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_EQ(cache.stats().revalidations, 1u);
}

// With epoch_ttl_ms <= 0 every hit revalidates — but the revalidated retry
// must then serve the hit (one extra RPC per hit), not degrade every
// lookup to a miss plus the RPC.
TEST(DentryCacheTest, ZeroEpochTtlRevalidatesEveryHitButStillServes) {
  ManualClock clock;
  DentryCache::Options options = SmallOptions();
  options.epoch_ttl_ms = 0;
  DentryCache cache(options, &clock);
  cache.ObserveDirEpoch(kDir, 1);
  cache.PutPositive("/d/a", kDir, 42, InodeType::kFile, /*epoch=*/1);

  auto refresh = [](uint64_t* epoch) {
    *epoch = 1;
    return true;
  };
  EXPECT_EQ(cache.LookupValidated("/d/a", kDir, refresh).outcome,
            Outcome::kHit);
  EXPECT_EQ(cache.LookupValidated("/d/a", kDir, refresh).outcome,
            Outcome::kHit);
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().revalidations, 2u);
}

TEST(DentryCacheTest, LookupValidatedRefreshSurfacingBumpDropsEntry) {
  ManualClock clock;
  DentryCache cache(SmallOptions(), &clock);
  cache.ObserveDirEpoch(kDir, 5);
  cache.PutPositive("/d/a", kDir, 42, InodeType::kFile, /*epoch=*/5);
  clock.AdvanceMicros(101 * 1000);

  auto refresh = [](uint64_t* epoch) {
    *epoch = 6;  // a mutation happened since the fill
    return true;
  };
  EXPECT_EQ(cache.LookupValidated("/d/a", kDir, refresh).outcome,
            Outcome::kMiss);
  EXPECT_EQ(cache.stats().stale_drops, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(DentryCacheTest, LookupValidatedUnreachableShardIsMiss) {
  ManualClock clock;
  DentryCache cache(SmallOptions(), &clock);
  cache.ObserveDirEpoch(kDir, 5);
  cache.PutPositive("/d/a", kDir, 42, InodeType::kFile, /*epoch=*/5);
  clock.AdvanceMicros(101 * 1000);

  auto refresh = [](uint64_t*) { return false; };
  EXPECT_EQ(cache.LookupValidated("/d/a", kDir, refresh).outcome,
            Outcome::kMiss);
  // The entry itself was not dropped — it may serve once the view can be
  // refreshed again.
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().revalidations, 1u);
}

// Counter accounting: N logical lookups record exactly N terminal
// outcomes, whatever mix of revalidations happened along the way.
TEST(DentryCacheTest, OneTerminalOutcomePerLogicalLookup) {
  ManualClock clock;
  DentryCache cache(SmallOptions(), &clock);  // epoch_ttl_ms = 100
  cache.ObserveDirEpoch(kDir, 1);
  cache.PutPositive("/d/a", kDir, 42, InodeType::kFile, /*epoch=*/1);
  cache.PutNegative("/d/gone", kDir, /*epoch=*/1);

  auto refresh = [](uint64_t* epoch) {
    *epoch = 1;
    return true;
  };
  constexpr uint64_t kLookups = 12;
  for (uint64_t i = 0; i < kLookups; i++) {
    // Half the rounds age the view out so the revalidation path runs.
    if (i % 2 == 0) clock.AdvanceMicros(101 * 1000);
    const char* path = i % 3 == 0 ? "/d/a" : (i % 3 == 1 ? "/d/gone"
                                                         : "/d/absent");
    (void)cache.LookupValidated(path, kDir, refresh);
  }
  DentryCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.negative_hits, kLookups);
}

// Concurrency smoke: mixed fills, lookups, and prefix drops across threads.
// Run under TSan by scripts/check.sh; asserts only crash-freedom and that
// the LRU bound holds.
TEST(DentryCacheTest, ConcurrentMixedUseStaysBounded) {
  DentryCache::Options options;
  options.capacity = 256;
  options.shards = 8;
  options.negative_ttl_ms = 1;
  options.epoch_ttl_ms = 1;
  DentryCache cache(options);  // real clock: TTL paths get exercised

  constexpr int kThreads = 8;
  constexpr int kOps = 4000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kOps; i++) {
        InodeId dir = static_cast<InodeId>(i % 16);
        std::string path =
            "/p" + std::to_string(i % 16) + "/c" + std::to_string(i % 97);
        switch ((i + t) % 5) {
          case 0:
            cache.ObserveDirEpoch(dir, static_cast<uint64_t>(i % 7));
            break;
          case 1:
            cache.PutPositive(path, dir, static_cast<InodeId>(i),
                              InodeType::kFile,
                              static_cast<uint64_t>(i % 7));
            break;
          case 2:
            cache.PutNegative(path, dir, static_cast<uint64_t>(i % 7));
            break;
          case 3:
            (void)cache.Lookup(path, dir);
            break;
          case 4:
            if (i % 31 == 0) {
              cache.ErasePrefix("/p" + std::to_string(i % 16));
            } else {
              cache.Erase(path);
            }
            break;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_LE(cache.size(), 256u);
}

// Lookups read epoch views without the epoch-shard lock while other threads
// grow the view tables (observing new directories doubles them, moving
// every view). Run under TSan by scripts/check.sh: every lookup must still
// see its parent's view, and every view ends at the highest epoch observed.
TEST(DentryCacheTest, ConcurrentViewGrowthUnderLookups) {
  DentryCache::Options options;
  options.capacity = 4096;
  options.shards = 4;
  options.epoch_ttl_ms = 600000;
  ManualClock clock;
  DentryCache cache(options, &clock);
  constexpr InodeId kHome = 1;
  constexpr int kFiles = 64;
  constexpr InodeId kFirstDir = 1000;
  constexpr int kDirs = 2000;
  cache.ObserveDirEpoch(kHome, 1);
  for (int i = 0; i < kFiles; i++) {
    cache.PutPositive("/h/f" + std::to_string(i), kHome, 100 + i,
                      InodeType::kFile, /*epoch=*/1);
  }

  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; t++) {
    threads.emplace_back([&cache, t] {
      for (int d = 0; d < kDirs; d++) {
        cache.ObserveDirEpoch(kFirstDir + d, static_cast<uint64_t>(1 + t));
      }
    });
  }
  for (int t = 0; t < 4; t++) {
    threads.emplace_back([&cache, &wrong, t] {
      for (int i = 0; i < 20000; i++) {
        const int file = (i + t) % kFiles;
        auto result = cache.Lookup("/h/f" + std::to_string(file), kHome);
        if (result.outcome != Outcome::kHit ||
            result.id != static_cast<InodeId>(100 + file)) {
          wrong++;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(wrong.load(), 0);
  for (int d = 0; d < kDirs; d++) {
    ASSERT_EQ(cache.ObservedDirEpoch(kFirstDir + d), 2u) << "dir " << d;
  }
}

// ---------------------------------------------------------------------------
// Model-based property test: random operation sequences run against the
// cache and against a reference model — a plain std::list LRU plus maps,
// spelling out the cache's semantics: shard choice by std::hash of the
// path, exact per-shard LRU, parent and epoch checks, negative and view
// TTLs, epoch regression and the 0 reset. Every outcome, size() and
// Stats must agree after every step.

class ModelCache {
 public:
  ModelCache(DentryCache::Options options, const ManualClock* clock)
      : options_(options), clock_(clock) {
    size_t shards = 1;
    while (shards < (options.shards == 0 ? 1 : options.shards)) shards <<= 1;
    while (shards > 1 && options.capacity > 0 &&
           options.capacity / shards == 0) {
      shards >>= 1;
    }
    shards_.resize(shards);
    per_shard_ = options.capacity / shards;
  }

  DentryCache::LookupResult Lookup(const std::string& path, InodeId parent) {
    if (options_.capacity == 0) return {};
    bool stale = false;
    DentryCache::LookupResult r = Round(path, parent, false, &stale);
    Record(r.outcome, stale);
    return r;
  }

  DentryCache::LookupResult LookupValidated(
      const std::string& path, InodeId parent,
      const std::function<bool(uint64_t*)>& refresh) {
    if (options_.capacity == 0) return {};
    bool stale = false;
    DentryCache::LookupResult r = Round(path, parent, false, &stale);
    if (r.outcome == Outcome::kNeedsValidation) {
      Record(Outcome::kNeedsValidation, false);
      uint64_t epoch = 0;
      if (refresh(&epoch)) {
        ObserveDirEpoch(parent, epoch);
        r = Round(path, parent, true, &stale);
      } else {
        r = {};
      }
    }
    Record(r.outcome, stale);
    return r;
  }

  void PutPositive(const std::string& path, InodeId parent, InodeId id,
                   InodeType type, uint64_t epoch) {
    Put(path, Entry{parent, id, type, epoch, false, 0});
  }

  void PutNegative(const std::string& path, InodeId parent, uint64_t epoch) {
    if (options_.negative_ttl_ms <= 0) {
      Erase(path);
      return;
    }
    Put(path, Entry{parent, kInvalidInode, InodeType::kNone, epoch, true,
                    Now() + options_.negative_ttl_ms * 1000});
  }

  void Erase(const std::string& path) {
    Shard& shard = ShardOf(path);
    auto it = shard.index.find(path);
    if (it == shard.index.end()) return;
    shard.lru.erase(it->second);
    shard.index.erase(it);
  }

  void ErasePrefix(const std::string& path) {
    Erase(path);
    std::string prefix = path;
    if (prefix.empty() || prefix.back() != '/') prefix.push_back('/');
    for (Shard& shard : shards_) {
      for (auto it = shard.lru.begin(); it != shard.lru.end();) {
        if (it->first.compare(0, prefix.size(), prefix) == 0) {
          shard.index.erase(it->first);
          it = shard.lru.erase(it);
          stats_.prefix_drops++;
        } else {
          ++it;
        }
      }
    }
  }

  void ObserveDirEpoch(InodeId dir, uint64_t epoch) {
    if (options_.capacity == 0) return;
    View& view = views_[dir];
    if (epoch >= view.epoch) view.epoch = epoch;
    view.observed_us = Now();
  }

  uint64_t ObservedDirEpoch(InodeId dir) const {
    auto it = views_.find(dir);
    return it == views_.end() ? 0 : it->second.epoch;
  }

  size_t size() const {
    size_t total = 0;
    for (const Shard& shard : shards_) total += shard.lru.size();
    return total;
  }
  const DentryCache::Stats& stats() const { return stats_; }

 private:
  struct Entry {
    InodeId parent;
    InodeId id;
    InodeType type;
    uint64_t epoch;
    bool negative;
    int64_t negative_expire_us;
  };
  using Lru = std::list<std::pair<std::string, Entry>>;
  struct Shard {
    Lru lru;  // front = most recent
    std::unordered_map<std::string, Lru::iterator> index;
  };
  struct View {
    uint64_t epoch = 0;
    int64_t observed_us = 0;
  };

  int64_t Now() const { return clock_->NowMicros(); }
  Shard& ShardOf(const std::string& path) {
    return shards_[std::hash<std::string>{}(path) & (shards_.size() - 1)];
  }

  DentryCache::LookupResult Round(const std::string& path, InodeId parent,
                                  bool view_is_fresh, bool* stale) {
    DentryCache::LookupResult r;
    auto view = views_.find(parent);
    Shard& shard = ShardOf(path);
    auto it = shard.index.find(path);
    if (it == shard.index.end()) return r;
    const Entry& e = it->second->second;
    if (e.parent != parent || view == views_.end() ||
        e.epoch != view->second.epoch ||
        (e.negative && Now() >= e.negative_expire_us)) {
      shard.lru.erase(it->second);
      shard.index.erase(it);
      *stale = true;
    } else if (!view_is_fresh &&
               (options_.epoch_ttl_ms <= 0 ||
                Now() - view->second.observed_us >
                    options_.epoch_ttl_ms * 1000)) {
      r.outcome = Outcome::kNeedsValidation;
    } else {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      r.outcome = e.negative ? Outcome::kNegativeHit : Outcome::kHit;
      r.id = e.id;
      r.type = e.type;
    }
    return r;
  }

  void Record(Outcome outcome, bool stale) {
    switch (outcome) {
      case Outcome::kHit: stats_.hits++; break;
      case Outcome::kNegativeHit: stats_.negative_hits++; break;
      case Outcome::kNeedsValidation: stats_.revalidations++; break;
      case Outcome::kMiss:
        stats_.misses++;
        if (stale) stats_.stale_drops++;
        break;
    }
  }

  void Put(const std::string& path, const Entry& entry) {
    if (options_.capacity == 0) return;
    Shard& shard = ShardOf(path);
    auto it = shard.index.find(path);
    if (it != shard.index.end()) {
      it->second->second = entry;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return;
    }
    if (shard.lru.size() >= per_shard_ && !shard.lru.empty()) {
      shard.index.erase(shard.lru.back().first);
      shard.lru.pop_back();
      stats_.evictions++;
    }
    shard.lru.emplace_front(path, entry);
    shard.index.emplace(path, shard.lru.begin());
  }

  DentryCache::Options options_;
  const ManualClock* clock_;
  std::vector<Shard> shards_;
  size_t per_shard_ = 0;
  std::map<InodeId, View> views_;
  DentryCache::Stats stats_;
};

void ExpectSameStats(const DentryCache::Stats& got,
                     const DentryCache::Stats& want, int step) {
  EXPECT_EQ(got.hits, want.hits) << "step " << step;
  EXPECT_EQ(got.misses, want.misses) << "step " << step;
  EXPECT_EQ(got.negative_hits, want.negative_hits) << "step " << step;
  EXPECT_EQ(got.stale_drops, want.stale_drops) << "step " << step;
  EXPECT_EQ(got.evictions, want.evictions) << "step " << step;
  EXPECT_EQ(got.prefix_drops, want.prefix_drops) << "step " << step;
  EXPECT_EQ(got.revalidations, want.revalidations) << "step " << step;
}

// A small namespace so operations collide: 4 top-level dirs, 3 subdirs
// each, 6 names per dir, plus the sibling-prefix name "/d0x".
std::string RandomPath(Rng& rng) {
  if (rng.Uniform(40) == 0) return "/d0x";
  std::string path = "/d" + std::to_string(rng.Uniform(4));
  const uint64_t depth = rng.Uniform(3);
  if (depth >= 1) path += "/s" + std::to_string(rng.Uniform(3));
  if (depth >= 2) path += "/f" + std::to_string(rng.Uniform(6));
  return path;
}

void RunModelCheck(DentryCache::Options options, uint64_t seed, int steps) {
  SCOPED_TRACE("capacity " + std::to_string(options.capacity) + " shards " +
               std::to_string(options.shards) + " seed " +
               std::to_string(seed));
  ManualClock clock;
  DentryCache cache(options, &clock);
  ModelCache model(options, &clock);
  Rng rng(seed);
  for (int step = 0; step < steps; step++) {
    const std::string path = RandomPath(rng);
    // Directory ids include kInvalidInode (0), the views table's empty key.
    const InodeId dir = rng.Uniform(6);
    const uint64_t epoch = rng.Uniform(5);
    switch (rng.Uniform(12)) {
      case 0:
      case 1:
      case 2: {
        auto got = cache.Lookup(path, dir);
        auto want = model.Lookup(path, dir);
        ASSERT_EQ(got.outcome, want.outcome) << "step " << step << " " << path;
        EXPECT_EQ(got.id, want.id) << "step " << step;
        EXPECT_EQ(got.type, want.type) << "step " << step;
        break;
      }
      case 3: {
        const bool reachable = rng.Uniform(4) != 0;
        auto refresh = [&](uint64_t* out) {
          *out = epoch;
          return reachable;
        };
        auto got = cache.LookupValidated(path, dir, refresh);
        auto want = model.LookupValidated(path, dir, refresh);
        ASSERT_EQ(got.outcome, want.outcome) << "step " << step << " " << path;
        EXPECT_EQ(got.id, want.id) << "step " << step;
        break;
      }
      case 4:
      case 5: {
        const InodeId id = 100 + rng.Uniform(50);
        const InodeType type =
            rng.Uniform(2) ? InodeType::kFile : InodeType::kDirectory;
        cache.PutPositive(path, dir, id, type, epoch);
        model.PutPositive(path, dir, id, type, epoch);
        break;
      }
      case 6:
        cache.PutNegative(path, dir, epoch);
        model.PutNegative(path, dir, epoch);
        break;
      case 7:
        cache.Erase(path);
        model.Erase(path);
        break;
      case 8:
        if (rng.Uniform(4) == 0) {
          cache.ErasePrefix(path);
          model.ErasePrefix(path);
        }
        break;
      case 9:
      case 10:
        cache.ObserveDirEpoch(dir, epoch);
        model.ObserveDirEpoch(dir, epoch);
        break;
      case 11:
        // Sometimes within both TTLs, sometimes past them.
        clock.AdvanceMicros(static_cast<int64_t>(rng.Uniform(6000)));
        break;
    }
    ASSERT_EQ(cache.size(), model.size()) << "step " << step;
    ASSERT_EQ(cache.ObservedDirEpoch(dir), model.ObservedDirEpoch(dir))
        << "step " << step;
    ExpectSameStats(cache.stats(), model.stats(), step);
    if (::testing::Test::HasFailure()) return;
  }
}

DentryCache::Options ModelOptions(size_t capacity, size_t shards) {
  DentryCache::Options o;
  o.capacity = capacity;
  o.shards = shards;
  o.negative_ttl_ms = 4;  // expires within a few clock advances
  o.epoch_ttl_ms = 6;
  return o;
}

TEST(DentryCacheModelTest, OneShardNoEvictionPressure) {
  for (uint64_t seed = 1; seed <= 4; seed++) {
    RunModelCheck(ModelOptions(4096, 1), seed, 20000);
  }
}

TEST(DentryCacheModelTest, OneShardUnderEvictionPressure) {
  for (uint64_t seed = 1; seed <= 4; seed++) {
    RunModelCheck(ModelOptions(8, 1), seed, 20000);
  }
}

TEST(DentryCacheModelTest, SixteenShardsNoEvictionPressure) {
  for (uint64_t seed = 1; seed <= 4; seed++) {
    RunModelCheck(ModelOptions(4096, 16), seed, 20000);
  }
}

TEST(DentryCacheModelTest, SixteenShardsUnderEvictionPressure) {
  for (uint64_t seed = 1; seed <= 4; seed++) {
    RunModelCheck(ModelOptions(48, 16), seed, 20000);
  }
}

TEST(DentryCacheModelTest, TtlsDisabledAndZeroCapacity) {
  DentryCache::Options revalidate_every_hit = ModelOptions(64, 4);
  revalidate_every_hit.negative_ttl_ms = 0;
  revalidate_every_hit.epoch_ttl_ms = 0;
  RunModelCheck(revalidate_every_hit, 7, 20000);
  RunModelCheck(ModelOptions(0, 16), 8, 5000);
}

}  // namespace
}  // namespace cfs
