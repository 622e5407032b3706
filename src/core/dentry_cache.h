// DentryCache — the client-side dentry cache behind CFS's metadata
// resolving (paper §3.1), replacing the placeholder per-engine map.
//
// Design (see DESIGN.md "Client cache & coherence"):
//   - Sharded bounded LRU: entries hash by full path onto N shards, each
//     with its own mutex and LRU order, so concurrent resolves on one engine
//     never serialize on a process-wide lock.
//   - Flat tables: a shard is one allocation holding a control byte per
//     slot, an open-addressed table of 56-byte entries and the arena of
//     path bytes; LRU order is an intrusive list of slot indices. Epoch views are 24-byte
//     slots in an open-addressed table per epoch shard. Nothing is
//     allocated per entry, and every table starts empty and grows
//     geometrically with what it holds — never sized from `capacity`, since
//     a cluster runs one cache per client.
//   - Positive AND negative entries: a cached ENOENT short-circuits repeat
//     lookups of missing names; negative entries expire after a TTL, which
//     bounds how long a create by another client can stay invisible.
//   - Per-entry epoch tags: every entry records the parent directory's
//     mutation epoch (a counter kept on the directory's TafDB shard,
//     TafDbShard::DirEpoch) observed in the same round as the data it
//     caches — not the view at fill time, which a concurrent invalidation
//     broadcast could have refreshed past the data. A lookup is a hit
//     only if the tag matches the engine's current view of that epoch — a
//     directory mutation anywhere in the cluster bumps the epoch, so stale
//     dentries are detected on first touch after the view refreshes.
//   - Epoch views age: a view older than epoch_ttl_ms yields
//     kNeedsValidation, telling the engine to refresh the epoch with one
//     cheap RPC before trusting the hit. The TTL is therefore the staleness
//     bound for mutations that are not broadcast (see below). Views are
//     never evicted: each directory the engine has observed keeps one.
//     The engine only observes directories it has read or mutated, so
//     views grow with the directories it actually uses.
//   - Eager prefix invalidation: directory renames drop whole cached
//     subtrees via ErasePrefix (driven by the Renamer's invalidation, sent
//     to every engine subscribed to the moved path's old or new parent), so
//     deep paths under a moved directory never serve the old location.
//
// Thread safety: all methods are safe for concurrent use. A lookup takes
// one lock, its entry shard's, and reads the parent's epoch view without
// a lock (see EpochShard). No method holds two shard locks at once; the
// rank order is epoch-view shard -> entry shard.

#ifndef CFS_CORE_DENTRY_CACHE_H_
#define CFS_CORE_DENTRY_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/clock.h"
#include "src/common/thread_annotations.h"
#include "src/tafdb/schema.h"

namespace cfs {

class DentryCache {
 public:
  struct Options {
    // Total entry budget across all shards (positive + negative). 0
    // disables caching entirely: every Lookup is a miss, every Put a no-op.
    size_t capacity = 65536;
    // Shard count (rounded up to a power of two).
    size_t shards = 16;
    // How long a cached ENOENT may be served. <= 0 disables negative
    // caching entirely.
    int64_t negative_ttl_ms = 1000;
    // How long an observed directory epoch is trusted before a hit demands
    // revalidation. <= 0 means every hit revalidates.
    int64_t epoch_ttl_ms = 2000;
  };

  enum class Outcome : uint8_t {
    kMiss,             // nothing cached (or the entry was stale and dropped)
    kHit,              // valid positive entry
    kNegativeHit,      // valid cached ENOENT
    kNeedsValidation,  // entry present but the parent's epoch view is too
                       // old to trust; refresh via ObserveDirEpoch, retry
  };

  struct LookupResult {
    Outcome outcome = Outcome::kMiss;
    InodeId id = kInvalidInode;
    InodeType type = InodeType::kNone;
  };

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t negative_hits = 0;
    uint64_t stale_drops = 0;   // epoch/parent mismatch or expired negative
    uint64_t evictions = 0;     // LRU capacity evictions
    uint64_t prefix_drops = 0;  // entries removed by ErasePrefix
    uint64_t revalidations = 0; // epoch revalidation rounds triggered
  };

  explicit DentryCache(Options options, const Clock* clock = RealClock::Get());

  // Consults the cache for `path`, whose final component lives in directory
  // `parent`. Never blocks on RPCs; kNeedsValidation asks the caller to
  // fetch the directory epoch and retry (see LookupValidated, which does
  // exactly that). Records one counter per call.
  LookupResult Lookup(const std::string& path, InodeId parent);

  // Lookup plus the revalidation round: on kNeedsValidation, invokes
  // `refresh_epoch` (expected to fetch the parent's current epoch with one
  // cheap RPC; returns false if the shard is unreachable), adopts the
  // refreshed view, and retries with that view trusted as fresh — even
  // when epoch_ttl_ms <= 0 (revalidate-every-hit), the post-refresh retry
  // can serve the hit. Exactly one terminal outcome (hit / negative hit /
  // miss) is recorded per call, plus the revalidate event when a refresh
  // happened; a failed refresh is a miss.
  LookupResult LookupValidated(
      const std::string& path, InodeId parent,
      const std::function<bool(uint64_t*)>& refresh_epoch);

  // Fills a positive / negative entry tagged with `epoch` — the parent
  // directory's mutation epoch observed IN THE SAME ROUND as the data
  // being cached (e.g. piggybacked on the dentry-read RPC), never the
  // current view: a view refreshed by a concurrent invalidation broadcast
  // between the read and the fill would tag pre-mutation data as fresh.
  // An epoch older than the view only makes the entry conservatively
  // stale. Fills from callers that never observed the epoch pass 0 and
  // are treated as stale on first lookup.
  void PutPositive(const std::string& path, InodeId parent, InodeId id,
                   InodeType type, uint64_t epoch);
  void PutNegative(const std::string& path, InodeId parent, uint64_t epoch);

  // Drops the exact path.
  void Erase(const std::string& path);
  // Drops the exact path and every cached descendant ("path/..."). O(cached
  // entries) — acceptable because directory renames are rare (paper §4.3).
  void ErasePrefix(const std::string& path);

  // Records a fresh observation of `dir`'s mutation epoch (from a read
  // piggyback, an own mutation, or an invalidation broadcast). Regressing
  // epochs, 0 included, are ignored.
  void ObserveDirEpoch(InodeId dir, uint64_t epoch);
  // The engine's current view of `dir`'s epoch (0 if never observed).
  uint64_t ObservedDirEpoch(InodeId dir) const;

  void Clear();
  size_t size() const;
  // Directories with an epoch view.
  size_t views() const;
  size_t capacity() const { return options_.capacity; }
  Stats stats() const;

 private:
  static constexpr uint32_t kNoSlot = ~uint32_t{0};

  // One cached dentry, stored in its shard's open-addressed table (56
  // bytes). The path's bytes live in the table's arena.
  struct Entry {
    InodeId parent = kInvalidInode;
    InodeId id = kInvalidInode;
    uint64_t epoch = 0;            // parent epoch tag at fill time
    int64_t negative_expire_us = 0;
    uint32_t tag = 0;              // upper half of the path hash
    uint32_t path_offset = 0;      // into the arena
    uint32_t path_size = 0;
    uint32_t lru_prev = kNoSlot;   // towards the most recent
    uint32_t lru_next = kNoSlot;   // towards the least recent
    InodeType type = InodeType::kNone;
    bool negative = false;
  };

  // The entries of one shard in one allocation: a control byte per slot
  // (0 for empty, else 7 bits of the tag), 2^k entry slots (linear probing
  // on the tag, backward-shift deletion, no tombstones), then the path
  // arena. Probes scan the control bytes, so a miss reads one cache line
  // and a hit reads only the entry it finds. LRU order is an intrusive list
  // of slot indices, kept in step when deletion shifts an entry. Not
  // thread-safe; used under its shard's mutex.
  class EntryTable {
   public:
    // The slot holding `path`, or kNoSlot.
    uint32_t Find(std::string_view path, uint32_t tag) const;
    Entry& at(uint32_t slot) { return slots()[slot]; }
    // Inserts a path known to be absent, as the most recent entry.
    void Insert(std::string_view path, uint32_t tag, const Entry& entry);
    void Remove(uint32_t slot);
    void Touch(uint32_t slot);  // moves to the LRU front
    // Removes the least recently used entry; false when empty.
    bool EvictLru();
    // Removes every entry whose path starts with `prefix`; returns how many.
    uint64_t RemovePrefix(std::string_view prefix);
    void Clear() { *this = EntryTable(); }
    size_t size() const { return count_; }

   private:
    // The control bytes fill the first CtrlUnits(slots) entries' storage.
    static size_t CtrlUnits(size_t slots) {
      return (slots + sizeof(Entry) - 1) / sizeof(Entry);
    }
    static uint8_t CtrlOf(uint32_t tag) { return 0x80 | (tag >> 25); }
    uint8_t* ctrl() const { return reinterpret_cast<uint8_t*>(block_.get()); }
    Entry* slots() const { return block_.get() + CtrlUnits(mask_ + 1); }
    char* arena() const { return reinterpret_cast<char*>(slots() + mask_ + 1); }
    std::string_view PathOf(const Entry& entry) const {
      return std::string_view(arena() + entry.path_offset, entry.path_size);
    }
    // Reallocates with `slots` slots and an arena of at least
    // `arena_bytes`, re-inserting every entry in LRU order.
    void Rebuild(size_t slots, size_t arena_bytes);
    // Stores `entry` (its path already in the arena) in the first free slot
    // of its probe run and links it at the LRU front.
    void Place(const Entry& entry);
    void LinkFront(uint32_t slot);
    void Unlink(uint32_t slot);

    // The fields Find and Touch read come first: with the shard's mutex
    // they fill one cache line.
    // Control bytes, slots, then the arena; null while empty.
    std::unique_ptr<Entry[]> block_;
    uint32_t mask_ = 0;               // slot count - 1
    uint32_t lru_head_ = kNoSlot;
    uint32_t lru_tail_ = kNoSlot;
    uint32_t count_ = 0;
    uint32_t arena_size_ = 0;  // bytes
    uint32_t arena_used_ = 0;
    uint32_t arena_dead_ = 0;  // bytes of removed paths
  };

  struct alignas(64) EntryShard {
    // All entry shards share one lock class; no method holds two at once.
    mutable Mutex mu{"dentry.entry", 41};
    EntryTable table GUARDED_BY(mu);
    // Set while the lookup holding `mu` reads an epoch view (see
    // EpochShard).
    std::atomic<bool> reading_view{false};
  };

  struct EpochView {
    uint64_t epoch = 0;
    int64_t observed_us = 0;
  };
  // One slot of an epoch shard's view table (24 bytes). Atomic, because
  // lookups read views without the shard's mutex.
  struct ViewSlot {
    std::atomic<InodeId> dir{kInvalidInode};  // kInvalidInode: empty
    std::atomic<uint64_t> epoch{0};
    std::atomic<int64_t> observed_us{0};
  };

  // The epoch views of the directories hashed to one shard: 2^k slots
  // (linear probing, nothing removed but by Clear) plus one past the end
  // for directory kInvalidInode, the empty-slot key. Writers hold `mu` and
  // bracket each change with `seq`, odd while they write. A lookup reads a
  // view without `mu`, while holding its entry-shard lock, and retries
  // while `seq` is odd or has moved. Growing the table publishes the new
  // slots and retires the old ones; they are freed once no entry shard
  // has `reading_view` set, which a lookup sets before it loads `slots`
  // and clears after its last read.
  struct alignas(64) EpochShard {
    // Ordered before dentry.entry (see the lock-order note above).
    mutable Mutex mu{"dentry.epoch", 40};
    std::atomic<uint32_t> seq{0};
    std::atomic<uint32_t> mask{0};
    std::atomic<ViewSlot*> slots{nullptr};
    std::unique_ptr<ViewSlot[]> owned GUARDED_BY(mu);  // what `slots` points to
    std::vector<std::unique_ptr<ViewSlot[]>> retired GUARDED_BY(mu);
    uint32_t count GUARDED_BY(mu) = 0;
  };

  EpochShard& EpochShardFor(InodeId dir) const;
  // The slot of `dir` among `slots` (mask + 2 of them), or nullptr.
  static const ViewSlot* FindView(const ViewSlot* slots, uint32_t mask,
                                  InodeId dir);
  // The table slot of `dir` (not kInvalidInode), claimed for it if absent
  // (`*added` set). Writers only.
  static ViewSlot& ClaimView(ViewSlot* slots, uint32_t mask, InodeId dir,
                             bool* added);
  // Doubles the shard's view table (or creates it) and retires the old
  // slots.
  void GrowViews(EpochShard& shard) REQUIRES(shard.mu);
  // Reads `dir`'s view without the epoch-shard lock, for a lookup holding
  // `reader`'s lock (see EpochShard). ok=false when unobserved.
  bool ReadView(EntryShard& reader, InodeId dir, EpochView* out) const;
  // True when no lookup is reading an epoch view.
  bool NoViewReaders() const;
  void PutEntry(const std::string& path, const Entry& entry);
  // One cache consultation, no counters. `view_is_fresh` marks a view
  // refreshed within the same logical lookup (skips the TTL check; cannot
  // return kNeedsValidation). `*stale` is set when a stale entry was
  // dropped.
  LookupResult LookupRound(const std::string& path, InodeId parent,
                           bool view_is_fresh, bool* stale);
  void RecordOutcome(Outcome outcome, bool stale);

  Options options_;
  const Clock* clock_;
  size_t shard_mask_ = 0;
  size_t per_shard_capacity_ = 0;
  std::vector<EntryShard> entry_shards_;
  mutable std::vector<EpochShard> epoch_shards_;

  // Per-instance stats are atomics so recording stays outside the shard
  // mutexes; global registry counters aggregate the same events across all
  // engines (dentry_cache.*).
  struct AtomicStats {
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> negative_hits{0};
    std::atomic<uint64_t> stale_drops{0};
    std::atomic<uint64_t> evictions{0};
    std::atomic<uint64_t> prefix_drops{0};
    std::atomic<uint64_t> revalidations{0};
  };
  mutable AtomicStats stats_;
};

}  // namespace cfs

#endif  // CFS_CORE_DENTRY_CACHE_H_
