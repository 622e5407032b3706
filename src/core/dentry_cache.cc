#include "src/core/dentry_cache.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <string_view>
#include <thread>

#include "src/common/hash.h"
#include "src/common/metrics.h"
#include "src/common/race_detector.h"

namespace cfs {
namespace {

// Cluster-wide cache counters (all engines fold in). Pointers are stable
// for the process lifetime; resolve once.
struct GlobalCounters {
  Counter* hit;
  Counter* miss;
  Counter* negative_hit;
  Counter* stale;
  Counter* evict;
  Counter* prefix_drop;
  Counter* revalidate;
};

const GlobalCounters& Counters() {
  static const GlobalCounters counters = [] {
    MetricsRegistry& registry = MetricsRegistry::Global();
    return GlobalCounters{
        registry.GetCounter("dentry_cache.hit"),
        registry.GetCounter("dentry_cache.miss"),
        registry.GetCounter("dentry_cache.negative_hit"),
        registry.GetCounter("dentry_cache.stale"),
        registry.GetCounter("dentry_cache.evict"),
        registry.GetCounter("dentry_cache.prefix_drop"),
        registry.GetCounter("dentry_cache.revalidate"),
    };
  }();
  return counters;
}

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

// One hash per path: the low bits pick the shard, the upper 32 bits are
// the table tag. The shard decides which entries compete for one LRU
// budget, so it stays std::hash of the path.
uint64_t PathHash(std::string_view path) {
  return std::hash<std::string_view>{}(path);
}

uint32_t TagOf(uint64_t hash) { return static_cast<uint32_t>(hash >> 32); }

// Every table starts at this many slots and doubles at 3/4 load; arenas
// start at this many bytes.
constexpr uint32_t kMinSlots = 4;
constexpr size_t kMinArena = 64;

// The view of directory kInvalidInode (the empty-slot key) lives in the
// slot past the table; its `dir` holds this mark once it exists.
constexpr InodeId kInvalidDirMark = ~InodeId{0};

}  // namespace

// ---------------------------------------------------------------------------
// EntryTable

uint32_t DentryCache::EntryTable::Find(std::string_view path,
                                       uint32_t tag) const {
  if (!block_) return kNoSlot;
  const uint8_t* ctrl = this->ctrl();
  const uint8_t want = CtrlOf(tag);
  for (uint32_t i = tag & mask_;; i = (i + 1) & mask_) {
    if (ctrl[i] == 0) return kNoSlot;
    if (ctrl[i] != want) continue;
    const Entry& entry = slots()[i];
    if (entry.tag == tag && PathOf(entry) == path) return i;
  }
}

void DentryCache::EntryTable::LinkFront(uint32_t slot) {
  Entry* slots = this->slots();
  Entry& entry = slots[slot];
  entry.lru_prev = kNoSlot;
  entry.lru_next = lru_head_;
  if (lru_head_ != kNoSlot) slots[lru_head_].lru_prev = slot;
  lru_head_ = slot;
  if (lru_tail_ == kNoSlot) lru_tail_ = slot;
}

void DentryCache::EntryTable::Unlink(uint32_t slot) {
  Entry* slots = this->slots();
  const Entry& entry = slots[slot];
  if (entry.lru_prev != kNoSlot) {
    slots[entry.lru_prev].lru_next = entry.lru_next;
  } else {
    lru_head_ = entry.lru_next;
  }
  if (entry.lru_next != kNoSlot) {
    slots[entry.lru_next].lru_prev = entry.lru_prev;
  } else {
    lru_tail_ = entry.lru_prev;
  }
}

void DentryCache::EntryTable::Touch(uint32_t slot) {
  if (slot == lru_head_) return;
  Unlink(slot);
  LinkFront(slot);
}

void DentryCache::EntryTable::Place(const Entry& entry) {
  uint8_t* ctrl = this->ctrl();
  uint32_t i = entry.tag & mask_;
  while (ctrl[i] != 0) i = (i + 1) & mask_;
  ctrl[i] = CtrlOf(entry.tag);
  slots()[i] = entry;
  LinkFront(i);
  count_++;
}

void DentryCache::EntryTable::Rebuild(size_t slots, size_t arena_bytes) {
  EntryTable fresh;
  const size_t arena_units = (arena_bytes + sizeof(Entry) - 1) / sizeof(Entry);
  fresh.block_.reset(new Entry[CtrlUnits(slots) + slots + arena_units]);
  fresh.mask_ = static_cast<uint32_t>(slots - 1);
  fresh.arena_size_ = static_cast<uint32_t>(arena_units * sizeof(Entry));
  std::memset(fresh.ctrl(), 0, slots);
  // Oldest first, so that linking each at the front keeps the LRU order.
  const Entry* old_slots = this->slots();
  for (uint32_t slot = lru_tail_; slot != kNoSlot;
       slot = old_slots[slot].lru_prev) {
    Entry entry = old_slots[slot];
    const std::string_view path = PathOf(entry);
    entry.path_offset = fresh.arena_used_;
    std::memcpy(fresh.arena() + fresh.arena_used_, path.data(), path.size());
    fresh.arena_used_ += entry.path_size;
    fresh.Place(entry);
  }
  *this = std::move(fresh);
}

void DentryCache::EntryTable::Insert(std::string_view path, uint32_t tag,
                                     const Entry& entry) {
  const size_t slots = block_ ? mask_ + size_t{1} : 0;
  size_t new_slots = slots;
  if ((count_ + 1) * size_t{4} > slots * 3) {
    new_slots = std::max<size_t>(kMinSlots, slots * 2);
  }
  const bool arena_full = arena_used_ + path.size() > arena_size_;
  if (new_slots != slots || arena_full) {
    // Rebuilding drops removed paths' bytes; a full arena is resized to
    // twice what is live.
    Rebuild(new_slots,
            arena_full ? std::max(kMinArena,
                                  2 * (arena_used_ - arena_dead_ + path.size()))
                       : arena_size_);
  }
  Entry stored = entry;
  stored.tag = tag;
  stored.path_offset = arena_used_;
  stored.path_size = static_cast<uint32_t>(path.size());
  std::memcpy(arena() + arena_used_, path.data(), path.size());
  arena_used_ += stored.path_size;
  Place(stored);
}

void DentryCache::EntryTable::Remove(uint32_t slot) {
  uint8_t* ctrl = this->ctrl();
  Entry* slots = this->slots();
  Unlink(slot);
  arena_dead_ += slots[slot].path_size;
  count_--;
  // Backward-shift deletion: pull each later entry of the probe run into
  // the hole unless its home lies cyclically after the hole, and point the
  // moved entry's LRU neighbours at its new slot.
  uint32_t hole = slot;
  for (uint32_t i = (slot + 1) & mask_; ctrl[i] != 0; i = (i + 1) & mask_) {
    const uint32_t home = slots[i].tag & mask_;
    if (((i - home) & mask_) < ((i - hole) & mask_)) continue;
    ctrl[hole] = ctrl[i];
    const Entry& moved = slots[hole] = slots[i];
    if (moved.lru_prev != kNoSlot) {
      slots[moved.lru_prev].lru_next = hole;
    } else {
      lru_head_ = hole;
    }
    if (moved.lru_next != kNoSlot) {
      slots[moved.lru_next].lru_prev = hole;
    } else {
      lru_tail_ = hole;
    }
    hole = i;
  }
  ctrl[hole] = 0;
}

bool DentryCache::EntryTable::EvictLru() {
  if (lru_tail_ == kNoSlot) return false;
  Remove(lru_tail_);
  return true;
}

uint64_t DentryCache::EntryTable::RemovePrefix(std::string_view prefix) {
  if (!block_) return 0;
  uint64_t removed = 0;
  for (uint32_t i = 0; i <= mask_;) {
    if (ctrl()[i] != 0 &&
        PathOf(slots()[i]).substr(0, prefix.size()) == prefix) {
      // Removal may shift a later entry into slot i: look at it again.
      // (An entry it shifts from the wrapped start of the table has been
      // looked at already and does not match.)
      Remove(i);
      removed++;
    } else {
      i++;
    }
  }
  return removed;
}

// ---------------------------------------------------------------------------
// DentryCache

DentryCache::DentryCache(Options options, const Clock* clock)
    : options_(options), clock_(clock) {
  static_assert(sizeof(Entry) == 56 && sizeof(ViewSlot) == 24,
                "DESIGN.md section 8 gives these sizes");
  size_t shards = RoundUpPow2(options_.shards == 0 ? 1 : options_.shards);
  // Never spread the budget so thin that shards round down to nothing.
  while (shards > 1 && options_.capacity > 0 && options_.capacity / shards == 0) {
    shards >>= 1;
  }
  shard_mask_ = shards - 1;
  per_shard_capacity_ = options_.capacity / shards;
  entry_shards_ = std::vector<EntryShard>(shards);
  epoch_shards_ = std::vector<EpochShard>(shards);
}

DentryCache::EpochShard& DentryCache::EpochShardFor(InodeId dir) const {
  // Mix: sequential inode ids must not all land on one shard.
  uint64_t h = dir * 0x9e3779b97f4a7c15ULL;
  return epoch_shards_[(h >> 32) & shard_mask_];
}

const DentryCache::ViewSlot* DentryCache::FindView(const ViewSlot* slots,
                                                   uint32_t mask,
                                                   InodeId dir) {
  if (slots == nullptr) return nullptr;
  if (dir == kInvalidInode) {
    const ViewSlot& slot = slots[mask + 1];
    return slot.dir.load(std::memory_order_acquire) == kInvalidDirMark
               ? &slot
               : nullptr;
  }
  for (uint32_t i = HashU64(dir) & mask;; i = (i + 1) & mask) {
    const InodeId key = slots[i].dir.load(std::memory_order_acquire);
    if (key == dir) return &slots[i];
    if (key == kInvalidInode) return nullptr;
  }
}

bool DentryCache::ReadView(EntryShard& reader, InodeId dir,
                           EpochView* out) const {
  const EpochShard& shard = EpochShardFor(dir);
  // Sequentially consistent with the writer's publish-then-check in
  // ObserveDirEpoch: either the writer sees this flag and keeps the old
  // slots, or this lookup loads the new ones.
  reader.reading_view.store(true, std::memory_order_seq_cst);
  bool found;
  for (;;) {
    const uint32_t seq = shard.seq.load(std::memory_order_acquire);
    if ((seq & 1) == 0) {
      // Mask before slots: a writer publishes slots first, so the mask
      // never exceeds the slots read.
      const uint32_t mask = shard.mask.load(std::memory_order_seq_cst);
      const ViewSlot* slot =
          FindView(shard.slots.load(std::memory_order_seq_cst), mask, dir);
      if (slot != nullptr) {
        out->epoch = slot->epoch.load(std::memory_order_acquire);
        out->observed_us = slot->observed_us.load(std::memory_order_acquire);
      }
      // Every load above is an acquire: one that saw a writer's store also
      // sees the odd `seq` stored before it.
      if (shard.seq.load(std::memory_order_relaxed) == seq) {
        found = slot != nullptr;
        break;
      }
    }
    std::this_thread::yield();
  }
  reader.reading_view.store(false, std::memory_order_release);
  return found;
}

bool DentryCache::NoViewReaders() const {
  for (const EntryShard& shard : entry_shards_) {
    if (shard.reading_view.load(std::memory_order_seq_cst)) return false;
  }
  return true;
}

DentryCache::ViewSlot& DentryCache::ClaimView(ViewSlot* slots, uint32_t mask,
                                              InodeId dir, bool* added) {
  *added = false;
  for (uint32_t i = HashU64(dir) & mask;; i = (i + 1) & mask) {
    const InodeId key = slots[i].dir.load(std::memory_order_relaxed);
    if (key == dir) return slots[i];
    if (key == kInvalidInode) {
      slots[i].dir.store(dir, std::memory_order_release);
      *added = true;
      return slots[i];
    }
  }
}

void DentryCache::GrowViews(EpochShard& shard) {
  const uint32_t old_mask = shard.mask.load(std::memory_order_relaxed);
  const uint32_t slots = shard.owned ? 2 * (old_mask + 1) : kMinSlots;
  const uint32_t mask = slots - 1;
  std::unique_ptr<ViewSlot[]> fresh(new ViewSlot[slots + 1]);
  if (shard.owned) {
    for (uint32_t i = 0; i <= old_mask + 1; i++) {
      const ViewSlot& from = shard.owned[i];
      const InodeId key = from.dir.load(std::memory_order_relaxed);
      if (key == kInvalidInode) continue;
      // The kInvalidInode view, past the table, keeps its place.
      bool added;
      ViewSlot& to = i <= old_mask
                         ? ClaimView(fresh.get(), mask, key, &added)
                         : fresh[slots];
      to.dir.store(key, std::memory_order_relaxed);
      to.epoch.store(from.epoch.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
      to.observed_us.store(from.observed_us.load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
    }
  }
  // Slots before mask: a lookup loads the mask first, so it never probes
  // past the end of the slots it loads.
  shard.slots.store(fresh.get(), std::memory_order_seq_cst);
  shard.mask.store(mask, std::memory_order_seq_cst);
  if (shard.owned) shard.retired.push_back(std::move(shard.owned));
  shard.owned = std::move(fresh);
}

void DentryCache::ObserveDirEpoch(InodeId dir, uint64_t epoch) {
  if (options_.capacity == 0) return;
  int64_t now_us = clock_->NowMicros();
  EpochShard& shard = EpochShardFor(dir);
  MutexLock lock(shard.mu);
  CFS_SHARED_WRITE(shard.count, shard.mu);
  const uint32_t seq = shard.seq.load(std::memory_order_relaxed);
  shard.seq.store(seq + 1, std::memory_order_relaxed);
  if (!shard.owned ||
      (shard.count + 1) * 4 >
          (shard.mask.load(std::memory_order_relaxed) + 1) * 3) {
    GrowViews(shard);
  }
  const uint32_t mask = shard.mask.load(std::memory_order_relaxed);
  ViewSlot* slot = &shard.owned[mask + 1];
  if (dir == kInvalidInode) {
    slot->dir.store(kInvalidDirMark, std::memory_order_release);
  } else {
    bool added;
    slot = &ClaimView(shard.owned.get(), mask, dir, &added);
    if (added) shard.count++;
  }
  // A lower epoch is a reordered observation — keep the newer view but
  // still refresh the timestamp (the shard was reachable just now). No
  // exception for 0: shard epochs never reset, and a late read of epoch 0
  // adopted over a rename's bump would make that read's pre-rename fill,
  // tagged 0, hit as fresh.
  if (epoch >= slot->epoch.load(std::memory_order_relaxed)) {
    slot->epoch.store(epoch, std::memory_order_release);
  }
  slot->observed_us.store(now_us, std::memory_order_release);
  shard.seq.store(seq + 2, std::memory_order_release);
  if (!shard.retired.empty() && NoViewReaders()) shard.retired.clear();
}

uint64_t DentryCache::ObservedDirEpoch(InodeId dir) const {
  const EpochShard& shard = EpochShardFor(dir);
  MutexLock lock(shard.mu);
  const ViewSlot* slot = FindView(shard.owned.get(),
                                  shard.mask.load(std::memory_order_relaxed),
                                  dir);
  return slot != nullptr ? slot->epoch.load(std::memory_order_relaxed) : 0;
}

DentryCache::LookupResult DentryCache::LookupRound(const std::string& path,
                                                   InodeId parent,
                                                   bool view_is_fresh,
                                                   bool* stale) {
  LookupResult result;
  const uint64_t hash = PathHash(path);
  EntryShard& shard = entry_shards_[hash & shard_mask_];
  MutexLock lock(shard.mu);
  const uint32_t slot = shard.table.Find(path, TagOf(hash));
  if (slot == kNoSlot) return result;
  const Entry& entry = shard.table.at(slot);
  EpochView view;
  const bool has_view = ReadView(shard, parent, &view);
  const int64_t now_us = clock_->NowMicros();
  if (entry.parent != parent || !has_view || entry.epoch != view.epoch ||
      (entry.negative && now_us >= entry.negative_expire_us)) {
    // Re-parented, never-validated, epoch-mismatched, or an expired
    // ENOENT: drop it and miss.
    shard.table.Remove(slot);
    *stale = true;
  } else if (!view_is_fresh &&
             (options_.epoch_ttl_ms <= 0 ||
              now_us - view.observed_us > options_.epoch_ttl_ms * 1000)) {
    // The entry agrees with our view, but the view itself has aged out:
    // ask the caller to refresh the epoch first. A view refreshed within
    // this logical lookup (view_is_fresh) is trusted unconditionally,
    // which is what lets epoch_ttl_ms <= 0 mean "one revalidation RPC per
    // hit" rather than "hits never serve".
    result.outcome = Outcome::kNeedsValidation;
  } else {
    shard.table.Touch(slot);
    result.outcome = entry.negative ? Outcome::kNegativeHit : Outcome::kHit;
    result.id = entry.id;
    result.type = entry.type;
  }
  return result;
}

void DentryCache::RecordOutcome(Outcome outcome, bool stale) {
  switch (outcome) {
    case Outcome::kHit:
      stats_.hits.fetch_add(1, std::memory_order_relaxed);
      Counters().hit->Add();
      break;
    case Outcome::kNegativeHit:
      stats_.negative_hits.fetch_add(1, std::memory_order_relaxed);
      Counters().negative_hit->Add();
      break;
    case Outcome::kNeedsValidation:
      stats_.revalidations.fetch_add(1, std::memory_order_relaxed);
      Counters().revalidate->Add();
      break;
    case Outcome::kMiss:
      stats_.misses.fetch_add(1, std::memory_order_relaxed);
      Counters().miss->Add();
      if (stale) {
        stats_.stale_drops.fetch_add(1, std::memory_order_relaxed);
        Counters().stale->Add();
      }
      break;
  }
}

DentryCache::LookupResult DentryCache::Lookup(const std::string& path,
                                              InodeId parent) {
  if (options_.capacity == 0) {
    return LookupResult();  // disabled: always a miss, skip the counters
  }
  bool stale = false;
  LookupResult result = LookupRound(path, parent, /*view_is_fresh=*/false,
                                    &stale);
  RecordOutcome(result.outcome, stale);
  return result;
}

DentryCache::LookupResult DentryCache::LookupValidated(
    const std::string& path, InodeId parent,
    const std::function<bool(uint64_t*)>& refresh_epoch) {
  if (options_.capacity == 0) {
    return LookupResult();  // disabled: always a miss, skip the counters
  }
  bool stale = false;
  LookupResult result = LookupRound(path, parent, /*view_is_fresh=*/false,
                                    &stale);
  if (result.outcome == Outcome::kNeedsValidation) {
    // The revalidate event is recorded here; the retry below records the
    // terminal outcome, so one logical lookup counts exactly one of
    // hit / negative_hit / miss.
    RecordOutcome(Outcome::kNeedsValidation, /*stale=*/false);
    uint64_t epoch = 0;
    if (refresh_epoch && refresh_epoch(&epoch)) {
      ObserveDirEpoch(parent, epoch);
      result = LookupRound(path, parent, /*view_is_fresh=*/true, &stale);
    } else {
      // Shard unreachable: the view could not be refreshed, so the hit
      // cannot be trusted — treat as a miss.
      result = LookupResult();
    }
  }
  RecordOutcome(result.outcome, stale);
  return result;
}

void DentryCache::PutEntry(const std::string& path, const Entry& entry) {
  if (options_.capacity == 0) return;
  bool evicted = false;
  const uint64_t hash = PathHash(path);
  EntryShard& shard = entry_shards_[hash & shard_mask_];
  {
    MutexLock lock(shard.mu);
    const uint32_t slot = shard.table.Find(path, TagOf(hash));
    if (slot != kNoSlot) {
      Entry& stored = shard.table.at(slot);
      stored.parent = entry.parent;
      stored.id = entry.id;
      stored.type = entry.type;
      stored.epoch = entry.epoch;
      stored.negative = entry.negative;
      stored.negative_expire_us = entry.negative_expire_us;
      shard.table.Touch(slot);
      return;
    }
    if (shard.table.size() >= per_shard_capacity_) {
      evicted = shard.table.EvictLru();
    }
    shard.table.Insert(path, TagOf(hash), entry);
  }
  if (evicted) {
    stats_.evictions.fetch_add(1, std::memory_order_relaxed);
    Counters().evict->Add();
  }
}

void DentryCache::PutPositive(const std::string& path, InodeId parent,
                              InodeId id, InodeType type, uint64_t epoch) {
  Entry entry;
  entry.parent = parent;
  entry.id = id;
  entry.type = type;
  entry.epoch = epoch;
  PutEntry(path, entry);
}

void DentryCache::PutNegative(const std::string& path, InodeId parent,
                              uint64_t epoch) {
  if (options_.negative_ttl_ms <= 0) {
    // Negative caching disabled — but the ENOENT we just observed proves
    // any cached positive entry for this path is wrong.
    Erase(path);
    return;
  }
  Entry entry;
  entry.parent = parent;
  entry.negative = true;
  entry.epoch = epoch;
  entry.negative_expire_us =
      clock_->NowMicros() + options_.negative_ttl_ms * 1000;
  PutEntry(path, entry);
}

void DentryCache::Erase(const std::string& path) {
  const uint64_t hash = PathHash(path);
  EntryShard& shard = entry_shards_[hash & shard_mask_];
  MutexLock lock(shard.mu);
  const uint32_t slot = shard.table.Find(path, TagOf(hash));
  if (slot != kNoSlot) shard.table.Remove(slot);
}

void DentryCache::ErasePrefix(const std::string& path) {
  Erase(path);
  std::string prefix = path;
  if (prefix.empty() || prefix.back() != '/') prefix.push_back('/');
  uint64_t dropped = 0;
  for (EntryShard& shard : entry_shards_) {
    MutexLock lock(shard.mu);
    dropped += shard.table.RemovePrefix(prefix);
  }
  if (dropped > 0) {
    stats_.prefix_drops.fetch_add(dropped, std::memory_order_relaxed);
    Counters().prefix_drop->Add(dropped);
  }
}

void DentryCache::Clear() {
  for (EntryShard& shard : entry_shards_) {
    MutexLock lock(shard.mu);
    shard.table.Clear();
  }
  for (EpochShard& shard : epoch_shards_) {
    MutexLock lock(shard.mu);
    CFS_SHARED_WRITE(shard.count, shard.mu);
    if (!shard.owned) continue;
    const uint32_t seq = shard.seq.load(std::memory_order_relaxed);
    shard.seq.store(seq + 1, std::memory_order_relaxed);
    const uint32_t mask = shard.mask.load(std::memory_order_relaxed);
    for (uint32_t i = 0; i <= mask + 1; i++) {
      shard.owned[i].dir.store(kInvalidInode, std::memory_order_release);
      shard.owned[i].epoch.store(0, std::memory_order_release);
      shard.owned[i].observed_us.store(0, std::memory_order_release);
    }
    shard.count = 0;
    shard.seq.store(seq + 2, std::memory_order_release);
  }
}

size_t DentryCache::size() const {
  size_t total = 0;
  for (const EntryShard& shard : entry_shards_) {
    MutexLock lock(shard.mu);
    total += shard.table.size();
  }
  return total;
}

size_t DentryCache::views() const {
  size_t total = 0;
  for (const EpochShard& shard : epoch_shards_) {
    MutexLock lock(shard.mu);
    CFS_SHARED_READ(shard.count, shard.mu);
    total += shard.count;
  }
  return total;
}

DentryCache::Stats DentryCache::stats() const {
  Stats out;
  out.hits = stats_.hits.load(std::memory_order_relaxed);
  out.misses = stats_.misses.load(std::memory_order_relaxed);
  out.negative_hits = stats_.negative_hits.load(std::memory_order_relaxed);
  out.stale_drops = stats_.stale_drops.load(std::memory_order_relaxed);
  out.evictions = stats_.evictions.load(std::memory_order_relaxed);
  out.prefix_drops = stats_.prefix_drops.load(std::memory_order_relaxed);
  out.revalidations = stats_.revalidations.load(std::memory_order_relaxed);
  return out;
}

}  // namespace cfs
