// Skiplist memtable with LevelDB-style versioned internal keys:
// entries are ordered by (user_key asc, sequence desc), and carry a value
// type (put or tombstone). Readers at a snapshot sequence see the newest
// entry whose sequence is <= the snapshot.
//
// Point reads do not walk the skiplist: a fixed hash index (the RocksDB
// hash-skiplist idea) chains each key's newest node, and older versions
// follow that node on skiplist level 0. The skiplist serves ordered work
// only (range visits, flush).

#ifndef CFS_KV_MEMTABLE_H_
#define CFS_KV_MEMTABLE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "src/common/random.h"

namespace cfs {

enum class ValueType : uint8_t { kPut = 0, kDelete = 1 };

struct KvEntry {
  std::string key;
  std::string value;
  uint64_t seq = 0;
  ValueType type = ValueType::kPut;
};

// Point-index hash shared by the memtable and sorted-run indexes.
inline uint64_t KeyHash(std::string_view key) {
  return std::hash<std::string_view>{}(key);
}

// Orders by key asc, then seq desc (newer versions first).
inline bool InternalLess(std::string_view ak, uint64_t aseq,
                         std::string_view bk, uint64_t bseq) {
  int c = ak.compare(bk);
  if (c != 0) return c < 0;
  return aseq > bseq;
}

class MemTable {
 public:
  MemTable();
  ~MemTable();

  MemTable(const MemTable&) = delete;
  MemTable& operator=(const MemTable&) = delete;

  // Thread-safety: Add is externally serialized by the store's write path;
  // Get/Scan may run concurrently with Add (pointers are published with
  // release stores).
  void Add(std::string_view key, std::string_view value, uint64_t seq,
           ValueType type);

  // Newest version of `key` visible at `snapshot_seq`, or nullptr when no
  // version exists (a tombstone IS returned, as an entry of kDelete type,
  // so callers can distinguish "deleted here" from "not present here").
  // The entry lives as long as the memtable. O(1): one bucket chain walk.
  const KvEntry* Get(std::string_view key, uint64_t snapshot_seq) const;

  // Visits all entries (every version) with key in [start, end) in internal
  // order. Return false from the visitor to stop.
  void VisitRange(std::string_view start, std::string_view end,
                  const std::function<bool(const KvEntry&)>& visit) const;

  // Visits every entry in internal order (for flushing).
  void VisitAll(const std::function<bool(const KvEntry&)>& visit) const;

  size_t ApproximateBytes() const { return bytes_.load(std::memory_order_relaxed); }
  size_t EntryCount() const { return entries_.load(std::memory_order_relaxed); }

 private:
  static constexpr int kMaxHeight = 12;
  // Hash index size: 2^14 buckets, 128 KB of heads per memtable.
  static constexpr size_t kBuckets = size_t{1} << 14;

  struct Node {
    KvEntry entry;
    int height;
    uint32_t tag;  // high half of KeyHash(entry.key)
    // Next key in this node's bucket chain. Only a key's newest node is
    // chained; a newer version replaces it in place.
    std::atomic<Node*> hash_next;
    std::atomic<Node*> next[1];  // over-allocated to `height`

    Node* Next(int level) const {
      return next[level].load(std::memory_order_acquire);
    }
    void SetNext(int level, Node* n) {
      next[level].store(n, std::memory_order_release);
    }
  };

  Node* NewNode(KvEntry entry, int height);
  int RandomHeight();
  // Last node < (key, seq); fills prev[] when non-null.
  Node* FindGreaterOrEqual(std::string_view key, uint64_t seq,
                           Node** prev) const;

  Node* head_;
  std::unique_ptr<std::atomic<Node*>[]> buckets_;
  std::atomic<int> max_height_{1};
  Rng rng_{0xdecafbad};
  std::atomic<size_t> bytes_{0};
  std::atomic<size_t> entries_{0};
};

}  // namespace cfs

#endif  // CFS_KV_MEMTABLE_H_
