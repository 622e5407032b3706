// Skiplist memtable with LevelDB-style versions: every key carries a chain
// of versions ordered by sequence desc, each a put or a tombstone. Readers
// at a snapshot sequence see the newest version whose sequence is <= the
// snapshot.
//
// Layout (the RocksDB arena memtable shape): the skiplist orders distinct
// user keys only, one node per key with the key bytes inline after its
// `next` array. Each key node owns a newest-first chain of version records
// (seq, type, value bytes inline). Nodes and versions come from one bump
// arena, written only by the single writer and freed whole with the
// memtable.
//
// Point reads and new versions of an existing key do not walk the skiplist:
// a fixed hash index (the RocksDB hash-skiplist idea) chains every key node.
// The skiplist serves ordered work (range visits, flush) and new keys.

#ifndef CFS_KV_MEMTABLE_H_
#define CFS_KV_MEMTABLE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <memory_resource>
#include <optional>
#include <string_view>

#include "src/common/random.h"

namespace cfs {

enum class ValueType : uint8_t { kPut = 0, kDelete = 1 };

// A version read in place. The bytes belong to the memtable or sorted run
// it came from and stay valid as long as that source lives.
struct KvView {
  std::string_view key;
  std::string_view value;
  uint64_t seq = 0;
  ValueType type = ValueType::kPut;
};

// Point-index hash shared by the memtable and sorted-run indexes.
inline uint64_t KeyHash(std::string_view key) {
  return std::hash<std::string_view>{}(key);
}

using KvVisitor = std::function<bool(const KvView&)>;

class MemTable {
 public:
  MemTable();

  MemTable(const MemTable&) = delete;
  MemTable& operator=(const MemTable&) = delete;

  // Thread-safety: Add is externally serialized by the store's write path;
  // Get/Visit* may run concurrently with Add (pointers are published with
  // release stores).
  void Add(std::string_view key, std::string_view value, uint64_t seq,
           ValueType type);

  // Newest version of `key` visible at `snapshot_seq`, or nullopt when no
  // version exists (a tombstone IS returned, as a view of kDelete type, so
  // callers can distinguish "deleted here" from "not present here"). O(1):
  // one bucket chain walk, then the key's version chain.
  std::optional<KvView> Get(std::string_view key, uint64_t snapshot_seq) const;

  // Visits all versions with key in [start, end) (end empty = unbounded) in
  // internal order (key asc, seq desc). Return false from the visitor to
  // stop.
  void VisitRange(std::string_view start, std::string_view end,
                  const KvVisitor& visit) const;

  // Visits every version in internal order (for flushing).
  void VisitAll(const KvVisitor& visit) const { VisitRange("", "", visit); }

  size_t ApproximateBytes() const { return bytes_.load(std::memory_order_relaxed); }
  size_t EntryCount() const { return entries_.load(std::memory_order_relaxed); }

 private:
  static constexpr int kMaxHeight = 12;
  // Hash index size: 2^14 buckets, 128 KB of heads per memtable.
  static constexpr size_t kBuckets = size_t{1} << 14;

  // A version record; the value bytes follow it.
  struct Version {
    std::atomic<Version*> older;
    uint64_t seq;
    uint32_t value_size;
    ValueType type;

    std::string_view value() const {
      return {reinterpret_cast<const char*>(this + 1), value_size};
    }
  };

  // A key node; the key bytes follow next[height - 1].
  struct Node {
    // Newest version first; never empty once the node is published.
    std::atomic<Version*> versions;
    // Next key node in this node's hash bucket chain.
    std::atomic<Node*> hash_next;
    uint32_t tag;  // high half of KeyHash(key)
    uint32_t key_size;
    int height;
    std::atomic<Node*> next[1];  // over-allocated to `height`

    std::string_view key() const {
      return {reinterpret_cast<const char*>(next + height), key_size};
    }
    Node* Next(int level) const {
      return next[level].load(std::memory_order_acquire);
    }
    void SetNext(int level, Node* n) {
      next[level].store(n, std::memory_order_release);
    }
  };

  Node* NewNode(std::string_view key, int height, uint32_t tag);
  Version* NewVersion(std::string_view value, uint64_t seq, ValueType type);
  int RandomHeight();
  // First node with key >= `key`; fills prev[] (the last node < key per
  // level) when non-null.
  Node* FindGreaterOrEqual(std::string_view key, Node** prev) const;
  // `key`'s node, or nullptr. When `link` is non-null it receives the hash
  // chain link that holds the node, or the chain's null tail.
  Node* FindNode(std::string_view key, uint64_t hash,
                 std::atomic<Node*>** link) const;

  // Bump allocator for every node and version, used only by the writer;
  // its blocks start at 64 KB and are freed whole with the memtable.
  std::pmr::monotonic_buffer_resource arena_{64 << 10};
  Node* head_;
  std::unique_ptr<std::atomic<Node*>[]> buckets_;
  std::atomic<int> max_height_{1};
  Rng rng_{0xdecafbad};
  std::atomic<size_t> bytes_{0};
  std::atomic<size_t> entries_{0};
};

}  // namespace cfs

#endif  // CFS_KV_MEMTABLE_H_
