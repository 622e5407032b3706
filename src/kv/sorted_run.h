// Immutable sorted run — the flushed/compacted on-"disk" unit of the KV
// store (the SSTable analogue). Entries are in internal order (key asc,
// seq desc) and may contain multiple versions of a key. Point reads go
// through an open-addressed hash index built once at construction; the
// sorted vector serves range visits and merges.

#ifndef CFS_KV_SORTED_RUN_H_
#define CFS_KV_SORTED_RUN_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/kv/memtable.h"

namespace cfs {

// An owned version: the unit of a sorted run.
struct KvEntry {
  std::string key;
  std::string value;
  uint64_t seq = 0;
  ValueType type = ValueType::kPut;
};

class SortedRun {
 public:
  // `entries` must already be in internal order.
  explicit SortedRun(std::vector<KvEntry> entries);

  // Newest version of key visible at snapshot_seq, or nullopt. The view
  // lives as long as the run.
  std::optional<KvView> Get(std::string_view key, uint64_t snapshot_seq) const;

  // Visits entries with key in [start, end) (end empty = unbounded).
  void VisitRange(std::string_view start, std::string_view end,
                  const KvVisitor& visit) const;

  size_t size() const { return entries_.size(); }
  const std::vector<KvEntry>& entries() const { return entries_; }

  uint64_t min_seq() const { return min_seq_; }
  uint64_t max_seq() const { return max_seq_; }

  // k-way merges runs (newest first priority) into one run, dropping
  // versions not needed by any snapshot >= `keep_seq` except the newest per
  // key, and dropping tombstones entirely when `drop_tombstones`.
  static std::shared_ptr<SortedRun> Merge(
      const std::vector<std::shared_ptr<SortedRun>>& runs, uint64_t keep_seq,
      bool drop_tombstones);

 private:
  static constexpr uint32_t kEmptySlot = UINT32_MAX;

  std::vector<KvEntry> entries_;
  // Open-addressed (linear probing) index over distinct keys: each slot
  // holds the position of a key's newest entry. Power-of-two size of at
  // least twice the key count, so the load factor stays at or under 1/2.
  std::vector<uint32_t> index_;
  uint64_t min_seq_ = UINT64_MAX;
  uint64_t max_seq_ = 0;
};

}  // namespace cfs

#endif  // CFS_KV_SORTED_RUN_H_
