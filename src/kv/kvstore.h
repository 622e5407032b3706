// KvStore — the embedded ordered key-value engine used by TafDB shard
// replicas and FileStore nodes (the paper uses RocksDB for the latter).
//
// LSM shape: WAL -> active memtable -> flushed sorted runs -> tiered
// compaction into one run. Writes are atomic batches. Reads and range scans
// can be pinned to a snapshot sequence. Recovery replays the WAL.

#ifndef CFS_KV_KVSTORE_H_
#define CFS_KV_KVSTORE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/kv/memtable.h"
#include "src/kv/sorted_run.h"
#include "src/wal/wal.h"

namespace cfs {

struct KvOptions {
  size_t memtable_flush_bytes = 4 << 20;
  size_t max_runs_before_compaction = 4;
  WalOptions wal;
  // When false (raft-applied stores), writes skip the engine's own WAL —
  // raft's log already provides durability and replay.
  bool use_wal = true;
};

class WriteBatch {
 public:
  void Put(std::string_view key, std::string_view value);
  void Delete(std::string_view key);
  void Clear() { ops_.clear(); }
  bool empty() const { return ops_.empty(); }
  size_t size() const { return ops_.size(); }

  struct Op {
    ValueType type;
    std::string key;
    std::string value;
  };
  const std::vector<Op>& ops() const { return ops_; }

  std::string Encode() const;
  static StatusOr<WriteBatch> Decode(std::string_view data);

 private:
  std::vector<Op> ops_;
};

class KvStore {
 public:
  explicit KvStore(KvOptions options = {});

  // Opens the WAL and replays it (recovery).
  Status Open();

  Status Write(const WriteBatch& batch, bool sync = true);
  Status Put(std::string_view key, std::string_view value, bool sync = true);
  Status Delete(std::string_view key, bool sync = true);

  // snapshot_seq == UINT64_MAX reads the latest state.
  StatusOr<std::string> Get(std::string_view key,
                            uint64_t snapshot_seq = UINT64_MAX) const;
  bool Contains(std::string_view key,
                uint64_t snapshot_seq = UINT64_MAX) const;

  // Collects live (non-deleted) key/value pairs with key in [start, end),
  // at most `limit` (0 = unlimited).
  std::vector<std::pair<std::string, std::string>> Scan(
      std::string_view start, std::string_view end, size_t limit = 0,
      uint64_t snapshot_seq = UINT64_MAX) const;

  // Number of live keys in [start, end) — used for directory fanout checks.
  size_t CountRange(std::string_view start, std::string_view end,
                    uint64_t snapshot_seq = UINT64_MAX) const;

  // Snapshot management: a snapshot pins every version at or below its
  // sequence against compaction until released.
  uint64_t GetSnapshot();
  void ReleaseSnapshot(uint64_t seq);

  // Maintenance.
  Status Flush();        // active memtable -> sorted run
  Status Compact();      // merge all runs into one
  // Drops every key and version (snapshot restore support). The engine WAL
  // is untouched; raft-applied stores run with use_wal=false.
  void Clear();
  void MaybeCompactLocked();

  uint64_t LastSequence() const;
  Wal* wal() { return &wal_; }

  struct Stats {
    uint64_t puts = 0;
    uint64_t deletes = 0;
    uint64_t gets = 0;
    uint64_t scans = 0;
    uint64_t flushes = 0;
    uint64_t compactions = 0;
  };
  Stats stats() const;

 private:
  Status WriteLocked(const WriteBatch& batch, bool sync) REQUIRES(write_mu_);
  uint64_t OldestSnapshotLocked() const;
  // Newest version of `key` at `snapshot_seq` across every source (a
  // tombstone included), or nullopt. Counts one get. The view points into
  // its source, which only version_mu_ keeps alive: copy out under it.
  std::optional<KvView> Find(std::string_view key, uint64_t snapshot_seq) const
      REQUIRES_SHARED(version_mu_);

  KvOptions options_;  // tsa-coverage: allow(immutable after construction)
  Wal wal_;  // tsa-coverage: allow(internally synchronized)

  // Writer lock is the outermost KV lock: held across the WAL append and
  // the structure-list update, so it ranks below kv.version and wal.log.
  Mutex write_mu_{"kv.write", 64};
  // Guards the structure lists (active/immutable/runs pointers).
  mutable SharedMutex version_mu_{"kv.version", 65};
  std::shared_ptr<MemTable> active_ GUARDED_BY(version_mu_);
  std::vector<std::shared_ptr<MemTable>> immutable_ GUARDED_BY(version_mu_);
  // Newest first.
  std::vector<std::shared_ptr<SortedRun>> runs_ GUARDED_BY(version_mu_);

  std::atomic<uint64_t> seq_{0};
  mutable Mutex snapshot_mu_{"kv.snapshot", 66};
  std::multiset<uint64_t> snapshots_ GUARDED_BY(snapshot_mu_);

  // Operation counters (Stats): relaxed, each is an independent tally.
  std::atomic<uint64_t> puts_{0};
  std::atomic<uint64_t> deletes_{0};
  mutable std::atomic<uint64_t> gets_{0};
  mutable std::atomic<uint64_t> scans_{0};
  std::atomic<uint64_t> flushes_{0};
  std::atomic<uint64_t> compactions_{0};
};

}  // namespace cfs

#endif  // CFS_KV_KVSTORE_H_
