// Write-ahead log.
//
// Append-only sequence of opaque records, each assigned a monotonically
// increasing LSN. Two consumers:
//   - the KV store logs write batches before applying them to the memtable,
//   - raft persists log entries, votes, truncation marks and snapshots.
// (The garbage collector's change-data-capture feed tails the raft log via
// RaftNode::ReadCommittedSince, not the WAL.)
//
// Records live in memory (a bounded window, replayed on restart when no
// file is configured) and, when a path is configured, are also framed to a
// file ([crc32c][varint len][payload]) so recovery and corruption-detection
// paths can be tested against real bytes. The window holds WalRecords, so
// raft's log and its WAL window share one copy of each entry's bytes. fsync
// is simulated by default (a configurable sleep standing in for the paper's
// NVMe WAL flush); file-backed WALs can request real fdatasync.

#ifndef CFS_WAL_WAL_H_
#define CFS_WAL_WAL_H_

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/common/thread_annotations.h"

namespace cfs {

// One immutable WAL record shared by reference. A single allocation holds
// the reference count, the length and the bytes; copies share those bytes
// and nothing ever mutates them.
class WalRecord {
 public:
  WalRecord() = default;
  // Copies `head` followed by `tail` into a new record.
  explicit WalRecord(std::string_view head, std::string_view tail = {});

  std::string_view view() const {
    if (rep_ == nullptr) return {};
    uint32_t size;
    std::memcpy(&size, rep_.get(), sizeof(size));
    return {rep_.get() + sizeof(size), size};
  }

 private:
  std::shared_ptr<const char[]> rep_;  // [uint32 size][bytes]
};

struct WalOptions {
  // Simulated flush latency applied on every synced append (0 disables).
  int64_t fsync_delay_us = 0;
  // Backing file; empty keeps the log memory-only.
  std::string path;
  // Issue a real fdatasync on synced appends (requires `path`).
  bool real_fsync = false;
  // Cap on the in-memory record window; older records are dropped from
  // memory (they remain in the file if any).
  size_t memory_window = 1 << 20;
};

class Wal {
 public:
  explicit Wal(WalOptions options = {});
  ~Wal();

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  // Opens (and replays nothing by itself); see Recover().
  Status Open();

  // Appends a record; if sync, pays the flush cost. Returns the LSN. The
  // memory window keeps `record` itself (a reference, not a copy).
  StatusOr<uint64_t> Append(WalRecord record, bool sync = true);
  // Wraps the bytes in a new WalRecord and appends that.
  StatusOr<uint64_t> Append(std::string_view record, bool sync = true);

  // Replays records from the backing file (or the memory window when
  // memory-only), in LSN order. Stops at the first corrupt frame, returning
  // how many records were delivered via Status OK (corrupt tails are
  // expected after a crash).
  Status Replay(
      const std::function<void(uint64_t lsn, std::string_view record)>& fn);

  // Returns the records with lsn >= from_lsn currently in the memory
  // window (the window's own records, shared). `max` caps the batch.
  std::vector<std::pair<uint64_t, WalRecord>> ReadFrom(uint64_t from_lsn,
                                                       size_t max) const;

  // First LSN still held in the memory window.
  uint64_t FirstLsn() const;
  // LSN the next append will receive.
  uint64_t NextLsn() const;

  // Drops memory-window records with lsn < up_to (checkpointing).
  void TruncatePrefix(uint64_t up_to);

  // Test hook: chop the last `bytes` off the backing file to emulate a torn
  // write; subsequent Replay must stop cleanly before the torn frame.
  Status CorruptTailForTest(size_t bytes);

  uint64_t synced_appends() const {
    MutexLock lock(mu_);
    return synced_appends_;
  }

 private:
  Status AppendToFileLocked(std::string_view record) REQUIRES(mu_);

  WalOptions options_;  // tsa-coverage: allow(immutable after construction)
  // Leaf within the write path: raft/kv append while holding their own
  // locks, so wal.log ranks above them; the simulated fsync sleep happens
  // with mu_ released.
  mutable Mutex mu_{"wal.log", 70};
  std::deque<WalRecord> window_ GUARDED_BY(mu_);
  uint64_t window_base_ GUARDED_BY(mu_) = 0;  // LSN of window_.front()
  uint64_t next_lsn_ GUARDED_BY(mu_) = 0;
  std::FILE* file_ GUARDED_BY(mu_) = nullptr;
  uint64_t synced_appends_ GUARDED_BY(mu_) = 0;
};

}  // namespace cfs

#endif  // CFS_WAL_WAL_H_
