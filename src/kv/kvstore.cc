#include "src/kv/kvstore.h"

#include <algorithm>
#include <set>

#include "src/common/encoding.h"
#include "src/common/race_detector.h"

namespace cfs {

void WriteBatch::Put(std::string_view key, std::string_view value) {
  ops_.push_back(Op{ValueType::kPut, std::string(key), std::string(value)});
}

void WriteBatch::Delete(std::string_view key) {
  ops_.push_back(Op{ValueType::kDelete, std::string(key), ""});
}

std::string WriteBatch::Encode() const {
  std::string out;
  PutVarint64(&out, ops_.size());
  for (const auto& op : ops_) {
    out.push_back(static_cast<char>(op.type));
    PutLengthPrefixed(&out, op.key);
    PutLengthPrefixed(&out, op.value);
  }
  return out;
}

StatusOr<WriteBatch> WriteBatch::Decode(std::string_view data) {
  Decoder dec(data);
  uint64_t count;
  if (!dec.GetVarint64(&count)) {
    return Status::Corruption("batch count");
  }
  WriteBatch batch;
  for (uint64_t i = 0; i < count; i++) {
    if (dec.empty()) return Status::Corruption("batch truncated");
    auto type = static_cast<ValueType>(dec.rest()[0]);
    if (type != ValueType::kPut && type != ValueType::kDelete) {
      return Status::Corruption("batch op type");
    }
    dec = Decoder(dec.rest().substr(1));
    std::string key, value;
    if (!dec.GetLengthPrefixed(&key) || !dec.GetLengthPrefixed(&value)) {
      return Status::Corruption("batch op truncated");
    }
    if (type == ValueType::kPut) {
      batch.Put(key, value);
    } else {
      batch.Delete(key);
    }
  }
  return batch;
}

KvStore::KvStore(KvOptions options)
    : options_(std::move(options)),
      wal_(options_.wal),
      active_(std::make_shared<MemTable>()) {}

Status KvStore::Open() {
  CFS_RETURN_IF_ERROR(wal_.Open());
  if (!options_.use_wal) return Status::Ok();
  uint64_t max_seq = 0;
  Status corrupt = Status::Ok();
  Status replay = wal_.Replay([&](uint64_t, std::string_view record) {
    if (!corrupt.ok()) return;
    Decoder dec(record);
    uint64_t first_seq;
    if (!dec.GetVarint64(&first_seq)) {
      corrupt = Status::Corruption("batch sequence");
      return;
    }
    auto batch = WriteBatch::Decode(dec.rest());
    if (!batch.ok()) {
      corrupt = batch.status();
      return;
    }
    uint64_t seq = first_seq;
    WriterMutexLock vlock(version_mu_);
    for (const auto& op : batch->ops()) {
      active_->Add(op.key, op.value, seq, op.type);
      max_seq = std::max(max_seq, seq);
      seq++;
    }
  });
  CFS_RETURN_IF_ERROR(replay);
  CFS_RETURN_IF_ERROR(corrupt);
  if (max_seq > seq_.load()) seq_.store(max_seq);
  return Status::Ok();
}

Status KvStore::Write(const WriteBatch& batch, bool sync) {
  if (batch.empty()) return Status::Ok();
  MutexLock lock(write_mu_);
  return WriteLocked(batch, sync);
}

Status KvStore::WriteLocked(const WriteBatch& batch, bool sync) {
  uint64_t first_seq = seq_.load(std::memory_order_relaxed) + 1;
  if (options_.use_wal) {
    std::string record;
    PutVarint64(&record, first_seq);
    record += batch.Encode();
    auto lsn = wal_.Append(record, sync);
    if (!lsn.ok()) return lsn.status();
  }
  uint64_t seq = first_seq;
  size_t active_bytes = 0;
  {
    // Apply under the version lock so structure swaps don't race. Note the
    // split guard: version_mu_ protects the *pointer* (read here); memtable
    // contents are serialized by write_mu_, which the caller holds.
    ReaderMutexLock vlock(version_mu_);
    CFS_SHARED_READ(active_, version_mu_);
    for (const auto& op : batch.ops()) {
      active_->Add(op.key, op.value, seq++, op.type);
    }
    // Sample the flush trigger here: touching active_ after the lock drops
    // would race a concurrent Flush() swapping the memtable out.
    active_bytes = active_->ApproximateBytes();
  }
  seq_.store(seq - 1, std::memory_order_release);
  for (const auto& op : batch.ops()) {
    (op.type == ValueType::kPut ? puts_ : deletes_)
        .fetch_add(1, std::memory_order_relaxed);
  }
  if (active_bytes >= options_.memtable_flush_bytes) {
    CFS_RETURN_IF_ERROR(Flush());
  }
  return Status::Ok();
}

Status KvStore::Put(std::string_view key, std::string_view value, bool sync) {
  WriteBatch b;
  b.Put(key, value);
  return Write(b, sync);
}

Status KvStore::Delete(std::string_view key, bool sync) {
  WriteBatch b;
  b.Delete(key);
  return Write(b, sync);
}

std::optional<KvView> KvStore::Find(std::string_view key,
                                    uint64_t snapshot_seq) const {
  gets_.fetch_add(1, std::memory_order_relaxed);
  CFS_SHARED_READ(active_, version_mu_);
  // Per key, source order equals recency order: active > immutables (newest
  // first) > runs (newest first).
  if (auto v = active_->Get(key, snapshot_seq)) return v;
  for (auto it = immutable_.rbegin(); it != immutable_.rend(); ++it) {
    if (auto v = (*it)->Get(key, snapshot_seq)) return v;
  }
  for (const auto& run : runs_) {
    if (auto v = run->Get(key, snapshot_seq)) return v;
  }
  return std::nullopt;
}

StatusOr<std::string> KvStore::Get(std::string_view key,
                                   uint64_t snapshot_seq) const {
  ReaderMutexLock vlock(version_mu_);
  auto v = Find(key, snapshot_seq);
  if (!v || v->type == ValueType::kDelete) {
    return Status::NotFound();
  }
  return std::string(v->value);
}

bool KvStore::Contains(std::string_view key, uint64_t snapshot_seq) const {
  ReaderMutexLock vlock(version_mu_);
  auto v = Find(key, snapshot_seq);
  return v && v->type == ValueType::kPut;
}

std::vector<std::pair<std::string, std::string>> KvStore::Scan(
    std::string_view start, std::string_view end, size_t limit,
    uint64_t snapshot_seq) const {
  scans_.fetch_add(1, std::memory_order_relaxed);
  ReaderMutexLock vlock(version_mu_);
  CFS_SHARED_READ(active_, version_mu_);
  // Merge newest-wins per key across all sources. The views stay valid while
  // version_mu_ pins the sources; the output copies them before it drops.
  std::map<std::string_view, KvView> merged;
  auto absorb = [&](const KvView& v) {
    if (v.seq > snapshot_seq) return true;
    auto [it, inserted] = merged.emplace(v.key, v);
    if (!inserted && v.seq > it->second.seq) it->second = v;
    return true;
  };
  active_->VisitRange(start, end, absorb);
  for (const auto& mt : immutable_) {
    mt->VisitRange(start, end, absorb);
  }
  for (const auto& run : runs_) {
    run->VisitRange(start, end, absorb);
  }
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& [key, v] : merged) {
    if (v.type == ValueType::kDelete) continue;
    out.emplace_back(key, v.value);
    if (limit != 0 && out.size() >= limit) break;
  }
  return out;
}

size_t KvStore::CountRange(std::string_view start, std::string_view end,
                           uint64_t snapshot_seq) const {
  return Scan(start, end, 0, snapshot_seq).size();
}

uint64_t KvStore::GetSnapshot() {
  uint64_t seq = seq_.load(std::memory_order_acquire);
  MutexLock lock(snapshot_mu_);
  snapshots_.insert(seq);
  return seq;
}

void KvStore::ReleaseSnapshot(uint64_t seq) {
  MutexLock lock(snapshot_mu_);
  auto it = snapshots_.find(seq);
  if (it != snapshots_.end()) snapshots_.erase(it);
}

uint64_t KvStore::OldestSnapshotLocked() const {
  MutexLock lock(snapshot_mu_);
  return snapshots_.empty() ? UINT64_MAX : *snapshots_.begin();
}

Status KvStore::Flush() {
  // Caller holds write_mu_ (via WriteLocked) or calls explicitly with no
  // concurrent writers; seal the active memtable and convert it to a run.
  std::shared_ptr<MemTable> sealed;
  {
    WriterMutexLock vlock(version_mu_);
    CFS_SHARED_WRITE(active_, version_mu_);
    if (active_->EntryCount() == 0) return Status::Ok();
    sealed = active_;
    active_ = std::make_shared<MemTable>();
    immutable_.push_back(sealed);
  }
  std::vector<KvEntry> entries;
  entries.reserve(sealed->EntryCount());
  sealed->VisitAll([&](const KvView& v) {
    entries.push_back(
        KvEntry{std::string(v.key), std::string(v.value), v.seq, v.type});
    return true;
  });
  auto run = std::make_shared<SortedRun>(std::move(entries));
  {
    WriterMutexLock vlock(version_mu_);
    CFS_SHARED_WRITE(runs_, version_mu_);
    runs_.insert(runs_.begin(), run);  // newest first
    immutable_.erase(std::remove(immutable_.begin(), immutable_.end(), sealed),
                     immutable_.end());
  }
  flushes_.fetch_add(1, std::memory_order_relaxed);
  MaybeCompactLocked();
  return Status::Ok();
}

void KvStore::MaybeCompactLocked() {
  size_t nruns;
  {
    ReaderMutexLock vlock(version_mu_);
    CFS_SHARED_READ(runs_, version_mu_);
    nruns = runs_.size();
  }
  if (nruns > options_.max_runs_before_compaction) {
    (void)Compact();
  }
}

Status KvStore::Compact() {
  std::vector<std::shared_ptr<SortedRun>> to_merge;
  {
    ReaderMutexLock vlock(version_mu_);
    CFS_SHARED_READ(runs_, version_mu_);
    to_merge = runs_;
  }
  if (to_merge.size() < 2) return Status::Ok();
  uint64_t keep_seq = OldestSnapshotLocked();
  auto merged = SortedRun::Merge(to_merge, keep_seq, /*drop_tombstones=*/true);
  {
    WriterMutexLock vlock(version_mu_);
    CFS_SHARED_WRITE(runs_, version_mu_);
    // Preserve any runs flushed while we merged (they are newer; prepend).
    std::vector<std::shared_ptr<SortedRun>> remaining;
    for (const auto& r : runs_) {
      if (std::find(to_merge.begin(), to_merge.end(), r) == to_merge.end()) {
        remaining.push_back(r);
      }
    }
    remaining.push_back(merged);
    runs_ = std::move(remaining);
  }
  compactions_.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

void KvStore::Clear() {
  MutexLock wlock(write_mu_);
  WriterMutexLock vlock(version_mu_);
  active_ = std::make_shared<MemTable>();
  immutable_.clear();
  runs_.clear();
}

uint64_t KvStore::LastSequence() const {
  return seq_.load(std::memory_order_acquire);
}

KvStore::Stats KvStore::stats() const {
  constexpr auto kRelaxed = std::memory_order_relaxed;
  return Stats{puts_.load(kRelaxed),    deletes_.load(kRelaxed),
               gets_.load(kRelaxed),    scans_.load(kRelaxed),
               flushes_.load(kRelaxed), compactions_.load(kRelaxed)};
}

}  // namespace cfs
