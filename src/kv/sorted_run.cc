#include "src/kv/sorted_run.h"

#include <algorithm>
#include <bit>
#include <queue>

#include "src/common/check.h"

namespace cfs {
namespace {

// Orders by key asc, then seq desc (newer versions first).
bool InternalLess(std::string_view ak, uint64_t aseq, std::string_view bk,
                  uint64_t bseq) {
  int c = ak.compare(bk);
  if (c != 0) return c < 0;
  return aseq > bseq;
}

KvView ViewOf(const KvEntry& e) {
  return KvView{e.key, e.value, e.seq, e.type};
}

}  // namespace

SortedRun::SortedRun(std::vector<KvEntry> entries)
    : entries_(std::move(entries)) {
  CFS_CHECK(entries_.size() < kEmptySlot);
  size_t keys = 0;
  for (size_t i = 0; i < entries_.size(); i++) {
    const KvEntry& e = entries_[i];
    min_seq_ = std::min(min_seq_, e.seq);
    max_seq_ = std::max(max_seq_, e.seq);
    if (i == 0 || e.key != entries_[i - 1].key) keys++;
  }
  if (keys == 0) return;
  index_.assign(std::bit_ceil(2 * keys), kEmptySlot);
  const size_t mask = index_.size() - 1;
  for (size_t i = 0; i < entries_.size(); i++) {
    if (i > 0 && entries_[i].key == entries_[i - 1].key) continue;
    size_t slot = KeyHash(entries_[i].key) & mask;
    while (index_[slot] != kEmptySlot) slot = (slot + 1) & mask;
    index_[slot] = static_cast<uint32_t>(i);
  }
}

std::optional<KvView> SortedRun::Get(std::string_view key,
                                     uint64_t snapshot_seq) const {
  if (index_.empty()) return std::nullopt;
  const size_t mask = index_.size() - 1;
  for (size_t slot = KeyHash(key) & mask; index_[slot] != kEmptySlot;
       slot = (slot + 1) & mask) {
    if (entries_[index_[slot]].key != key) continue;
    // The key's newest entry; older versions follow it.
    for (size_t pos = index_[slot];
         pos < entries_.size() && entries_[pos].key == key; pos++) {
      if (entries_[pos].seq <= snapshot_seq) return ViewOf(entries_[pos]);
    }
    return std::nullopt;
  }
  return std::nullopt;
}

void SortedRun::VisitRange(std::string_view start, std::string_view end,
                           const KvVisitor& visit) const {
  auto it = std::lower_bound(entries_.begin(), entries_.end(), start,
                             [](const KvEntry& e, std::string_view k) {
                               return InternalLess(e.key, e.seq, k, UINT64_MAX);
                             });
  for (; it != entries_.end(); ++it) {
    if (!end.empty() && it->key >= end) return;
    if (!visit(ViewOf(*it))) return;
  }
}

std::shared_ptr<SortedRun> SortedRun::Merge(
    const std::vector<std::shared_ptr<SortedRun>>& runs, uint64_t keep_seq,
    bool drop_tombstones) {
  // Heap item: (entry pointer, run index, position).
  struct Cursor {
    const SortedRun* run;
    size_t pos;
    const KvEntry& entry() const { return run->entries_[pos]; }
  };
  auto greater = [](const Cursor& a, const Cursor& b) {
    const KvEntry& ea = a.entry();
    const KvEntry& eb = b.entry();
    return InternalLess(eb.key, eb.seq, ea.key, ea.seq);
  };
  std::priority_queue<Cursor, std::vector<Cursor>, decltype(greater)> heap(
      greater);
  for (const auto& r : runs) {
    if (r && r->size() > 0) {
      heap.push(Cursor{r.get(), 0});
    }
  }

  std::vector<KvEntry> merged;
  std::string current_key;
  bool have_key = false;
  bool kept_at_or_below_keep_seq = false;

  auto flush_tombstone_tail = [&]() {
    // When dropping tombstones, a group whose newest kept version is a
    // tombstone entirely disappears for readers at or below keep_seq; later
    // versions were already appended, so only strip a trailing tombstone
    // whose seq <= keep_seq.
    if (drop_tombstones && !merged.empty() &&
        merged.back().type == ValueType::kDelete &&
        merged.back().key == current_key && merged.back().seq <= keep_seq) {
      merged.pop_back();
    }
  };

  while (!heap.empty()) {
    Cursor c = heap.top();
    heap.pop();
    const KvEntry& e = c.entry();
    if (!have_key || e.key != current_key) {
      flush_tombstone_tail();
      current_key = e.key;
      have_key = true;
      kept_at_or_below_keep_seq = false;
      merged.push_back(e);
      if (e.seq <= keep_seq) kept_at_or_below_keep_seq = true;
    } else {
      // Same key, strictly older version (internal order is seq desc).
      if (e.seq > keep_seq) {
        merged.push_back(e);
      } else if (!kept_at_or_below_keep_seq) {
        merged.push_back(e);
        kept_at_or_below_keep_seq = true;
      }
      // else: shadowed for every possible reader; drop.
    }
    if (c.pos + 1 < c.run->size()) {
      heap.push(Cursor{c.run, c.pos + 1});
    }
  }
  flush_tombstone_tail();
  return std::make_shared<SortedRun>(std::move(merged));
}

}  // namespace cfs
