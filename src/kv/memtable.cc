#include "src/kv/memtable.h"

#include <cstdlib>
#include <new>
#include <vector>

#include "src/common/check.h"

namespace cfs {

MemTable::MemTable() : buckets_(new std::atomic<Node*>[kBuckets]()) {
  KvEntry sentinel;
  head_ = NewNode(std::move(sentinel), kMaxHeight);
  for (int i = 0; i < kMaxHeight; i++) {
    head_->SetNext(i, nullptr);
  }
}

MemTable::~MemTable() {
  Node* n = head_;
  while (n != nullptr) {
    Node* next = n->Next(0);
    n->entry.~KvEntry();
    std::free(n);
    n = next;
  }
}

MemTable::Node* MemTable::NewNode(KvEntry entry, int height) {
  size_t size = sizeof(Node) + sizeof(std::atomic<Node*>) * (height - 1);
  void* mem = std::malloc(size);
  CFS_CHECK(mem != nullptr);
  Node* node = static_cast<Node*>(mem);
  new (&node->entry) KvEntry(std::move(entry));
  node->height = height;
  new (&node->hash_next) std::atomic<Node*>(nullptr);
  for (int i = 0; i < height; i++) {
    new (&node->next[i]) std::atomic<Node*>(nullptr);
  }
  return node;
}

int MemTable::RandomHeight() {
  int height = 1;
  while (height < kMaxHeight && (rng_.Next() & 3) == 0) {
    height++;
  }
  return height;
}

MemTable::Node* MemTable::FindGreaterOrEqual(std::string_view key,
                                             uint64_t seq,
                                             Node** prev) const {
  Node* x = head_;
  int level = max_height_.load(std::memory_order_acquire) - 1;
  for (;;) {
    Node* next = x->Next(level);
    bool go_right =
        next != nullptr &&
        InternalLess(next->entry.key, next->entry.seq, key, seq);
    if (go_right) {
      x = next;
    } else {
      if (prev != nullptr) prev[level] = x;
      if (level == 0) return next;
      level--;
    }
  }
}

void MemTable::Add(std::string_view key, std::string_view value, uint64_t seq,
                   ValueType type) {
  KvEntry entry{std::string(key), std::string(value), seq, type};
  size_t cost = key.size() + value.size() + 48;
  Node* prev[kMaxHeight];
  FindGreaterOrEqual(key, seq, prev);
  int height = RandomHeight();
  int max_h = max_height_.load(std::memory_order_relaxed);
  if (height > max_h) {
    for (int i = max_h; i < height; i++) {
      prev[i] = head_;
    }
    max_height_.store(height, std::memory_order_release);
  }
  const uint64_t h = KeyHash(key);
  Node* node = NewNode(std::move(entry), height);
  node->tag = static_cast<uint32_t>(h >> 32);
  for (int i = 0; i < height; i++) {
    node->SetNext(i, prev[i]->Next(i));
    prev[i]->SetNext(i, node);
  }
  // Publish in the index only now that the node is linked on level 0, so a
  // reader that finds it can step to older versions. Single writer: relaxed
  // loads of the chain suffice here; readers see only release stores.
  std::atomic<Node*>* link = &buckets_[h & (kBuckets - 1)];
  Node* cur = link->load(std::memory_order_relaxed);
  while (cur != nullptr && (cur->tag != node->tag || cur->entry.key != key)) {
    link = &cur->hash_next;
    cur = link->load(std::memory_order_relaxed);
  }
  if (cur == nullptr || cur->entry.seq < seq) {
    // A new key goes at the chain's tail. A newer version takes the old
    // node's place; a reader already on the old node still follows its
    // unchanged hash_next.
    node->hash_next.store(
        cur == nullptr ? nullptr : cur->hash_next.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    link->store(node, std::memory_order_release);
  }
  // else: an older version than the chained one; it sits behind it on
  // level 0, where snapshot reads step to it.
  bytes_.fetch_add(cost, std::memory_order_relaxed);
  entries_.fetch_add(1, std::memory_order_relaxed);
}

const KvEntry* MemTable::Get(std::string_view key,
                             uint64_t snapshot_seq) const {
  const uint64_t h = KeyHash(key);
  const uint32_t tag = static_cast<uint32_t>(h >> 32);
  const Node* n = buckets_[h & (kBuckets - 1)].load(std::memory_order_acquire);
  while (n != nullptr && (n->tag != tag || n->entry.key != key)) {
    n = n->hash_next.load(std::memory_order_acquire);
  }
  if (n == nullptr) return nullptr;
  // n is the newest version; older ones follow it on level 0.
  while (n->entry.seq > snapshot_seq) {
    n = n->Next(0);
    if (n == nullptr || n->entry.key != key) return nullptr;
  }
  return &n->entry;
}

void MemTable::VisitRange(
    std::string_view start, std::string_view end,
    const std::function<bool(const KvEntry&)>& visit) const {
  Node* n = FindGreaterOrEqual(start, UINT64_MAX, nullptr);
  while (n != nullptr) {
    if (!end.empty() && n->entry.key >= end) return;
    if (!visit(n->entry)) return;
    n = n->Next(0);
  }
}

void MemTable::VisitAll(
    const std::function<bool(const KvEntry&)>& visit) const {
  Node* n = head_->Next(0);
  while (n != nullptr) {
    if (!visit(n->entry)) return;
    n = n->Next(0);
  }
}

}  // namespace cfs
