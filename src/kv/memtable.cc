#include "src/kv/memtable.h"

#include <new>

namespace cfs {

MemTable::MemTable() : buckets_(new std::atomic<Node*>[kBuckets]()) {
  head_ = NewNode("", kMaxHeight, 0);
}

MemTable::Node* MemTable::NewNode(std::string_view key, int height,
                                  uint32_t tag) {
  size_t size = sizeof(Node) + sizeof(std::atomic<Node*>) * (height - 1) +
                key.size();
  Node* node = new (arena_.allocate(size, alignof(Node)))
      Node{{nullptr}, {nullptr}, tag, static_cast<uint32_t>(key.size()),
           height, {}};
  for (int i = 1; i < height; i++) {
    new (&node->next[i]) std::atomic<Node*>(nullptr);
  }
  key.copy(reinterpret_cast<char*>(node->next + height), key.size());
  return node;
}

MemTable::Version* MemTable::NewVersion(std::string_view value, uint64_t seq,
                                        ValueType type) {
  Version* v = new (arena_.allocate(sizeof(Version) + value.size(),
                                     alignof(Version)))
      Version{{nullptr}, seq, static_cast<uint32_t>(value.size()), type};
  value.copy(reinterpret_cast<char*>(v + 1), value.size());
  return v;
}

int MemTable::RandomHeight() {
  int height = 1;
  while (height < kMaxHeight && (rng_.Next() & 3) == 0) {
    height++;
  }
  return height;
}

MemTable::Node* MemTable::FindGreaterOrEqual(std::string_view key,
                                             Node** prev) const {
  Node* x = head_;
  int level = max_height_.load(std::memory_order_acquire) - 1;
  for (;;) {
    Node* next = x->Next(level);
    if (next != nullptr && next->key() < key) {
      x = next;
    } else {
      if (prev != nullptr) prev[level] = x;
      if (level == 0) return next;
      level--;
    }
  }
}

// inline: it is on the path of every Add and every point read.
inline MemTable::Node* MemTable::FindNode(std::string_view key, uint64_t hash,
                                          std::atomic<Node*>** link) const {
  const uint32_t tag = static_cast<uint32_t>(hash >> 32);
  std::atomic<Node*>* at = &buckets_[hash & (kBuckets - 1)];
  Node* n = at->load(std::memory_order_acquire);
  while (n != nullptr && (n->tag != tag || n->key() != key)) {
    at = &n->hash_next;
    n = at->load(std::memory_order_acquire);
  }
  if (link != nullptr) *link = at;
  return n;
}

void MemTable::Add(std::string_view key, std::string_view value, uint64_t seq,
                   ValueType type) {
  const size_t cost = key.size() + value.size() + 48;
  const uint64_t h = KeyHash(key);
  std::atomic<Node*>* link = nullptr;
  if (Node* node = FindNode(key, h, &link)) {
    // A version of a known key: splice it into the chain in seq-desc order.
    // Single writer: relaxed loads suffice; the release store publishes the
    // initialized record to readers already on the chain.
    Version* v = NewVersion(value, seq, type);
    std::atomic<Version*>* at = &node->versions;
    Version* cur = at->load(std::memory_order_relaxed);
    while (cur != nullptr && cur->seq > seq) {
      at = &cur->older;
      cur = at->load(std::memory_order_relaxed);
    }
    v->older.store(cur, std::memory_order_relaxed);
    at->store(v, std::memory_order_release);
  } else {
    Node* prev[kMaxHeight];
    FindGreaterOrEqual(key, prev);
    int height = RandomHeight();
    int max_h = max_height_.load(std::memory_order_relaxed);
    if (height > max_h) {
      for (int i = max_h; i < height; i++) {
        prev[i] = head_;
      }
      max_height_.store(height, std::memory_order_release);
    }
    node = NewNode(key, height, static_cast<uint32_t>(h >> 32));
    // The first version goes right behind its node, so a point read of a
    // key with one version touches one contiguous stretch of the arena.
    node->versions.store(NewVersion(value, seq, type),
                         std::memory_order_relaxed);
    for (int i = 0; i < height; i++) {
      node->SetNext(i, prev[i]->Next(i));
      prev[i]->SetNext(i, node);
    }
    // A new key goes at its bucket chain's null tail.
    link->store(node, std::memory_order_release);
  }
  bytes_.fetch_add(cost, std::memory_order_relaxed);
  entries_.fetch_add(1, std::memory_order_relaxed);
}

std::optional<KvView> MemTable::Get(std::string_view key,
                                    uint64_t snapshot_seq) const {
  const Node* n = FindNode(key, KeyHash(key), nullptr);
  if (n == nullptr) return std::nullopt;
  for (const Version* v = n->versions.load(std::memory_order_acquire);
       v != nullptr; v = v->older.load(std::memory_order_acquire)) {
    if (v->seq <= snapshot_seq) {
      return KvView{n->key(), v->value(), v->seq, v->type};
    }
  }
  return std::nullopt;
}

void MemTable::VisitRange(std::string_view start, std::string_view end,
                          const KvVisitor& visit) const {
  for (const Node* n = FindGreaterOrEqual(start, nullptr); n != nullptr;
       n = n->Next(0)) {
    const std::string_view key = n->key();
    if (!end.empty() && key >= end) return;
    for (const Version* v = n->versions.load(std::memory_order_acquire);
         v != nullptr; v = v->older.load(std::memory_order_acquire)) {
      if (!visit(KvView{key, v->value(), v->seq, v->type})) return;
    }
  }
}

}  // namespace cfs
