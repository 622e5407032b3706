#include "src/common/lock_order.h"

#include <algorithm>
#include <atomic>
#include <bitset>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <unordered_map>

#include "src/common/race_detector.h"
#include "src/common/simtime.h"

// The tracker's own state is synchronized with raw std::mutex on purpose:
// instrumenting it with cfs::Mutex would recurse into these hooks.

namespace cfs {
namespace lock_order {
namespace {

constexpr size_t kMaxClasses = kMaxLockClasses;

struct ClassInfo {
  std::string name;
  int rank = 0;
  RpcHoldPolicy policy = RpcHoldPolicy::kNeverAcrossRpc;
  std::string justification;
};

// Class infos sit in fixed, never-moving slots. A slot is written once,
// under `mu`, before the release store of `count` publishes it, so the hot
// paths (InfoOf) read it with no lock.
struct Registry {
  std::mutex mu;  // serializes registrations
  std::unordered_map<std::string, uint32_t> by_name;
  ClassInfo classes[kMaxClasses];  // index = id - 1
  std::atomic<uint32_t> count{0};
};

// Leaked: lock classes are registered from objects with static storage
// duration and must outlive every destructor that releases a lock.
Registry& GetRegistry() {
  static Registry* const r = new Registry();
  return *r;
}

struct Graph {
  std::mutex mu;
  std::bitset<kMaxClasses> adj[kMaxClasses];  // adj[h][c]: h held before c
};

Graph& GetGraph() {
  static Graph* const g = new Graph();
  return *g;
}

std::atomic<bool> g_enabled{true};
std::atomic<bool> g_rpc_enforce{true};
// Bumped by ResetGraphForTest so per-thread verified-edge caches notice.
std::atomic<uint64_t> g_graph_epoch{1};

std::mutex g_handler_mu;
ViolationHandler g_handler;  // empty = default print-and-abort

// Per-class critical-section scope accounting. Plain atomics indexed by
// class id: updated on the acquire/release/RPC fast paths with no lock, and
// snapshotted (approximately — counters move independently) by
// ScopeSnapshot(). Bucket index = RpcHoldBucketFor(rpcs issued under the
// span).
struct ScopeBucket {
  std::atomic<uint64_t> holds{0};
  std::atomic<int64_t> total_us{0};
  std::atomic<int64_t> max_us{0};
};

// A class's hold count, hold time and maximum are the sums (and the max)
// of its buckets' — ScopeSnapshot derives them, so a release updates one
// bucket only.
struct ScopeSlot {
  std::atomic<uint64_t> rpcs_under_lock{0};
  std::atomic<uint64_t> rpc_violations{0};
  std::atomic<uint64_t> unbalanced_pops{0};
  std::atomic<bool> unbalanced_warned{false};
  ScopeBucket buckets[kNumRpcHoldBuckets];
};

ScopeSlot* GetScope() {
  static ScopeSlot* const s = new ScopeSlot[kMaxClasses];
  return s;
}

std::atomic<uint64_t> g_total_rpc_violations{0};
std::atomic<uint64_t> g_total_unbalanced_pops{0};

void AtomicMax(std::atomic<int64_t>& slot, int64_t value) {
  int64_t cur = slot.load(std::memory_order_relaxed);
  while (value > cur &&
         !slot.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

// Hold-span timestamps: virtual task-clock nanoseconds under a driving
// simtime::Scheduler, steady-clock nanoseconds otherwise — so the scope
// accounting (and OnRpcEdge's per-bucket spans) measures simulated holds in
// simulated time, identically across same-seed replays.
int64_t NowNanos() { return simtime::NowNanosOrReal(); }

// One held entry on a thread's stack. scope_only entries are logical
// critical sections (e.g. row locks granted over RPC): they participate in
// RPC-under-lock accounting and hold spans but are exempt from the
// rank/cycle/self checks.
struct Held {
  uint32_t cls = 0;
  bool scope_only = false;
  uint64_t rpcs = 0;       // RPCs issued while this entry was held
  int64_t acquire_ns = 0;  // steady-clock acquisition time
};

struct ThreadState {
  std::vector<Held> held;  // acquisition order
  std::bitset<kMaxClasses * kMaxClasses> verified;  // edges already in graph
  uint64_t graph_epoch = 0;
};

ThreadState& State() {
  thread_local ThreadState state;
  return state;
}

const ClassInfo& InfoOf(uint32_t cls) {
  static const ClassInfo* const unknown =
      new ClassInfo{"<unknown>", 0, RpcHoldPolicy::kNeverAcrossRpc, ""};
  Registry& r = GetRegistry();
  if (cls == 0 || cls > r.count.load(std::memory_order_acquire)) {
    return *unknown;
  }
  return r.classes[cls - 1];
}

std::string HeldStackString(const std::vector<Held>& held) {
  std::string out = "held stack: [";
  for (size_t i = 0; i < held.size(); i++) {
    const ClassInfo& info = InfoOf(held[i].cls);
    if (i > 0) out += ", ";
    out += "\"" + info.name + "\"(rank " + std::to_string(info.rank);
    if (held[i].scope_only) out += ", scope";
    out += ")";
  }
  out += "]";
  return out;
}

void Report(Violation v) {
  ViolationHandler handler;
  {
    std::lock_guard<std::mutex> lock(g_handler_mu);
    handler = g_handler;
  }
  if (handler) {
    handler(v);
    return;
  }
  // Default: print both lock names and die. fprintf (not CFS_LOG): the
  // logger serializes on a cfs::Mutex and must not re-enter the tracker.
  if (v.kind == Violation::Kind::kRpcUnderLock) {
    std::fprintf(stderr,
                 "[lock_order] FATAL rpc under lock: issuing RPC %s while "
                 "holding \"%s\" (rank %d, policy never-across-rpc); %s\n",
                 v.rpc_edge.c_str(), v.held.c_str(), v.held_rank,
                 v.detail.c_str());
    std::fflush(stderr);
    std::abort();
  }
  const char* kind = v.kind == Violation::Kind::kRank    ? "rank inversion"
                     : v.kind == Violation::Kind::kCycle ? "deadlock cycle"
                                                         : "recursive acquisition";
  std::fprintf(stderr,
               "[lock_order] FATAL %s: acquiring \"%s\" (rank %d) while "
               "holding \"%s\" (rank %d); %s\n",
               kind, v.acquiring.c_str(), v.acquiring_rank, v.held.c_str(),
               v.held_rank, v.detail.c_str());
  std::fflush(stderr);
  std::abort();
}

// True if `from` reaches `to` in the held-before graph. Caller holds
// graph.mu.
bool Reaches(const Graph& graph, uint32_t from, uint32_t to) {
  std::bitset<kMaxClasses> visited;
  std::vector<uint32_t> stack{from};
  while (!stack.empty()) {
    uint32_t n = stack.back();
    stack.pop_back();
    if (n == to) return true;
    if (visited.test(n)) continue;
    visited.set(n);
    const auto& out = graph.adj[n];
    for (size_t i = 1; i < kMaxClasses; i++) {
      if (out.test(i) && !visited.test(i)) stack.push_back(static_cast<uint32_t>(i));
    }
  }
  return false;
}

// Shortest held-before path from `from` to `to`, as " -> "-joined names.
// Caller holds graph.mu.
std::string PathString(const Graph& graph, uint32_t from, uint32_t to) {
  std::vector<int> parent(kMaxClasses, -1);
  std::vector<uint32_t> queue{from};
  parent[from] = static_cast<int>(from);
  for (size_t head = 0; head < queue.size(); head++) {
    uint32_t n = queue[head];
    if (n == to) break;
    for (size_t i = 1; i < kMaxClasses; i++) {
      if (graph.adj[n].test(i) && parent[i] < 0) {
        parent[i] = static_cast<int>(n);
        queue.push_back(static_cast<uint32_t>(i));
      }
    }
  }
  if (parent[to] < 0) return "";
  std::vector<uint32_t> path;
  for (uint32_t n = to;; n = static_cast<uint32_t>(parent[n])) {
    path.push_back(n);
    if (n == from) break;
  }
  std::string out;
  for (auto it = path.rbegin(); it != path.rend(); ++it) {
    if (!out.empty()) out += " -> ";
    out += '"';
    out += InfoOf(*it).name;
    out += '"';
  }
  return out;
}

// Records the completed hold span of `entry` into its class's scope slot.
void RecordHoldSpan(const Held& entry) {
  ScopeSlot& slot = GetScope()[entry.cls];
  int64_t hold_us = (NowNanos() - entry.acquire_ns) / 1000;
  if (hold_us < 0) hold_us = 0;
  ScopeBucket& b = slot.buckets[RpcHoldBucketFor(entry.rpcs)];
  b.holds.fetch_add(1, std::memory_order_relaxed);
  b.total_us.fetch_add(hold_us, std::memory_order_relaxed);
  AtomicMax(b.max_us, hold_us);
}

// Pops the most recent held entry of class `cls` with the given scope-ness
// and records its hold span. A release with no matching entry is a wrapper
// bug (or an enable/disable toggle with locks held): counted per class and
// warned about once per class — never fatal, the lock itself is fine.
void PopHeld(uint32_t cls, bool scope_only, const char* what) {
  if (cls == 0) return;
  std::vector<Held>& held = State().held;
  for (size_t i = held.size(); i > 0; i--) {
    if (held[i - 1].cls == cls && held[i - 1].scope_only == scope_only) {
      RecordHoldSpan(held[i - 1]);
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(i - 1));
      return;
    }
  }
  if (!g_enabled.load(std::memory_order_relaxed)) {
    // Acquired while tracking was disabled; nothing was pushed, so nothing
    // to pop — not an imbalance.
    return;
  }
  ScopeSlot& slot = GetScope()[cls < kMaxClasses ? cls : 0];
  slot.unbalanced_pops.fetch_add(1, std::memory_order_relaxed);
  g_total_unbalanced_pops.fetch_add(1, std::memory_order_relaxed);
  bool expected = false;
  if (slot.unbalanced_warned.compare_exchange_strong(expected, true)) {
    const ClassInfo& info = InfoOf(cls);
    std::fprintf(stderr,
                 "[lock_order] WARNING: %s of \"%s\" with no matching held "
                 "entry on this thread (reported once per class; see "
                 "unbalanced_pops counter). Likely an acquire/release "
                 "imbalance in a wrapper, or tracking was toggled with the "
                 "lock held.\n",
                 what, info.name.c_str());
    std::fflush(stderr);
  }
}

void PushHeld(uint32_t cls, bool scope_only) {
  State().held.push_back(Held{cls, scope_only, 0, NowNanos()});
}

}  // namespace

const char* RpcHoldPolicyName(RpcHoldPolicy policy) {
  return policy == RpcHoldPolicy::kAllowedAcrossRpc ? "allowed-across-rpc"
                                                    : "never-across-rpc";
}

const char* RpcHoldBucketLabel(size_t bucket) {
  switch (bucket) {
    case 0: return "0 rpcs";
    case 1: return "1 rpc";
    case 2: return "2-7 rpcs";
    default: return "8+ rpcs";
  }
}

size_t RpcHoldBucketFor(uint64_t rpcs) {
  if (rpcs == 0) return 0;
  if (rpcs == 1) return 1;
  if (rpcs < 8) return 2;
  return 3;
}

uint32_t RegisterClass(const char* name, int rank) {
  return RegisterClass(name, rank, RpcHoldPolicy::kNeverAcrossRpc, nullptr);
}

uint32_t RegisterClass(const char* name, int rank, RpcHoldPolicy policy,
                       const char* justification) {
  if (policy == RpcHoldPolicy::kAllowedAcrossRpc &&
      (justification == nullptr || justification[0] == '\0')) {
    std::fprintf(stderr,
                 "[lock_order] FATAL: lock class \"%s\" registered as "
                 "allowed-across-rpc without a justification. Holding a lock "
                 "across an RPC is the exception the paper exists to avoid; "
                 "it must explain itself.\n",
                 name);
    std::fflush(stderr);
    std::abort();
  }
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.by_name.find(name);
  if (it != r.by_name.end()) {
    const ClassInfo& existing = r.classes[it->second - 1];
    if (existing.rank != rank || existing.policy != policy ||
        existing.justification != (justification ? justification : "")) {
      std::fprintf(stderr,
                   "[lock_order] FATAL: lock class \"%s\" re-registered with "
                   "rank %d / policy %s (was rank %d / policy %s)\n",
                   name, rank, RpcHoldPolicyName(policy), existing.rank,
                   RpcHoldPolicyName(existing.policy));
      std::fflush(stderr);
      std::abort();
    }
    return it->second;
  }
  const uint32_t count = r.count.load(std::memory_order_relaxed);
  if (count >= kMaxClasses - 1) {
    std::fprintf(stderr, "[lock_order] FATAL: too many lock classes (>%zu)\n",
                 kMaxClasses - 1);
    std::fflush(stderr);
    std::abort();
  }
  r.classes[count] =
      ClassInfo{name, rank, policy, justification ? justification : ""};
  const uint32_t id = count + 1;
  r.count.store(id, std::memory_order_release);
  r.by_name.emplace(name, id);
  return id;
}

void OnAcquire(uint32_t cls) {
  // Preemption point: a blocking lock acquisition is where schedule choice
  // decides who enters the critical section first (DESIGN.md §12).
  simtime::FuzzPoint(simtime::FuzzKind::kLockAcquire);
  if (cls == 0 || !g_enabled.load(std::memory_order_relaxed)) return;
  ThreadState& t = State();
  uint64_t epoch = g_graph_epoch.load(std::memory_order_acquire);
  if (t.graph_epoch != epoch) {
    t.verified.reset();
    t.graph_epoch = epoch;
  }

  const ClassInfo& acq = InfoOf(cls);
  for (const Held& entry : t.held) {
    // Logical (scope-only) entries are not mutexes: blocking on them is
    // resolved by the lock manager's own timeouts, they are legally held
    // many-at-a-time, and they would flood the held-before graph. They only
    // matter to the RPC/scope accounting.
    if (entry.scope_only) continue;
    uint32_t held = entry.cls;
    if (held == cls) {
      Violation v;
      v.kind = Violation::Kind::kSelf;
      v.acquiring = acq.name;
      v.acquiring_rank = acq.rank;
      v.held = acq.name;
      v.held_rank = acq.rank;
      v.detail = "same lock class acquired twice on one thread; " +
                 HeldStackString(t.held);
      Report(std::move(v));
      continue;
    }
    const ClassInfo& held_info = InfoOf(held);
    if (acq.rank != 0 && held_info.rank != 0 && acq.rank <= held_info.rank) {
      Violation v;
      v.kind = Violation::Kind::kRank;
      v.acquiring = acq.name;
      v.acquiring_rank = acq.rank;
      v.held = held_info.name;
      v.held_rank = held_info.rank;
      v.detail = HeldStackString(t.held);
      Report(std::move(v));
    }
    // Held-before edge held -> cls, added once per (thread, graph epoch).
    size_t bit = static_cast<size_t>(held) * kMaxClasses + cls;
    if (t.verified.test(bit)) continue;
    Graph& graph = GetGraph();
    std::lock_guard<std::mutex> lock(graph.mu);
    if (!graph.adj[held].test(cls)) {
      if (Reaches(graph, cls, held)) {
        Violation v;
        v.kind = Violation::Kind::kCycle;
        v.acquiring = acq.name;
        v.acquiring_rank = acq.rank;
        v.held = held_info.name;
        v.held_rank = held_info.rank;
        v.detail = "new edge \"" + held_info.name + "\" -> \"" + acq.name +
                   "\" closes cycle: " + PathString(graph, cls, held) +
                   " -> \"" + acq.name + "\"; " + HeldStackString(t.held);
        Report(std::move(v));
        // Leave the inverted edge out so the graph keeps describing the
        // sanctioned order (and repeated inversions keep reporting).
        continue;
      }
      graph.adj[held].set(cls);
    }
    t.verified.set(bit);
  }
  PushHeld(cls, /*scope_only=*/false);
}

void OnTryAcquired(uint32_t cls) {
  if (cls == 0 || !g_enabled.load(std::memory_order_relaxed)) return;
  PushHeld(cls, /*scope_only=*/false);
}

void OnRelease(uint32_t cls) {
  simtime::FuzzPoint(simtime::FuzzKind::kLockRelease);
  // Runs even while disabled so stacks stay balanced across a Disable()
  // that happened with locks held. Pops the most recent matching entry
  // (releases are LIFO everywhere in this codebase, but a linear scan keeps
  // this correct even if they were not).
  PopHeld(cls, /*scope_only=*/false, "release");
}

void OnScopeEnter(uint32_t cls) {
  if (cls == 0 || !g_enabled.load(std::memory_order_relaxed)) return;
  PushHeld(cls, /*scope_only=*/true);
  // Logical critical sections protect data too (a transaction's row locks
  // guard the rows): feed them into the race detector's lockset.
  race::OnLockAcquired(cls, race::LockMode::kExclusive);
}

void OnScopeExit(uint32_t cls) {
  PopHeld(cls, /*scope_only=*/true, "scope exit");
  race::OnLockReleased(cls, race::LockMode::kExclusive);
}

void OnRpcEdge(const char* from_node, const char* to_node) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  ThreadState& t = State();
  if (t.held.empty()) return;
  ScopeSlot* scope = GetScope();
  bool enforce = g_rpc_enforce.load(std::memory_order_relaxed);
  // Snapshot violations before mutating: Report may not return (abort), so
  // count first, and walk by index because a recording handler could
  // re-enter locking code.
  for (size_t i = 0; i < t.held.size(); i++) {
    Held& entry = t.held[i];
    entry.rpcs++;
    ScopeSlot& slot = scope[entry.cls];
    slot.rpcs_under_lock.fetch_add(1, std::memory_order_relaxed);
    const ClassInfo& info = InfoOf(entry.cls);
    if (info.policy != RpcHoldPolicy::kNeverAcrossRpc) continue;
    slot.rpc_violations.fetch_add(1, std::memory_order_relaxed);
    g_total_rpc_violations.fetch_add(1, std::memory_order_relaxed);
    if (!enforce) continue;
    Violation v;
    v.kind = Violation::Kind::kRpcUnderLock;
    v.held = info.name;
    v.held_rank = info.rank;
    v.rpc_edge = std::string(from_node) + " -> " + to_node;
    v.detail = HeldStackString(t.held);
    Report(std::move(v));
  }
}

void AssertHeld(uint32_t cls) {
  if (cls == 0 || !g_enabled.load(std::memory_order_relaxed)) return;
  for (const Held& entry : State().held) {
    if (entry.cls == cls) return;
  }
  const ClassInfo& info = InfoOf(cls);
  std::fprintf(stderr,
               "[lock_order] FATAL: AssertHeld(\"%s\") failed; %s\n",
               info.name.c_str(), HeldStackString(State().held).c_str());
  std::fflush(stderr);
  std::abort();
}

void SetEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

void SetRpcEnforcement(bool enforce) {
  g_rpc_enforce.store(enforce, std::memory_order_relaxed);
}

bool RpcEnforcement() { return g_rpc_enforce.load(std::memory_order_relaxed); }

void SetViolationHandler(ViolationHandler handler) {
  std::lock_guard<std::mutex> lock(g_handler_mu);
  g_handler = std::move(handler);
}

std::vector<std::pair<std::string, int>> RegisteredClasses() {
  Registry& r = GetRegistry();
  const uint32_t count = r.count.load(std::memory_order_acquire);
  std::vector<std::pair<std::string, int>> out;
  out.reserve(count);
  for (uint32_t i = 0; i < count; i++) {
    out.emplace_back(r.classes[i].name, r.classes[i].rank);
  }
  return out;
}

std::string ClassName(uint32_t cls) { return InfoOf(cls).name; }

std::vector<ClassScope> ScopeSnapshot() {
  Registry& r = GetRegistry();
  const uint32_t count = r.count.load(std::memory_order_acquire);
  ScopeSlot* scope = GetScope();
  std::vector<ClassScope> out;
  out.reserve(count);
  for (uint32_t i = 0; i < count; i++) {
    const ClassInfo& info = r.classes[i];
    const ScopeSlot& slot = scope[i + 1];
    ClassScope cs;
    cs.name = info.name;
    cs.rank = info.rank;
    cs.policy = info.policy;
    cs.justification = info.justification;
    cs.rpcs_under_lock = slot.rpcs_under_lock.load(std::memory_order_relaxed);
    cs.rpc_violations = slot.rpc_violations.load(std::memory_order_relaxed);
    cs.unbalanced_pops = slot.unbalanced_pops.load(std::memory_order_relaxed);
    for (size_t b = 0; b < kNumRpcHoldBuckets; b++) {
      ClassScope::Bucket& bucket = cs.rpc_buckets[b];
      bucket.holds = slot.buckets[b].holds.load(std::memory_order_relaxed);
      bucket.total_us =
          slot.buckets[b].total_us.load(std::memory_order_relaxed);
      bucket.max_us = slot.buckets[b].max_us.load(std::memory_order_relaxed);
      cs.holds += bucket.holds;
      if (b > 0) cs.holds_with_rpc += bucket.holds;
      cs.total_hold_us += bucket.total_us;
      cs.max_hold_us = std::max(cs.max_hold_us, bucket.max_us);
    }
    out.push_back(std::move(cs));
  }
  return out;
}

void ResetScopeStats() {
  ScopeSlot* scope = GetScope();
  for (size_t i = 0; i < kMaxClasses; i++) {
    ScopeSlot& slot = scope[i];
    slot.rpcs_under_lock.store(0, std::memory_order_relaxed);
    slot.rpc_violations.store(0, std::memory_order_relaxed);
    slot.unbalanced_pops.store(0, std::memory_order_relaxed);
    for (size_t b = 0; b < kNumRpcHoldBuckets; b++) {
      slot.buckets[b].holds.store(0, std::memory_order_relaxed);
      slot.buckets[b].total_us.store(0, std::memory_order_relaxed);
      slot.buckets[b].max_us.store(0, std::memory_order_relaxed);
    }
    // unbalanced_warned deliberately not reset: once per class per process.
  }
}

uint64_t TotalRpcUnderLockViolations() {
  return g_total_rpc_violations.load(std::memory_order_relaxed);
}

uint64_t TotalUnbalancedPops() {
  return g_total_unbalanced_pops.load(std::memory_order_relaxed);
}

void ResetGraphForTest() {
  Graph& graph = GetGraph();
  std::lock_guard<std::mutex> lock(graph.mu);
  for (auto& row : graph.adj) row.reset();
  g_graph_epoch.fetch_add(1, std::memory_order_release);
}

size_t HeldDepthForTest() { return State().held.size(); }

}  // namespace lock_order
}  // namespace cfs
