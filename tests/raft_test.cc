// Raft tests: election, replication, group commit, fault tolerance,
// restart recovery, and linearizable apply order.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <thread>

#include "src/common/encoding.h"
#include "src/raft/raft.h"

namespace cfs {
namespace {

// State machine that records applied commands.
class RecordingSm : public StateMachine {
 public:
  std::string Apply(LogIndex index, std::string_view command) override {
    std::lock_guard<std::mutex> lock(mu_);
    applied_.emplace_back(index, std::string(command));
    return "applied:" + std::string(command);
  }

  std::vector<std::pair<LogIndex, std::string>> applied() const {
    std::lock_guard<std::mutex> lock(mu_);
    return applied_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::pair<LogIndex, std::string>> applied_;
};

RaftOptions FastRaft() {
  RaftOptions options;
  options.election_timeout_min_ms = 50;
  options.election_timeout_max_ms = 100;
  options.heartbeat_interval_ms = 20;
  return options;
}

struct Cluster {
  SimNet net;
  std::unique_ptr<RaftGroup> group;
  std::vector<RecordingSm*> sms;

  explicit Cluster(size_t n = 3, RaftOptions options = FastRaft()) {
    std::vector<uint32_t> servers;
    for (size_t i = 0; i < n; i++) servers.push_back(static_cast<uint32_t>(i));
    group = std::make_unique<RaftGroup>(
        &net, "test", servers,
        [this](ReplicaId) {
          auto sm = std::make_unique<RecordingSm>();
          sms.push_back(sm.get());
          return sm;
        },
        options);
  }

  // The machine currently attached to replica i (rebuilt on restart).
  RecordingSm* sm(size_t i) {
    return static_cast<RecordingSm*>(group->state_machine(i));
  }
};

RaftOptions InlineRaft() {
  RaftOptions options;
  options.inline_replication = true;
  return options;
}

// Commands applied by `sm`, in apply order.
std::vector<std::string> AppliedCommands(const RecordingSm& sm) {
  std::vector<std::string> out;
  for (const auto& [index, command] : sm.applied()) out.push_back(command);
  return out;
}

// Where a record's bytes live: equal for copies of one record.
const void* BytesOf(const WalRecord& record) { return record.view().data(); }

// Decodes a raft entry record: tag 1, varint index, varint term,
// length-prefixed command.
bool DecodeEntryRecord(std::string_view record, LogIndex* index, Term* term,
                       std::string_view* command) {
  if (record.empty() || record[0] != 1) return false;
  Decoder dec(record.substr(1));
  return dec.GetVarint64(index) && dec.GetVarint64(term) &&
         dec.GetLengthPrefixed(command) && dec.empty();
}

TEST(RaftTest, ElectsExactlyOneLeader) {
  Cluster c;
  ASSERT_TRUE(c.group->Start().ok());
  auto leader = c.group->WaitForLeader();
  ASSERT_TRUE(leader.ok());
  int leaders = 0;
  for (size_t i = 0; i < c.group->size(); i++) {
    if (c.group->replica(i)->IsLeader()) leaders++;
  }
  EXPECT_EQ(leaders, 1);
}

TEST(RaftTest, ProposeCommitsAndReturnsApplyResult) {
  Cluster c;
  ASSERT_TRUE(c.group->Start().ok());
  ASSERT_TRUE(c.group->WaitForLeader().ok());
  auto result = c.group->Propose("hello");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, "applied:hello");
}

TEST(RaftTest, AllReplicasApplyInSameOrder) {
  Cluster c;
  ASSERT_TRUE(c.group->Start().ok());
  ASSERT_TRUE(c.group->WaitForLeader().ok());
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(c.group->Propose("cmd" + std::to_string(i)).ok());
  }
  // Followers apply on subsequent AppendEntries; give heartbeats a moment.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  auto reference = c.sms[0]->applied();
  // Only compare the command payloads (no-op barrier entries are skipped by
  // Apply already since they are empty).
  ASSERT_GE(reference.size(), 20u);
  for (size_t r = 1; r < c.sms.size(); r++) {
    EXPECT_EQ(c.sms[r]->applied(), reference) << "replica " << r;
  }
}

TEST(RaftTest, GroupCommitBatchesConcurrentProposals) {
  Cluster c;
  ASSERT_TRUE(c.group->Start().ok());
  ASSERT_TRUE(c.group->WaitForLeader().ok());
  RaftNode* leader = c.group->Leader();
  ASSERT_NE(leader, nullptr);

  constexpr int kProposals = 200;
  std::vector<std::future<StatusOr<std::string>>> futures;
  futures.reserve(kProposals);
  for (int i = 0; i < kProposals; i++) {
    futures.push_back(leader->Propose("p" + std::to_string(i)));
  }
  for (auto& f : futures) {
    auto result = f.get();
    ASSERT_TRUE(result.ok()) << result.status();
  }
  // All proposals committed; batching means far fewer synced wal appends
  // than proposals is *possible*, but at minimum everything applied once.
  auto applied = c.sms[leader->id()]->applied();
  int count = 0;
  for (const auto& [idx, cmd] : applied) {
    if (cmd.rfind("p", 0) == 0) count++;
  }
  EXPECT_EQ(count, kProposals);
}

TEST(RaftTest, FollowerFailureDoesNotBlockCommit) {
  Cluster c;
  ASSERT_TRUE(c.group->Start().ok());
  ASSERT_TRUE(c.group->WaitForLeader().ok());
  RaftNode* leader = c.group->Leader();
  // Crash one follower.
  for (size_t i = 0; i < c.group->size(); i++) {
    if (c.group->replica(i) != leader) {
      c.group->CrashReplica(i);
      break;
    }
  }
  auto result = c.group->Propose("still-works");
  ASSERT_TRUE(result.ok()) << result.status();
}

TEST(RaftTest, LeaderFailoverElectsNewLeaderAndServes) {
  Cluster c;
  ASSERT_TRUE(c.group->Start().ok());
  ASSERT_TRUE(c.group->WaitForLeader().ok());
  ASSERT_TRUE(c.group->Propose("before-failover").ok());

  RaftNode* old_leader = c.group->Leader();
  size_t old_index = 0;
  for (size_t i = 0; i < c.group->size(); i++) {
    if (c.group->replica(i) == old_leader) old_index = i;
  }
  c.group->CrashReplica(old_index);

  auto new_leader = c.group->WaitForLeader(5000);
  ASSERT_TRUE(new_leader.ok());
  EXPECT_NE(*new_leader, old_leader->id());
  auto result = c.group->Propose("after-failover", 10000);
  ASSERT_TRUE(result.ok()) << result.status();
}

TEST(RaftTest, RestartedReplicaCatchesUp) {
  Cluster c;
  ASSERT_TRUE(c.group->Start().ok());
  ASSERT_TRUE(c.group->WaitForLeader().ok());
  for (int i = 0; i < 5; i++) {
    ASSERT_TRUE(c.group->Propose("pre" + std::to_string(i)).ok());
  }
  // Crash a follower, keep committing, restart it.
  RaftNode* leader = c.group->Leader();
  size_t victim = 0;
  for (size_t i = 0; i < c.group->size(); i++) {
    if (c.group->replica(i) != leader) victim = i;
  }
  c.group->CrashReplica(victim);
  for (int i = 0; i < 5; i++) {
    ASSERT_TRUE(c.group->Propose("mid" + std::to_string(i), 10000).ok());
  }
  ASSERT_TRUE(c.group->RestartReplica(victim).ok());
  ASSERT_TRUE(c.group->Propose("post", 10000).ok());
  // Give replication a moment to fill the gap.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  auto applied = c.sms.back()->applied();  // restarted sm appended last
  int post_seen = 0;
  for (const auto& [idx, cmd] : applied) {
    if (cmd == "post") post_seen++;
  }
  EXPECT_EQ(post_seen, 1);
  // The restarted machine must have re-applied the full history.
  int total = 0;
  for (const auto& [idx, cmd] : applied) {
    if (cmd.rfind("pre", 0) == 0 || cmd.rfind("mid", 0) == 0) total++;
  }
  EXPECT_EQ(total, 10);
}

TEST(RaftTest, PartitionedLeaderStepsDown) {
  Cluster c;
  ASSERT_TRUE(c.group->Start().ok());
  ASSERT_TRUE(c.group->WaitForLeader().ok());
  RaftNode* leader = c.group->Leader();

  // Partition the leader from both followers.
  for (size_t i = 0; i < c.group->size(); i++) {
    if (c.group->replica(i) != leader) {
      c.net.SetPartitioned(leader->net_id(), c.group->replica(i)->net_id(),
                           true);
    }
  }
  // Majority side elects a new leader.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  RaftNode* new_leader = nullptr;
  while (std::chrono::steady_clock::now() < deadline) {
    for (size_t i = 0; i < c.group->size(); i++) {
      RaftNode* n = c.group->replica(i);
      if (n != leader && n->IsLeader()) new_leader = n;
    }
    if (new_leader != nullptr) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_NE(new_leader, nullptr);
  EXPECT_GT(new_leader->CurrentTerm(), leader->CurrentTerm() - 1);

  // Old leader cannot commit.
  auto fut = leader->Propose("lost");
  // Heal; the old leader must step down and the proposal must not be lost
  // silently as success.
  c.net.HealAll();
  auto result = fut.wait_for(std::chrono::seconds(5));
  ASSERT_EQ(result, std::future_status::ready);
  EXPECT_FALSE(fut.get().ok());
}

TEST(RaftTest, ReadBarrierOnlyOnLeader) {
  Cluster c;
  ASSERT_TRUE(c.group->Start().ok());
  ASSERT_TRUE(c.group->WaitForLeader().ok());
  RaftNode* leader = c.group->Leader();
  EXPECT_TRUE(leader->ReadBarrier().ok());
  for (size_t i = 0; i < c.group->size(); i++) {
    RaftNode* n = c.group->replica(i);
    if (n != leader) {
      EXPECT_EQ(n->ReadBarrier().code(), ErrorCode::kNotLeader);
    }
  }
}

TEST(RaftTest, ReadBarrierAfterFailoverWaitsForCatchUp) {
  Cluster c;
  ASSERT_TRUE(c.group->Start().ok());
  ASSERT_TRUE(c.group->WaitForLeader().ok());
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(c.group->Propose("h" + std::to_string(i)).ok());
  }
  // Kill the leader; once the new leader's read barrier passes, its state
  // machine must hold the full committed history.
  RaftNode* old_leader = c.group->Leader();
  size_t old_index = 0;
  for (size_t i = 0; i < c.group->size(); i++) {
    if (c.group->replica(i) == old_leader) old_index = i;
  }
  c.group->CrashReplica(old_index);
  ASSERT_TRUE(c.group->WaitForLeader(5000).ok());
  RaftNode* new_leader = c.group->Leader();
  ASSERT_NE(new_leader, nullptr);
  ASSERT_TRUE(new_leader->ReadBarrier(5000).ok());
  auto applied = c.sms[new_leader->id()]->applied();
  int history = 0;
  for (const auto& [idx, cmd] : applied) {
    if (cmd.rfind("h", 0) == 0) history++;
  }
  EXPECT_EQ(history, 10);
}

TEST(RaftTest, ReadCommittedSinceExposesCdcFeed) {
  Cluster c;
  ASSERT_TRUE(c.group->Start().ok());
  ASSERT_TRUE(c.group->WaitForLeader().ok());
  ASSERT_TRUE(c.group->Propose("cdc-1").ok());
  ASSERT_TRUE(c.group->Propose("cdc-2").ok());
  RaftNode* leader = c.group->Leader();
  auto feed = leader->ReadCommittedSince(0, 100);
  std::vector<std::string> commands;
  for (auto& [idx, cmd] : feed) commands.push_back(cmd);
  EXPECT_EQ(commands,
            (std::vector<std::string>{"cdc-1", "cdc-2"}));
}

// Each committed entry is one record: every replica's log and WAL window
// hold the leader's record object itself, and it decodes to the entry's
// (index, term, command).
TEST(RaftTest, CommittedEntryIsStoredOnce) {
  Cluster c(3, InlineRaft());
  ASSERT_TRUE(c.group->Start().ok());
  constexpr int kProposals = 40;
  std::vector<std::string> commands;
  for (int i = 0; i < kProposals; i++) {
    std::string command(200, static_cast<char>('a' + i % 26));
    command.replace(0, 4, std::to_string(1000 + i));
    ASSERT_TRUE(c.group->Propose(command).ok());
    commands.push_back(std::move(command));
  }
  RaftNode* leader = c.group->replica(0);
  ASSERT_TRUE(leader->IsLeader());
  const LogIndex last = leader->LastLogIndex();
  ASSERT_EQ(last, static_cast<LogIndex>(kProposals) + 1);  // + term no-op

  // Each replica's WAL window, entry records only, by log index.
  std::vector<std::map<LogIndex, const void*>> windows(c.group->size());
  for (size_t r = 0; r < c.group->size(); r++) {
    for (const auto& [lsn, record] :
         c.group->replica(r)->wal().ReadFrom(0, SIZE_MAX)) {
      LogIndex index;
      Term term;
      std::string_view command;
      if (DecodeEntryRecord(record.view(), &index, &term, &command)) {
        EXPECT_EQ(windows[r].count(index), 0u) << "index " << index;
        windows[r][index] = BytesOf(record);
      }
    }
  }
  const Term term = leader->CurrentTerm();
  for (LogIndex i = 1; i <= last; i++) {
    WalRecord record = leader->LogRecordForTest(i);
    ASSERT_NE(BytesOf(record), nullptr) << "index " << i;
    for (size_t r = 0; r < c.group->size(); r++) {
      EXPECT_EQ(BytesOf(c.group->replica(r)->LogRecordForTest(i)),
                BytesOf(record))
          << "replica " << r << " log, index " << i;
      EXPECT_EQ(windows[r][i], BytesOf(record))
          << "replica " << r << " wal window, index " << i;
    }
    LogIndex index;
    Term entry_term;
    std::string_view command;
    ASSERT_TRUE(DecodeEntryRecord(record.view(), &index, &entry_term, &command));
    EXPECT_EQ(index, i);
    EXPECT_EQ(entry_term, term);
    EXPECT_EQ(command, i == 1 ? std::string() : commands[i - 2]);
  }
}

// Inline groups restart from their memory WAL windows: a restarted
// follower, then the whole group, rebuild their logs from the replayed
// records, re-apply the same commands in the same order, and commit anew.
TEST(RaftTest, InlineRestartReplaysSharedRecords) {
  Cluster c(3, InlineRaft());
  ASSERT_TRUE(c.group->Start().ok());
  std::vector<std::string> expected;
  auto propose = [&](const std::string& command) {
    auto result = c.group->Propose(command);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(*result, "applied:" + command);
    expected.push_back(command);
    // One more round carries the new commit index to both followers.
    c.group->replica(0)->ReplicateRoundInline();
  };
  auto expect_replicas_match = [&] {
    for (size_t r = 0; r < c.group->size(); r++) {
      EXPECT_EQ(AppliedCommands(*c.sm(r)), expected) << "replica " << r;
      ASSERT_EQ(c.group->replica(r)->LastLogIndex(),
                c.group->replica(0)->LastLogIndex());
      for (LogIndex i = 1; i <= c.group->replica(0)->LastLogIndex(); i++) {
        EXPECT_EQ(c.group->replica(r)->LogRecordForTest(i).view(),
                  c.group->replica(0)->LogRecordForTest(i).view())
            << "replica " << r << ", index " << i;
      }
    }
  };
  for (int i = 0; i < 10; i++) propose("pre" + std::to_string(i));

  ASSERT_TRUE(c.group->RestartReplica(1).ok());
  propose("after-follower-restart");
  expect_replicas_match();

  for (size_t r = 0; r < c.group->size(); r++) {
    ASSERT_TRUE(c.group->RestartReplica(r).ok());
  }
  EXPECT_EQ(c.group->Leader(), nullptr);
  c.group->replica(0)->StartElection();
  ASSERT_TRUE(c.group->replica(0)->IsLeader());
  propose("after-group-restart");
  expect_replicas_match();
}

// State machine with snapshot support: an ordered map of key=value
// commands ("set k v").
class SnapshotSm : public StateMachine {
 public:
  std::string Apply(LogIndex, std::string_view command) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto sep = command.find('=');
    if (sep != std::string_view::npos) {
      state_[std::string(command.substr(0, sep))] =
          std::string(command.substr(sep + 1));
    }
    return "ok";
  }
  std::string Snapshot() override {
    std::lock_guard<std::mutex> lock(mu_);
    std::string out;
    for (const auto& [k, v] : state_) {
      out += k + "=" + v + "\n";
    }
    return out.empty() ? std::string("\n") : out;
  }
  Status Restore(std::string_view image) override {
    std::lock_guard<std::mutex> lock(mu_);
    state_.clear();
    size_t pos = 0;
    while (pos < image.size()) {
      size_t nl = image.find('\n', pos);
      if (nl == std::string_view::npos) break;
      std::string_view line = image.substr(pos, nl - pos);
      pos = nl + 1;
      auto sep = line.find('=');
      if (sep == std::string_view::npos) continue;
      state_[std::string(line.substr(0, sep))] =
          std::string(line.substr(sep + 1));
    }
    return Status::Ok();
  }
  std::map<std::string, std::string> state() const {
    std::lock_guard<std::mutex> lock(mu_);
    return state_;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::string> state_;
};

struct SnapshotCluster {
  SimNet net;
  std::unique_ptr<RaftGroup> group;
  std::vector<SnapshotSm*> sms;

  explicit SnapshotCluster(size_t threshold) {
    RaftOptions options = FastRaft();
    options.snapshot_threshold = threshold;
    group = std::make_unique<RaftGroup>(
        &net, "snap", std::vector<uint32_t>{0, 1, 2},
        [this](ReplicaId) {
          auto sm = std::make_unique<SnapshotSm>();
          sms.push_back(sm.get());
          return sm;
        },
        options);
  }
};

TEST(RaftSnapshotTest, LogCompactsPastThreshold) {
  SnapshotCluster c(/*threshold=*/25);
  ASSERT_TRUE(c.group->Start().ok());
  ASSERT_TRUE(c.group->WaitForLeader().ok());
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(
        c.group->Propose("k" + std::to_string(i % 10) + "=v" +
                         std::to_string(i))
            .ok());
  }
  RaftNode* leader = c.group->Leader();
  ASSERT_NE(leader, nullptr);
  EXPECT_GT(leader->SnapshotIndex(), 0u);
  // Data intact after compaction.
  auto state = c.sms[leader->id()]->state();
  EXPECT_EQ(state.size(), 10u);
  EXPECT_EQ(state["k9"], "v99");
}

TEST(RaftSnapshotTest, RestartRecoversFromSnapshotPlusSuffix) {
  SnapshotCluster c(/*threshold=*/20);
  ASSERT_TRUE(c.group->Start().ok());
  ASSERT_TRUE(c.group->WaitForLeader().ok());
  for (int i = 0; i < 60; i++) {
    ASSERT_TRUE(c.group->Propose("key=" + std::to_string(i)).ok());
  }
  // Restart a follower; it must recover via its persisted snapshot + the
  // WAL suffix and converge to the same state.
  RaftNode* leader = c.group->Leader();
  size_t victim = 0;
  for (size_t i = 0; i < c.group->size(); i++) {
    if (c.group->replica(i) != leader) victim = i;
  }
  c.group->CrashReplica(victim);
  ASSERT_TRUE(c.group->RestartReplica(victim).ok());
  ASSERT_TRUE(c.group->Propose("key=final", 10000).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  auto state = c.sms.back()->state();  // rebuilt machine
  EXPECT_EQ(state["key"], "final");
}

TEST(RaftSnapshotTest, LaggingFollowerReceivesInstallSnapshot) {
  SnapshotCluster c(/*threshold=*/15);
  ASSERT_TRUE(c.group->Start().ok());
  ASSERT_TRUE(c.group->WaitForLeader().ok());
  // Crash a follower, commit far past the compaction threshold so the
  // follower's entries are gone from every live log.
  RaftNode* leader = c.group->Leader();
  size_t victim = 0;
  for (size_t i = 0; i < c.group->size(); i++) {
    if (c.group->replica(i) != leader) victim = i;
  }
  c.group->CrashReplica(victim);
  for (int i = 0; i < 80; i++) {
    ASSERT_TRUE(
        c.group->Propose("x" + std::to_string(i % 5) + "=" +
                             std::to_string(i),
                         10000)
            .ok());
  }
  ASSERT_GT(c.group->Leader()->SnapshotIndex(), 0u);
  ASSERT_TRUE(c.group->RestartReplica(victim).ok());
  // The leader ships a snapshot; the follower converges.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(8);
  bool converged = false;
  while (std::chrono::steady_clock::now() < deadline && !converged) {
    auto state = c.sms.back()->state();
    converged = state.size() == 5 && state["x4"] == "79";
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(converged);
}

TEST(RaftTest, ConcurrentProposersAllSucceed) {
  Cluster c;
  ASSERT_TRUE(c.group->Start().ok());
  ASSERT_TRUE(c.group->WaitForLeader().ok());
  std::atomic<int> ok_count{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; t++) {
    threads.emplace_back([&c, &ok_count, t] {
      for (int i = 0; i < 25; i++) {
        auto result =
            c.group->Propose("t" + std::to_string(t) + "-" + std::to_string(i));
        if (result.ok()) ok_count++;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ok_count.load(), 200);
}

}  // namespace
}  // namespace cfs
