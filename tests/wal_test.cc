// Unit tests for the WAL: append/LSN sequencing, replay (memory and file),
// memory-window reads, shared records, prefix truncation, and torn-tail
// recovery.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "src/wal/wal.h"

namespace cfs {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("cfs_wal_test_" + name + "_" + std::to_string(::getpid())))
      .string();
}

TEST(WalTest, AppendAssignsSequentialLsns) {
  Wal wal;
  ASSERT_TRUE(wal.Open().ok());
  for (uint64_t i = 0; i < 10; i++) {
    auto lsn = wal.Append("rec" + std::to_string(i));
    ASSERT_TRUE(lsn.ok());
    EXPECT_EQ(*lsn, i);
  }
  EXPECT_EQ(wal.NextLsn(), 10u);
}

TEST(WalTest, MemoryReplayDeliversInOrder) {
  Wal wal;
  ASSERT_TRUE(wal.Open().ok());
  (void)wal.Append("a");
  (void)wal.Append("b");
  (void)wal.Append("c");
  std::vector<std::string> seen;
  ASSERT_TRUE(wal.Replay([&](uint64_t lsn, std::string_view rec) {
                   EXPECT_EQ(lsn, seen.size());
                   seen.emplace_back(rec);
                 }).ok());
  EXPECT_EQ(seen, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(WalTest, ReadFromTailsWindow) {
  Wal wal;
  ASSERT_TRUE(wal.Open().ok());
  for (int i = 0; i < 20; i++) {
    (void)wal.Append("r" + std::to_string(i));
  }
  auto batch = wal.ReadFrom(15, 100);
  ASSERT_EQ(batch.size(), 5u);
  EXPECT_EQ(batch[0].first, 15u);
  EXPECT_EQ(batch[0].second.view(), "r15");
  auto capped = wal.ReadFrom(0, 3);
  EXPECT_EQ(capped.size(), 3u);
}

TEST(WalTest, TruncatePrefixDropsOldRecords) {
  Wal wal;
  ASSERT_TRUE(wal.Open().ok());
  for (int i = 0; i < 10; i++) {
    (void)wal.Append("r" + std::to_string(i));
  }
  wal.TruncatePrefix(7);
  EXPECT_EQ(wal.FirstLsn(), 7u);
  auto batch = wal.ReadFrom(0, 100);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].first, 7u);
}

TEST(WalTest, WindowCapEvictsOldest) {
  WalOptions options;
  options.memory_window = 4;
  Wal wal(options);
  ASSERT_TRUE(wal.Open().ok());
  for (int i = 0; i < 10; i++) {
    (void)wal.Append("r" + std::to_string(i));
  }
  EXPECT_EQ(wal.FirstLsn(), 6u);
  EXPECT_EQ(wal.ReadFrom(0, 100).size(), 4u);
}

TEST(WalTest, FileBackedReplaySurvivesReopen) {
  std::string path = TempPath("reopen");
  std::remove(path.c_str());
  {
    WalOptions options;
    options.path = path;
    Wal wal(options);
    ASSERT_TRUE(wal.Open().ok());
    (void)wal.Append("persisted-1");
    (void)wal.Append("persisted-2");
  }
  WalOptions options;
  options.path = path;
  Wal wal(options);
  ASSERT_TRUE(wal.Open().ok());
  std::vector<std::string> seen;
  ASSERT_TRUE(wal.Replay([&](uint64_t, std::string_view rec) {
                   seen.emplace_back(rec);
                 }).ok());
  EXPECT_EQ(seen, (std::vector<std::string>{"persisted-1", "persisted-2"}));
  std::remove(path.c_str());
}

// Appending a shared record and appending a view of the same bytes write
// identical frames and replay identically; the window keeps the shared
// record itself.
TEST(WalTest, SharedRecordAndViewWriteIdenticalFrames) {
  const std::string shared_path = TempPath("shared");
  const std::string view_path = TempPath("view");
  std::remove(shared_path.c_str());
  std::remove(view_path.c_str());
  const std::vector<std::string> records = {
      std::string(1, '\1') + std::string(200, 'x'), "", "head+tail"};
  {
    WalOptions shared_options;
    shared_options.path = shared_path;
    Wal shared(shared_options);
    WalOptions view_options;
    view_options.path = view_path;
    Wal viewed(view_options);
    ASSERT_TRUE(shared.Open().ok());
    ASSERT_TRUE(viewed.Open().ok());
    for (size_t i = 0; i < records.size(); i++) {
      WalRecord record = i + 1 == records.size()
                             ? WalRecord("head", "+tail")
                             : WalRecord(records[i]);
      ASSERT_TRUE(shared.Append(record).ok());
      ASSERT_TRUE(viewed.Append(std::string_view(records[i])).ok());
      // The window holds `record` itself, not a copy of its bytes.
      EXPECT_EQ(static_cast<const void*>(
                    shared.ReadFrom(i, 1).at(0).second.view().data()),
                static_cast<const void*>(record.view().data()));
    }
  }
  auto file_bytes = [](const std::string& path) {
    std::string out;
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) return out;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
    std::fclose(f);
    return out;
  };
  const std::string shared_bytes = file_bytes(shared_path);
  EXPECT_FALSE(shared_bytes.empty());
  EXPECT_EQ(shared_bytes, file_bytes(view_path));

  for (const std::string& path : {shared_path, view_path}) {
    WalOptions options;
    options.path = path;
    Wal wal(options);
    ASSERT_TRUE(wal.Open().ok());
    std::vector<std::string> seen;
    ASSERT_TRUE(wal.Replay([&](uint64_t lsn, std::string_view rec) {
                     EXPECT_EQ(lsn, seen.size());
                     seen.emplace_back(rec);
                   }).ok());
    EXPECT_EQ(seen, records) << path;
  }
  std::remove(shared_path.c_str());
  std::remove(view_path.c_str());
}

TEST(WalTest, TornTailStopsReplayCleanly) {
  std::string path = TempPath("torn");
  std::remove(path.c_str());
  WalOptions options;
  options.path = path;
  Wal wal(options);
  ASSERT_TRUE(wal.Open().ok());
  (void)wal.Append("good-record");
  (void)wal.Append("will-be-torn");
  ASSERT_TRUE(wal.CorruptTailForTest(4).ok());
  std::vector<std::string> seen;
  ASSERT_TRUE(wal.Replay([&](uint64_t, std::string_view rec) {
                   seen.emplace_back(rec);
                 }).ok());
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], "good-record");
  std::remove(path.c_str());
}

TEST(WalTest, SyncedAppendsCounted) {
  Wal wal;
  ASSERT_TRUE(wal.Open().ok());
  (void)wal.Append("a", /*sync=*/true);
  (void)wal.Append("b", /*sync=*/false);
  (void)wal.Append("c", /*sync=*/true);
  EXPECT_EQ(wal.synced_appends(), 2u);
}

TEST(WalTest, SimulatedFsyncDelayApplies) {
  WalOptions options;
  options.fsync_delay_us = 2000;
  Wal wal(options);
  ASSERT_TRUE(wal.Open().ok());
  auto start = std::chrono::steady_clock::now();
  (void)wal.Append("slow", /*sync=*/true);
  auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  EXPECT_GE(elapsed, 2000);
  start = std::chrono::steady_clock::now();
  (void)wal.Append("fast", /*sync=*/false);
  elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - start)
                .count();
  EXPECT_LT(elapsed, 2000);
}

}  // namespace
}  // namespace cfs
