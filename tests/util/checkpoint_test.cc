#include "util/checkpoint.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

namespace msopds {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

CellRecord MakeRecord(const std::string& key, double rbar, double hr) {
  CellRecord record;
  record.key = key;
  record.mean_average_rating = rbar;
  record.mean_hit_rate = hr;
  record.repeats = 3;
  return record;
}

TEST(CellRecordTest, JsonRoundTrip) {
  CellRecord record = MakeRecord("ciao|MSOPDS|b=2", 3.75, 0.5);
  record.unhealthy_repeats = 1;
  auto parsed = ParseCellRecord(CellRecordToJson(record));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().key, record.key);
  EXPECT_TRUE(parsed.value().ok);
  EXPECT_DOUBLE_EQ(parsed.value().mean_average_rating, 3.75);
  EXPECT_DOUBLE_EQ(parsed.value().mean_hit_rate, 0.5);
  EXPECT_EQ(parsed.value().repeats, 3);
  EXPECT_EQ(parsed.value().unhealthy_repeats, 1);
  EXPECT_TRUE(parsed.value().error.empty());
}

TEST(CellRecordTest, FailureRecordRoundTrip) {
  CellRecord record;
  record.key = "epinions|MSOPDS|b=5";
  record.ok = false;
  record.error = "victim training: epoch 3 non-finite after 3 retries";
  auto parsed = ParseCellRecord(CellRecordToJson(record));
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed.value().ok);
  EXPECT_EQ(parsed.value().error, record.error);
}

TEST(CellRecordTest, NonFiniteMetricsRoundTrip) {
  CellRecord record = MakeRecord("k", std::numeric_limits<double>::quiet_NaN(),
                                 std::numeric_limits<double>::infinity());
  auto parsed = ParseCellRecord(CellRecordToJson(record));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(std::isnan(parsed.value().mean_average_rating));
  EXPECT_TRUE(std::isinf(parsed.value().mean_hit_rate));
}

TEST(CellRecordTest, KeyWithQuotesAndBackslashesRoundTrips) {
  CellRecord record = MakeRecord("odd \"key\"\\with\tescapes", 1.0, 0.0);
  auto parsed = ParseCellRecord(CellRecordToJson(record));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().key, record.key);
}

TEST(CellRecordTest, ThreadsRoundTripsAndLegacyRecordsDefaultToOne) {
  CellRecord record = MakeRecord("k", 1.0, 0.5);
  record.threads = 4;
  auto parsed = ParseCellRecord(CellRecordToJson(record));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().threads, 4);
  // Records written before the parallel runtime carry no "threads" field:
  // those sweeps ran on the serial kernels.
  auto legacy = ParseCellRecord(
      "{\"key\":\"k\",\"ok\":true,\"rbar\":1.0,\"hr\":0.5,\"repeats\":3,"
      "\"unhealthy_repeats\":0,\"error\":\"\"}");
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
  EXPECT_EQ(legacy.value().threads, 1);
}

TEST(CellRecordTest, WorkerIdRoundTripsAndLegacyRecordsDefaultToZero) {
  CellRecord record = MakeRecord("k", 1.0, 0.5);
  record.worker_id = 3;
  auto parsed = ParseCellRecord(CellRecordToJson(record));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().worker_id, 3);
  // Records written before the sweep orchestrator carry no "worker"
  // field: those came from the single-process driver, worker 0
  // (mirroring the `threads` precedent above).
  auto legacy = ParseCellRecord(
      "{\"key\":\"k\",\"ok\":true,\"rbar\":1.0,\"hr\":0.5,\"repeats\":3,"
      "\"unhealthy_repeats\":0,\"threads\":1,\"error\":\"\"}");
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
  EXPECT_EQ(legacy.value().worker_id, 0);
}

TEST(CellRecordTest, MalformedLineRejected) {
  EXPECT_FALSE(ParseCellRecord("{\"key\":\"a\",\"ok\":tr").ok());
  EXPECT_FALSE(ParseCellRecord("not json at all").ok());
  EXPECT_FALSE(ParseCellRecord("").ok());
}

TEST(CellRecordTest, ParseErrorsCarryFileAndRowContext) {
  auto bad = ParseCellRecord("not json at all", "sweep.ckpt:12");
  ASSERT_FALSE(bad.ok());
  // The operator must be able to open the offending row directly.
  EXPECT_NE(bad.status().message().find("sweep.ckpt:12"), std::string::npos)
      << bad.status().ToString();
  auto missing_field = ParseCellRecord("{\"ok\":true}", "sweep.ckpt:3");
  ASSERT_FALSE(missing_field.ok());
  EXPECT_NE(missing_field.status().message().find("sweep.ckpt:3"),
            std::string::npos);
  EXPECT_NE(missing_field.status().message().find("key"), std::string::npos);
}

TEST(CheckpointStoreTest, PersistsAndReloads) {
  const std::string path = TempPath("ckpt_reload.jsonl");
  std::remove(path.c_str());
  {
    CheckpointStore store(path);
    EXPECT_TRUE(store.records().empty());
    store.Append(MakeRecord("a", 1.5, 0.25));
    store.Append(MakeRecord("b", 2.5, 0.75));
  }
  const std::vector<CellRecord> reloaded = CheckpointStore(path).records();
  ASSERT_EQ(reloaded.size(), 2u);
  EXPECT_EQ(reloaded[0].key, "a");
  EXPECT_DOUBLE_EQ(reloaded[0].mean_average_rating, 1.5);
  EXPECT_EQ(reloaded[1].key, "b");
  EXPECT_DOUBLE_EQ(reloaded[1].mean_hit_rate, 0.75);
  // Reloaded records know which row they came from (1-based), so resume
  // refusals can say "<file>:<row>"; fresh appends carry no source row.
  EXPECT_EQ(reloaded[0].source_line, 1);
  EXPECT_EQ(reloaded[1].source_line, 2);
}

TEST(CheckpointStoreTest, DuplicateKeysKeepTheLastRecord) {
  const std::string path = TempPath("ckpt_dupes.jsonl");
  std::remove(path.c_str());
  {
    CheckpointStore store(path);
    store.Append(MakeRecord("a", 1.0, 0.0));
    store.Append(MakeRecord("a", 9.0, 1.0));
  }
  const std::vector<CellRecord> reloaded = CheckpointStore(path).records();
  ASSERT_EQ(reloaded.size(), 1u);
  EXPECT_EQ(reloaded[0].key, "a");
  EXPECT_DOUBLE_EQ(reloaded[0].mean_average_rating, 9.0);
}

TEST(CheckpointStoreTest, TornTrailingLineIsDropped) {
  const std::string path = TempPath("ckpt_torn.jsonl");
  std::remove(path.c_str());
  {
    CheckpointStore store(path);
    store.Append(MakeRecord("whole", 1.0, 0.5));
  }
  // Simulate a crash mid-write: an unterminated, truncated record.
  {
    std::ofstream out(path, std::ios::app);
    out << "{\"key\":\"torn\",\"ok\":tru";
  }
  const std::vector<CellRecord> reloaded = CheckpointStore(path).records();
  ASSERT_EQ(reloaded.size(), 1u);
  EXPECT_EQ(reloaded[0].key, "whole");
}

TEST(CheckpointStoreTest, MissingFileStartsEmpty) {
  CheckpointStore store(TempPath("ckpt_never_written.jsonl"));
  EXPECT_TRUE(store.records().empty());
}

}  // namespace
}  // namespace msopds
