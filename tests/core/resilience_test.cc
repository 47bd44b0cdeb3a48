#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "util/checkpoint.h"
#include "util/fault.h"

namespace msopds {
namespace {

Dataset TinyWorld() {
  SyntheticConfig config;
  config.num_users = 40;
  config.num_items = 50;
  config.num_ratings = 400;
  config.num_social_links = 120;
  Rng rng(31);
  return GenerateSynthetic(config, &rng);
}

GameConfig FastGameConfig() {
  GameConfig config = DefaultGameConfig();
  config.victim_training.epochs = 8;
  config.num_opponents = 0;  // skip the BOPDS opponent: cheap cells
  return config;
}

struct Cell {
  std::string method;
  int budget = 2;
};

std::vector<Cell> SweepCells() {
  return {{"None", 2}, {"None", 3}, {"Random", 2}, {"Random", 3}};
}

std::string CellKey(const Cell& cell) {
  return cell.method + "|b=" + std::to_string(cell.budget);
}

// The record `store` holds for `key`, or nullptr.
const CellRecord* FindRecord(const CheckpointStore& store,
                             const std::string& key) {
  for (const CellRecord& record : store.records()) {
    if (record.key == key) return &record;
  }
  return nullptr;
}

// One sweep pass over `cells`, skipping completed cells in `store` and
// stopping after `max_cells` fresh executions (simulated interrupt).
// Returns the number of cells actually executed.
int RunSweep(const MultiplayerGame& game, CheckpointStore* store,
             int max_cells) {
  int executed = 0;
  for (const Cell& cell : SweepCells()) {
    if (FindRecord(*store, CellKey(cell)) != nullptr) continue;
    if (executed >= max_cells) break;  // simulated crash between cells
    const CellOutcome outcome =
        RunRepeatedCellChecked(game, cell.method, cell.budget, /*seed=*/8,
                               /*repeats=*/1);
    CellRecord record;
    record.key = CellKey(cell);
    record.ok = outcome.ok;
    record.mean_average_rating = outcome.stats.mean_average_rating;
    record.mean_hit_rate = outcome.stats.mean_hit_rate;
    record.repeats = outcome.stats.repeats;
    record.unhealthy_repeats = outcome.unhealthy_repeats;
    record.error = outcome.error;
    store->Append(record);
    ++executed;
  }
  return executed;
}

TEST(ResilienceTest, InterruptedSweepResumesToIdenticalRecords) {
  const Dataset world = TinyWorld();
  const MultiplayerGame game(world, FastGameConfig());
  const std::string path = testing::TempDir() + "/resume_sweep.jsonl";
  const std::string reference_path =
      testing::TempDir() + "/resume_sweep_reference.jsonl";
  std::remove(path.c_str());
  std::remove(reference_path.c_str());

  // Uninterrupted reference sweep.
  CheckpointStore reference(reference_path);
  EXPECT_EQ(RunSweep(game, &reference, 1000), 4);

  // Interrupted after two cells, then resumed from the file.
  {
    CheckpointStore store(path);
    EXPECT_EQ(RunSweep(game, &store, 2), 2);
  }
  {
    CheckpointStore resumed(path);
    EXPECT_EQ(resumed.records().size(), 2u);
    // Only the two missing cells run; the first two come from the file.
    EXPECT_EQ(RunSweep(game, &resumed, 1000), 2);
    EXPECT_EQ(resumed.records().size(), 4u);
  }

  CheckpointStore final_store(path);
  ASSERT_EQ(final_store.records().size(), 4u);
  for (const Cell& cell : SweepCells()) {
    const CellRecord* got = FindRecord(final_store, CellKey(cell));
    const CellRecord* want = FindRecord(reference, CellKey(cell));
    ASSERT_NE(got, nullptr);
    ASSERT_NE(want, nullptr);
    EXPECT_TRUE(got->ok);
    // Games are deterministic in the seed, so resuming must reproduce
    // the uninterrupted sweep bit-for-bit (modulo JSON round-trip, which
    // is covered by %.10g precision on these metric magnitudes).
    EXPECT_NEAR(got->mean_average_rating, want->mean_average_rating, 1e-9);
    EXPECT_NEAR(got->mean_hit_rate, want->mean_hit_rate, 1e-9);
    EXPECT_EQ(got->repeats, want->repeats);
  }
}

TEST(ResilienceTest, ExhaustedRetriesDegradeToRecordedFailure) {
  const Dataset world = TinyWorld();
  GameConfig config = FastGameConfig();
  config.victim_training.max_retries = 1;
  const MultiplayerGame game(world, config);

  FaultConfig faults;
  faults.trainer_nan_probability = 1.0;  // victim training cannot succeed
  ScopedFaultInjection scope(faults);

  const CellOutcome outcome =
      RunRepeatedCellChecked(game, "None", 2, /*seed=*/8, /*repeats=*/2);
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.unhealthy_repeats, 2);
  EXPECT_EQ(outcome.stats.repeats, 0);
  EXPECT_FALSE(outcome.error.empty());
  EXPECT_EQ(outcome.stats.mean_average_rating, 0.0);
}

TEST(ResilienceTest, FaultFreeCellAveragesItsGames) {
  // Fault-free, every repeat is healthy and the cell's stats are the mean
  // of its games, summed from 0.0 in seed order.
  const Dataset world = TinyWorld();
  const MultiplayerGame game(world, FastGameConfig());
  const CellOutcome checked =
      RunRepeatedCellChecked(game, "Random", 2, /*seed=*/8, /*repeats=*/2);
  const GameResult first = game.Run(MakeAttackFactory("Random"), 2, 8);
  const GameResult second = game.Run(MakeAttackFactory("Random"), 2, 9);
  EXPECT_TRUE(checked.ok);
  EXPECT_EQ(checked.unhealthy_repeats, 0);
  EXPECT_EQ(checked.stats.mean_average_rating,
            (0.0 + first.average_rating + second.average_rating) / 2);
  EXPECT_EQ(checked.stats.mean_hit_rate,
            (0.0 + first.hit_rate_at_3 + second.hit_rate_at_3) / 2);
  EXPECT_EQ(checked.stats.repeats, 2);
}

}  // namespace
}  // namespace msopds
