// The tiny world and fast planner configs shared by the game tests
// (game_test.cc) and the golden gate (golden_test.cc).

#ifndef MSOPDS_TESTS_CORE_GAME_FIXTURES_H_
#define MSOPDS_TESTS_CORE_GAME_FIXTURES_H_

#include <cstdint>

#include "core/experiment.h"
#include "core/msopds.h"
#include "core/multiplayer_game.h"
#include "data/synthetic.h"

namespace msopds {

inline Dataset TestWorld(uint64_t seed = 71) {
  SyntheticConfig config;
  config.num_users = 60;
  config.num_items = 70;
  config.num_ratings = 650;
  config.num_social_links = 220;
  Rng rng(seed);
  return GenerateSynthetic(config, &rng);
}

inline GameConfig FastGameConfig() {
  GameConfig config = DefaultGameConfig();
  config.victim.embedding_dim = 8;
  config.victim_training.epochs = 15;
  config.opponent_pds.embedding_dim = 4;
  config.opponent_pds.inner_steps = 2;
  config.opponent_iterations = 3;
  return config;
}

inline MsopdsConfig FastMsopdsConfig() {
  MsopdsConfig config = DefaultMsopdsConfig();
  config.pds.embedding_dim = 4;
  config.pds.inner_steps = 2;
  config.mso.outer_iterations = 4;
  config.mso.cg.max_iterations = 4;
  return config;
}

}  // namespace msopds

#endif  // MSOPDS_TESTS_CORE_GAME_FIXTURES_H_
