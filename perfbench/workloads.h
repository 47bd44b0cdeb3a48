#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "core/multiplayer_game.h"
#include "report.h"
#include "trace.h"

namespace perfbench {

// ---------------------------------------------------------------- games

/// One Table III cell: a synthetic dataset profile at a scale, a budget
/// level and the attacker method, played against one BOPDS opponent with
/// the kernel pool at one thread.
struct GameCell {
  std::string profile = "epinions";
  double scale = 0.12;
  int budget_level = 4;
  std::string method = "MSOPDS";
};

/// Layer counters of one replayed game (filled only when traced).
struct GameCounters {
  int64_t mso_iterations = 0;
  int64_t unhealthy_iterations = 0;
  int64_t cg_iterations = 0;
  int64_t cg_breakdowns = 0;
  int64_t cg_fallbacks = 0;
  int64_t victim_epochs = 0;
  /// Arena counters per phase: attacker, opponent, victim.
  int64_t arena_allocs[3] = {0, 0, 0};
  double arena_hit_rate[3] = {0.0, 0.0, 0.0};
  double arena_peak_mb[3] = {0.0, 0.0, 0.0};
};

/// Plays one game through the same public calls, in the same order and
/// with the same random streams, as MultiplayerGame::Run, so the result
/// is bit-identical to Run(factory, budget_level, seed). Each layer call
/// sits in a span of `tracer` (request id `op`); with an enabled tracer
/// the arena statistics of each phase land in `counters`.
msopds::GameResult ReplayGame(const msopds::MultiplayerGame& game,
                              const msopds::AttackFactory& factory,
                              int budget_level, uint64_t seed,
                              Tracer* tracer, int64_t op,
                              GameCounters* counters);

/// Empty when `actual` reproduces `expected` (rbar and HR@3 bit-equal)
/// and both games are healthy; otherwise the reason.
std::string CompareGames(const msopds::GameResult& expected,
                         const msopds::GameResult& actual);

/// game-msopds.
Outcome RunGameWorkload(const GameCell& cell, const RunOptions& options);

// -------------------------------------------------------------- serving

/// Shape of the serve-topk snapshot and traffic.
struct ServeShape {
  int64_t users = 20000;
  int64_t items = 16384;
  int64_t dim = 32;
  int64_t seen_per_user = 20;
  int clients = 2;
  int kernel_threads = 2;
  /// A fresh export + publish after every this many completed requests.
  int64_t publish_every = 1000;
  /// One response in this many is checked against TopKForUsers.
  int64_t check_every = 50;
  /// Warm-up requests per client before timing starts.
  int64_t warmup_requests = 500;
};

Outcome RunServeWorkload(const ServeShape& shape, const RunOptions& options);

// --------------------------------------------------------------- ingest

/// Size of the ingest-train TSV pair and of each op.
struct IngestShape {
  int64_t users = 262144;
  int64_t ratings_per_user = 6;
  int64_t shards = 16;
  int64_t dim = 8;
  int epochs = 8;
};

Outcome RunIngestWorkload(const IngestShape& shape, const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
