#ifndef MSOPDS_CORE_EXPERIMENT_H_
#define MSOPDS_CORE_EXPERIMENT_H_

#include <string>
#include <vector>

#include "core/multiplayer_game.h"
#include "core/msopds.h"
#include "data/synthetic.h"
#include "util/status.h"

namespace msopds {

/// The Table III method rows in paper order (IA baselines then MSOPDS).
std::vector<std::string> StandardMethods();

/// MSOPDS ablation variants of Fig. 8 (action categories; Epinions) and
/// Fig. 9 (real vs fake accounts; Epinions).
std::vector<std::string> Fig8Methods();
std::vector<std::string> Fig9Methods();

/// Maps a method name to an attack factory: the Table III methods,
/// PoisonRec (RL extension baseline), BOPDS and the MSOPDS variants of
/// Figs. 8-9. CHECK-fails on unknown names; CheckExperimentNames
/// validates them first.
AttackFactory MakeAttackFactory(const std::string& method);

/// Generates the named synthetic dataset profile ("ciao", "epinions",
/// "librarything") at `scale`, deterministically from `seed`.
/// CHECK-fails on unknown names; CheckExperimentNames validates them
/// first.
Dataset MakeExperimentDataset(const std::string& name, double scale,
                              uint64_t seed);

/// OK when MakeExperimentDataset accepts every name in `datasets` and
/// MakeAttackFactory every name in `methods`. Otherwise
/// InvalidArgument naming the first unknown value and listing the
/// accepted names.
Status CheckExperimentNames(const std::vector<std::string>& datasets,
                            const std::vector<std::string>& methods);

/// Game configuration tuned so the full benchmark suite runs on one CPU
/// core (paper hyperparameters where feasible: eta^p = 0.005 < eta^q =
/// 0.05, L = 5, K = 20 are kept in Msopds defaults; victim/opponent sizes
/// are reduced).
GameConfig DefaultGameConfig();

/// Default MSOPDS configuration used by MakeAttackFactory("MSOPDS").
MsopdsConfig DefaultMsopdsConfig();

/// Mean metrics over `repeats` games with seeds seed, seed+1, ...
struct CellStats {
  double mean_average_rating = 0.0;
  double mean_hit_rate = 0.0;
  int repeats = 0;
};

/// Health-aware cell outcome: `stats` averages only healthy repeats
/// (those whose victim training recovered to a finite model and whose
/// metrics are finite). When every repeat failed, `ok` is false, the
/// stats are zero and `error` records the last failure — the cell
/// degrades to a recorded-failure row instead of a silent NaN.
struct CellOutcome {
  CellStats stats;
  bool ok = true;
  /// Repeats excluded from the mean because they ended unhealthy.
  int unhealthy_repeats = 0;
  std::string error;
};

/// Runs the cell's `repeats` games and never lets a numerically-failed
/// game poison the mean.
CellOutcome RunRepeatedCellChecked(const MultiplayerGame& game,
                                   const std::string& method,
                                   int budget_level, uint64_t seed,
                                   int repeats);

/// Machine-readable export of one game outcome (method, metrics, plan
/// composition) for downstream tooling.
std::string GameResultToJson(const GameResult& result);

}  // namespace msopds

#endif  // MSOPDS_CORE_EXPERIMENT_H_
