#ifndef MSOPDS_DATA_SYNTHETIC_H_
#define MSOPDS_DATA_SYNTHETIC_H_

#include <string>

#include "data/dataset.h"
#include "util/rng.h"

namespace msopds {

/// Configuration of the synthetic heterogeneous-dataset generator.
///
/// The paper evaluates on Ciao, Epinions, and LibraryThing dumps that are
/// not redistributable in this offline build, so the generator synthesizes
/// datasets matching each dump's published aggregate statistics (user/item
/// counts, rating volume, social-link volume, skewed rating histogram,
/// power-law activity/popularity). DESIGN.md §4 documents why this
/// substitution preserves the attack dynamics under study.
struct SyntheticConfig {
  std::string name = "synthetic";
  int64_t num_users = 500;
  int64_t num_items = 800;
  int64_t num_ratings = 8000;
  int64_t num_social_links = 9000;

  /// Zipf exponent of social-degree propensity. (The rating histogram,
  /// the activity and popularity exponents, the rating noise and the item
  /// graph's overlap threshold are the same for every profile; see
  /// synthetic.cc.)
  double social_degree_alpha = 0.8;

  /// Fraction of social edges closed as triangles (friend-of-friend),
  /// giving realistic clustering.
  double triadic_closure_fraction = 0.3;
};

/// Profiles reproducing the paper's three datasets (§VI-A1), scaled by
/// `scale` (1.0 = published size; default experiments use a reduced scale
/// so the whole suite runs on one CPU core).
SyntheticConfig CiaoProfile(double scale = 1.0);
SyntheticConfig EpinionsProfile(double scale = 1.0);
SyntheticConfig LibraryThingProfile(double scale = 1.0);

/// The profile scales the binaries accept. Below the floor the smallest
/// profile (LibraryThing, 1108 users) rounds to one user, which
/// SampleDemographics rejects; the ceiling is 100 times the published
/// sizes.
inline constexpr double kMinProfileScale = 0.002;
inline constexpr double kMaxProfileScale = 100.0;

/// Generates a dataset (ratings + social network + co-rating item graph).
/// Deterministic given (config, rng state). The result passes
/// Dataset::Validate().
Dataset GenerateSynthetic(const SyntheticConfig& config, Rng* rng);

}  // namespace msopds

#endif  // MSOPDS_DATA_SYNTHETIC_H_
