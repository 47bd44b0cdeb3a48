#include "data/synthetic.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <unordered_set>

#include "graph/item_graph_builder.h"
#include "util/logging.h"

namespace msopds {
namespace {

int64_t Scaled(int64_t value, double scale) {
  return std::max<int64_t>(1, static_cast<int64_t>(std::llround(
                                  static_cast<double>(value) * scale)));
}

// Shape parameters every profile shares. P(rating == k) for k = 1..5,
// normalized when drawn: the J-shaped histogram typical of e-commerce
// ratings.
constexpr std::array<double, 5> kRatingHistogram = {0.05, 0.07, 0.13, 0.30,
                                                    0.45};
// Zipf exponents of user activity and item popularity.
constexpr double kUserActivityAlpha = 0.9;
constexpr double kItemPopularityAlpha = 1.0;
// Std-dev of per-(user,item) rating noise around item quality + user
// bias before discretization.
constexpr double kRatingNoise = 0.8;
// Jaccard threshold for the item graph (paper: shares over 50%).
constexpr double kItemGraphOverlap = 0.5;

// Draws a rating from item quality + user bias + noise, discretized to 1..5,
// then nudged toward the marginal histogram via a mixture.
double DrawRating(double item_quality, double user_bias, Rng* rng) {
  // With probability 0.5 sample from the global histogram, otherwise from
  // the personalized model; this matches both the marginal distribution and
  // per-item consistency.
  if (rng->Bernoulli(0.5)) {
    double total = 0.0;
    for (double p : kRatingHistogram) total += p;
    double u = rng->Uniform() * total;
    for (int k = 0; k < 5; ++k) {
      u -= kRatingHistogram[static_cast<size_t>(k)];
      if (u <= 0.0) return static_cast<double>(k + 1);
    }
    return 5.0;
  }
  const double raw =
      item_quality + user_bias + rng->Normal(0.0, kRatingNoise);
  const double clamped = std::min(kMaxRating, std::max(kMinRating, raw));
  return std::round(clamped);
}

}  // namespace

SyntheticConfig CiaoProfile(double scale) {
  SyntheticConfig config;
  config.name = "ciao";
  config.num_users = Scaled(2611, scale);
  config.num_items = Scaled(3823, scale);
  config.num_ratings = Scaled(44453, scale);
  config.num_social_links = Scaled(49953, scale);
  // Ciao has the densest rating matrix of the three and a relatively
  // sparse social propagation structure per user (paper §VI-B).
  config.social_degree_alpha = 1.1;
  config.triadic_closure_fraction = 0.2;
  return config;
}

SyntheticConfig EpinionsProfile(double scale) {
  SyntheticConfig config;
  config.name = "epinions";
  config.num_users = Scaled(1929, scale);
  config.num_items = Scaled(9962, scale);
  config.num_ratings = Scaled(12612, scale);
  config.num_social_links = Scaled(41270, scale);
  // Epinions: very sparse ratings, dense social network.
  config.social_degree_alpha = 0.7;
  config.triadic_closure_fraction = 0.35;
  return config;
}

SyntheticConfig LibraryThingProfile(double scale) {
  SyntheticConfig config;
  config.name = "librarything";
  config.num_users = Scaled(1108, scale);
  config.num_items = Scaled(8583, scale);
  config.num_ratings = Scaled(19615, scale);
  config.num_social_links = Scaled(14508, scale);
  config.social_degree_alpha = 0.9;
  config.triadic_closure_fraction = 0.3;
  return config;
}

Dataset GenerateSynthetic(const SyntheticConfig& config, Rng* rng) {
  MSOPDS_CHECK_GT(config.num_users, 0);
  MSOPDS_CHECK_GT(config.num_items, 0);
  MSOPDS_CHECK(rng != nullptr);

  Dataset dataset;
  dataset.name = config.name;
  dataset.num_users = config.num_users;
  dataset.num_items = config.num_items;
  dataset.social = UndirectedGraph(config.num_users);
  dataset.items = UndirectedGraph(config.num_items);

  // Latent per-item quality and per-user bias drive rating values.
  std::vector<double> item_quality(static_cast<size_t>(config.num_items));
  for (double& q : item_quality) q = rng->Normal(3.8, 0.7);
  std::vector<double> user_bias(static_cast<size_t>(config.num_users));
  for (double& b : user_bias) b = rng->Normal(0.0, 0.3);

  // Random permutations so the Zipf head is not always the low ids.
  std::vector<int64_t> user_rank(static_cast<size_t>(config.num_users));
  for (int64_t u = 0; u < config.num_users; ++u)
    user_rank[static_cast<size_t>(u)] = u;
  rng->Shuffle(&user_rank);
  std::vector<int64_t> item_rank(static_cast<size_t>(config.num_items));
  for (int64_t i = 0; i < config.num_items; ++i)
    item_rank[static_cast<size_t>(i)] = i;
  rng->Shuffle(&item_rank);

  // --- Ratings: user by activity Zipf, item by popularity Zipf. ---
  const int64_t max_ratings =
      std::min<int64_t>(config.num_ratings,
                        config.num_users * config.num_items);
  std::unordered_set<uint64_t> rated;
  rated.reserve(static_cast<size_t>(max_ratings) * 2);
  int64_t attempts = 0;
  const int64_t max_attempts = max_ratings * 50;
  while (static_cast<int64_t>(dataset.ratings.size()) < max_ratings &&
         attempts < max_attempts) {
    ++attempts;
    const int64_t u = user_rank[static_cast<size_t>(
        rng->Zipf(config.num_users, kUserActivityAlpha))];
    const int64_t i = item_rank[static_cast<size_t>(
        rng->Zipf(config.num_items, kItemPopularityAlpha))];
    const uint64_t key =
        (static_cast<uint64_t>(u) << 32) | static_cast<uint64_t>(i);
    if (!rated.insert(key).second) continue;
    const double value =
        DrawRating(item_quality[static_cast<size_t>(i)],
                   user_bias[static_cast<size_t>(u)], rng);
    dataset.ratings.push_back({u, i, value});
  }

  // Guarantee every user rates at least one item (keeps training sane).
  std::vector<int64_t> user_count(static_cast<size_t>(config.num_users), 0);
  for (const Rating& r : dataset.ratings)
    ++user_count[static_cast<size_t>(r.user)];
  for (int64_t u = 0; u < config.num_users; ++u) {
    if (user_count[static_cast<size_t>(u)] > 0) continue;
    for (int64_t tries = 0; tries < 100; ++tries) {
      const int64_t i = item_rank[static_cast<size_t>(
          rng->Zipf(config.num_items, kItemPopularityAlpha))];
      const uint64_t key =
          (static_cast<uint64_t>(u) << 32) | static_cast<uint64_t>(i);
      if (rated.insert(key).second) {
        dataset.ratings.push_back(
            {u, i,
             DrawRating(item_quality[static_cast<size_t>(i)],
                        user_bias[static_cast<size_t>(u)], rng)});
        break;
      }
    }
  }

  // --- Social network: Zipf endpoints + triadic closure. ---
  const int64_t max_links = std::min<int64_t>(
      config.num_social_links,
      config.num_users * (config.num_users - 1) / 2);
  int64_t link_attempts = 0;
  const int64_t max_link_attempts = max_links * 60 + 1000;
  while (dataset.social.num_edges() < max_links &&
         link_attempts < max_link_attempts) {
    ++link_attempts;
    const bool close_triangle =
        dataset.social.num_edges() > 8 &&
        rng->Bernoulli(config.triadic_closure_fraction);
    if (close_triangle) {
      const int64_t a = rng->UniformInt(config.num_users);
      const auto& na = dataset.social.Neighbors(a);
      if (na.size() < 2) continue;
      const int64_t b = na[static_cast<size_t>(
          rng->UniformInt(static_cast<int64_t>(na.size())))];
      const auto& nb = dataset.social.Neighbors(b);
      const int64_t c = nb[static_cast<size_t>(
          rng->UniformInt(static_cast<int64_t>(nb.size())))];
      if (c != a) dataset.social.AddEdge(a, c);
    } else {
      const int64_t a = user_rank[static_cast<size_t>(
          rng->Zipf(config.num_users, config.social_degree_alpha))];
      const int64_t b = user_rank[static_cast<size_t>(
          rng->Zipf(config.num_users, config.social_degree_alpha))];
      dataset.social.AddEdge(a, b);
    }
  }

  // --- Item graph from co-rating overlap (paper construction). ---
  std::vector<RaterRecord> records;
  records.reserve(dataset.ratings.size());
  for (const Rating& r : dataset.ratings)
    records.push_back({r.user, r.item});
  ItemGraphOptions item_options;
  item_options.overlap_fraction = kItemGraphOverlap;
  dataset.items = BuildItemGraph(records, config.num_items, item_options);

  const Status status = dataset.Validate();
  MSOPDS_CHECK(status.ok()) << status.ToString();
  return dataset;
}

}  // namespace msopds
