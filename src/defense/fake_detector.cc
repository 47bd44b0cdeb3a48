#include "defense/fake_detector.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_set>

#include "util/logging.h"

namespace msopds {

std::vector<double> SuspicionScores(const Dataset& dataset) {
  const int64_t users = dataset.num_users;
  std::vector<double> extremity(static_cast<size_t>(users), 0.0);
  std::vector<double> deviation(static_cast<size_t>(users), 0.0);
  std::vector<int64_t> count(static_cast<size_t>(users), 0);

  const std::vector<double> item_mean = dataset.ItemAverageRatings();
  for (const Rating& r : dataset.ratings) {
    const size_t u = static_cast<size_t>(r.user);
    ++count[u];
    if (r.value == kMinRating || r.value == kMaxRating) extremity[u] += 1.0;
    deviation[u] +=
        std::fabs(r.value - item_mean[static_cast<size_t>(r.item)]);
  }

  double mean_degree = 0.0;
  for (int64_t u = 0; u < users; ++u) {
    mean_degree += static_cast<double>(dataset.social.Degree(u));
  }
  mean_degree = std::max(1.0, mean_degree / std::max<int64_t>(1, users));

  std::vector<double> scores(static_cast<size_t>(users), 0.0);
  for (int64_t u = 0; u < users; ++u) {
    const size_t i = static_cast<size_t>(u);
    if (count[i] == 0) continue;
    const double n = static_cast<double>(count[i]);
    const double extremity_rate = extremity[i] / n;
    // Normalize deviation to roughly [0, 1] (max deviation is 4 stars).
    const double deviation_rate = deviation[i] / n / 4.0;
    const double isolation =
        1.0 / (1.0 + static_cast<double>(dataset.social.Degree(u)) /
                         mean_degree);
    scores[i] = extremity_rate + deviation_rate + isolation;
  }
  return scores;
}

std::vector<int64_t> DetectFakeUsers(const Dataset& dataset, int64_t count) {
  MSOPDS_CHECK_GE(count, 0);
  const std::vector<double> scores = SuspicionScores(dataset);
  std::vector<int64_t> order(scores.size());
  std::iota(order.begin(), order.end(), 0);
  const int64_t k =
      std::min<int64_t>(count, static_cast<int64_t>(order.size()));
  std::partial_sort(order.begin(), order.begin() + k, order.end(),
                    [&](int64_t a, int64_t b) {
                      const double sa = scores[static_cast<size_t>(a)];
                      const double sb = scores[static_cast<size_t>(b)];
                      if (sa != sb) return sa > sb;
                      return a < b;
                    });
  order.resize(static_cast<size_t>(k));
  return order;
}

Dataset RemoveUsers(const Dataset& dataset, const std::vector<int64_t>& users,
                    std::vector<int64_t>* id_map) {
  const std::unordered_set<int64_t> removed(users.begin(), users.end());
  std::vector<int64_t> map(static_cast<size_t>(dataset.num_users), -1);
  int64_t next = 0;
  for (int64_t u = 0; u < dataset.num_users; ++u) {
    if (removed.count(u) == 0) map[static_cast<size_t>(u)] = next++;
  }

  Dataset out;
  out.name = dataset.name + "-moderated";
  out.num_users = next;
  out.num_items = dataset.num_items;
  out.items = dataset.items;
  out.social = UndirectedGraph(next);
  for (const auto& [a, b] : dataset.social.Edges()) {
    const int64_t na = map[static_cast<size_t>(a)];
    const int64_t nb = map[static_cast<size_t>(b)];
    if (na >= 0 && nb >= 0) out.social.AddEdge(na, nb);
  }
  for (const Rating& r : dataset.ratings) {
    const int64_t nu = map[static_cast<size_t>(r.user)];
    if (nu >= 0) out.ratings.push_back({nu, r.item, r.value});
  }
  if (id_map != nullptr) *id_map = std::move(map);
  return out;
}

}  // namespace msopds
