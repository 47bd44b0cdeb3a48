#ifndef MSOPDS_DEFENSE_FAKE_DETECTOR_H_
#define MSOPDS_DEFENSE_FAKE_DETECTOR_H_

#include <vector>

#include "data/dataset.h"

namespace msopds {

/// Extension of the paper's §VI-F observation ("website moderators
/// usually detect and remove fake user accounts"): a behavioural
/// fake-account detector in the spirit of graph-based Sybil/shill
/// detection. It scores every user by
///  - extremity: fraction of the user's ratings at the scale endpoints,
///  - deviation: mean |rating - item mean| against the crowd,
///  - isolation: social degree relative to the platform average,
/// and flags the highest-scoring accounts. Injected shilling profiles
/// (many 5-stars, weakly embedded) score high; hired *real* users score
/// like everyone else — which is exactly why the paper argues real-user
/// poisoning is the more durable channel (Fig. 9 discussion).
///
/// Per-user suspicion scores in [0, ~3]: the plain sum of the three
/// terms. Users with no ratings score 0 (no evidence).
std::vector<double> SuspicionScores(const Dataset& dataset);

/// The `count` most suspicious users (ties by lower id).
std::vector<int64_t> DetectFakeUsers(const Dataset& dataset, int64_t count);

/// Moderation: removes the given users (their ratings and social links)
/// and compacts ids. Returns the cleaned dataset and, via `id_map`,
/// old-id -> new-id (-1 for removed users) when non-null.
Dataset RemoveUsers(const Dataset& dataset,
                    const std::vector<int64_t>& users,
                    std::vector<int64_t>* id_map = nullptr);

}  // namespace msopds

#endif  // MSOPDS_DEFENSE_FAKE_DETECTOR_H_
