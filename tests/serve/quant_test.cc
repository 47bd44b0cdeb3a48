// Quantized-serving contract tests (`ctest -L quant`, DESIGN.md §15):
// int8 quantize/dequantize round-trip bounds, int8 kernel dispatch-vs-
// scalar bit parity over every vector-tail remainder class, the fixed
// int8 score association, per-precision top-K bit-identity across
// threads and SIMD on/off, int8 ranking parity (NDCG / hit rate vs the
// fp64 reference) for the MF and HetRecSys victims, deterministic tie order,
// and precision hot-swap under live traffic.

#include "serve/quantize.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "data/synthetic.h"
#include "recsys/het_recsys.h"
#include "recsys/matrix_factorization.h"
#include "recsys/trainer.h"
#include "serve/engine.h"
#include "serve/model_snapshot.h"
#include "serve/topk.h"
#include "tensor/simd.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace msopds {
namespace serve {
namespace {

Dataset SmallWorld(uint64_t seed = 21) {
  SyntheticConfig config;
  config.num_users = 40;
  config.num_items = 60;
  config.num_ratings = 500;
  config.num_social_links = 150;
  Rng rng(seed);
  return GenerateSynthetic(config, &rng);
}

// --- round-trip bounds ---------------------------------------------------

TEST(QuantRoundTripTest, Int8RoundTripWithinHalfStep) {
  const int64_t rows = 48, dim = 24;
  Rng rng(32);
  std::vector<double> block(static_cast<size_t>(rows * dim));
  for (double& v : block) v = rng.Uniform() * 6.0 - 3.0;
  for (int64_t j = 0; j < dim; ++j) block[static_cast<size_t>(j)] = 0.0;
  std::vector<int8_t> codes;
  std::vector<float> scales;
  QuantizeRowsInt8(block.data(), rows, dim, &codes, &scales);
  ASSERT_EQ(codes.size(), block.size());
  ASSERT_EQ(scales.size(), static_cast<size_t>(rows));
  for (int64_t r = 0; r < rows; ++r) {
    const double scale = static_cast<double>(scales[static_cast<size_t>(r)]);
    for (int64_t j = 0; j < dim; ++j) {
      const double v = block[static_cast<size_t>(r * dim + j)];
      const double deq =
          static_cast<double>(codes[static_cast<size_t>(r * dim + j)]) * scale;
      // Half a quantization step, widened a binary32 ulp for the scale's
      // own rounding.
      ASSERT_LE(std::fabs(deq - v), scale * 0.5 * (1.0 + 1e-6))
          << "row " << r << " j " << j;
    }
  }
  // The planted all-zero row must get scale 0 and all-zero codes.
  EXPECT_EQ(scales[0], 0.0f);
  for (int64_t j = 0; j < dim; ++j) EXPECT_EQ(codes[static_cast<size_t>(j)], 0);
}

// --- kernel dispatch parity over every remainder class -------------------

// The AVX2 and NEON int8 pipelines are 16-wide, so n in [0, 48] covers
// every n mod 16 tail the vector loops can take. SetBackendForTesting
// pins the scalar reference for the B arm.
TEST(QuantKernelParityTest, DotI8DispatchMatchesScalarForAllRemainders) {
  Rng rng(33);
  for (int64_t n = 0; n <= 48; ++n) {
    std::vector<int8_t> a(static_cast<size_t>(n)), b(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      a[static_cast<size_t>(i)] = static_cast<int8_t>(rng.UniformInt(255) - 127);
      b[static_cast<size_t>(i)] = static_cast<int8_t>(rng.UniformInt(255) - 127);
    }
    if (n > 0) {
      a[0] = 127;  // saturated codes exercise the widening paths
      b[static_cast<size_t>(n - 1)] = -127;
    }
    const int32_t active = simd::DotI8(a.data(), b.data(), n);
    const simd::Backend prev =
        simd::internal::SetBackendForTesting(simd::Backend::kScalar);
    const int32_t scalar = simd::DotI8(a.data(), b.data(), n);
    simd::internal::SetBackendForTesting(prev);
    ASSERT_EQ(active, scalar) << "n=" << n;
  }
}

// --- the fixed int8 score association ------------------------------------

// An int8 snapshot's Score must equal the documented recipe exactly:
// ((double)DotI8 * user_scale) * item_scale + biases + offset, with the
// codes and scales QuantizeRowsInt8 produces for the exported rows.
TEST(QuantScoreTest, Int8ScoreMatchesDequantizedReference) {
  const int64_t users = 6, items = 9, dim = 12;
  Rng rng(35);
  std::vector<double> uf(static_cast<size_t>(users * dim)),
      itf(static_cast<size_t>(items * dim));
  std::vector<double> ub(static_cast<size_t>(users)),
      ib(static_cast<size_t>(items));
  for (double& v : uf) v = rng.Normal();
  for (double& v : itf) v = rng.Normal();
  for (double& v : ub) v = rng.Normal() * 0.1;
  for (double& v : ib) v = rng.Normal() * 0.1;
  SnapshotOptions options;
  options.version = 9;
  const ModelSnapshot full(users, items, dim, uf, itf, ub, ib,
                           /*offset=*/3.25,
                           SeenItemsCsr::FromRatings(users, items, {}),
                           options);
  const auto quant = QuantizeSnapshot(full, SnapshotPrecision::kInt8);
  ASSERT_EQ(quant->precision(), SnapshotPrecision::kInt8);
  EXPECT_EQ(quant->version(), 9u);

  std::vector<int8_t> qu, qi;
  std::vector<float> su, si;
  QuantizeRowsInt8(uf.data(), users, dim, &qu, &su);
  QuantizeRowsInt8(itf.data(), items, dim, &qi, &si);
  for (int64_t u = 0; u < users; ++u) {
    for (int64_t i = 0; i < items; ++i) {
      const int32_t dot = simd::DotI8(qu.data() + u * dim,
                                      qi.data() + i * dim, dim);
      const double expected =
          (static_cast<double>(dot) *
           static_cast<double>(su[static_cast<size_t>(u)])) *
              static_cast<double>(si[static_cast<size_t>(i)]) +
          ub[static_cast<size_t>(u)] + ib[static_cast<size_t>(i)] + 3.25;
      ASSERT_EQ(quant->Score(u, i), expected) << "u=" << u << " i=" << i;
    }
  }
}

// --- per-precision bit-identity across threads and backends --------------

bool SameResult(const TopKResult& a, const TopKResult& b) {
  return a.k == b.k && a.items == b.items && a.counts == b.counts &&
         a.scores.size() == b.scores.size() &&
         std::memcmp(a.scores.data(), b.scores.data(),
                     a.scores.size() * sizeof(double)) == 0;
}

std::shared_ptr<const ModelSnapshot> TrainedMfSnapshot(
    const Dataset& world, SnapshotPrecision precision, int64_t dim) {
  Rng rng(1);
  MfConfig config;
  config.latent_dim = dim;
  MatrixFactorization model(world.num_users, world.num_items, config, 3.5,
                            &rng);
  TrainOptions options;
  options.epochs = 5;
  TrainModel(&model, world.ratings, options);
  SnapshotOptions snapshot_options;
  snapshot_options.version = 1;
  snapshot_options.precision = precision;
  return ModelSnapshot::FromModel(&model, world, snapshot_options);
}

// Score() + SelectTopK per user, packed like TopKForUsers' result.
TopKResult ReferenceTopK(const ModelSnapshot& snapshot,
                         const std::vector<int64_t>& users,
                         const TopKOptions& options) {
  std::vector<std::vector<ScoredItem>> per_user;
  for (const int64_t user : users) {
    std::vector<double> scores;
    for (int64_t i = 0; i < snapshot.num_items(); ++i) {
      scores.push_back(snapshot.Score(user, i));
    }
    per_user.push_back(SelectTopK(scores.data(), snapshot.num_items(),
                                  options.k, snapshot.seen().Row(user),
                                  snapshot.seen().RowSize(user)));
  }
  return PackTopK(per_user, options.k);
}

// A random fp64 snapshot whose 9,001-item catalogue spans three of
// TopKForUsers' item blocks, so the per-block lists go through the
// merge; each user has seen a few items on either side of a block edge.
std::shared_ptr<const ModelSnapshot> MultiBlockSnapshot(int64_t dim) {
  const int64_t users = 12, items = 9001;
  Rng rng(36);
  std::vector<double> uf(static_cast<size_t>(users * dim)),
      itf(static_cast<size_t>(items * dim));
  for (double& v : uf) v = rng.Normal();
  for (double& v : itf) v = rng.Normal();
  std::vector<Rating> seen;
  for (int64_t u = 0; u < users; ++u) {
    for (const int64_t item : {int64_t{4095}, int64_t{4096}, 4100 + u}) {
      seen.push_back({u, item, 4.0});
    }
  }
  SnapshotOptions options;
  options.version = 1;
  return std::make_shared<const ModelSnapshot>(
      users, items, dim, std::move(uf), std::move(itf),
      std::vector<double>{}, std::vector<double>{}, /*offset=*/0.0,
      SeenItemsCsr::FromRatings(users, items, seen), options);
}

// Dim 8 is MfConfig's default and stays inside DotI8's scalar tail;
// dim 24 also runs its 16-wide vector body. The trained snapshots have
// 60 items (one block of the top-K grid); the random one has 9,001.
TEST(QuantTopKTest, BitIdenticalAcrossThreadsAndBackendsPerPrecision) {
  const Dataset world = SmallWorld();
  TopKOptions options;
  options.k = 10;
  ThreadPool& pool = ThreadPool::Global();
  const int previous = pool.num_threads();
  for (const int64_t dim : {int64_t{8}, int64_t{24}}) {
    for (const SnapshotPrecision precision :
         {SnapshotPrecision::kFp64, SnapshotPrecision::kInt8}) {
      const std::shared_ptr<const ModelSnapshot> multi_block =
          precision == SnapshotPrecision::kFp64
              ? MultiBlockSnapshot(dim)
              : QuantizeSnapshot(*MultiBlockSnapshot(dim), precision);
      for (const auto& snapshot :
           {TrainedMfSnapshot(world, precision, dim), multi_block}) {
        ASSERT_EQ(snapshot->precision(), precision);
        ASSERT_EQ(snapshot->dim(), dim);
        std::vector<int64_t> users(static_cast<size_t>(snapshot->num_users()));
        std::iota(users.begin(), users.end(), 0);
        const std::string input = std::string("precision ") +
                                  SnapshotPrecisionName(precision) +
                                  ", dim " + std::to_string(dim) + ", " +
                                  std::to_string(snapshot->num_items()) +
                                  " items";
        pool.SetNumThreads(1);
        const TopKResult t1 = TopKForUsers(*snapshot, users, options);
        pool.SetNumThreads(4);
        const TopKResult t4 = TopKForUsers(*snapshot, users, options);
        pool.SetNumThreads(1);
        const simd::Backend prev =
            simd::internal::SetBackendForTesting(simd::Backend::kScalar);
        const TopKResult scalar = TopKForUsers(*snapshot, users, options);
        simd::internal::SetBackendForTesting(prev);
        EXPECT_TRUE(SameResult(t1, t4)) << "threads 1 vs 4, " << input;
        EXPECT_TRUE(SameResult(t1, scalar)) << "vector vs scalar, " << input;
        EXPECT_TRUE(SameResult(t1, ReferenceTopK(*snapshot, users, options)))
            << "TopKForUsers vs Score + SelectTopK, " << input;
      }
    }
  }
  pool.SetNumThreads(previous);
}

// --- cross-precision ranking parity --------------------------------------

// NDCG of the quantized list against the fp64 list as graded ground
// truth (reference rank r gets gain k - r), normalized by the reference
// list's own DCG, averaged over users.
double MeanNdcg(const TopKResult& reference, const TopKResult& quantized,
                int64_t num_users, int k) {
  double total = 0.0;
  for (int64_t u = 0; u < num_users; ++u) {
    const int64_t* ref = reference.ItemsForUser(u);
    const int64_t* got = quantized.ItemsForUser(u);
    double dcg = 0.0, idcg = 0.0;
    for (int r = 0; r < k; ++r) {
      const double discount = 1.0 / std::log2(static_cast<double>(r) + 2.0);
      idcg += static_cast<double>(k - r) * discount;
      if (got[r] < 0) continue;
      for (int s = 0; s < k; ++s) {
        if (ref[s] == got[r]) {
          dcg += static_cast<double>(k - s) * discount;
          break;
        }
      }
    }
    total += idcg > 0.0 ? dcg / idcg : 1.0;
  }
  return num_users > 0 ? total / static_cast<double>(num_users) : 1.0;
}

// Fraction of users whose fp64 top-1 item survives in the quantized
// top-k (the serving analogue of HitRate@k with the reference winner as
// the target).
double Top1HitRate(const TopKResult& reference, const TopKResult& quantized,
                   int64_t num_users, int k) {
  int64_t hits = 0;
  for (int64_t u = 0; u < num_users; ++u) {
    const int64_t top1 = reference.ItemsForUser(u)[0];
    const int64_t* got = quantized.ItemsForUser(u);
    for (int r = 0; r < k; ++r) {
      if (got[r] == top1) {
        ++hits;
        break;
      }
    }
  }
  return num_users > 0
             ? static_cast<double>(hits) / static_cast<double>(num_users)
             : 1.0;
}

void ExpectRankingParity(RatingModel* model, const Dataset& world,
                         const char* tag) {
  std::vector<int64_t> users(static_cast<size_t>(world.num_users));
  std::iota(users.begin(), users.end(), 0);
  TopKOptions options;
  options.k = 10;
  const auto fp64 = ModelSnapshot::FromModel(model, world);
  ThreadPool& pool = ThreadPool::Global();
  const int previous = pool.num_threads();
  pool.SetNumThreads(1);
  const TopKResult reference = TopKForUsers(*fp64, users, options);
  const auto quant = QuantizeSnapshot(*fp64, SnapshotPrecision::kInt8);
  const TopKResult q1 = TopKForUsers(*quant, users, options);
  pool.SetNumThreads(4);
  const TopKResult q4 = TopKForUsers(*quant, users, options);
  pool.SetNumThreads(previous);
  // Parity metrics are computed from the threads=1 list; threads=4 must
  // produce the same bits, so the bounds cover both.
  EXPECT_TRUE(SameResult(q1, q4)) << tag << " int8";
  const double ndcg = MeanNdcg(reference, q1, world.num_users, options.k);
  const double hit = Top1HitRate(reference, q1, world.num_users, options.k);
  EXPECT_GE(ndcg, 0.85) << tag << " int8 NDCG";
  EXPECT_GE(hit, 0.80) << tag << " int8 top-1 hit rate";
}

TEST(QuantRankingParityTest, MatrixFactorization) {
  const Dataset world = SmallWorld();
  Rng rng(1);
  MatrixFactorization model(world.num_users, world.num_items, MfConfig{}, 3.5,
                            &rng);
  TrainOptions options;
  options.epochs = 5;
  TrainModel(&model, world.ratings, options);
  ExpectRankingParity(&model, world, "mf");
}

TEST(QuantRankingParityTest, HetRecSys) {
  const Dataset world = SmallWorld();
  Rng rng(3);
  HetRecSys model(world, HetRecSysConfig{}, &rng);
  ExpectRankingParity(&model, world, "het_recsys");
}

// --- deterministic tie order ---------------------------------------------

// All-zero factors make every score equal the offset at every precision,
// so RanksBefore's item-ascending tie break must yield items 0..k-1 for
// every user — quantization must not perturb the total order on ties.
TEST(QuantTieOrderTest, ZeroFactorsGiveAscendingItemIds) {
  const int64_t users = 5, items = 20, dim = 8;
  const ModelSnapshot full(
      users, items, dim,
      std::vector<double>(static_cast<size_t>(users * dim), 0.0),
      std::vector<double>(static_cast<size_t>(items * dim), 0.0), {}, {},
      /*offset=*/1.5, SeenItemsCsr::FromRatings(users, items, {}),
      SnapshotOptions{});
  std::vector<int64_t> all_users(static_cast<size_t>(users));
  std::iota(all_users.begin(), all_users.end(), 0);
  TopKOptions options;
  options.k = 6;
  options.exclude_seen = false;
  for (const SnapshotPrecision precision :
       {SnapshotPrecision::kFp64, SnapshotPrecision::kInt8}) {
    const std::shared_ptr<const ModelSnapshot> snapshot =
        precision == SnapshotPrecision::kFp64
            ? std::shared_ptr<const ModelSnapshot>(&full, [](auto*) {})
            : QuantizeSnapshot(full, precision);
    const TopKResult result = TopKForUsers(*snapshot, all_users, options);
    for (int64_t u = 0; u < users; ++u) {
      for (int r = 0; r < options.k; ++r) {
        ASSERT_EQ(result.ItemsForUser(u)[r], r)
            << SnapshotPrecisionName(precision) << " user " << u;
        ASSERT_EQ(result.ScoresForUser(u)[r], 1.5);
      }
    }
  }
}

// --- precision hot-swap under traffic ------------------------------------

// Publishing fp64 -> int8 -> fp64 while a client hammers the engine must
// never produce a response whose (version, precision) pair disagrees
// with what was published, and each regime must actually be observed.
TEST(QuantHotSwapTest, PrecisionFollowsPublishUnderTraffic) {
  const Dataset world = SmallWorld();
  Rng rng(1);
  MatrixFactorization model(world.num_users, world.num_items, MfConfig{}, 3.5,
                            &rng);
  TrainOptions train_options;
  train_options.epochs = 2;
  TrainModel(&model, world.ratings, train_options);
  auto snapshot_at = [&](uint64_t version, SnapshotPrecision precision) {
    SnapshotOptions options;
    options.version = version;
    options.precision = precision;
    return ModelSnapshot::FromModel(&model, world, options);
  };

  ServingEngine engine;
  engine.Publish(snapshot_at(1, SnapshotPrecision::kFp64));

  std::atomic<bool> stop{false};
  std::atomic<int64_t> bad_pairs{0};
  std::thread client([&] {
    uint64_t user = 0;
    while (!stop.load()) {
      ServeRequest request;
      request.user = static_cast<int64_t>(user++ % world.num_users);
      request.k = 5;
      const ServeResponse response = engine.ServeSync(request);
      const bool ok =
          (response.snapshot_version == 1 &&
           response.snapshot_precision == SnapshotPrecision::kFp64) ||
          (response.snapshot_version == 2 &&
           response.snapshot_precision == SnapshotPrecision::kInt8) ||
          (response.snapshot_version == 3 &&
           response.snapshot_precision == SnapshotPrecision::kFp64);
      if (!ok) bad_pairs.fetch_add(1);
    }
  });

  auto observe = [&](uint64_t version, SnapshotPrecision precision) {
    // The engine serves the new snapshot as soon as Publish returns.
    ServeRequest request;
    request.user = 0;
    request.k = 5;
    const ServeResponse response = engine.ServeSync(request);
    EXPECT_EQ(response.snapshot_version, version);
    EXPECT_EQ(response.snapshot_precision, precision);
  };
  observe(1, SnapshotPrecision::kFp64);
  engine.Publish(snapshot_at(2, SnapshotPrecision::kInt8));
  observe(2, SnapshotPrecision::kInt8);
  engine.Publish(snapshot_at(3, SnapshotPrecision::kFp64));
  observe(3, SnapshotPrecision::kFp64);

  stop.store(true);
  client.join();
  EXPECT_EQ(bad_pairs.load(), 0);
}

}  // namespace
}  // namespace serve
}  // namespace msopds
