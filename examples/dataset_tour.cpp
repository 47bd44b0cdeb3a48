// Dataset tour: the data substrate on its own.
//
// Generates the three synthetic profiles calibrated to the paper's
// datasets (Ciao / Epinions / LibraryThing), prints their structural
// statistics, demonstrates the core-user preprocessing filter, and round
// trips one dataset through the TSV loader (the path for plugging in the
// real public dumps).
//
// Build & run:  ./build/examples/dataset_tour [scale]
// (scale in [0.002, 100], default 0.15)

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>

#include "data/synthetic.h"
#include "data/tsv_loader.h"
#include "graph/graph_stats.h"
#include "util/flags.h"

using msopds::ComputeGraphStats;
using msopds::Dataset;
using msopds::GraphStats;
using msopds::Rng;

int main(int argc, char** argv) {
  double scale = 0.15;
  msopds::FlagSet flags(argv[0]);
  flags.Double("scale", &scale, msopds::kMinProfileScale,
               msopds::kMaxProfileScale);
  const msopds::Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) return msopds::UsageError(parsed);

  for (const auto& config :
       {msopds::CiaoProfile(scale), msopds::EpinionsProfile(scale),
        msopds::LibraryThingProfile(scale)}) {
    Rng rng(99);
    const Dataset d = msopds::GenerateSynthetic(config, &rng);
    std::printf("%s\n", d.Summary().c_str());
    std::printf("  social: %s\n",
                ComputeGraphStats(d.social).ToString().c_str());
    std::printf("  items:  %s\n",
                ComputeGraphStats(d.items).ToString().c_str());

    const Dataset core = msopds::FilterCoreUsers(d, /*min_friends=*/5,
                                                 /*min_ratings=*/1);
    std::printf("  core filter (>=5 friends, >=1 rating): %lld -> %lld "
                "users\n\n",
                static_cast<long long>(d.num_users),
                static_cast<long long>(core.num_users));
  }

  // TSV round trip: this is how the real Ciao/Epinions/LibraryThing dumps
  // are ingested ("user item rating" + "user user" files). The files go
  // to a fresh temporary directory, removed again afterwards.
  Rng rng(123);
  const Dataset sample =
      msopds::GenerateSynthetic(msopds::CiaoProfile(0.03), &rng);
  std::string dir =
      (std::filesystem::temp_directory_path() / "msopds-tour-XXXXXX")
          .string();
  if (::mkdtemp(dir.data()) == nullptr) {
    std::perror("mkdtemp");
    return 1;
  }
  const std::string ratings_path = dir + "/ratings.tsv";
  const std::string trust_path = dir + "/trust.tsv";
  msopds::Status status = msopds::SaveTsv(sample, ratings_path, trust_path);
  if (status.ok()) {
    auto loaded = msopds::LoadTsv(ratings_path, trust_path);
    status = loaded.status();
    if (loaded.ok()) {
      std::printf("TSV round trip: wrote %zu ratings, read back %zu (%s)\n",
                  sample.ratings.size(), loaded.value().ratings.size(),
                  loaded.value().Summary().c_str());
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  if (!status.ok()) {
    std::fprintf(stderr, "TSV round trip failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  std::printf(
      "\nTo run the suite on the real public dumps, convert them to the\n"
      "two-file TSV format above and load with msopds::LoadTsv, then\n"
      "apply msopds::FilterCoreUsers(d, 15, 1) as in the paper.\n");
  return 0;
}
