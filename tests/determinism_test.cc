// End-to-end determinism of the one parallel loop inside a campaign: the
// offline PPR precompute fans its seed blocks out over
// estimator.ppr.num_threads threads, while the online path runs one thread
// per request. A full journaled campaign on the ItemCompare generator must
// write the same journal, snapshot and deterministic-metrics bytes at any
// PPR thread count, and a journal recorded at one count must restore
// under another.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/icrowd.h"
#include "datagen/itemcompare.h"
#include "journal/journal.h"
#include "obs/metrics.h"
#include "sim/campaign_driver.h"

namespace icrowd {
namespace {

constexpr size_t kNumWorkers = 12;

Dataset SmallItemCompare() {
  ItemCompareOptions options;
  options.tasks_per_domain = 30;
  auto ds = GenerateItemCompare(options);
  EXPECT_TRUE(ds.ok());
  return ds.MoveValueOrDie();
}

ICrowdConfig MakeConfig(uint64_t seed, size_t ppr_threads) {
  ICrowdConfig config;
  config.seed = seed;
  config.estimator.ppr.num_threads = ppr_threads;
  return config;
}

obs::ExportOptions DeterministicExport() {
  obs::ExportOptions options;
  options.deterministic = true;
  options.include_spans = false;
  options.include_events = false;
  return options;
}

struct CampaignRun {
  std::vector<uint8_t> journal;
  std::vector<uint8_t> snapshot;
  std::vector<Label> results;
  std::string det_metrics;
};

/// One journaled campaign driven to completion through the platform API.
CampaignRun RunCampaign(uint64_t seed, size_t ppr_threads) {
  obs::MetricsRegistry::Global().ResetForTesting();
  Dataset dataset = SmallItemCompare();
  std::vector<WorkerProfile> profiles = GenerateItemCompareWorkers(dataset);
  ICrowdConfig config = MakeConfig(seed, ppr_threads);
  auto sink = std::make_shared<VectorSink>();
  config.journal_sink = sink;
  auto system = ICrowd::Create(std::move(dataset), config).MoveValueOrDie();
  CampaignDriverOptions options;
  options.seed = seed;
  auto outcome = DriveCampaign(system.get(), profiles, kNumWorkers, options);
  EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome.ok() && outcome->finished);
  CampaignRun run;
  run.journal = sink->bytes();
  run.snapshot = system->Snapshot().MoveValueOrDie();
  run.results = system->Results();
  run.det_metrics =
      obs::MetricsRegistry::Global().ExportJsonlString(DeterministicExport());
  return run;
}

class DeterminismTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DeterminismTest, ThreadCountNeverChangesCampaignResults) {
  CampaignRun serial = RunCampaign(GetParam(), 1);
  ASSERT_FALSE(serial.results.empty());
  for (size_t threads : {size_t{2}, size_t{8}}) {
    SCOPED_TRACE(std::to_string(threads) + " PPR threads vs 1");
    CampaignRun parallel = RunCampaign(GetParam(), threads);
    EXPECT_EQ(serial.journal, parallel.journal);
    EXPECT_EQ(serial.snapshot, parallel.snapshot);
    EXPECT_EQ(serial.results, parallel.results);
  }
}

TEST_P(DeterminismTest, MetricDumpsAreBitIdenticalAcrossThreadCounts) {
  // The observability layer honors the same contract: a deterministic dump
  // (counters, histograms — everything registered deterministic) is the
  // same bytes whichever PPR thread count built the campaign. Doubles are
  // accumulated fixed-point, so shard merges are integer sums.
  std::string serial = RunCampaign(GetParam(), 1).det_metrics;
  ASSERT_FALSE(serial.empty());
  for (size_t threads : {size_t{2}, size_t{8}}) {
    EXPECT_EQ(serial, RunCampaign(GetParam(), threads).det_metrics)
        << "deterministic metric export depends on PPR thread count "
        << threads;
  }
  obs::MetricsRegistry::Global().ResetForTesting();
}

TEST_P(DeterminismTest, JournalRecordedAtOnePprThreadRestoresUnderEight) {
  // The fingerprint leaves ppr.num_threads out, so recovery may change it.
  CampaignRun live = RunCampaign(GetParam(), 1);
  auto restored = ICrowd::Restore(SmallItemCompare(),
                                  MakeConfig(GetParam(), 8), {}, live.journal);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->Results(), live.results);
  auto snapshot = (*restored)->Snapshot();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(*snapshot, live.snapshot);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismTest,
                         ::testing::Values(1u, 7u, 42u),
                         [](const auto& param_info) {
                           return "Seed" + std::to_string(param_info.param);
                         });

}  // namespace
}  // namespace icrowd
