#include <gtest/gtest.h>

#include <bit>
#include <functional>
#include <memory>
#include <set>

#include "core/clock.h"
#include "core/experiment.h"
#include "core/icrowd.h"
#include "core/strategy_factory.h"
#include "datagen/entity_resolution.h"
#include "datagen/worker_pool.h"
#include "obs/http/http_client.h"

namespace icrowd {
namespace {

Dataset TinyDataset() {
  Dataset ds("tiny");
  const char* texts[] = {
      "iphone four wifi 32gb", "iphone four 3g 16gb", "iphone four case",
      "iphone four charger",   "ipod nano headphone", "ipod touch wifi",
      "ipod touch 32gb",       "ipod nano 8gb",
  };
  for (size_t i = 0; i < 8; ++i) {
    Microtask t;
    t.text = texts[i];
    t.domain = i < 4 ? "iphone" : "ipod";
    t.ground_truth = (i % 2 == 0) ? kYes : kNo;
    ds.AddTask(std::move(t));
  }
  return ds;
}

ICrowdConfig TinyConfig() {
  ICrowdConfig config;
  config.num_qualification = 2;
  config.warmup.tasks_per_worker = 2;
  config.graph.measure = SimilarityMeasure::kJaccard;
  config.graph.threshold = 0.2;
  return config;
}

/// The campaign's offline PPR pass over TinyDataset's graph: what
/// MakeStrategy takes from qualification selection.
PprEngine TinyEngine(const Dataset& ds, const ICrowdConfig& config) {
  auto graph = SimilarityGraph::Build(ds, config.graph);
  EXPECT_TRUE(graph.ok());
  auto engine = PprEngine::Precompute(*graph, config.estimator.ppr);
  EXPECT_TRUE(engine.ok());
  return engine.MoveValueOrDie();
}

// -------------------------------------------------------- StrategyFactory --

TEST(StrategyFactoryTest, NamesAreStable) {
  EXPECT_STREQ(StrategyName(StrategyKind::kRandomMV), "RandomMV");
  EXPECT_STREQ(StrategyName(StrategyKind::kRandomEM), "RandomEM");
  EXPECT_STREQ(StrategyName(StrategyKind::kAvgAccPV), "AvgAccPV");
  EXPECT_STREQ(StrategyName(StrategyKind::kQfOnly), "QF-Only");
  EXPECT_STREQ(StrategyName(StrategyKind::kBestEffort), "BestEffort");
  EXPECT_STREQ(StrategyName(StrategyKind::kAdapt), "iCrowd");
}

TEST(StrategyFactoryTest, BuildsEveryStrategy) {
  Dataset ds = TinyDataset();
  ICrowdConfig config = TinyConfig();
  for (StrategyKind kind :
       {StrategyKind::kRandomMV, StrategyKind::kRandomEM,
        StrategyKind::kAvgAccPV, StrategyKind::kQfOnly,
        StrategyKind::kBestEffort, StrategyKind::kAdapt}) {
    auto strategy =
        MakeStrategy(kind, ds, TinyEngine(ds, config), config, {0, 4});
    ASSERT_TRUE(strategy.ok()) << StrategyName(kind);
    EXPECT_NE(strategy->assigner, nullptr);
    EXPECT_EQ(strategy->name, StrategyName(kind));
  }
}

TEST(StrategyFactoryTest, RandomBaselinesSkipElimination) {
  Dataset ds = TinyDataset();
  ICrowdConfig config = TinyConfig();
  auto mv = MakeStrategy(StrategyKind::kRandomMV, ds, TinyEngine(ds, config),
                         config, {});
  auto adapt = MakeStrategy(StrategyKind::kAdapt, ds, TinyEngine(ds, config),
                            config, {});
  ASSERT_TRUE(mv.ok());
  ASSERT_TRUE(adapt.ok());
  EXPECT_FALSE(mv->eliminate_bad_workers);
  EXPECT_TRUE(adapt->eliminate_bad_workers);
}

TEST(StrategyFactoryTest, EstimateBasedStrategiesExposeAccuracyFn) {
  Dataset ds = TinyDataset();
  ICrowdConfig config = TinyConfig();
  auto adapt = MakeStrategy(StrategyKind::kAdapt, ds, TinyEngine(ds, config),
                            config, {0});
  ASSERT_TRUE(adapt.ok());
  ASSERT_TRUE(adapt->accuracy_fn != nullptr);
  double p = adapt->accuracy_fn(0, 0);
  EXPECT_GT(p, 0.0);
  EXPECT_LT(p, 1.0);
}

// ------------------------------------------------------------ Experiment --

TEST(ExperimentTest, RunsEndToEndAndScores) {
  Dataset ds = TinyDataset();
  WorkerPoolOptions pool_options;
  pool_options.num_workers = 10;
  auto pool = GenerateWorkerPool(ds, pool_options);
  auto result = RunExperiment(ds, pool, TinyConfig(), StrategyKind::kAdapt);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->strategy_name, "iCrowd");
  EXPECT_EQ(result->predictions.size(), ds.size());
  EXPECT_EQ(result->qualification.tasks.size(), 2u);
  EXPECT_GT(result->report.num_tasks, 0u);
  EXPECT_GE(result->report.overall, 0.0);
  EXPECT_LE(result->report.overall, 1.0);
  EXPECT_EQ(result->report.per_domain.size(), 2u);
}

TEST(ExperimentTest, QualificationSelectionModes) {
  Dataset ds = TinyDataset();
  WorkerPoolOptions pool_options;
  pool_options.num_workers = 8;
  auto pool = GenerateWorkerPool(ds, pool_options);
  ICrowdConfig config = TinyConfig();
  config.qualification_greedy = false;
  auto random_qf = RunExperiment(ds, pool, config, StrategyKind::kRandomMV);
  ASSERT_TRUE(random_qf.ok());
  config.qualification_greedy = true;
  auto inf_qf = RunExperiment(ds, pool, config, StrategyKind::kRandomMV);
  ASSERT_TRUE(inf_qf.ok());
  // Greedy influence never loses to random selection on influence.
  EXPECT_GE(inf_qf->qualification.influence,
            random_qf->qualification.influence);
}

TEST(ExperimentTest, AggregatePredictionsDispatch) {
  Dataset ds = TinyDataset();
  SimulationResult sim;
  sim.consensus.assign(ds.size(), kYes);
  sim.work_answers = {{0, 0, kNo, 0.0}, {0, 1, kNo, 0.0}};
  Strategy consensus_strategy;
  consensus_strategy.aggregation = AggregationKind::kConsensus;
  auto via_consensus = AggregatePredictions(ds, consensus_strategy, sim);
  ASSERT_TRUE(via_consensus.ok());
  EXPECT_EQ((*via_consensus)[0], kYes);
  Strategy mv_strategy;
  mv_strategy.aggregation = AggregationKind::kMajorityVote;
  auto via_mv = AggregatePredictions(ds, mv_strategy, sim);
  ASSERT_TRUE(via_mv.ok());
  EXPECT_EQ((*via_mv)[0], kNo);
  Strategy pv_strategy;
  pv_strategy.aggregation = AggregationKind::kProbabilisticVerification;
  EXPECT_FALSE(AggregatePredictions(ds, pv_strategy, sim).ok());  // no fn
}

TEST(ExperimentTest, FailsOnEmptyDataset) {
  Dataset empty("empty");
  std::vector<WorkerProfile> pool(3);
  auto result =
      RunExperiment(empty, pool, TinyConfig(), StrategyKind::kRandomMV);
  EXPECT_FALSE(result.ok());
}

// ---------------------------------------------------------------- ICrowd --

TEST(ICrowdTest, CreateValidates) {
  ICrowdConfig config = TinyConfig();
  Dataset empty("empty");
  EXPECT_FALSE(ICrowd::Create(empty, config).ok());
  config.assignment_size = 2;
  EXPECT_FALSE(ICrowd::Create(TinyDataset(), config).ok());
}

uint64_t SeedsSolved() {
  return obs::MetricsRegistry::Global().CounterValue(
      "icrowd.ppr.seeds_solved");
}

TEST(ICrowdTest, BadEstimatorConfigFailsBeforeAnyPprWork) {
  for (int which = 0; which < 2; ++which) {
    ICrowdConfig config = TinyConfig();
    if (which == 0) {
      config.estimator.default_accuracy = 1.5;
    } else {
      config.estimator.prior_strength = -1.0;
    }
    uint64_t before = SeedsSolved();
    auto created = ICrowd::Create(TinyDataset(), config);
    ASSERT_FALSE(created.ok());
    EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(SeedsSolved(), before) << "precompute ran for a bad config";
  }
}

TEST(ICrowdTest, CreateAndRestoreEachSolveEverySeedOnce) {
  // EntityResolution is the benchmark's campaign shape, scaled down.
  auto generated = GenerateEntityResolution();
  ASSERT_TRUE(generated.ok());
  Dataset dataset = generated.MoveValueOrDie();
  ICrowdConfig config;
  config.graph.measure = SimilarityMeasure::kJaccard;
  config.graph.threshold = 0.5;
  config.num_qualification = 4;

  uint64_t before = SeedsSolved();
  auto created = ICrowd::Create(dataset, config);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  EXPECT_EQ(SeedsSolved() - before, dataset.size());

  // The estimator serves exactly the vectors a fresh precompute solves.
  auto fresh = PprEngine::Precompute((*created)->graph(), config.estimator.ppr);
  ASSERT_TRUE(fresh.ok());
  const PprEngine& owned = (*created)->estimator().engine();
  ASSERT_EQ(owned.num_tasks(), fresh->num_tasks());
  for (size_t i = 0; i < owned.num_tasks(); ++i) {
    const SparseEntries& got = owned.SeedVector(i);
    const SparseEntries& want = fresh->SeedVector(i);
    ASSERT_EQ(got.size(), want.size()) << "seed " << i;
    for (size_t e = 0; e < got.size(); ++e) {
      ASSERT_EQ(got[e].first, want[e].first) << "seed " << i;
      ASSERT_EQ(std::bit_cast<uint64_t>(got[e].second),
                std::bit_cast<uint64_t>(want[e].second))
          << "seed " << i << " task " << got[e].first;
    }
  }

  auto snapshot = (*created)->Snapshot();
  ASSERT_TRUE(snapshot.ok());
  before = SeedsSolved();
  auto restored = ICrowd::Restore(dataset, config, *snapshot, {});
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(SeedsSolved() - before, dataset.size());
}

TEST(ICrowdTest, ServeObsBindsEphemeralPortAndStaysOffFingerprint) {
  ICrowdConfig config = TinyConfig();
  auto plain = ICrowd::Create(TinyDataset(), config);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ((*plain)->obs_port(), -1);

  HostConfig host;
  host.serve_obs_port = 0;  // ephemeral
  auto served = ICrowd::Create(TinyDataset(), config, host);
  ASSERT_TRUE(served.ok());
  ASSERT_GT((*served)->obs_port(), 0);
  obs::HttpResponse statusz =
      obs::HttpGet("127.0.0.1", (*served)->obs_port(), "/statusz");
  EXPECT_EQ(statusz.status, 200) << statusz.error;
  EXPECT_NE(statusz.body.find("=== icrowd statusz ==="), std::string::npos);
  // Execution knob: serving must not change the campaign's identity.
  EXPECT_EQ((*plain)->fingerprint(), (*served)->fingerprint());
}

TEST(ICrowdTest, HostConfigIsEntirelyOffFingerprint) {
  // The v2 config split's core guarantee: no HostConfig field enters the
  // campaign fingerprint, so a journal recorded under one execution shape
  // (shards, labels, journal layout) restores under any other.
  ICrowdConfig config = TinyConfig();
  auto reference = ICrowd::Create(TinyDataset(), config);
  ASSERT_TRUE(reference.ok());

  HostConfig host;
  host.num_shards = 8;
  host.campaign_label = "relabeled";
  host.journal_dir = "/tmp/elsewhere";
  host.fsync_journal = true;
  host.queue_capacity = 7;
  host.max_batch = 3;
  auto reshaped = ICrowd::Create(TinyDataset(), config, host);
  ASSERT_TRUE(reshaped.ok());
  EXPECT_EQ((*reference)->fingerprint(), (*reshaped)->fingerprint());

  // Decision-relevant config must still move the fingerprint.
  config.assignment_size += 2;
  auto different = ICrowd::Create(TinyDataset(), config);
  ASSERT_TRUE(different.ok());
  EXPECT_NE((*reference)->fingerprint(), (*different)->fingerprint());
}

TEST(ICrowdTest, FingerprintCoversEveryDecisionField) {
  // One row per ICrowdConfig field, sub-structs included. A decision field
  // changes what the campaign decides, so it must change the fingerprint;
  // the injection points and the precompute's thread count must not.
  struct Row {
    const char* field;
    std::function<void(ICrowdConfig&)> perturb;
    bool decision;
  };
  const Row rows[] = {
      {"assignment_size", [](ICrowdConfig& c) { c.assignment_size = 5; },
       true},
      {"num_qualification", [](ICrowdConfig& c) { c.num_qualification = 3; },
       true},
      {"qualification_greedy",
       [](ICrowdConfig& c) { c.qualification_greedy = false; }, true},
      {"influence_epsilon",
       [](ICrowdConfig& c) { c.influence_epsilon = 0.01; }, true},
      {"graph.measure",
       [](ICrowdConfig& c) {
         c.graph.measure = SimilarityMeasure::kCosineTfIdf;
       },
       true},
      {"graph.threshold", [](ICrowdConfig& c) { c.graph.threshold = 0.3; },
       true},
      {"graph.max_neighbors",
       [](ICrowdConfig& c) { c.graph.max_neighbors = 2; }, true},
      {"graph.lda.num_topics",
       [](ICrowdConfig& c) { c.graph.lda.num_topics = 4; }, true},
      {"graph.lda.alpha", [](ICrowdConfig& c) { c.graph.lda.alpha = 0.2; },
       true},
      {"graph.lda.beta", [](ICrowdConfig& c) { c.graph.lda.beta = 0.1; },
       true},
      {"graph.lda.num_iterations",
       [](ICrowdConfig& c) { c.graph.lda.num_iterations = 150; }, true},
      {"graph.lda.burn_in", [](ICrowdConfig& c) { c.graph.lda.burn_in = 50; },
       true},
      {"graph.lda.sample_lag",
       [](ICrowdConfig& c) { c.graph.lda.sample_lag = 5; }, true},
      {"graph.lda.seed", [](ICrowdConfig& c) { c.graph.lda.seed = 43; }, true},
      {"estimator.ppr.alpha",
       [](ICrowdConfig& c) { c.estimator.ppr.alpha = 0.5; }, true},
      {"estimator.ppr.max_iterations",
       [](ICrowdConfig& c) { c.estimator.ppr.max_iterations = 100; }, true},
      {"estimator.ppr.tolerance",
       [](ICrowdConfig& c) { c.estimator.ppr.tolerance = 1e-2; }, true},
      {"estimator.ppr.prune_epsilon",
       [](ICrowdConfig& c) { c.estimator.ppr.prune_epsilon = 1e-6; }, true},
      {"estimator.default_accuracy",
       [](ICrowdConfig& c) { c.estimator.default_accuracy = 0.7; }, true},
      {"estimator.prior_strength",
       [](ICrowdConfig& c) { c.estimator.prior_strength = 0.05; }, true},
      {"estimator.min_mass",
       [](ICrowdConfig& c) { c.estimator.min_mass = 1e-6; }, true},
      {"estimator.confidence_weighting",
       [](ICrowdConfig& c) { c.estimator.confidence_weighting = false; },
       true},
      {"warmup.tasks_per_worker",
       [](ICrowdConfig& c) { c.warmup.tasks_per_worker = 1; }, true},
      {"warmup.rejection_threshold",
       [](ICrowdConfig& c) { c.warmup.rejection_threshold = 0.5; }, true},
      {"warmup.eliminate_bad_workers",
       [](ICrowdConfig& c) { c.warmup.eliminate_bad_workers = false; }, true},
      {"activity_window_seconds",
       [](ICrowdConfig& c) { c.activity_window_seconds = 60.0; }, true},
      {"seed", [](ICrowdConfig& c) { c.seed = 124; }, true},
      {"estimator.ppr.num_threads=1",
       [](ICrowdConfig& c) { c.estimator.ppr.num_threads = 1; }, false},
      {"estimator.ppr.num_threads=8",
       [](ICrowdConfig& c) { c.estimator.ppr.num_threads = 8; }, false},
      {"clock",
       [](ICrowdConfig& c) { c.clock = std::make_shared<ManualClock>(5.0); },
       false},
      {"journal_sink",
       [](ICrowdConfig& c) { c.journal_sink = std::make_shared<VectorSink>(); },
       false},
  };
  auto reference = ICrowd::Create(TinyDataset(), TinyConfig());
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  for (const Row& row : rows) {
    SCOPED_TRACE(row.field);
    ICrowdConfig config = TinyConfig();
    row.perturb(config);
    auto perturbed = ICrowd::Create(TinyDataset(), config);
    ASSERT_TRUE(perturbed.ok()) << perturbed.status().ToString();
    if (row.decision) {
      EXPECT_NE((*perturbed)->fingerprint(), (*reference)->fingerprint());
    } else {
      EXPECT_EQ((*perturbed)->fingerprint(), (*reference)->fingerprint());
    }
  }
}

TEST(ICrowdTest, FullPlatformLifecycle) {
  auto icrowd = ICrowd::Create(TinyDataset(), TinyConfig());
  ASSERT_TRUE(icrowd.ok());
  ICrowd& system = **icrowd;
  EXPECT_EQ(system.qualification_tasks().size(), 2u);
  EXPECT_FALSE(system.Finished());

  // Drive three perfectly accurate workers through the protocol.
  Dataset reference = TinyDataset();
  std::vector<WorkerId> workers;
  for (int i = 0; i < 3; ++i) {
    auto arrived = system.OnWorkerArrived();
    ASSERT_TRUE(arrived.ok());
    workers.push_back(*arrived);
  }
  bool progress = true;
  int guard = 0;
  while (!system.Finished() && progress && ++guard < 200) {
    progress = false;
    for (WorkerId w : workers) {
      if (system.Finished()) break;
      auto task = system.RequestTask(w);
      ASSERT_TRUE(task.ok()) << task.status().ToString();
      if (!task->has_value()) continue;
      progress = true;
      ASSERT_TRUE(
          system.SubmitAnswer(w, **task, *reference.task(**task).ground_truth)
              .ok());
    }
  }
  EXPECT_TRUE(system.Finished());
  std::vector<Label> results = system.Results();
  for (size_t t = 0; t < reference.size(); ++t) {
    EXPECT_EQ(results[t], *reference.task(static_cast<TaskId>(t)).ground_truth)
        << "task " << t;
  }
  for (WorkerId w : workers) {
    EXPECT_EQ(system.worker_status(w), ICrowd::WorkerStatus::kActive);
  }
}

TEST(ICrowdTest, RejectsBadWorkerAfterWarmup) {
  auto icrowd = ICrowd::Create(TinyDataset(), TinyConfig());
  ASSERT_TRUE(icrowd.ok());
  ICrowd& system = **icrowd;
  Dataset reference = TinyDataset();
  WorkerId w = *system.OnWorkerArrived();
  EXPECT_EQ(system.worker_status(w), ICrowd::WorkerStatus::kWarmup);
  // Answer all warm-up tasks wrong.
  for (;;) {
    auto task = system.RequestTask(w);
    ASSERT_TRUE(task.ok());
    if (!task->has_value()) break;
    Label wrong =
        *reference.task(**task).ground_truth == kYes ? kNo : kYes;
    ASSERT_TRUE(system.SubmitAnswer(w, **task, wrong).ok());
    if (system.worker_status(w) != ICrowd::WorkerStatus::kWarmup) break;
  }
  EXPECT_EQ(system.worker_status(w), ICrowd::WorkerStatus::kRejected);
  auto task = system.RequestTask(w);
  ASSERT_TRUE(task.ok());
  EXPECT_FALSE(task->has_value());
}

TEST(ICrowdTest, ProtocolGuards) {
  auto icrowd = ICrowd::Create(TinyDataset(), TinyConfig());
  ASSERT_TRUE(icrowd.ok());
  ICrowd& system = **icrowd;
  // Unknown worker.
  EXPECT_FALSE(system.RequestTask(42).ok());
  EXPECT_EQ(system.worker_status(42), ICrowd::WorkerStatus::kUnknown);
  WorkerId w = *system.OnWorkerArrived();
  // Submitting for a task not held fails.
  EXPECT_EQ(system.SubmitAnswer(w, 0, kYes).code(),
            StatusCode::kFailedPrecondition);
  auto task = system.RequestTask(w);
  ASSERT_TRUE(task.ok());
  ASSERT_TRUE(task->has_value());
  // Requesting again while holding fails.
  EXPECT_EQ(system.RequestTask(w).status().code(),
            StatusCode::kFailedPrecondition);
  // Submitting a different task than held fails.
  TaskId held = **task;
  TaskId other = (held + 1) % static_cast<TaskId>(system.dataset().size());
  EXPECT_FALSE(system.SubmitAnswer(w, other, kYes).ok());
  EXPECT_TRUE(system.SubmitAnswer(w, held, kYes).ok());
}

TEST(ICrowdTest, ActivityWindowShrinksActiveSet) {
  ICrowdConfig config = TinyConfig();
  config.activity_window_seconds = 10.0;
  config.warmup.tasks_per_worker = 1;
  auto clock = std::make_shared<ManualClock>();
  config.clock = clock;
  auto icrowd = ICrowd::Create(TinyDataset(), config);
  ASSERT_TRUE(icrowd.ok());
  ICrowd& system = **icrowd;
  Dataset reference = TinyDataset();

  auto run_through_warmup = [&](WorkerId w) {
    for (;;) {
      auto task = system.RequestTask(w);
      ASSERT_TRUE(task.ok());
      ASSERT_TRUE(task->has_value());
      ASSERT_TRUE(
          system.SubmitAnswer(w, **task, *reference.task(**task).ground_truth)
              .ok());
      if (system.worker_status(w) == ICrowd::WorkerStatus::kActive) return;
    }
  };
  WorkerId w0 = *system.OnWorkerArrived();
  WorkerId w1 = *system.OnWorkerArrived();
  clock->Set(1.0);
  run_through_warmup(w0);
  run_through_warmup(w1);
  EXPECT_EQ(system.ActiveWorkers().size(), 2u);
  // w1 keeps requesting; w0 goes silent past the window.
  clock->Set(20.0);
  auto task = system.RequestTask(w1);
  ASSERT_TRUE(task.ok());
  EXPECT_EQ(system.ActiveWorkers(), (std::vector<WorkerId>{w1}));
  // w0 comes back: active again.
  if (task->has_value()) {
    ASSERT_TRUE(
        system.SubmitAnswer(w1, **task, *reference.task(**task).ground_truth)
            .ok());
  }
  auto again = system.RequestTask(w0);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(system.ActiveWorkers().size(), 2u);
}

TEST(ICrowdTest, WorkerLeavingReleasesNothingTwice) {
  auto icrowd = ICrowd::Create(TinyDataset(), TinyConfig());
  ASSERT_TRUE(icrowd.ok());
  ICrowd& system = **icrowd;
  WorkerId w = *system.OnWorkerArrived();
  auto task = system.RequestTask(w);
  ASSERT_TRUE(task.ok());
  EXPECT_TRUE(system.OnWorkerLeft(w).ok());
  EXPECT_EQ(system.worker_status(w), ICrowd::WorkerStatus::kLeft);
  // Leaving again is harmless, and unknown ids are reported as such.
  EXPECT_TRUE(system.OnWorkerLeft(w).ok());
  EXPECT_EQ(system.OnWorkerLeft(999).code(), StatusCode::kNotFound);
  auto after = system.RequestTask(w);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->has_value());
}

}  // namespace
}  // namespace icrowd
