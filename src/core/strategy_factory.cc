#include "core/strategy_factory.h"

#include <algorithm>
#include <utility>

#include "assign/adaptive_assigner.h"
#include "assign/avgacc_assigner.h"
#include "assign/best_effort_assigner.h"
#include "assign/random_assigner.h"
#include "common/random.h"

namespace icrowd {

const char* StrategyName(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kRandomMV:
      return "RandomMV";
    case StrategyKind::kRandomEM:
      return "RandomEM";
    case StrategyKind::kAvgAccPV:
      return "AvgAccPV";
    case StrategyKind::kQfOnly:
      return "QF-Only";
    case StrategyKind::kBestEffort:
      return "BestEffort";
    case StrategyKind::kAdapt:
      return "iCrowd";
  }
  return "?";
}

Result<QualificationSelection> SelectCampaignQualification(
    const PprEngine& engine, const ICrowdConfig& config) {
  size_t quota = std::min(config.num_qualification, engine.num_tasks());
  if (config.qualification_greedy) {
    return SelectQualificationGreedy(engine, quota, config.influence_epsilon);
  }
  Rng rng(config.seed);
  return SelectQualificationRandom(engine, quota, &rng,
                                   config.influence_epsilon);
}

namespace {

Result<std::unique_ptr<AccuracyEstimator>> MakeEstimator(
    PprEngine engine, const ICrowdConfig& config,
    const std::vector<TaskId>& qualification_tasks) {
  auto estimator =
      AccuracyEstimator::FromEngine(std::move(engine), config.estimator);
  if (!estimator.ok()) return estimator.status();
  auto owned = std::make_unique<AccuracyEstimator>(estimator.MoveValueOrDie());
  owned->SetQualificationTasks(qualification_tasks);
  return owned;
}

}  // namespace

Result<Strategy> MakeStrategy(StrategyKind kind, const Dataset& dataset,
                              PprEngine engine, const ICrowdConfig& config,
                              const std::vector<TaskId>& qualification_tasks) {
  Strategy strategy;
  strategy.name = StrategyName(kind);
  switch (kind) {
    case StrategyKind::kRandomMV:
      strategy.assigner = std::make_unique<RandomAssigner>(config.seed);
      strategy.aggregation = AggregationKind::kMajorityVote;
      strategy.eliminate_bad_workers = false;
      return strategy;
    case StrategyKind::kRandomEM:
      strategy.assigner = std::make_unique<RandomAssigner>(config.seed);
      strategy.aggregation = AggregationKind::kDawidSkene;
      strategy.eliminate_bad_workers = false;
      return strategy;
    case StrategyKind::kAvgAccPV: {
      AvgAccAssignerOptions options;
      options.accept_threshold = config.warmup.rejection_threshold;
      options.seed = config.seed;
      auto assigner = std::make_unique<AvgAccAssigner>(options);
      AvgAccAssigner* raw = assigner.get();
      strategy.assigner = std::move(assigner);
      strategy.aggregation = AggregationKind::kProbabilisticVerification;
      strategy.accuracy_fn = [raw](WorkerId w, TaskId) {
        return raw->AverageAccuracy(w);
      };
      return strategy;
    }
    case StrategyKind::kQfOnly: {
      ICROWD_ASSIGN_OR_RETURN(
          auto estimator,
          MakeEstimator(std::move(engine), config, qualification_tasks));
      AdaptiveAssignerOptions options;
      options.adaptive_updates = false;
      auto assigner = std::make_unique<AdaptiveAssigner>(
          &dataset, std::move(estimator), options);
      strategy.accuracy_fn = assigner->estimator().AsAccuracyFn();
      strategy.assigner = std::move(assigner);
      strategy.aggregation = AggregationKind::kConsensus;
      return strategy;
    }
    case StrategyKind::kBestEffort: {
      ICROWD_ASSIGN_OR_RETURN(
          auto estimator,
          MakeEstimator(std::move(engine), config, qualification_tasks));
      auto assigner =
          std::make_unique<BestEffortAssigner>(&dataset, std::move(estimator));
      strategy.accuracy_fn = assigner->estimator().AsAccuracyFn();
      strategy.assigner = std::move(assigner);
      strategy.aggregation = AggregationKind::kConsensus;
      return strategy;
    }
    case StrategyKind::kAdapt: {
      ICROWD_ASSIGN_OR_RETURN(
          auto estimator,
          MakeEstimator(std::move(engine), config, qualification_tasks));
      auto assigner =
          std::make_unique<AdaptiveAssigner>(&dataset, std::move(estimator));
      strategy.accuracy_fn = assigner->estimator().AsAccuracyFn();
      strategy.assigner = std::move(assigner);
      strategy.aggregation = AggregationKind::kConsensus;
      return strategy;
    }
  }
  return Status::InvalidArgument("unknown strategy kind");
}

}  // namespace icrowd
