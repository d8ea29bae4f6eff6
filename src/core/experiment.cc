#include "core/experiment.h"

#include <set>

#include "agg/dawid_skene.h"
#include "agg/majority_vote.h"
#include "agg/probabilistic_verification.h"
#include "estimation/accuracy_estimator.h"
#include "obs/metrics.h"

namespace icrowd {

Result<std::vector<Label>> AggregatePredictions(
    const Dataset& dataset, const Strategy& strategy,
    const SimulationResult& sim) {
  switch (strategy.aggregation) {
    case AggregationKind::kConsensus:
      return sim.consensus;
    case AggregationKind::kMajorityVote: {
      MajorityVoteAggregator aggregator;
      return aggregator.Aggregate(dataset.size(), sim.work_answers);
    }
    case AggregationKind::kDawidSkene: {
      DawidSkeneAggregator aggregator;
      return aggregator.Aggregate(dataset.size(), sim.work_answers);
    }
    case AggregationKind::kProbabilisticVerification: {
      if (!strategy.accuracy_fn) {
        return Status::FailedPrecondition(
            "probabilistic verification needs strategy.accuracy_fn");
      }
      ProbabilisticVerificationAggregator aggregator(strategy.accuracy_fn);
      return aggregator.Aggregate(dataset.size(), sim.work_answers);
    }
  }
  return Status::InvalidArgument("unknown aggregation kind");
}

Result<ExperimentResult> RunExperiment(
    const Dataset& dataset, const std::vector<WorkerProfile>& profiles,
    const SimilarityGraph& graph, const ICrowdConfig& config,
    StrategyKind strategy_kind) {
  ICROWD_RETURN_NOT_OK(dataset.Validate());

  static const obs::Counter experiments_counter =
      obs::MetricsRegistry::Global().GetCounter(
          "icrowd.core.experiments", {true, "full experiment runs"});
  experiments_counter.Increment();
  ICROWD_TRACE_SCOPE("experiment.run");

  ExperimentResult result;

  // The experiment's one PPR pass: qualification selection (InfQF or
  // RandomQF) reads it, then the strategy's estimator takes it over.
  Result<PprEngine> engine = Status::Internal("unset");
  {
    ICROWD_TRACE_SCOPE("experiment.qualification");
    engine = PprEngine::Precompute(graph, config.estimator.ppr);
    if (!engine.ok()) return engine.status();
    ICROWD_ASSIGN_OR_RETURN(result.qualification,
                            SelectCampaignQualification(*engine, config));
  }

  ICROWD_ASSIGN_OR_RETURN(
      Strategy strategy,
      MakeStrategy(strategy_kind, dataset, engine.MoveValueOrDie(), config,
                   result.qualification.tasks));
  result.strategy_name = strategy.name;

  SimulationOptions sim_options;
  sim_options.assignment_size = config.assignment_size;
  sim_options.qualification_tasks = result.qualification.tasks;
  sim_options.warmup = config.warmup;
  sim_options.warmup.eliminate_bad_workers =
      config.warmup.eliminate_bad_workers && strategy.eliminate_bad_workers;
  sim_options.seed = config.seed;

  CrowdSimulator simulator(&dataset, &profiles, sim_options);
  auto sim = simulator.Run(strategy.assigner.get());
  if (!sim.ok()) return sim.status();
  result.sim = sim.MoveValueOrDie();

  {
    ICROWD_TRACE_SCOPE("experiment.aggregate");
    ICROWD_ASSIGN_OR_RETURN(
        result.predictions,
        AggregatePredictions(dataset, strategy, result.sim));
  }
  ICROWD_TRACE_SCOPE("experiment.score");
  std::set<TaskId> qualification(result.qualification.tasks.begin(),
                                 result.qualification.tasks.end());
  result.report =
      EvaluateAccuracy(dataset, result.predictions, qualification);
  return result;
}

Result<ExperimentResult> RunExperiment(
    const Dataset& dataset, const std::vector<WorkerProfile>& profiles,
    const ICrowdConfig& config, StrategyKind strategy) {
  auto graph = SimilarityGraph::Build(dataset, config.graph);
  if (!graph.ok()) return graph.status();
  return RunExperiment(dataset, profiles, *graph, config, strategy);
}

}  // namespace icrowd
