#ifndef ICROWD_CORE_EXPERIMENT_H_
#define ICROWD_CORE_EXPERIMENT_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/config.h"
#include "core/strategy_factory.h"
#include "graph/similarity_graph.h"
#include "model/dataset.h"
#include "qualification/qualification_selector.h"
#include "sim/metrics.h"
#include "sim/simulator.h"
#include "sim/worker_profile.h"

namespace icrowd {

/// Everything one §6-style experiment run produces.
struct ExperimentResult {
  std::string strategy_name;
  /// Per-domain + overall accuracy (the Figure 7-9/12-14 measurements).
  AccuracyReport report;
  /// Final per-task predictions used for the report.
  std::vector<Label> predictions;
  /// The qualification selection used (tasks + influence).
  QualificationSelection qualification;
  /// Raw simulation output (answer log, timings, worker stats).
  SimulationResult sim;
};

/// Runs one full campaign of `strategy` (selection of qualification tasks →
/// warm-up → adaptive loop → aggregation → scoring) on `dataset` with the
/// given worker pool, reusing a prebuilt similarity `graph`.
Result<ExperimentResult> RunExperiment(
    const Dataset& dataset, const std::vector<WorkerProfile>& profiles,
    const SimilarityGraph& graph, const ICrowdConfig& config,
    StrategyKind strategy);

/// Convenience overload building the graph from `config.graph` first.
Result<ExperimentResult> RunExperiment(
    const Dataset& dataset, const std::vector<WorkerProfile>& profiles,
    const ICrowdConfig& config, StrategyKind strategy);

/// Applies a strategy's aggregation to a finished simulation, producing
/// per-task predictions (consensus-based strategies read the campaign
/// consensus; log-based ones re-aggregate the work answers).
Result<std::vector<Label>> AggregatePredictions(
    const Dataset& dataset, const Strategy& strategy,
    const SimulationResult& sim);

}  // namespace icrowd

#endif  // ICROWD_CORE_EXPERIMENT_H_
