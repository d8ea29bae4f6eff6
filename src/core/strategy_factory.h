#ifndef ICROWD_CORE_STRATEGY_FACTORY_H_
#define ICROWD_CORE_STRATEGY_FACTORY_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "assign/assigner.h"
#include "common/result.h"
#include "core/config.h"
#include "graph/ppr.h"
#include "model/dataset.h"
#include "qualification/qualification_selector.h"

namespace icrowd {

/// Every assignment/aggregation strategy evaluated in §6.
enum class StrategyKind {
  kRandomMV,    // random assignment + majority voting
  kRandomEM,    // random assignment + Dawid-Skene EM
  kAvgAccPV,    // gold average accuracy + probabilistic verification [22]
  kQfOnly,      // qualification-frozen estimates + optimal assignment
  kBestEffort,  // adaptive estimates, worker-local greedy assignment
  kAdapt,       // full iCrowd (graph estimation + Algorithm 2)
};

const char* StrategyName(StrategyKind kind);

/// How a strategy's final per-task results are derived.
enum class AggregationKind {
  kConsensus,                   // majority consensus from the campaign
  kMajorityVote,                // majority vote over the answer log
  kDawidSkene,                  // EM over the answer log
  kProbabilisticVerification,   // accuracy-weighted likelihood
};

/// A ready-to-run strategy: the assigner plus the aggregation its paper
/// counterpart uses and whether warm-up elimination applies.
struct Strategy {
  std::unique_ptr<Assigner> assigner;
  AggregationKind aggregation = AggregationKind::kConsensus;
  /// The Random* baselines accept every worker; the others reject below
  /// the warm-up threshold.
  bool eliminate_bad_workers = true;
  std::string name;
  /// Per-(worker, task) accuracy estimates for accuracy-weighted
  /// aggregation; bound to the assigner's internal state (valid while
  /// `assigner` lives). Null for strategies that do not estimate.
  std::function<double(WorkerId, TaskId)> accuracy_fn;
};

/// Qualification selection as config asks: InfQF (Algorithm 4) when
/// config.qualification_greedy, else RandomQF seeded with config.seed;
/// quota config.num_qualification, capped at the task count. Shared by
/// ICrowd and RunExperiment so both pick the same gold tasks.
Result<QualificationSelection> SelectCampaignQualification(
    const PprEngine& engine, const ICrowdConfig& config);

/// Builds `kind` for `dataset` from the campaign's precomputed PPR `engine`
/// (the one qualification selection ran on). The graph-based strategies
/// move it into their estimator; the others drop it. `qualification_tasks`
/// are the campaign's gold tasks (wired into the estimator for Eq. 5).
/// `dataset` must outlive the returned strategy.
Result<Strategy> MakeStrategy(StrategyKind kind, const Dataset& dataset,
                              PprEngine engine, const ICrowdConfig& config,
                              const std::vector<TaskId>& qualification_tasks);

}  // namespace icrowd

#endif  // ICROWD_CORE_STRATEGY_FACTORY_H_
