#ifndef ICROWD_ASSIGN_TOP_WORKERS_H_
#define ICROWD_ASSIGN_TOP_WORKERS_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "estimation/observed_accuracy.h"
#include "model/campaign_state.h"
#include "obs/metrics.h"

namespace icrowd {

/// A candidate assignment <t, Ŵ(t)>: a task together with its top worker
/// set (Definition 3) under the current accuracy estimates.
struct TopWorkerSet {
  TaskId task = -1;
  /// Top workers, descending by estimated accuracy on `task`.
  std::vector<WorkerId> workers;
  /// Estimated accuracies aligned with `workers`.
  std::vector<double> accuracies;

  /// Σ_w p_t^w — the Definition 4 objective contribution.
  double SumAccuracy() const;
  /// Algorithm 3's selection key Σ_w p_t^w / |Ŵ(t)|.
  double AvgAccuracy() const;
  bool empty() const { return workers.empty(); }
};

/// One scored candidate for a task's top worker set. `worker` is the
/// worker's id, or any dense index whose order matches worker-id order.
struct ScoredWorker {
  double accuracy;
  int32_t worker;
};

/// Definition 3's ranking: higher p̂ first, ties toward the smaller worker
/// (deterministic). Every top-worker-set computation orders by this, so
/// the single-set path and the scheme planner cannot disagree. A function
/// object, so std::sort inlines it.
struct RanksBefore {
  bool operator()(const ScoredWorker& a, const ScoredWorker& b) const {
    if (a.accuracy != b.accuracy) return a.accuracy > b.accuracy;
    return a.worker < b.worker;
  }
};

/// The Definition 3 metrics, recorded by ComputeTopWorkerSets and, round
/// by round, by the scheme planner.
struct TopSetMetrics {
  obs::Counter computed;  // icrowd.assign.top_sets_computed
  obs::Counter skipped;   // icrowd.assign.top_sets_skipped
  obs::Histogram size;    // icrowd.assign.top_set_size
  static const TopSetMetrics& Get();
};

/// Computes Ŵ(t): the k' = k - |W^d(t)| workers from `active_workers` with
/// the highest estimated accuracy on `task`, excluding workers already
/// assigned to it. Ties break toward smaller worker id (deterministic).
TopWorkerSet ComputeTopWorkerSet(TaskId task, const CampaignState& state,
                                 const std::vector<WorkerId>& active_workers,
                                 const AccuracyFn& accuracy);

/// Step 1 of Algorithm 2: top worker sets for every uncompleted task.
/// Tasks with no eligible worker are omitted. When `require_full` is true
/// only sets that can globally complete the task (|Ŵ(t)| == k') are kept.
std::vector<TopWorkerSet> ComputeTopWorkerSets(
    const CampaignState& state, const std::vector<WorkerId>& active_workers,
    const AccuracyFn& accuracy, bool require_full = false);

/// As above, restricted to an explicit candidate task list.
std::vector<TopWorkerSet> ComputeTopWorkerSets(
    const std::vector<TaskId>& tasks, const CampaignState& state,
    const std::vector<WorkerId>& active_workers, const AccuracyFn& accuracy,
    bool require_full = false);

}  // namespace icrowd

#endif  // ICROWD_ASSIGN_TOP_WORKERS_H_
