#include "assign/top_workers.h"

#include <algorithm>
#include <utility>

namespace icrowd {

double TopWorkerSet::SumAccuracy() const {
  double acc = 0.0;
  for (double p : accuracies) acc += p;
  return acc;
}

double TopWorkerSet::AvgAccuracy() const {
  if (workers.empty()) return 0.0;
  return SumAccuracy() / static_cast<double>(workers.size());
}

const TopSetMetrics& TopSetMetrics::Get() {
  static const TopSetMetrics metrics = [] {
    auto& registry = obs::MetricsRegistry::Global();
    return TopSetMetrics{
        registry.GetCounter("icrowd.assign.top_sets_computed",
                            {true, "Definition 3 top worker sets computed"}),
        registry.GetCounter(
            "icrowd.assign.top_sets_skipped",
            {true, "candidate sets dropped as empty or under-filled"}),
        registry.GetHistogram("icrowd.assign.top_set_size",
                              obs::LinearBuckets(0, 1, 8),
                              {true, "workers per kept top worker set"})};
  }();
  return metrics;
}

TopWorkerSet ComputeTopWorkerSet(TaskId task, const CampaignState& state,
                                 const std::vector<WorkerId>& active_workers,
                                 const AccuracyFn& accuracy) {
  TopWorkerSet result;
  result.task = task;
  int slots = state.RemainingSlots(task);
  if (slots <= 0) return result;

  // Eligible workers W^u(t) with their accuracy estimates.
  std::vector<ScoredWorker> scored;
  scored.reserve(active_workers.size());
  for (WorkerId w : active_workers) {
    if (!state.IsAssignedTo(task, w)) {
      scored.push_back({accuracy(w, task), w});
    }
  }
  size_t keep = std::min<size_t>(slots, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + keep, scored.end(),
                    RanksBefore());
  result.workers.reserve(keep);
  result.accuracies.reserve(keep);
  for (size_t i = 0; i < keep; ++i) {
    result.workers.push_back(scored[i].worker);
    result.accuracies.push_back(scored[i].accuracy);
  }
  return result;
}

std::vector<TopWorkerSet> ComputeTopWorkerSets(
    const CampaignState& state, const std::vector<WorkerId>& active_workers,
    const AccuracyFn& accuracy, bool require_full) {
  return ComputeTopWorkerSets(state.UncompletedTasks(), state,
                              active_workers, accuracy, require_full);
}

std::vector<TopWorkerSet> ComputeTopWorkerSets(
    const std::vector<TaskId>& tasks, const CampaignState& state,
    const std::vector<WorkerId>& active_workers, const AccuracyFn& accuracy,
    bool require_full) {
  const TopSetMetrics& metrics = TopSetMetrics::Get();
  ICROWD_TRACE_SCOPE("assign.top_worker_sets");
  metrics.computed.Increment(tasks.size());
  std::vector<TopWorkerSet> sets;
  sets.reserve(tasks.size());
  for (TaskId task : tasks) {
    TopWorkerSet set =
        ComputeTopWorkerSet(task, state, active_workers, accuracy);
    if (set.empty()) {
      metrics.skipped.Increment();
      continue;
    }
    if (require_full &&
        static_cast<int>(set.workers.size()) < state.RemainingSlots(task)) {
      metrics.skipped.Increment();
      continue;
    }
    metrics.size.Observe(static_cast<double>(set.workers.size()));
    sets.push_back(std::move(set));
  }
  return sets;
}

}  // namespace icrowd
