#include "assign/scalable_assign.h"

#include <algorithm>
#include <unordered_set>

#include "assign/greedy_assign.h"

namespace icrowd {

double SparseWorkerEstimate::Accuracy(TaskId task) const {
  auto it = std::lower_bound(
      scores.begin(), scores.end(), task,
      [](const std::pair<int32_t, double>& e, TaskId t) {
        return e.first < t;
      });
  if (it != scores.end() && it->first == task) return it->second;
  return fallback;
}

std::vector<TopWorkerSet> ScalableAssign(
    size_t num_tasks, int assignment_size,
    const std::vector<SparseWorkerEstimate>& workers,
    ScalableAssignStats* stats) {
  const size_t k = static_cast<size_t>(std::max(1, assignment_size));

  // Touched tasks: any task some worker has an explicit score for, sorted
  // so candidate order is deterministic.
  std::unordered_set<TaskId> touched_set;
  for (const SparseWorkerEstimate& w : workers) {
    for (const auto& [t, _] : w.scores) {
      if (t >= 0 && static_cast<size_t>(t) < num_tasks) touched_set.insert(t);
    }
  }
  std::vector<TaskId> touched(touched_set.begin(), touched_set.end());
  std::sort(touched.begin(), touched.end());

  std::vector<TopWorkerSet> candidates;
  candidates.reserve(touched.size() + workers.size() / k + 1);

  // Per-task top-k for touched tasks only.
  std::vector<std::pair<double, WorkerId>> scored;
  scored.reserve(workers.size());
  for (TaskId t : touched) {
    scored.clear();
    for (const SparseWorkerEstimate& w : workers) {
      scored.emplace_back(w.Accuracy(t), w.worker);
    }
    size_t keep = std::min(k, scored.size());
    std::partial_sort(scored.begin(), scored.begin() + keep, scored.end(),
                      [](const auto& a, const auto& b) {
                        if (a.first != b.first) return a.first > b.first;
                        return a.second < b.second;
                      });
    TopWorkerSet& set = candidates.emplace_back();
    set.task = t;
    for (size_t j = 0; j < keep; ++j) {
      set.workers.push_back(scored[j].second);
      set.accuracies.push_back(scored[j].first);
    }
  }

  // Fallback index for untouched tasks: every untouched task ranks workers
  // identically (by fallback accuracy), so one sorted ranking chunked into
  // groups of k covers all of them — more groups than untouched tasks are
  // never needed.
  size_t untouched = num_tasks - touched.size();
  if (untouched > 0 && !workers.empty()) {
    std::vector<std::pair<double, WorkerId>> ranking;
    ranking.reserve(workers.size());
    for (const SparseWorkerEstimate& w : workers) {
      ranking.emplace_back(w.fallback, w.worker);
    }
    std::sort(ranking.begin(), ranking.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first > b.first;
      return a.second < b.second;
    });
    // Pick representative untouched task ids (the smallest ones not in
    // `touched`).
    size_t groups = std::min(untouched, (ranking.size() + k - 1) / k);
    size_t next_task = 0;
    for (size_t g = 0; g < groups; ++g) {
      while (next_task < num_tasks &&
             touched_set.count(static_cast<TaskId>(next_task))) {
        ++next_task;
      }
      if (next_task >= num_tasks) break;
      TopWorkerSet set;
      set.task = static_cast<TaskId>(next_task++);
      for (size_t i = g * k; i < std::min(ranking.size(), (g + 1) * k); ++i) {
        set.workers.push_back(ranking[i].second);
        set.accuracies.push_back(ranking[i].first);
      }
      if (!set.workers.empty()) candidates.push_back(std::move(set));
    }
  }

  if (stats != nullptr) {
    stats->touched_tasks = touched.size();
    stats->untouched_tasks = untouched;
  }
  std::vector<TopWorkerSet> scheme = GreedyAssign(std::move(candidates));
  if (stats != nullptr) stats->scheme_size = scheme.size();
  return scheme;
}

}  // namespace icrowd
