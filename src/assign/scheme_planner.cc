#include "assign/scheme_planner.h"

#include <algorithm>
#include <span>

#include "assign/greedy_assign.h"
#include "obs/metrics.h"

namespace icrowd {

void SchemePlanner::RankTasks(const CampaignState& state) {
  ICROWD_TRACE_SCOPE("assign.top_worker_sets");
  const size_t n = workers_.size();
  ranking_.resize(tasks_.size() * n);
  ranked_.assign(tasks_.size(), 0);
  slots_.resize(tasks_.size());
  scored_.resize(n);
  for (size_t i = 0; i < tasks_.size(); ++i) {
    const TaskId task = tasks_[i];
    slots_[i] = state.RemainingSlots(task);
    if (slots_[i] <= 0) continue;
    // Sorted with their p̂ on the side; only the keys are kept, since rows_
    // still holds every p̂.
    for (size_t j = 0; j < n; ++j) {
      scored_[j] = {rows_[j][task], static_cast<int32_t>(j)};
    }
    // W^u(t): drop the active workers already assigned to the task.
    auto end = scored_.end();
    bool dropped = false;
    for (WorkerId w : state.AssignedWorkers(task)) {
      if (w < 0 || static_cast<size_t>(w) >= key_of_.size()) continue;
      if (key_of_[w] < 0) continue;
      scored_[key_of_[w]].worker = -1;
      dropped = true;
    }
    if (dropped) {
      end = std::remove_if(scored_.begin(), end, [](const ScoredWorker& e) {
        return e.worker < 0;
      });
    }
    std::sort(scored_.begin(), end, RanksBefore());
    int32_t* ranking = ranking_.data() + i * n;
    for (auto it = scored_.begin(); it != end; ++it) *ranking++ = it->worker;
    ranked_[i] = static_cast<uint32_t>(end - scored_.begin());
  }
}

std::vector<TopWorkerSet> SchemePlanner::Plan(
    const CampaignState& state, const std::vector<WorkerId>& active_workers,
    const AccuracyRowFn& rows, bool multi_round) {
  const TopSetMetrics& metrics = TopSetMetrics::Get();
  std::vector<TopWorkerSet> scheme;
  tasks_ = state.UncompletedTasks();
  if (active_workers.empty() || tasks_.empty()) return scheme;
  workers_ = active_workers;
  std::sort(workers_.begin(), workers_.end());
  const size_t n = workers_.size();
  key_of_.assign(static_cast<size_t>(workers_.back()) + 1, -1);
  for (size_t j = 0; j < n; ++j) key_of_[workers_[j]] = static_cast<int32_t>(j);
  rows_.resize(n);
  for (size_t j = 0; j < n; ++j) rows_[j] = rows(workers_[j]);
  RankTasks(state);

  planned_.assign(n, 0);
  skip_.assign(tasks_.size(), 0);
  size_t unplanned_workers = n;
  std::vector<uint32_t> alive(tasks_.size());
  for (uint32_t i = 0; i < alive.size(); ++i) alive[i] = i;
  std::vector<uint8_t> chosen(tasks_.size(), 0);
  // One round's sets, flat: members holds every set's workers (as keys)
  // back to back; set v owns [begin[v], +size).
  std::vector<int32_t> members;
  std::vector<GreedyCandidate> views;
  std::vector<size_t> begin;
  std::vector<uint32_t> owner;
  std::vector<uint64_t> size_counts;
  bool first_round = true;
  while (unplanned_workers > 0 && !alive.empty() &&
         (first_round || multi_round)) {
    first_round = false;
    ICROWD_TRACE_SCOPE("assign.greedy");
    members.clear();
    views.clear();
    begin.clear();
    owner.clear();
    size_counts.clear();
    uint64_t skipped = 0;
    // Step 1 for this round: the first k' unplanned entries of each
    // remaining task's ranking — the top k' of the unplanned workers.
    for (uint32_t i : alive) {
      const int32_t* ranking = ranking_.data() + i * n;
      const size_t want = static_cast<size_t>(std::max(slots_[i], 0));
      uint32_t& skip = skip_[i];
      while (skip < ranked_[i] && planned_[ranking[skip]]) ++skip;
      const size_t start = members.size();
      double sum = 0.0;
      for (uint32_t e = skip; e < ranked_[i] && members.size() - start < want;
           ++e) {
        const int32_t key = ranking[e];
        if (planned_[key]) continue;
        members.push_back(key);
        sum += rows_[key][tasks_[i]];
      }
      const size_t size = members.size() - start;
      if (size == 0) {
        ++skipped;
        continue;
      }
      if (size >= size_counts.size()) size_counts.resize(size + 1, 0);
      ++size_counts[size];
      // TopWorkerSet::AvgAccuracy's arithmetic, in the same order.
      views.push_back({sum / static_cast<double>(size), tasks_[i], {}});
      begin.push_back(start);
      owner.push_back(i);
    }
    metrics.computed.Increment(alive.size());
    metrics.skipped.Increment(skipped);
    for (size_t size = 1; size < size_counts.size(); ++size) {
      metrics.size.Observe(static_cast<double>(size), size_counts[size]);
    }
    for (size_t v = 0; v < views.size(); ++v) {
      const size_t end = v + 1 < views.size() ? begin[v + 1] : members.size();
      views[v].workers =
          std::span<const int32_t>(members.data() + begin[v], end - begin[v]);
    }
    // Step 2: Algorithm 3 over this round's sets.
    std::vector<size_t> accepted = GreedySelect(views, n);
    if (accepted.empty()) break;
    for (size_t v : accepted) {
      TopWorkerSet set;
      set.task = views[v].task;
      for (int32_t key : views[v].workers) {
        set.workers.push_back(workers_[key]);
        set.accuracies.push_back(rows_[key][set.task]);
        planned_[key] = 1;
        --unplanned_workers;
      }
      chosen[owner[v]] = 1;
      scheme.push_back(std::move(set));
    }
    std::erase_if(alive, [&](uint32_t i) { return chosen[i] != 0; });
  }
  return scheme;
}

}  // namespace icrowd
