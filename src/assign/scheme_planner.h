#ifndef ICROWD_ASSIGN_SCHEME_PLANNER_H_
#define ICROWD_ASSIGN_SCHEME_PLANNER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "assign/top_workers.h"
#include "model/campaign_state.h"

namespace icrowd {

/// Dense p̂ source for the planner: the row of worker `w`, with row[t] its
/// estimated accuracy on task t for every t < num_tasks of the campaign.
/// Called once per active worker per Plan; the rows must not change during
/// the call.
using AccuracyRowFn = std::function<const double*(WorkerId)>;

/// Algorithm 2 steps 1–2 for one scheme recompute, scored once.
///
/// Multi-round planning removes the workers and tasks each Algorithm 3 pass
/// planned and runs the pass again, so every active worker lands in the
/// scheme. Removing workers never reorders the rest, so a task's Definition
/// 3 set in any round is the first k' entries of one ranking that are not
/// yet planned. The planner therefore:
///   1. ranks every uncompleted task's eligible active workers once, by
///      RanksBefore (p̂ desc, worker id asc);
///   2. per round, reads each remaining task's set off its ranking, skipping
///      planned workers;
///   3. runs GreedySelect on those sets.
/// The plan — sets, their order, their p̂ sums — and the icrowd.assign.*
/// deterministic metrics are exactly those of re-running
/// ComputeTopWorkerSets + GreedyAssign on the remaining workers and tasks
/// each round (assign_test pins this).
///
/// The object only holds scratch buffers, reused across calls and fully
/// rewritten by each; it is not safe to call Plan concurrently on one
/// planner.
class SchemePlanner {
 public:
  /// Plans `active_workers` (distinct campaign worker ids, so non-negative)
  /// onto the uncompleted tasks of `state`. With `multi_round` false only
  /// the first Algorithm 3 pass runs. Returns the accepted sets round by
  /// round, each round in acceptance order.
  std::vector<TopWorkerSet> Plan(const CampaignState& state,
                                 const std::vector<WorkerId>& active_workers,
                                 const AccuracyRowFn& rows, bool multi_round);

 private:
  /// Step 1: fills ranking_/ranked_/slots_ for tasks_ over workers_.
  void RankTasks(const CampaignState& state);

  // Active workers in ascending id order: a worker's index here is its
  // dense key, and index order is id order, so RanksBefore on indices is
  // RanksBefore on ids.
  std::vector<WorkerId> workers_;
  // Worker id -> its key (index in workers_), -1 when not active.
  std::vector<int32_t> key_of_;
  // rows_[key][task] is the p̂ the plan reads.
  std::vector<const double*> rows_;
  std::vector<TaskId> tasks_;
  // Task i's ranking, as keys, is ranking_[i * workers_.size(), +
  // ranked_[i]).
  std::vector<int32_t> ranking_;
  std::vector<uint32_t> ranked_;
  std::vector<int> slots_;
  // One task's eligible workers with their p̂, sorted to build its ranking.
  std::vector<ScoredWorker> scored_;
  // Ranking prefix known to be planned, per task (planned only grows).
  std::vector<uint32_t> skip_;
  std::vector<uint8_t> planned_;
};

}  // namespace icrowd

#endif  // ICROWD_ASSIGN_SCHEME_PLANNER_H_
