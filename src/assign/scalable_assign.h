#ifndef ICROWD_ASSIGN_SCALABLE_ASSIGN_H_
#define ICROWD_ASSIGN_SCALABLE_ASSIGN_H_

#include <cstddef>
#include <vector>

#include "assign/top_workers.h"
#include "graph/ppr.h"

namespace icrowd {

/// A worker's accuracy estimate in sparse form: explicit calibrated scores
/// for the tasks reachable from its observations, and a fallback accuracy
/// for every other task. This is how estimates actually look at millions of
/// tasks — each worker has touched a vanishing fraction of the task set.
struct SparseWorkerEstimate {
  WorkerId worker = -1;
  double fallback = 0.5;
  /// (task, accuracy) pairs sorted by task id.
  SparseEntries scores;

  /// Accuracy on `task`: the explicit score when present, else fallback.
  double Accuracy(TaskId task) const;
};

struct ScalableAssignStats {
  size_t touched_tasks = 0;    // tasks with at least one explicit score
  size_t untouched_tasks = 0;  // tasks served from the fallback index
  size_t scheme_size = 0;
};

/// Index-accelerated optimal microtask assignment (the "effective index
/// structures and efficient algorithms" behind Figure 10). Key insight: a
/// task no worker has an explicit score for sees every worker at its
/// fallback accuracy, so all such tasks share one top-worker ranking. The
/// index therefore
///   1. computes per-task top worker sets only for the *touched* tasks
///      (union of the workers' sparse supports),
///   2. serves every untouched task from a single fallback ranking,
///      chunking the remaining workers into groups of k by descending
///      fallback accuracy,
///   3. runs Algorithm 3 over this candidate set.
/// Cost is O(touched · W log k + W log W) — independent of |T| except for
/// the final scheme size — which is what makes assignment time grow
/// sub-linearly as tasks are inserted. Touched tasks are processed in
/// ascending id order, so the scheme is deterministic.
std::vector<TopWorkerSet> ScalableAssign(
    size_t num_tasks, int assignment_size,
    const std::vector<SparseWorkerEstimate>& workers,
    ScalableAssignStats* stats = nullptr);

}  // namespace icrowd

#endif  // ICROWD_ASSIGN_SCALABLE_ASSIGN_H_
