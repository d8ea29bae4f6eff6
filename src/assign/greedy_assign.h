#ifndef ICROWD_ASSIGN_GREEDY_ASSIGN_H_
#define ICROWD_ASSIGN_GREEDY_ASSIGN_H_

#include <cstdint>
#include <span>
#include <vector>

#include "assign/top_workers.h"

namespace icrowd {

/// One Algorithm 3 candidate <t, Ŵ(t)> seen through a view: its selection
/// key Σ_w p_t^w / |Ŵ(t)|, its task (the tie-break) and its workers as
/// dense keys in [0, num_keys) of GreedySelect.
struct GreedyCandidate {
  double avg = 0.0;
  TaskId task = -1;
  std::span<const int32_t> workers;
};

/// The Algorithm 3 kernel shared by GreedyAssign and the scheme planner:
/// repeatedly accepts the candidate with the maximum `avg` (ties toward the
/// smaller task id) whose workers are all unused, until every worker
/// appearing in any candidate is used. Candidates are fixed, so a lazy
/// max-heap with the overlap check at pop time is exactly equivalent to the
/// paper's iterative remove-and-rescan. Once every candidate left in the
/// heap holds a used worker, the remaining pops could only reject, so they
/// are counted (icrowd.assign.heap_pops, conflict_rejections) without being
/// made: O(|T|·k + m log |T|) for m pops made. Empty candidates are
/// ignored. Returns the indices of the accepted, worker-disjoint candidates
/// in acceptance order.
std::vector<size_t> GreedySelect(const std::vector<GreedyCandidate>& candidates,
                                 size_t num_keys);

/// Algorithm 3 (GreedyAssign) over materialised top worker sets (worker
/// ids are non-negative): the worker-disjoint assignment scheme A*, in
/// acceptance order.
std::vector<TopWorkerSet> GreedyAssign(std::vector<TopWorkerSet> candidates);

/// The Definition 4 objective of a scheme: Σ_{<t,Ŵ(t)>} Σ_w p_t^w.
double SchemeObjective(const std::vector<TopWorkerSet>& scheme);

}  // namespace icrowd

#endif  // ICROWD_ASSIGN_GREEDY_ASSIGN_H_
