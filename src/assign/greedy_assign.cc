#include "assign/greedy_assign.h"

#include <algorithm>

#include "obs/metrics.h"

namespace icrowd {

std::vector<size_t> GreedySelect(const std::vector<GreedyCandidate>& candidates,
                                 size_t num_keys) {
  auto& registry = obs::MetricsRegistry::Global();
  static const obs::Counter heap_pops = registry.GetCounter(
      "icrowd.assign.heap_pops",
      {true, "candidate sets popped off the Algorithm 3 lazy heap"});
  static const obs::Counter conflict_rejections = registry.GetCounter(
      "icrowd.assign.conflict_rejections",
      {true, "popped sets rejected for overlapping an already-used worker"});
  static const obs::Counter scheme_sets = registry.GetCounter(
      "icrowd.assign.scheme_sets",
      {true, "disjoint sets accepted into assignment schemes"});
  static const obs::Histogram scheme_avg_accuracy = registry.GetHistogram(
      "icrowd.assign.scheme_avg_accuracy", obs::LinearBuckets(0.1, 0.1, 9),
      {true, "average estimated accuracy of each accepted set"});
  // Heap entries carry their key, so comparisons stay inside the heap.
  struct Entry {
    double avg;
    TaskId task;
    uint32_t index;
  };
  std::vector<Entry> heap;
  heap.reserve(candidates.size());
  // Candidates of each worker, flat (a counting sort by worker key).
  std::vector<uint32_t> first(num_keys + 1, 0);
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (candidates[i].workers.empty()) continue;
    heap.push_back({candidates[i].avg, candidates[i].task,
                    static_cast<uint32_t>(i)});
    for (int32_t w : candidates[i].workers) ++first[w + 1];
  }
  // The universe: workers in any candidate. The pass ends once all are used.
  size_t universe = 0;
  for (size_t w = 0; w < num_keys; ++w) {
    if (first[w + 1] > 0) ++universe;
    first[w + 1] += first[w];
  }
  std::vector<uint32_t> holders(first[num_keys]);
  {
    std::vector<uint32_t> next(first.begin(), first.end() - 1);
    for (const Entry& e : heap) {
      for (int32_t w : candidates[e.index].workers) {
        holders[next[w]++] = e.index;
      }
    }
  }
  // Lazy max-heap keyed by (avg desc, task asc): "lazy" means overlap is
  // only checked when a candidate reaches the top. std::*_heap keeps the max
  // at front, so "worse" orders worse candidates first. Task ids are
  // unique, so the order is total and the pop sequence does not depend on
  // the input order.
  auto worse = [](const Entry& a, const Entry& b) {
    if (a.avg != b.avg) return a.avg < b.avg;
    return a.task > b.task;
  };
  std::make_heap(heap.begin(), heap.end(), worse);

  // A candidate is dead once one of its workers is used: every later pop
  // of it is a rejection. `live` counts the heap's candidates that are not
  // dead. When it reaches zero before the universe is used up, the paper's
  // loop would pop and reject every remaining candidate, so those pops are
  // counted without being made — in the multi-round planner most rounds end
  // this way, after a few acceptances.
  std::vector<uint8_t> dead(candidates.size(), 0);
  size_t live = heap.size();
  std::vector<uint8_t> used_worker(num_keys, 0);
  std::vector<size_t> accepted;
  size_t used = 0;
  uint64_t pops = 0;
  uint64_t rejections = 0;
  while (!heap.empty() && used < universe && live > 0) {
    std::pop_heap(heap.begin(), heap.end(), worse);
    const Entry top = heap.back();
    heap.pop_back();
    ++pops;
    if (dead[top.index]) {
      ++rejections;
      continue;
    }
    dead[top.index] = 1;
    --live;
    const GreedyCandidate& candidate = candidates[top.index];
    for (int32_t w : candidate.workers) {
      if (used_worker[w]) continue;
      used_worker[w] = 1;
      ++used;
      for (uint32_t h = first[w]; h < first[w + 1]; ++h) {
        if (!dead[holders[h]]) {
          dead[holders[h]] = 1;
          --live;
        }
      }
    }
    scheme_avg_accuracy.Observe(candidate.avg);
    accepted.push_back(top.index);
  }
  if (used < universe) {
    pops += heap.size();
    rejections += heap.size();
  }
  heap_pops.Increment(pops);
  conflict_rejections.Increment(rejections);
  scheme_sets.Increment(accepted.size());
  return accepted;
}

std::vector<TopWorkerSet> GreedyAssign(std::vector<TopWorkerSet> candidates) {
  ICROWD_TRACE_SCOPE("assign.greedy");
  std::vector<GreedyCandidate> views(candidates.size());
  size_t num_keys = 0;
  for (size_t i = 0; i < candidates.size(); ++i) {
    const TopWorkerSet& set = candidates[i];
    views[i] = {set.AvgAccuracy(), set.task, set.workers};
    for (WorkerId w : set.workers) {
      num_keys = std::max(num_keys, static_cast<size_t>(w) + 1);
    }
  }
  std::vector<TopWorkerSet> scheme;
  for (size_t index : GreedySelect(views, num_keys)) {
    scheme.push_back(std::move(candidates[index]));
  }
  return scheme;
}

double SchemeObjective(const std::vector<TopWorkerSet>& scheme) {
  double total = 0.0;
  for (const TopWorkerSet& set : scheme) total += set.SumAccuracy();
  return total;
}

}  // namespace icrowd
