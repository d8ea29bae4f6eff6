// Per-layer observation shared by the workloads' traced runs: shadow calls
// of each layer's public entry on a campaign's own inputs or live state,
// and the counter-derived figures of the request path.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "trace.h"

namespace perfbench {

inline double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }
inline double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

/// Per-layer values by metric name.
using LayerValues = std::map<std::string, double>;

/// Set-up layers timed by shadow calls on a campaign's inputs: the
/// similarity graph, one PPR precompute and the qualification selection.
struct SetupShadow {
  double graph_ms = 0.0;
  double ppr_ms = 0.0;
  double qualification_ms = 0.0;
  /// What Create/Restore spend on them, given PPR passes per create.
  double RebuildMs(double ppr_passes) const {
    return graph_ms + ppr_ms * ppr_passes + qualification_ms;
  }
};
icrowd::Result<SetupShadow> ShadowSetup(const CampaignRecipe& recipe);

/// Observes a closed-loop drive for the traced run: opens a span per
/// facade call (one request id per worker turn), and after each request
/// re-runs the layers it crossed on the live state, outside the timed
/// call — RefreshMany on a copy of the estimator for the workers answered
/// since the last refresh round, ComputeTopWorkerSets and GreedyAssign
/// when the scheme was recomputed.
class RequestProbe {
 public:
  explicit RequestProbe(SpanRecorder* spans) : spans_(spans) {}

  /// Hooks for DriveClosedLoop on `system`; the probe must outlive the
  /// drive. `service` (optional) receives the service-time callback too.
  DriveHooks Hooks(const icrowd::ICrowd* system, DriveHooks service = {});

  /// Adds the shadowed layers' percentiles and the median request self
  /// time to `values`.
  void AddTo(LayerValues* values) const;

  Samples refresh_ms, top_sets_ms, greedy_ms, request_self_us, late_ms;
  /// Time of the shadowed child layers, summed.
  double children_s = 0.0;

 private:
  void AfterRequest(const icrowd::ICrowd& system, int64_t request_ns);

  SpanRecorder* spans_;
  uint64_t request_id_ = 0;
  int64_t last_return_ns_ = 0;
  uint64_t rounds_seen_ = 0;
  uint64_t recomputes_seen_ = 0;
  std::set<icrowd::WorkerId> answered_since_refresh_;
};

/// Estimation and assign counts of the drives since `counters` was reset.
void AddDriveCounters(const CounterDelta& counters, LayerValues* values);

/// PPR counts of the creates since `counters` was reset, over `tasks`
/// tasks created.
void AddCreateCounters(const CounterDelta& counters, double tasks,
                       LayerValues* values);

/// Ingest batching and backpressure since `counters` was reset.
void AddHostCounters(const CounterDelta& counters, LayerValues* values);

/// Journal append and flush percentiles from the TimingSink spans; returns
/// their summed time in seconds.
double AddJournalSpans(const SpanRecorder& spans, LayerValues* values);

/// The names and units of every per-layer metric, in report order. Each
/// workload's traced run reports all of them, measured on what that
/// workload does.
const std::vector<std::pair<const char*, const char*>>& PerLayerMetrics();

/// Adds every per-layer metric from `values` to `result`, in report order;
/// a metric the workload did not measure fails the run.
void AddLayerMetrics(const LayerValues& values, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
