#include "layers.h"

#include <algorithm>
#include <vector>

namespace perfbench {

using icrowd::ICrowd;
using icrowd::TaskId;
using icrowd::WorkerId;

icrowd::Result<SetupShadow> ShadowSetup(const CampaignRecipe& recipe) {
  ShadowScope shadow_counts;
  int64_t t0 = NowNs();
  auto graph =
      icrowd::SimilarityGraph::Build(recipe.dataset, recipe.config.graph);
  int64_t t1 = NowNs();
  if (!graph.ok()) return graph.status();
  auto engine =
      icrowd::PprEngine::Precompute(*graph, recipe.config.estimator.ppr);
  int64_t t2 = NowNs();
  if (!engine.ok()) return engine.status();
  auto selection = icrowd::SelectQualificationGreedy(
      *engine,
      std::min(recipe.config.num_qualification, recipe.dataset.size()),
      recipe.config.influence_epsilon);
  int64_t t3 = NowNs();
  if (!selection.ok()) return selection.status();
  SetupShadow shadow;
  shadow.graph_ms = Ms(t1 - t0);
  shadow.ppr_ms = Ms(t2 - t1);
  shadow.qualification_ms = Ms(t3 - t2);
  return shadow;
}

DriveHooks RequestProbe::Hooks(const ICrowd* system, DriveHooks service) {
  auto& registry = icrowd::obs::MetricsRegistry::Global();
  rounds_seen_ = registry.CounterValue("icrowd.assign.refresh_rounds");
  recomputes_seen_ =
      registry.CounterValue("icrowd.assign.scheme_recomputations");
  answered_since_refresh_.clear();
  last_return_ns_ = NowNs();
  DriveHooks hooks;
  hooks.before = [this, service](Call call) {
    // The closed loop's next call is due when the previous one returned.
    late_ms.Add(Ms(NowNs() - last_return_ns_));
    if (call != Call::kAnswer) request_id_ = spans_->NewRequest();
    static const char* const kNames[] = {"core.arrive", "core.request",
                                         "core.answer", "core.leave"};
    spans_->Begin(kNames[static_cast<int>(call)], request_id_);
    if (service.before) service.before(call);
  };
  hooks.after = [this, system, service](Call call, WorkerId worker,
                                        std::optional<TaskId> task,
                                        int64_t ns) {
    spans_->End();
    if (service.after) service.after(call, worker, task, ns);
    if (call == Call::kAnswer) answered_since_refresh_.insert(worker);
    if (call == Call::kRequest) AfterRequest(*system, ns);
    last_return_ns_ = NowNs();
  };
  return hooks;
}

void RequestProbe::AfterRequest(const ICrowd& system, int64_t request_ns) {
  auto& registry = icrowd::obs::MetricsRegistry::Global();
  uint64_t rounds = registry.CounterValue("icrowd.assign.refresh_rounds");
  uint64_t recomputes =
      registry.CounterValue("icrowd.assign.scheme_recomputations");
  if (rounds == rounds_seen_ && recomputes == recomputes_seen_) {
    request_self_us.Add(Us(request_ns));  // a plan hit: no child layer ran
    return;
  }
  int64_t children_ns = 0;
  ShadowScope shadow_counts;
  if (rounds != rounds_seen_) {
    std::vector<WorkerId> dirty(answered_since_refresh_.begin(),
                                answered_since_refresh_.end());
    icrowd::AccuracyEstimator copy = system.estimator();
    int64_t s0 = NowNs();
    copy.RefreshMany(dirty, system.state(), system.dataset(), nullptr);
    int64_t s1 = NowNs();
    refresh_ms.Add(Ms(s1 - s0));
    spans_->Record("estimation.refresh", s0, s1, request_id_);
    children_ns += s1 - s0;
    answered_since_refresh_.clear();
  }
  if (recomputes != recomputes_seen_) {
    std::vector<WorkerId> active = system.ActiveWorkers();
    icrowd::AccuracyFn accuracy = system.estimator().AsAccuracyFn();
    int64_t s0 = NowNs();
    auto sets = icrowd::ComputeTopWorkerSets(system.state(), active, accuracy);
    int64_t s1 = NowNs();
    auto scheme = icrowd::GreedyAssign(std::move(sets));
    int64_t s2 = NowNs();
    top_sets_ms.Add(Ms(s1 - s0));
    greedy_ms.Add(Ms(s2 - s1));
    spans_->Record("assign.top_sets", s0, s1, request_id_);
    spans_->Record("assign.greedy", s1, s2, request_id_);
    children_ns += s2 - s0;
  }
  rounds_seen_ = rounds;
  recomputes_seen_ = recomputes;
  children_s += static_cast<double>(children_ns) / 1e9;
  request_self_us.Add(std::max(0.0, Us(request_ns - children_ns)));
}

void RequestProbe::AddTo(LayerValues* values) const {
  LayerValues& v = *values;
  v["estimation.refresh_ms.p50"] = refresh_ms.Percentile(0.5);
  v["estimation.refresh_ms.p99"] = refresh_ms.Percentile(0.99);
  v["assign.top_sets_ms.p50"] = top_sets_ms.Percentile(0.5);
  v["assign.top_sets_ms.p99"] = top_sets_ms.Percentile(0.99);
  v["assign.greedy_ms.p50"] = greedy_ms.Percentile(0.5);
  v["assign.greedy_ms.p99"] = greedy_ms.Percentile(0.99);
  v["core.request_self_us"] = request_self_us.Percentile(0.5);
}

void AddHostCounters(const CounterDelta& counters, LayerValues* values) {
  uint64_t batches = counters.Counter("icrowd.host.batches");
  (*values)["ingest.batch_mean"] =
      batches == 0 ? 0.0
                   : static_cast<double>(
                         counters.Counter("icrowd.host.events_routed")) /
                         static_cast<double>(batches);
  (*values)["ingest.backpressure_waits"] = static_cast<double>(
      counters.Counter("icrowd.ingest.backpressure_waits"));
}

double AddJournalSpans(const SpanRecorder& spans, LayerValues* values) {
  Samples append = spans.Durations("journal.append");
  Samples flush = spans.Durations("journal.flush");
  LayerValues& v = *values;
  v["journal.append_us.p50"] = append.Percentile(0.5);
  v["journal.append_us.p99"] = append.Percentile(0.99);
  v["journal.flush_us.p50"] = flush.Percentile(0.5);
  v["journal.flush_us.p99"] = flush.Percentile(0.99);
  return (append.Sum() + flush.Sum()) / 1e6;
}

void AddDriveCounters(const CounterDelta& counters, LayerValues* values) {
  auto ratio = [](double num, uint64_t den) {
    return den == 0 ? 0.0 : num / static_cast<double>(den);
  };
  LayerValues& v = *values;
  uint64_t requests = counters.Counter("icrowd.core.requests");
  uint64_t recomputes =
      counters.Counter("icrowd.assign.scheme_recomputations");
  v["estimation.refresh_rounds"] =
      static_cast<double>(counters.Counter("icrowd.assign.refresh_rounds"));
  v["estimation.dirty_workers_per_round"] =
      ratio(counters.HistogramSum("icrowd.assign.dirty_workers"),
            counters.HistogramCount("icrowd.assign.dirty_workers"));
  v["estimation.ppr_estimate_terms"] =
      static_cast<double>(counters.Counter("icrowd.ppr.estimate_terms"));
  v["assign.scheme_recomputations"] = static_cast<double>(recomputes);
  v["assign.plan_hit_ratio"] = ratio(
      static_cast<double>(counters.Counter("icrowd.assign.plan_hits")),
      requests);
  v["assign.plan_stale"] =
      static_cast<double>(counters.Counter("icrowd.assign.plan_stale"));
  v["assign.top_sets_computed_per_recompute"] = ratio(
      static_cast<double>(counters.Counter("icrowd.assign.top_sets_computed")),
      recomputes);
  v["assign.test_share"] = ratio(
      static_cast<double>(counters.Counter("icrowd.assign.test_assignments")),
      requests);
}

void AddCreateCounters(const CounterDelta& counters, double tasks,
                       LayerValues* values) {
  LayerValues& v = *values;
  v["graph.ppr_seeds_solved_per_create"] =
      tasks > 0 ? static_cast<double>(
                      counters.Counter("icrowd.ppr.seeds_solved")) /
                      tasks
                : 0.0;
  uint64_t seeds = counters.HistogramCount("icrowd.ppr.seed_support");
  v["graph.ppr_seed_nnz"] =
      seeds == 0 ? 0.0
                 : counters.HistogramSum("icrowd.ppr.seed_support") /
                       static_cast<double>(seeds);
}

const std::vector<std::pair<const char*, const char*>>& PerLayerMetrics() {
  static const auto* kMetrics =
      new std::vector<std::pair<const char*, const char*>>{
          {"graph.build_ms", "ms"},
          {"graph.ppr_precompute_ms", "ms"},
          {"graph.ppr_seeds_solved_per_create", "count"},
          {"graph.ppr_seed_nnz", "count"},
          {"qualification.select_ms", "ms"},
          {"estimation.refresh_rounds", "count"},
          {"estimation.dirty_workers_per_round", "count"},
          {"estimation.refresh_ms.p50", "ms"},
          {"estimation.refresh_ms.p99", "ms"},
          {"estimation.ppr_estimate_terms", "count"},
          {"assign.scheme_recomputations", "count"},
          {"assign.plan_hit_ratio", "ratio"},
          {"assign.plan_stale", "count"},
          {"assign.top_sets_computed_per_recompute", "count"},
          {"assign.top_sets_ms.p50", "ms"},
          {"assign.top_sets_ms.p99", "ms"},
          {"assign.greedy_ms.p50", "ms"},
          {"assign.greedy_ms.p99", "ms"},
          {"assign.test_share", "ratio"},
          {"core.create_ms.p50", "ms"},
          {"core.create_ms.p99", "ms"},
          {"core.restore_replay_ms", "ms"},
          {"core.request_self_us", "us"},
          {"journal.append_us.p50", "us"},
          {"journal.append_us.p99", "us"},
          {"journal.flush_us.p50", "us"},
          {"journal.flush_us.p99", "us"},
          {"journal.flushes_per_answer", "ratio"},
          {"journal.bytes_per_event", "B"},
          {"journal.read_ms", "ms"},
          {"ingest.batch_mean", "count"},
          {"ingest.backpressure_waits", "count"},
          {"host.submit_us.p50", "us"},
          {"host.submit_us.p99", "us"},
          {"host.drain_wait_us.p99", "us"},
          {"host.open_ms.p50", "ms"},
          {"host.open_ms.p99", "ms"},
          {"host.shard_event_skew", "ratio"},
          {"host.create_growth", "ratio"},
          {"host.generator_late_ms.p99", "ms"},
          {"ledger.attributed_frac", "ratio"},
          {"trace.overhead_frac", "ratio"},
      };
  return *kMetrics;
}

void AddLayerMetrics(const LayerValues& values, RunResult* result) {
  for (const auto& [name, unit] : PerLayerMetrics()) {
    auto it = values.find(name);
    if (it == values.end()) {
      result->Fail(std::string("trace did not measure ") + name);
      continue;
    }
    result->Add(name, it->second, unit);
  }
}

}  // namespace perfbench
