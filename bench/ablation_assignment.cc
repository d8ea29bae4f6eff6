// Ablation bench for the assignment design choices: multi-round scheme
// planning vs a single Algorithm 3 pass, performance testing on/off, and
// the set-packing greedy vs an exact one-to-one Hungarian matching per
// round (Kuhn [20], the classical alternative the paper's related work
// cites).

#include <cstdio>

#include "assign/adaptive_assigner.h"
#include "assign/hungarian_assigner.h"
#include "bench_util.h"
#include "core/strategy_factory.h"
#include "qualification/qualification_selector.h"
#include "sim/simulator.h"

using namespace icrowd;         // NOLINT
using namespace icrowd::bench;  // NOLINT

namespace {

/// Builds a variant's assigner from the campaign's PPR engine (the one
/// qualification selection ran on) and its qualification tasks.
using MakeAssignerFn = std::function<std::unique_ptr<Assigner>(
    PprEngine, const std::vector<TaskId>&)>;

double RunCampaigns(const BenchDataset& bd, const ICrowdConfig& base_config,
                    const MakeAssignerFn& make_assigner, int seeds) {
  double sum = 0.0;
  for (int s = 0; s < seeds; ++s) {
    ICrowdConfig config = base_config;
    config.seed = 1000 + s;
    auto engine = PprEngine::Precompute(bd.graph, config.estimator.ppr);
    auto qual = SelectQualificationGreedy(*engine, config.num_qualification,
                                          config.influence_epsilon);
    auto assigner = make_assigner(engine.MoveValueOrDie(), qual->tasks);
    SimulationOptions sim_options;
    sim_options.qualification_tasks = qual->tasks;
    sim_options.warmup = config.warmup;
    sim_options.seed = config.seed;
    CrowdSimulator simulator(&bd.dataset, &bd.workers, sim_options);
    auto sim = simulator.Run(assigner.get());
    if (!sim.ok()) {
      std::fprintf(stderr, "campaign failed: %s\n",
                   sim.status().ToString().c_str());
      std::abort();
    }
    std::set<TaskId> qset(qual->tasks.begin(), qual->tasks.end());
    sum += EvaluateAccuracy(bd.dataset, sim->consensus, qset).overall;
  }
  return sum / seeds;
}

std::unique_ptr<AccuracyEstimator> MakeEstimator(
    PprEngine engine, const ICrowdConfig& config,
    const std::vector<TaskId>& qualification) {
  auto est = AccuracyEstimator::FromEngine(std::move(engine), config.estimator);
  if (!est.ok()) std::abort();
  auto owned = std::make_unique<AccuracyEstimator>(est.MoveValueOrDie());
  owned->SetQualificationTasks(qualification);
  return owned;
}

}  // namespace

ICROWD_BENCH("ablation_assignment") {
  std::printf("=== Ablation: assignment design choices (ItemCompare) "
              "===\n\n");
  BenchDataset bd = LoadItemCompare();
  ICrowdConfig config;
  const int kSeeds = ctx.smoke() ? 2 : 6;

  struct Variant {
    const char* name;
    const char* metric_key;
    AdaptiveAssignerOptions options;
  };
  AdaptiveAssignerOptions single_round;
  single_round.multi_round_planning = false;
  AdaptiveAssignerOptions no_perf_testing;
  no_perf_testing.performance_testing = false;
  const Variant kVariants[] = {
      {"Adapt (full)", "adapt_full", {}},
      {"single-round scheme", "single_round", single_round},
      {"no performance testing", "no_perf_testing", no_perf_testing},
  };
  for (const Variant& variant : kVariants) {
    double acc = RunCampaigns(
        bd, config,
        [&](PprEngine engine,
            const std::vector<TaskId>& qual) -> std::unique_ptr<Assigner> {
          return std::make_unique<AdaptiveAssigner>(
              &bd.dataset, MakeEstimator(std::move(engine), config, qual),
              variant.options);
        },
        kSeeds);
    std::printf("  %-24s overall %s\n", variant.name,
                FormatDouble(acc, 3).c_str());
    std::fflush(stdout);
    ctx.ReportMetric(std::string("accuracy.") + variant.metric_key, acc);
    ctx.AddIterations(bd.dataset.size() * static_cast<size_t>(kSeeds));
  }

  double hungarian = RunCampaigns(
      bd, config,
      [&](PprEngine engine,
          const std::vector<TaskId>& qual) -> std::unique_ptr<Assigner> {
        return std::make_unique<HungarianAssigner>(
            &bd.dataset, MakeEstimator(std::move(engine), config, qual));
      },
      kSeeds);
  std::printf("  %-24s overall %s\n", "Hungarian matching",
              FormatDouble(hungarian, 3).c_str());
  ctx.ReportMetric("accuracy.hungarian", hungarian);
  ctx.AddIterations(bd.dataset.size() * static_cast<size_t>(kSeeds));

  std::printf(
      "\nThe single-round variant routes most workers through step-3 "
      "testing (exploration\nheavy); Hungarian matches each worker optimally "
      "one-to-one but ignores the\nk-worker-set structure majority voting "
      "depends on.\n");
}
