// Shared pieces of the repo benchmark: run options, sample statistics,
// the JSON result line, the workload recipes (datasets, configs, simulated
// workers) and the closed-loop worker driver both workloads record with.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "icrowd_api.h"

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now().time_since_epoch())
      .count();
}

/// Command-line options of one benchmark run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the checkout; removed by the caller.
  std::string workdir;
  /// Where the traced run writes its spans (JSONL); empty = do not write.
  std::string trace_out;
  /// Machine-shape knobs, required on the command line and pinned only in
  /// BENCHMARK.json's command (0 = not given): PPR precompute threads of
  /// the solo campaign and of each fleet campaign, and the host's shard
  /// count.
  size_t ppr_threads = 0;
  size_t fleet_ppr_threads = 0;
  size_t shards = 0;
  /// Test-only: shrink every workload to a few seconds.
  bool smoke = false;
  /// Test-only: corrupt one reference so the correctness gate must fail.
  bool inject_mismatch = false;
};

/// A bag of samples with interpolated percentiles (q in [0, 1]).
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  /// Pre-allocates, so adding on a timed path never reallocates.
  void Reserve(size_t n) { values_.reserve(n); }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  double Percentile(double q) const;
  double Median() const { return Percentile(0.5); }
  double Sum() const;
  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
};

/// One named figure of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload reports: the correctness verdict, operation counts and
/// every metric of the requested mode (end-to-end or per-layer).
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Why the run is incorrect (printed to stderr, never in the JSON).
  std::vector<std::string> mismatches;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Records one failed operation or verification mismatch; the run is
  /// then incorrect.
  void Fail(const std::string& what);
  /// Counts one attempted operation or check, failing it when !ok.
  bool Check(bool ok, const std::string& what);
  bool Check(const icrowd::Status& status, const std::string& what);
};

std::string ResultJson(const RunResult& result);

/// A progress line on stderr (stdout carries only the result line).
void Log(const char* format, ...) __attribute__((format(printf, 1, 2)));

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// SplitMix64 finalizer: derives independent seeds from (seed, index).
uint64_t Mix(uint64_t seed, uint64_t index);

// --- Workload recipes --------------------------------------------------

/// Everything one campaign needs: its input, its simulated crowd and the
/// departure rule of the closed-loop driver.
struct CampaignRecipe {
  icrowd::Dataset dataset;
  std::vector<icrowd::WorkerProfile> profiles;
  icrowd::ICrowdConfig config;
  size_t num_workers = 0;
  /// Seed of the simulated answers.
  uint64_t answer_seed = 0;
  /// Workers w with w % leave_stride == 0 leave once they hold
  /// leave_after + w % 5 answers (leave_after 0 = nobody leaves).
  size_t leave_after = 0;
  size_t leave_stride = 1;
};

icrowd::Result<CampaignRecipe> SoloRecipe(uint64_t seed, size_t ppr_threads,
                                          bool smoke);

/// Campaign `index` of the fleet: the multi-campaign host recipe, with
/// dataset shape, seed and worker churn varying per index.
icrowd::Result<CampaignRecipe> FleetRecipe(uint64_t seed, size_t index,
                                           size_t ppr_threads);

/// Share of non-qualification tasks whose result equals ground truth.
struct QualityTally {
  uint64_t correct = 0;
  uint64_t tasks = 0;
  uint64_t answers = 0;
  uint64_t dataset_tasks = 0;
  void Add(const icrowd::ICrowd& system);
  double Accuracy() const {
    return tasks == 0 ? 0.0 : static_cast<double>(correct) / tasks;
  }
  /// Answers collected per task: the crowd cost (Karger-Oh-Shah budget).
  double AnswersPerTask() const {
    return dataset_tasks == 0 ? 0.0
                              : static_cast<double>(answers) / dataset_tasks;
  }
};

// --- Closed-loop driver -------------------------------------------------

enum class Call { kArrive, kRequest, kAnswer, kLeave };

/// Observer of the closed loop; both hooks are optional. DriveClosedLoop
/// times each facade call alone, so work a hook does stays out of the
/// timing.
struct DriveHooks {
  /// Runs just before a facade call (the traced run opens a span here).
  std::function<void(Call)> before;
  /// Runs after it with the call's service time; `task` is the served
  /// task of a request (nullopt = none) or the answered task.
  std::function<void(Call, icrowd::WorkerId, std::optional<icrowd::TaskId>,
                     int64_t service_ns)>
      after;
};

/// Service times of the facade calls of closed-loop drives.
struct CallTimes {
  Samples request_us;
  Samples answer_us;
  /// Every call's service time, summed.
  double service_s = 0.0;

  /// Hooks recording into this; it must outlive the drive.
  DriveHooks Hooks();
};

struct DriveOutcome {
  uint64_t operations = 0;
  bool finished = false;
};

/// One request outstanding: a worker asks, is served, answers, then the
/// next worker (round-robin) asks, until the campaign finishes or no
/// worker can make progress. Answers are a pure function of (answer seed,
/// worker, task). Any refused call fails the drive.
icrowd::Result<DriveOutcome> DriveClosedLoop(icrowd::ICrowd* system,
                                             const CampaignRecipe& recipe,
                                             const DriveHooks& hooks);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
