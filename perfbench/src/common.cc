#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>

namespace perfbench {

using icrowd::ICrowd;
using icrowd::Label;
using icrowd::Result;
using icrowd::Status;
using icrowd::TaskId;
using icrowd::WorkerId;

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Percentile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  double rank = q * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double Samples::Sum() const {
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum;
}

void RunResult::Fail(const std::string& what) {
  ++failed;
  correct = false;
  if (mismatches.size() < 20) mismatches.push_back(what);
}

bool RunResult::Check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) Fail(what);
  return ok;
}

bool RunResult::Check(const Status& status, const std::string& what) {
  return Check(status.ok(), status.ok() ? what : what + ": " +
                                                     status.ToString());
}

std::string ResultJson(const RunResult& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    char value[64];
    // %.17g keeps every digit of the measured double; non-finite values
    // cannot appear in JSON and are reported as -1.
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : -1.0);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

void Log(const char* format, ...) {
  std::va_list args;
  va_start(args, format);
  std::fputs("perfbench: ", stderr);
  std::vfprintf(stderr, format, args);
  std::fputc('\n', stderr);
  va_end(args);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t Mix(uint64_t seed, uint64_t index) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {

Result<CampaignRecipe> MakeRecipe(size_t tasks_per_family, uint64_t data_seed,
                                  size_t num_workers, uint64_t decision_seed,
                                  size_t ppr_threads) {
  icrowd::EntityResolutionOptions er;
  er.tasks_per_family = tasks_per_family;
  er.seed = data_seed;
  auto dataset = icrowd::GenerateEntityResolution(er);
  if (!dataset.ok()) return dataset.status();
  CampaignRecipe recipe;
  recipe.dataset = dataset.MoveValueOrDie();
  recipe.profiles = icrowd::GenerateEntityResolutionWorkers(
      recipe.dataset, num_workers, Mix(data_seed, 1));
  recipe.num_workers = num_workers;
  recipe.config.graph.measure = icrowd::SimilarityMeasure::kJaccard;
  recipe.config.graph.threshold = 0.2;
  recipe.config.estimator.ppr.num_threads = ppr_threads;
  recipe.config.seed = decision_seed;
  recipe.answer_seed = Mix(decision_seed, 2);
  return recipe;
}

}  // namespace

Result<CampaignRecipe> SoloRecipe(uint64_t seed, size_t ppr_threads,
                                  bool smoke) {
  // About 1000 tasks (250 per family), 60 workers, k = 3, Q = 10: the
  // paper's deployment at the size where graph and PPR dominate set-up.
  auto recipe = MakeRecipe(smoke ? 25 : 250, Mix(seed, 11), smoke ? 20 : 60,
                           Mix(seed, 12), ppr_threads);
  if (!recipe.ok()) return recipe;
  recipe->leave_after = 20;
  recipe->leave_stride = 3;
  return recipe;
}

Result<CampaignRecipe> FleetRecipe(uint64_t seed, size_t index,
                                   size_t ppr_threads) {
  // The multi-campaign host recipe: 8-10 tasks per family, 12 workers,
  // Q = 4 with 3 warm-up tasks per worker; every third campaign churns.
  auto recipe = MakeRecipe(8 + index % 3, Mix(seed, 1000 + 2 * index), 12,
                           Mix(seed, 1001 + 2 * index), ppr_threads);
  if (!recipe.ok()) return recipe;
  recipe->config.num_qualification = 4;
  recipe->config.warmup.tasks_per_worker = 3;
  if (index % 3 == 1) {
    recipe->leave_after = 6;
    recipe->leave_stride = 1;
  }
  return recipe;
}

void QualityTally::Add(const ICrowd& system) {
  std::vector<Label> results = system.Results();
  const icrowd::Dataset& dataset = system.dataset();
  for (size_t t = 0; t < dataset.size(); ++t) {
    TaskId task = static_cast<TaskId>(t);
    if (system.state().IsQualification(task)) continue;
    ++tasks;
    Label truth = dataset.task(task).ground_truth.value_or(icrowd::kNoLabel);
    if (results[t] == truth) {
      ++correct;
    }
  }
  answers += system.state().AllAnswers().size();
  dataset_tasks += dataset.size();
}

namespace {

/// The simulated answer: correct with the profile's true accuracy on the
/// task's domain, otherwise a uniformly chosen wrong label.
Label SimulatedAnswer(const CampaignRecipe& recipe, WorkerId worker,
                      TaskId task) {
  const icrowd::Microtask& microtask = recipe.dataset.task(task);
  const icrowd::WorkerProfile& profile =
      recipe.profiles[static_cast<size_t>(worker) % recipe.profiles.size()];
  uint64_t h = Mix(Mix(recipe.answer_seed, static_cast<uint64_t>(worker)),
                   static_cast<uint64_t>(task));
  double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  Label truth = microtask.ground_truth.value_or(icrowd::kNo);
  if (u < profile.TrueAccuracy(microtask) || microtask.num_choices <= 1) {
    return truth;
  }
  Label wrong = static_cast<Label>(
      Mix(h, 1) % static_cast<uint64_t>(microtask.num_choices - 1));
  if (wrong >= truth) ++wrong;
  return wrong;
}

bool Leaves(const CampaignRecipe& recipe, WorkerId worker,
            const ICrowd& system) {
  if (recipe.leave_after == 0) return false;
  size_t w = static_cast<size_t>(worker);
  if (w % recipe.leave_stride != 0) return false;
  return system.state().WorkerAnswers(worker).size() >=
         recipe.leave_after + w % 5;
}

}  // namespace

DriveHooks CallTimes::Hooks() {
  DriveHooks hooks;
  hooks.after = [this](Call call, WorkerId, std::optional<TaskId>,
                       int64_t ns) {
    service_s += static_cast<double>(ns) / 1e9;
    if (call == Call::kRequest) {
      request_us.Add(static_cast<double>(ns) / 1e3);
    } else if (call == Call::kAnswer) {
      answer_us.Add(static_cast<double>(ns) / 1e3);
    }
  };
  return hooks;
}

Result<DriveOutcome> DriveClosedLoop(ICrowd* system,
                                     const CampaignRecipe& recipe,
                                     const DriveHooks& hooks) {
  DriveOutcome outcome;
  auto before = [&](Call call) {
    if (hooks.before) hooks.before(call);
  };
  auto after = [&](Call call, WorkerId worker, std::optional<TaskId> task,
                   int64_t ns) {
    ++outcome.operations;
    if (hooks.after) hooks.after(call, worker, task, ns);
  };
  while (system->state().num_workers() < recipe.num_workers) {
    before(Call::kArrive);
    int64_t t0 = NowNs();
    auto arrived = system->OnWorkerArrived();
    int64_t ns = NowNs() - t0;
    if (!arrived.ok()) return arrived.status();
    after(Call::kArrive, *arrived, std::nullopt, ns);
  }
  constexpr int kMaxRounds = 100000;  // livelock guard
  for (int round = 0; round < kMaxRounds && !system->Finished(); ++round) {
    bool served = false;
    for (size_t i = 0; i < recipe.num_workers && !system->Finished(); ++i) {
      WorkerId w = static_cast<WorkerId>(i);
      ICrowd::WorkerStatus status = system->worker_status(w);
      if (status != ICrowd::WorkerStatus::kWarmup &&
          status != ICrowd::WorkerStatus::kActive) {
        continue;
      }
      if (status == ICrowd::WorkerStatus::kActive &&
          Leaves(recipe, w, *system)) {
        before(Call::kLeave);
        int64_t t0 = NowNs();
        Status left = system->OnWorkerLeft(w);
        int64_t ns = NowNs() - t0;
        if (!left.ok()) return left;
        after(Call::kLeave, w, std::nullopt, ns);
        continue;
      }
      before(Call::kRequest);
      int64_t t0 = NowNs();
      auto task = system->RequestTask(w);
      int64_t ns = NowNs() - t0;
      if (!task.ok()) return task.status();
      after(Call::kRequest, w, *task, ns);
      if (!task->has_value()) continue;
      served = true;
      TaskId t = task->value();
      Label answer = SimulatedAnswer(recipe, w, t);
      before(Call::kAnswer);
      t0 = NowNs();
      Status submitted = system->SubmitAnswer(w, t, answer);
      ns = NowNs() - t0;
      if (!submitted.ok()) return submitted;
      after(Call::kAnswer, w, t, ns);
    }
    if (!served) break;
  }
  outcome.finished = system->Finished();
  return outcome;
}

}  // namespace perfbench
