#include "sim/simulator.h"

#include <algorithm>
#include <queue>
#include <string>

#include "common/logging.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"

namespace icrowd {

namespace {

struct WorkerRuntime {
  WorkerId id = -1;
  size_t profile_index = 0;
  bool registered = false;
  bool left = false;
  int64_t remaining = 0;
};

struct Event {
  double time;
  uint64_t seq;  // FIFO tie-break for equal times
  size_t runtime_index;
  bool operator>(const Event& other) const {
    if (time != other.time) return time > other.time;
    return seq > other.seq;
  }
};

/// Incremental campaign scoreboard: folds each completed task's consensus
/// into running accuracy and (binary) F1 so the simulator can emit one
/// trajectory event per completion without rescoring the whole dataset.
/// The driver loop is single-threaded, so emission order — and therefore
/// the exported event stream — is deterministic.
struct Scoreboard {
  size_t completed = 0;
  size_t correct = 0;
  size_t true_pos = 0;
  size_t false_pos = 0;
  size_t false_neg = 0;

  void Fold(Label consensus, Label truth) {
    ++completed;
    if (consensus == truth) ++correct;
    if (consensus == kYes && truth == kYes) ++true_pos;
    if (consensus == kYes && truth != kYes) ++false_pos;
    if (consensus != kYes && truth == kYes) ++false_neg;
  }

  double Accuracy() const {
    return completed == 0
               ? 0.0
               : static_cast<double>(correct) / static_cast<double>(completed);
  }

  double F1() const {
    double denom = static_cast<double>(2 * true_pos + false_pos + false_neg);
    if (denom == 0.0) return 0.0;
    return 2.0 * static_cast<double>(true_pos) / denom;
  }
};

}  // namespace

Result<SimulationResult> CrowdSimulator::Run(Assigner* assigner) {
  if (assigner == nullptr) {
    return Status::InvalidArgument("assigner must not be null");
  }
  if (dataset_ == nullptr || profiles_ == nullptr) {
    return Status::InvalidArgument("dataset/profiles must not be null");
  }
  if (profiles_->empty()) {
    return Status::InvalidArgument("worker profile pool is empty");
  }
  if (options_.assignment_size < 1 || options_.assignment_size % 2 == 0) {
    return Status::InvalidArgument("assignment_size k must be odd and >= 1");
  }
  ICROWD_RETURN_NOT_OK(dataset_->Validate());
  for (const Microtask& t : dataset_->tasks()) {
    if (!t.ground_truth.has_value()) {
      return Status::FailedPrecondition(
          "simulation requires ground truth on every task (task " +
          std::to_string(t.id) + " lacks it)");
    }
  }
  if (options_.use_warmup && options_.qualification_tasks.empty()) {
    return Status::InvalidArgument(
        "use_warmup requires non-empty qualification_tasks");
  }

  CampaignState state(dataset_->size(), options_.assignment_size);
  SimulationResult result;
  result.qualification_tasks = options_.qualification_tasks;

  // Qualification tasks are globally completed from the start (their truth
  // is known) and exempt from the k-slot limit.
  for (TaskId t : options_.qualification_tasks) {
    state.MarkQualification(t);
    state.ForceComplete(t, *dataset_->task(t).ground_truth);
  }

  Result<WarmupComponent> warmup = Status::FailedPrecondition("no warmup");
  if (options_.use_warmup) {
    warmup = WarmupComponent::Create(dataset_, options_.qualification_tasks,
                                     options_.warmup);
    if (!warmup.ok()) return warmup.status();
  }

  auto& registry = obs::MetricsRegistry::Global();
  static const obs::Counter requests_counter = registry.GetCounter(
      "icrowd.sim.requests", {true, "task requests served by the assigner"});
  static const obs::Counter answers_counter = registry.GetCounter(
      "icrowd.sim.answers", {true, "work answers recorded"});
  static const obs::Counter qualification_answers_counter =
      registry.GetCounter("icrowd.sim.qualification_answers",
                          {true, "warm-up answers recorded"});
  static const obs::Counter spawned_counter = registry.GetCounter(
      "icrowd.sim.workers_spawned", {true, "simulated workers spawned"});
  static const obs::Counter rejected_counter = registry.GetCounter(
      "icrowd.sim.workers_rejected",
      {true, "workers eliminated by warm-up grading"});
  static const obs::Counter respawn_counter = registry.GetCounter(
      "icrowd.sim.pool_respawns",
      {true, "times the worker pool was recycled"});
  static const obs::Histogram request_seconds = registry.GetHistogram(
      "icrowd.sim.request_seconds", obs::ExponentialBuckets(1e-6, 4, 10),
      {false, "wall-clock per Assigner::RequestTask call"});
  ICROWD_TRACE_SCOPE("sim.run");

  Rng rng(options_.seed);
  Scoreboard scoreboard;
  std::vector<WorkerRuntime> runtimes;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue;
  uint64_t seq = 0;
  double now = 0.0;

  auto spawn_pool = [&] {
    for (size_t p = 0; p < profiles_->size(); ++p) {
      WorkerRuntime rt;
      rt.id = state.RegisterWorker();
      rt.profile_index = p;
      rt.remaining = std::max<int64_t>(1, (*profiles_)[p].willingness);
      result.worker_profile.push_back(p);
      ++result.workers_spawned;
      spawned_counter.Increment();
      queue.push({now + (*profiles_)[p].arrival_time, seq++,
                  runtimes.size()});
      runtimes.push_back(rt);
    }
  };
  spawn_pool();
  int respawns = 0;

  auto active_workers = [&] {
    std::vector<WorkerId> active;
    for (const WorkerRuntime& rt : runtimes) {
      if (rt.registered && !rt.left) active.push_back(rt.id);
    }
    return active;
  };

  auto generate_answer = [&](const WorkerRuntime& rt, TaskId task) -> Label {
    const Microtask& t = dataset_->task(task);
    double accuracy = (*profiles_)[rt.profile_index].TrueAccuracy(t);
    Label truth = *t.ground_truth;
    if (rng.Bernoulli(accuracy)) return truth;
    if (t.num_choices <= 2) return truth == kYes ? kNo : kYes;
    // Multi-choice: a wrong answer is uniform over the other choices.
    Label wrong = static_cast<Label>(rng.UniformInt(0, t.num_choices - 2));
    return wrong >= truth ? wrong + 1 : wrong;
  };

  size_t events = 0;
  while (!state.AllCompleted()) {
    if (queue.empty()) {
      if (respawns >= options_.max_pool_respawns) break;
      ++respawns;
      respawn_counter.Increment();
      spawn_pool();
      continue;
    }
    if (++events > options_.max_events) {
      ICROWD_LOG(Warning) << "simulation hit max_events with "
                          << state.UncompletedTasks().size()
                          << " tasks uncompleted";
      break;
    }
    Event event = queue.top();
    queue.pop();
    now = std::max(now, event.time);
    WorkerRuntime& rt = runtimes[event.runtime_index];
    if (rt.left) continue;
    const WorkerProfile& profile = (*profiles_)[rt.profile_index];

    // Warm-up phase: qualification tasks until graded.
    if (options_.use_warmup && !rt.registered) {
      std::optional<TaskId> qual = warmup->NextTask(rt.id);
      if (qual.has_value()) {
        Label answer = generate_answer(rt, *qual);
        ICROWD_RETURN_NOT_OK(state.MarkAssigned(*qual, rt.id));
        ICROWD_RETURN_NOT_OK(
            state.RecordAnswer({*qual, rt.id, answer, now}));
        result.answers.push_back({*qual, rt.id, answer, now});
        result.total_cost += options_.price_per_assignment;
        result.qualification_cost += options_.price_per_assignment;
        qualification_answers_counter.Increment();
        ICROWD_RETURN_NOT_OK(warmup->RecordAnswer(rt.id, *qual, answer));
        queue.push({now + profile.mean_dwell, seq++, event.runtime_index});
        continue;
      }
      auto verdict = warmup->Evaluate(rt.id);
      if (!verdict.ok()) return verdict.status();
      if (!verdict->accepted) {
        rt.left = true;
        ++result.workers_rejected;
        rejected_counter.Increment();
        registry.RecordEvent("sim.worker_rejected",
                             {{"worker", static_cast<double>(rt.id)},
                              {"accuracy", verdict->average_accuracy}});
        continue;
      }
      rt.registered = true;
      assigner->OnWorkerRegistered(rt.id, verdict->average_accuracy, state);
      // Fall through: immediately request a real task.
    } else if (!rt.registered) {
      rt.registered = true;
      assigner->OnWorkerRegistered(rt.id, 0.5, state);
    }

    ++result.num_requests;
    requests_counter.Increment();
    std::vector<WorkerId> active = active_workers();
    Stopwatch timer;
    std::optional<TaskId> task = assigner->RequestTask(rt.id, state, active);
    double elapsed = timer.ElapsedSeconds();
    request_seconds.Observe(elapsed);
    result.assignment_seconds += elapsed;
    result.max_assignment_seconds =
        std::max(result.max_assignment_seconds, elapsed);

    if (!task.has_value()) {
      rt.left = true;  // nothing for this worker: it returns the HIT
      continue;
    }
    if (!state.CanAssign(*task, rt.id)) {
      return Status::Internal("assigner returned unassignable task " +
                              std::to_string(*task));
    }
    Label answer = generate_answer(rt, *task);
    ICROWD_RETURN_NOT_OK(state.MarkAssigned(*task, rt.id));
    AnswerRecord record{*task, rt.id, answer, now};
    ICROWD_RETURN_NOT_OK(state.RecordAnswer(record));
    result.answers.push_back(record);
    result.work_answers.push_back(record);
    result.total_cost += options_.price_per_assignment;
    answers_counter.Increment();
    if (state.IsCompleted(*task)) {
      // One trajectory tick per completed task — the machine-readable
      // time series behind Figures 8-10 (accuracy/F1 vs budget spent).
      auto consensus = state.Consensus(*task);
      scoreboard.Fold(consensus.value_or(kNoLabel),
                      *dataset_->task(*task).ground_truth);
      registry.RecordEvent(
          "sim.task_completed",
          {{"task", static_cast<double>(*task)},
           {"completed", static_cast<double>(scoreboard.completed)},
           {"accuracy", scoreboard.Accuracy()},
           {"f1", scoreboard.F1()},
           {"budget", result.total_cost},
           {"workers_rejected",
            static_cast<double>(result.workers_rejected)}});
    }
    assigner->OnAnswer(record, state);

    if (--rt.remaining <= 0) {
      rt.left = true;
    } else {
      queue.push({now + profile.mean_dwell, seq++, event.runtime_index});
    }
  }

  result.completed_all = state.AllCompleted();
  result.assigner = assigner->Stats();
  result.consensus.assign(dataset_->size(), kNoLabel);
  for (size_t t = 0; t < dataset_->size(); ++t) {
    auto consensus = state.Consensus(static_cast<TaskId>(t));
    if (consensus.has_value()) result.consensus[t] = *consensus;
  }
  return result;
}

}  // namespace icrowd
