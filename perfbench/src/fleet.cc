// fleet_burst: about 1000 small, varied campaigns hosted in one
// CampaignManager with file journals under journal_dir.
//
// Each campaign's event stream is first recorded by driving it solo through
// the facade (closed loop, FileSink journal); the recording is the
// reference every hosted campaign must reproduce. A rep then creates the
// whole fleet in a fresh manager (the set-up), and one generator thread
// submits the recorded streams, interleaved four events per campaign at a
// time, as fast as backpressure allows, then calls DrainAll: host capacity.
// Every rep ends with kill and recover: Shutdown, then a new manager opens
// every campaign from its journal file, and each reopened campaign must
// equal its pre-shutdown snapshot.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "layers.h"
#include "workloads.h"

namespace perfbench {

using icrowd::CampaignHandle;
using icrowd::CampaignManager;
using icrowd::ICrowd;
using icrowd::IngestEvent;
using icrowd::Label;
using icrowd::Status;
using icrowd::TaskId;
using icrowd::WorkerId;

namespace {

constexpr size_t kFleetSize = 1000;
constexpr size_t kSmokeFleetSize = 30;
/// Events of one campaign submitted back to back in the interleaving.
constexpr size_t kChunk = 4;
/// Creating the fleet, feeding it as a burst and recovering it take about
/// this long on the reference machine (4 cores, Release). A run makes about
/// --seconds / kRepSeconds reps, and at least kMinReps; the count depends
/// on --seconds alone, never on a timing.
constexpr double kRepSeconds = 5.5;
constexpr int kMinReps = 2;
/// The traced run shadows the set-up layers of every kSampleEvery-th
/// campaign.
constexpr size_t kSampleEvery = 25;

namespace fs = std::filesystem;

/// One campaign's solo recording.
struct Recorded {
  CampaignRecipe recipe;
  std::vector<IngestEvent> stream;
  std::vector<Label> results;
  uint64_t events_applied = 0;
};

/// The traced run's observations.
struct Probe {
  SpanRecorder spans;
  LayerValues values;
  RequestProbe requests{&spans};
};

std::string CampaignName(size_t index) {
  return "campaign-" + std::to_string(index);
}

bool RecordFleet(const RunOptions& options, size_t fleet,
                 std::vector<Recorded>* out, QualityTally* quality,
                 Probe* probe, RunResult* result) {
  fs::path dir = fs::path(options.workdir) / "record";
  fs::create_directories(dir);
  CounterDelta counters;
  double created_tasks = 0.0;
  Samples graph_ms, ppr_ms, qualification_ms, replay_ms;
  out->resize(fleet);
  for (size_t i = 0; i < fleet; ++i) {
    auto recipe = FleetRecipe(options.seed, i, options.fleet_ppr_threads);
    if (!result->Check(recipe.status(), "fleet recipe")) return false;
    Recorded& rec = (*out)[i];
    rec.recipe = recipe.MoveValueOrDie();
    std::string path = (dir / (CampaignName(i) + ".journal")).string();
    auto file = icrowd::FileSink::Open(path, /*truncate=*/true);
    if (!result->Check(file.status(), "open recording journal")) return false;
    icrowd::ICrowdConfig config = rec.recipe.config;
    config.journal_sink = file.MoveValueOrDie();
    auto created = ICrowd::Create(rec.recipe.dataset, config);
    if (!result->Check(created.status(), "create recording campaign")) {
      return false;
    }
    std::unique_ptr<ICrowd> system = created.MoveValueOrDie();
    created_tasks += static_cast<double>(rec.recipe.dataset.size());

    DriveHooks hooks = probe != nullptr
                           ? probe->requests.Hooks(system.get(), DriveHooks{})
                           : DriveHooks{};
    auto outcome = DriveClosedLoop(system.get(), rec.recipe, hooks);
    if (!result->Check(outcome.status(), "drive recording campaign")) {
      return false;
    }
    result->attempted += outcome->operations;
    rec.results = system->Results();
    rec.events_applied = system->events_applied();
    // Hosted campaigns must reproduce these results (checked per rep), so
    // the fleet's quality is the recording's.
    quality->Add(*system);
    system.reset();
    config.journal_sink.reset();
    auto bytes = icrowd::ReadFileBytes(path);
    if (!result->Check(bytes.status(), "read recording journal")) return false;
    fs::remove(path);
    auto parsed = icrowd::ReadJournal(*bytes);
    if (!result->Check(parsed.status(), "parse recording journal")) {
      return false;
    }
    rec.stream = icrowd::IngestStreamFromJournal(parsed->events);

    if (probe != nullptr && i % kSampleEvery == 0) {
      auto shadow = ShadowSetup(rec.recipe);
      if (!result->Check(shadow.status(), "shadow set-up")) return false;
      graph_ms.Add(shadow->graph_ms);
      ppr_ms.Add(shadow->ppr_ms);
      qualification_ms.Add(shadow->qualification_ms);
      ShadowScope shadow_counts;
      int64_t r0 = NowNs();
      auto restored =
          ICrowd::Restore(rec.recipe.dataset, rec.recipe.config, {}, *bytes);
      int64_t r1 = NowNs();
      result->Check(restored.status(), "restore recorded campaign");
      // PPR runs twice per create (qualification and estimator).
      replay_ms.Add(std::max(0.0, Ms(r1 - r0) - shadow->RebuildMs(2.0)));
    }
  }
  if (probe != nullptr) {
    LayerValues& v = probe->values;
    AddCreateCounters(counters, created_tasks, &v);
    AddDriveCounters(counters, &v);
    v["graph.build_ms"] = graph_ms.Median();
    v["graph.ppr_precompute_ms"] = ppr_ms.Median();
    v["qualification.select_ms"] = qualification_ms.Median();
    v["core.restore_replay_ms"] = replay_ms.Median();
    probe->requests.AddTo(&v);
  }
  return true;
}

/// The interleaved submission order: (campaign, event index) pairs, kChunk
/// events of each campaign in turn.
std::vector<std::pair<uint32_t, uint32_t>> Interleave(
    const std::vector<Recorded>& fleet) {
  std::vector<std::pair<uint32_t, uint32_t>> order;
  std::vector<size_t> position(fleet.size(), 0);
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (size_t c = 0; c < fleet.size(); ++c) {
      size_t end = std::min(position[c] + kChunk, fleet[c].stream.size());
      for (; position[c] < end; ++position[c]) {
        order.emplace_back(static_cast<uint32_t>(c),
                           static_cast<uint32_t>(position[c]));
        progressed = true;
      }
    }
  }
  return order;
}

/// What one hosted rep measured.
struct Rep {
  double setup_s = 0.0;
  double events_per_s = 0.0;
  Samples create_ms;
  Samples ack_us;
  /// The acks of request and of answer events: what a worker waits for
  /// until the host has applied its request or answer durably.
  Samples request_ack_us;
  Samples answer_ack_us;
  Samples submit_us;
  Samples drain_us;
  Samples late_ms;
  double hosted_wall_s = 0.0;
  /// The generator's time inside host calls over the hosted wall.
  Ledger ledger;
  double recovery_s = 0.0;
  Samples open_ms;
};

/// Files an ack under its event's kind.
void AddByKind(const IngestEvent& event, double ack_us, Rep* rep) {
  if (event.kind == icrowd::IngestEventKind::kWorkerRequested) {
    rep->request_ack_us.Add(ack_us);
  } else if (event.kind == icrowd::IngestEventKind::kAnswerSubmitted) {
    rep->answer_ack_us.Add(ack_us);
  }
}

/// One hosted rep: create the fleet in a fresh manager, feed it, verify
/// every campaign against its recording, and (when `recover`) kill and
/// recover the host. A non-null `probe` makes it the traced rep.
void RunRep(const RunOptions& options,
            const std::vector<Recorded>& fleet,
            const std::vector<std::pair<uint32_t, uint32_t>>& order,
            const fs::path& dir, bool recover, bool inject_mismatch,
            Probe* probe, Rep* rep, RunResult* result) {
  SpanRecorder* spans = probe != nullptr ? &probe->spans : nullptr;
  if (spans != nullptr) {
    // A thread records at most two spans per event (the generator a submit,
    // a shard an append and a flush) plus a few per campaign.
    spans->ReservePerThread(2 * order.size() + 8 * fleet.size());
  }
  icrowd::HostConfig host;
  host.num_shards = options.shards;
  host.journal_dir = dir.string();
  auto started = CampaignManager::Start(host);
  if (!result->Check(started.status(), "start host")) return;
  std::unique_ptr<CampaignManager> manager = started.MoveValueOrDie();

  // --- Set-up: the fleet's campaigns -----------------------------------
  std::vector<CampaignHandle> handles;
  handles.reserve(fleet.size());
  int64_t setup0 = NowNs();
  for (size_t i = 0; i < fleet.size(); ++i) {
    CampaignManager::CampaignOptions campaign;
    campaign.name = CampaignName(i);
    campaign.dataset = fleet[i].recipe.dataset;
    campaign.config = fleet[i].recipe.config;
    if (probe != nullptr) {
      // Same file the host would open, behind a timing wrapper.
      fs::path shard_dir =
          dir / ("shard-" + std::to_string(i % options.shards));
      fs::create_directories(shard_dir);
      auto file = icrowd::FileSink::Open(
          (shard_dir / (campaign.name + ".journal")).string(),
          /*truncate=*/true);
      if (!result->Check(file.status(), "open hosted journal")) return;
      campaign.config.journal_sink =
          std::make_shared<TimingSink>(file.MoveValueOrDie(), &probe->spans);
    }
    int64_t c0 = NowNs();
    auto handle = manager->CreateCampaign(std::move(campaign));
    int64_t c1 = NowNs();
    if (!result->Check(handle.status(), "create hosted campaign")) return;
    rep->create_ms.Add(Ms(c1 - c0));
    if (spans != nullptr) spans->Record("host.create", c0, c1);
    handles.push_back(*handle);
  }
  rep->setup_s = static_cast<double>(NowNs() - setup0) / 1e9;

  // --- Hosted phase -----------------------------------------------------
  rep->late_ms.Reserve(order.size());
  rep->submit_us.Reserve(order.size());
  rep->ack_us.Reserve(order.size());
  CounterDelta counters;
  int64_t start = NowNs();
  std::vector<int64_t> issued(order.size());
  int64_t last_return = start;
  for (size_t k = 0; k < order.size(); ++k) {
    const auto& [c, e] = order[k];
    int64_t s0 = NowNs();
    Status submitted = manager->SubmitEvent(handles[c], fleet[c].stream[e]);
    int64_t s1 = NowNs();
    result->Check(submitted, "burst submit");
    // As fast as possible: each event is due when the previous submit
    // returned.
    rep->late_ms.Add(Ms(s0 - last_return));
    rep->submit_us.Add(Us(s1 - s0));
    issued[k] = s0;
    last_return = s1;
    if (spans != nullptr) spans->Record("host.submit", s0, s1, k + 1);
  }
  int64_t d0 = NowNs();
  result->Check(manager->DrainAll(), "burst drain");
  int64_t end = NowNs();
  rep->drain_us.Add(Us(end - d0));
  if (spans != nullptr) spans->Record("host.drain_all", d0, end);
  for (size_t k = 0; k < order.size(); ++k) {
    const auto& [c, e] = order[k];
    rep->ack_us.Add(Us(end - issued[k]));
    AddByKind(fleet[c].stream[e], Us(end - issued[k]), rep);
  }
  rep->hosted_wall_s = static_cast<double>(end - start) / 1e9;
  rep->ledger.wall_s = rep->hosted_wall_s;
  rep->ledger.attributed_s =
      (rep->submit_us.Sum() + rep->drain_us.Sum()) / 1e6;
  rep->events_per_s = static_cast<double>(order.size()) / rep->hosted_wall_s;

  // --- Correctness gate: every campaign equals its solo recording -------
  uint64_t answers = 0;
  for (size_t i = 0; i < fleet.size(); ++i) {
    auto inspected = manager->Inspect(handles[i]);
    if (!result->Check(inspected.status(), "inspect hosted campaign")) {
      continue;
    }
    std::vector<Label> expected = fleet[i].results;
    if (inject_mismatch && i == 0 && !expected.empty()) {
      expected[0] = expected[0] == icrowd::kYes ? icrowd::kNo : icrowd::kYes;
    }
    result->Check((*inspected)->Results() == expected &&
                      (*inspected)->events_applied() ==
                          fleet[i].events_applied,
                  CampaignName(i) + " diverges from its solo recording");
    answers += (*inspected)->state().AllAnswers().size();
  }

  if (probe != nullptr) {
    LayerValues& v = probe->values;
    AddHostCounters(counters, &v);
    v["journal.flushes_per_answer"] =
        answers == 0 ? 0.0
                     : static_cast<double>(
                           counters.Counter("icrowd.journal.flushes")) /
                           static_cast<double>(answers);
    std::vector<double> shard_events(options.shards, 0.0);
    double total_events = 0.0;
    for (const auto& stats : manager->Stats()) {
      shard_events[stats.shard] += static_cast<double>(stats.events_applied);
      total_events += static_cast<double>(stats.events_applied);
    }
    double mean = total_events / static_cast<double>(options.shards);
    v["host.shard_event_skew"] =
        mean > 0 ? *std::max_element(shard_events.begin(),
                                     shard_events.end()) /
                       mean
                 : 0.0;
  }
  if (!recover) return;

  // --- Kill and recover ---------------------------------------------------
  std::vector<std::vector<uint8_t>> before(fleet.size());
  for (size_t i = 0; i < fleet.size(); ++i) {
    auto snapshot = manager->Snapshot(handles[i]);
    if (result->Check(snapshot.status(), "snapshot before shutdown")) {
      before[i] = snapshot.MoveValueOrDie();
    }
  }
  int64_t k0 = NowNs();
  manager->Shutdown();
  manager.reset();
  icrowd::HostConfig reopened_host;
  reopened_host.num_shards = options.shards;
  reopened_host.journal_dir = dir.string();
  auto restarted = CampaignManager::Start(reopened_host);
  if (!result->Check(restarted.status(), "restart host")) return;
  manager = restarted.MoveValueOrDie();
  handles.clear();
  for (size_t i = 0; i < fleet.size(); ++i) {
    CampaignManager::CampaignOptions campaign;
    campaign.name = CampaignName(i);
    campaign.dataset = fleet[i].recipe.dataset;
    campaign.config = fleet[i].recipe.config;
    int64_t o0 = NowNs();
    auto handle = manager->OpenCampaign(std::move(campaign));
    int64_t o1 = NowNs();
    if (!result->Check(handle.status(), "reopen campaign")) return;
    rep->open_ms.Add(Ms(o1 - o0));
    if (spans != nullptr) spans->Record("host.open", o0, o1);
    handles.push_back(*handle);
  }
  rep->recovery_s = static_cast<double>(NowNs() - k0) / 1e9;
  for (size_t i = 0; i < fleet.size(); ++i) {
    auto snapshot = manager->Snapshot(handles[i]);
    if (result->Check(snapshot.status(), "snapshot after reopen")) {
      result->Check(*snapshot == before[i],
                    CampaignName(i) + " reopened differs from before");
    }
  }
  manager->Shutdown();
}

/// Ratio of the mean of the last tenth of `values` to the first tenth's.
double DecileGrowth(const Samples& values) {
  const std::vector<double>& v = values.values();
  size_t tenth = v.size() / 10;
  if (tenth == 0) return 1.0;
  double first = 0.0, last = 0.0;
  for (size_t i = 0; i < tenth; ++i) {
    first += v[i];
    last += v[v.size() - tenth + i];
  }
  return first > 0 ? last / first : 0.0;
}

/// Journal size and parse time of every campaign journal under `dir`.
void MeasureJournals(const fs::path& dir, const std::vector<Recorded>& fleet,
                     LayerValues* values, RunResult* result) {
  double bytes = 0.0, events = 0.0, read_ns = 0.0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    auto data = icrowd::ReadFileBytes(entry.path().string());
    if (!result->Check(data.status(), "read hosted journal")) continue;
    int64_t p0 = NowNs();
    auto parsed = icrowd::ReadJournal(*data);
    read_ns += static_cast<double>(NowNs() - p0);
    if (!result->Check(parsed.status(), "parse hosted journal")) continue;
    bytes += static_cast<double>(data->size());
  }
  for (const Recorded& rec : fleet) {
    events += static_cast<double>(rec.events_applied);
  }
  (*values)["journal.bytes_per_event"] = events > 0 ? bytes / events : 0.0;
  (*values)["journal.read_ms"] = read_ns / 1e6;
}

}  // namespace

RunResult RunFleet(const RunOptions& options) {
  RunResult result;
  const size_t fleet_size = options.smoke ? kSmokeFleetSize : kFleetSize;
  std::unique_ptr<Probe> probe =
      options.trace ? std::make_unique<Probe>() : nullptr;

  std::vector<Recorded> fleet;
  QualityTally quality;
  int64_t record0 = NowNs();
  if (!RecordFleet(options, fleet_size, &fleet, &quality, probe.get(),
                   &result)) {
    return result;
  }
  const auto order = Interleave(fleet);
  Log("recorded %zu campaigns, %zu events, in %.3f s", fleet.size(),
      order.size(), static_cast<double>(NowNs() - record0) / 1e9);

  int reps = 1;
  if (!options.smoke && !options.trace) {
    reps = std::max(kMinReps,
                    static_cast<int>(options.seconds / kRepSeconds + 0.5));
  }
  // Traced: one untraced rep, then the traced rep on identical work.
  if (options.trace) reps = 2;

  // Per-rep figures, of which a run reports the medians. Every rep repeats
  // the same work, so a rep that a slowdown of the machine hit is an
  // outlier among them, while a slower program slows every rep.
  Samples setup_s, events_per_s, recovery_s, request_p99_us, answer_p99_us;
  Rep last;
  double plain_ack_p50_us = 0.0;  // the traced run's untraced rep
  for (int r = 0; r < reps; ++r) {
    fs::path dir = fs::path(options.workdir) / ("host-" + std::to_string(r));
    bool final_rep = r + 1 == reps;
    // Every rep of the untraced run ends with kill and recover; the traced
    // run's untraced rep only measures the trace's overhead.
    bool recover = !options.trace || final_rep;
    Rep rep;
    RunRep(options, fleet, order, dir, recover,
           options.inject_mismatch && r == 0,
           options.trace && final_rep ? probe.get() : nullptr, &rep,
           &result);
    Log("rep %d: set-up %.3f s, %zu events in %.3f s (%.0f events/s), "
        "ack p50 %.1f us p99 %.1f us, recovery %.3f s",
        r, rep.setup_s, order.size(), rep.hosted_wall_s, rep.events_per_s,
        rep.ack_us.Percentile(0.5), rep.ack_us.Percentile(0.99),
        rep.recovery_s);
    setup_s.Add(rep.setup_s);
    events_per_s.Add(rep.events_per_s);
    if (recover) recovery_s.Add(rep.recovery_s);
    request_p99_us.Add(rep.request_ack_us.Percentile(0.99));
    answer_p99_us.Add(rep.answer_ack_us.Percentile(0.99));
    if (final_rep) {
      if (probe != nullptr) {
        MeasureJournals(dir, fleet, &probe->values, &result);
      }
      last = std::move(rep);
    } else {
      plain_ack_p50_us = rep.ack_us.Median();
      fs::remove_all(dir);
    }
  }

  if (!options.trace) {
    result.Add("setup_s", setup_s.Median(), "s");
    result.Add("request_p99_us", request_p99_us.Median(), "us");
    result.Add("answer_p99_us", answer_p99_us.Median(), "us");
    result.Add("events_per_s", events_per_s.Median(), "1/s");
    result.Add("recovery_s", recovery_s.Median(), "s");
    result.Add("accuracy", quality.Accuracy(), "ratio");
    result.Add("answers_per_task", quality.AnswersPerTask(), "count");
    return result;
  }

  LayerValues& v = probe->values;
  v["core.create_ms.p50"] = last.create_ms.Percentile(0.5);
  v["core.create_ms.p99"] = last.create_ms.Percentile(0.99);
  v["host.create_growth"] = DecileGrowth(last.create_ms);
  v["host.submit_us.p50"] = last.submit_us.Percentile(0.5);
  v["host.submit_us.p99"] = last.submit_us.Percentile(0.99);
  v["host.drain_wait_us.p99"] = last.drain_us.Percentile(0.99);
  v["host.open_ms.p50"] = last.open_ms.Percentile(0.5);
  v["host.open_ms.p99"] = last.open_ms.Percentile(0.99);
  v["host.generator_late_ms.p99"] = last.late_ms.Percentile(0.99);
  AddJournalSpans(probe->spans, &v);
  v["trace.overhead_frac"] =
      OverheadFrac(last.ack_us.Median(), plain_ack_p50_us);
  v["ledger.attributed_frac"] = last.ledger.AttributedFrac();
  AddLayerMetrics(v, &result);
  if (!options.trace_out.empty() &&
      !probe->spans.WriteJsonl(options.trace_out)) {
    result.Fail("cannot write " + options.trace_out);
  }
  return result;
}

}  // namespace perfbench
