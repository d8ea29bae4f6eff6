// solo_campaign: the paper's deployment. One large EntityResolution
// campaign is created through the v1 facade with a FileSink journal
// flushed per answer, driven as a closed loop with one request
// outstanding, and ends with a crash recovery (ICrowd::Restore from the
// journal file) whose snapshot must be byte-identical to the live one.
// Graph and PPR dominate set-up, estimation and assign the request tail;
// host and ingest do no work.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>

#include "layers.h"
#include "workloads.h"

namespace perfbench {

using icrowd::ICrowd;
using icrowd::Status;
using icrowd::TaskId;
using icrowd::WorkerId;

namespace {

/// Set-up and campaign phase of one solo campaign on the reference machine
/// (4 cores, Release): a run drives about --seconds / kCampaignSeconds
/// campaigns, and at least kRecoveries; the last kRecoveries of them end
/// with a crash recovery (about as long again as set-up and campaign
/// phase). The count depends on --seconds alone, so a seed always drives
/// the same work.
constexpr double kCampaignSeconds = 4.5;
constexpr int kRecoveries = 3;

/// What one campaign's run measured.
struct CampaignRun {
  double setup_s = 0.0;
  /// The campaign phase's wall time and its facade calls.
  double live_s = 0.0;
  uint64_t operations = 0;
  CallTimes calls;
  double recovery_s = 0.0;
};

/// The traced run's observations.
struct Probe {
  SpanRecorder spans;
  LayerValues values;
  RequestProbe requests{&spans};
  Ledger ledger;
};

/// The host does no work in this workload. Its per-layer figures come from
/// opening the recovered journal in a 1-shard CampaignManager and asking
/// once per worker (the campaign is finished, nothing is served).
void ProbeHost(const CampaignRecipe& recipe,
               const std::vector<uint8_t>& journal, LayerValues* values,
               RunResult* result) {
  LayerValues& v = *values;
  icrowd::HostConfig host;
  host.num_shards = 1;
  auto manager = icrowd::CampaignManager::Start(host);
  if (!result->Check(manager.status(), "start solo host")) return;
  icrowd::CampaignManager::CampaignOptions open;
  open.name = "solo";
  open.dataset = recipe.dataset;
  open.config = recipe.config;
  open.journal = journal;
  CounterDelta counters;
  int64_t o0 = NowNs();
  auto handle = (*manager)->OpenCampaign(std::move(open));
  int64_t o1 = NowNs();
  if (!result->Check(handle.status(), "open solo campaign in host")) return;
  v["host.open_ms.p50"] = v["host.open_ms.p99"] = Ms(o1 - o0);
  Samples submit_us, drain_us;
  for (size_t w = 0; w < recipe.num_workers; ++w) {
    int64_t s0 = NowNs();
    Status submitted = (*manager)->SubmitEvent(
        *handle, icrowd::IngestEvent::Requested(static_cast<WorkerId>(w)));
    int64_t s1 = NowNs();
    Status drained = (*manager)->Drain(*handle);
    int64_t s2 = NowNs();
    result->Check(submitted, "host probe submit");
    result->Check(drained, "host probe drain");
    submit_us.Add(Us(s1 - s0));
    drain_us.Add(Us(s2 - s1));
  }
  v["host.submit_us.p50"] = submit_us.Percentile(0.5);
  v["host.submit_us.p99"] = submit_us.Percentile(0.99);
  v["host.drain_wait_us.p99"] = drain_us.Percentile(0.99);
  AddHostCounters(counters, &v);
  v["host.shard_event_skew"] = 1.0;  // one shard
  v["host.create_growth"] = 1.0;     // one campaign
  (*manager)->Shutdown();
}

/// Creates, drives and (when `recover`) crash-recovers one campaign.
/// A non-null `probe` makes it the traced run.
void RunCampaign(const CampaignRecipe& recipe, const std::string& journal,
                 bool recover, bool inject_mismatch, CampaignRun* run,
                 QualityTally* quality, Probe* probe, RunResult* result) {
  auto file = icrowd::FileSink::Open(journal, /*truncate=*/true);
  if (!result->Check(file.status(), "open solo journal")) return;
  std::shared_ptr<icrowd::JournalSink> sink = file.MoveValueOrDie();
  if (probe != nullptr) {
    sink = std::make_shared<TimingSink>(std::move(sink), &probe->spans);
  }
  icrowd::ICrowdConfig config = recipe.config;
  config.journal_sink = sink;

  CounterDelta counters;
  int64_t t0 = NowNs();
  auto created = [&] {
    ScopedSpan span(probe != nullptr ? &probe->spans : nullptr,
                    "core.create");
    return ICrowd::Create(recipe.dataset, config);
  }();
  int64_t t1 = NowNs();
  if (!result->Check(created.status(), "create solo campaign")) return;
  std::unique_ptr<ICrowd> system = created.MoveValueOrDie();
  run->setup_s = static_cast<double>(t1 - t0) / 1e9;

  SetupShadow setup;
  double ppr_passes = 0.0;
  if (probe != nullptr) {
    LayerValues& v = probe->values;
    v["core.create_ms.p50"] = v["core.create_ms.p99"] = Ms(t1 - t0);
    AddCreateCounters(counters,
                      static_cast<double>(recipe.dataset.size()), &v);
    ppr_passes = v["graph.ppr_seeds_solved_per_create"];
    auto shadow = ShadowSetup(recipe);
    if (!result->Check(shadow.status(), "shadow set-up")) return;
    setup = *shadow;
    v["graph.build_ms"] = setup.graph_ms;
    v["graph.ppr_precompute_ms"] = setup.ppr_ms;
    v["qualification.select_ms"] = setup.qualification_ms;
    probe->ledger.wall_s += run->setup_s;
    probe->ledger.attributed_s += setup.RebuildMs(ppr_passes) / 1e3;
  }

  // --- Campaign phase -------------------------------------------------
  counters.Reset();
  DriveHooks timing = run->calls.Hooks();
  DriveHooks hooks = probe != nullptr
                         ? probe->requests.Hooks(system.get(), timing)
                         : timing;
  int64_t live0 = NowNs();
  auto outcome = DriveClosedLoop(system.get(), recipe, hooks);
  int64_t live1 = NowNs();
  if (!result->Check(outcome.status(), "drive solo campaign")) return;
  result->attempted += outcome->operations;
  run->live_s = static_cast<double>(live1 - live0) / 1e9;
  run->operations = outcome->operations;
  result->Check(outcome->finished && system->Finished(),
                "solo campaign left tasks incomplete");
  quality->Add(*system);

  if (probe != nullptr) {
    LayerValues& v = probe->values;
    AddDriveCounters(counters, &v);
    uint64_t answers = counters.Counter("icrowd.core.answers");
    v["journal.flushes_per_answer"] =
        answers == 0 ? 0.0
                     : static_cast<double>(
                           counters.Counter("icrowd.journal.flushes")) /
                           static_cast<double>(answers);
    probe->ledger.wall_s += run->calls.service_s;
    probe->ledger.attributed_s += probe->requests.children_s;
  }

  if (!recover) return;
  // --- Crash recovery --------------------------------------------------
  auto live_snapshot = system->Snapshot();
  if (!result->Check(live_snapshot.status(), "snapshot live campaign")) {
    return;
  }
  uint64_t journal_events = system->events_applied();
  system.reset();  // the crash: only the journal file survives
  sink.reset();
  std::vector<uint8_t> expected = live_snapshot.MoveValueOrDie();
  if (inject_mismatch) expected[expected.size() / 2] ^= 0x5a;

  int64_t r0 = NowNs();
  auto bytes = icrowd::ReadFileBytes(journal);
  if (!result->Check(bytes.status(), "read solo journal")) return;
  int64_t r1 = NowNs();
  auto restored = ICrowd::Restore(recipe.dataset, recipe.config, {}, *bytes);
  int64_t r2 = NowNs();
  if (!result->Check(restored.status(), "restore solo campaign")) return;
  run->recovery_s = static_cast<double>(r2 - r0) / 1e9;
  auto restored_snapshot = (*restored)->Snapshot();
  if (result->Check(restored_snapshot.status(), "snapshot restored")) {
    result->Check(*restored_snapshot == expected,
                  "restored snapshot differs from the live campaign's");
  }
  if (probe == nullptr) return;

  LayerValues& v = probe->values;
  probe->spans.Record("journal.read_file", r0, r1);
  probe->spans.Record("core.restore", r1, r2);
  int64_t p0 = NowNs();
  auto parsed = icrowd::ReadJournal(*bytes);
  int64_t p1 = NowNs();
  result->Check(parsed.status(), "parse solo journal");
  v["journal.read_ms"] = Ms(p1 - p0);
  v["journal.bytes_per_event"] =
      journal_events == 0 ? 0.0
                          : static_cast<double>(bytes->size()) /
                                static_cast<double>(journal_events);
  double rebuild_ms = setup.RebuildMs(ppr_passes);
  v["core.restore_replay_ms"] = std::max(0.0, Ms(r2 - r1) - rebuild_ms);
  probe->ledger.wall_s += run->recovery_s;
  probe->ledger.attributed_s += (rebuild_ms + Ms(p1 - p0) + Ms(r1 - r0)) / 1e3;
  ProbeHost(recipe, *bytes, &v, result);
}

int CampaignsFor(const RunOptions& options) {
  if (options.smoke) return 1;
  return std::max(kRecoveries,
                  static_cast<int>(options.seconds / kCampaignSeconds + 0.5));
}

}  // namespace

RunResult RunSolo(const RunOptions& options) {
  RunResult result;
  QualityTally quality;
  const std::string journal =
      (std::filesystem::path(options.workdir) / "solo.journal").string();

  if (!options.trace) {
    const int campaigns = CampaignsFor(options);
    Samples setup_s;
    CallTimes calls;
    double live_s = 0.0;
    uint64_t operations = 0;
    Samples recovery_s;
    for (int c = 0; c < campaigns; ++c) {
      auto recipe = SoloRecipe(Mix(options.seed, c), options.ppr_threads,
                               options.smoke);
      if (!result.Check(recipe.status(), "solo recipe")) break;
      CampaignRun run;
      bool recover = c + kRecoveries >= campaigns;
      RunCampaign(*recipe, journal, recover, options.inject_mismatch, &run,
                  &quality, nullptr, &result);
      Log("campaign %d: set-up %.3f s, %llu calls in %.3f s, request p50 "
          "%.2f us p99 %.1f us, recovery %.3f s",
          c, run.setup_s, static_cast<unsigned long long>(run.operations),
          run.live_s, run.calls.request_us.Percentile(0.5),
          run.calls.request_us.Percentile(0.99), run.recovery_s);
      setup_s.Add(run.setup_s);
      calls.request_us.Append(run.calls.request_us);
      calls.answer_us.Append(run.calls.answer_us);
      live_s += run.live_s;
      operations += run.operations;
      if (recover) recovery_s.Add(run.recovery_s);
    }
    result.Add("setup_s", setup_s.Median(), "s");
    // Percentiles pool every call of every campaign.
    result.Add("request_p99_us", calls.request_us.Percentile(0.99), "us");
    result.Add("answer_p99_us", calls.answer_us.Percentile(0.99), "us");
    result.Add("events_per_s",
               live_s > 0 ? static_cast<double>(operations) / live_s : 0.0,
               "1/s");
    result.Add("recovery_s", recovery_s.Median(), "s");
    result.Add("accuracy", quality.Accuracy(), "ratio");
    result.Add("answers_per_task", quality.AnswersPerTask(), "count");
    return result;
  }

  // Traced: the first campaign twice, untraced then traced, so the
  // trace's own overhead is measured on identical work.
  auto recipe =
      SoloRecipe(Mix(options.seed, 0), options.ppr_threads, options.smoke);
  if (!result.Check(recipe.status(), "solo recipe")) return result;
  CampaignRun plain;
  QualityTally ignored;
  RunCampaign(*recipe, journal, false, false, &plain, &ignored, nullptr,
              &result);
  Probe probe;
  CampaignRun traced;
  RunCampaign(*recipe, journal, true, options.inject_mismatch, &traced,
              &quality, &probe, &result);
  LayerValues& v = probe.values;
  probe.requests.AddTo(&v);
  v["host.generator_late_ms.p99"] = probe.requests.late_ms.Percentile(0.99);
  probe.ledger.attributed_s += AddJournalSpans(probe.spans, &v);
  v["ledger.attributed_frac"] = probe.ledger.AttributedFrac();
  v["trace.overhead_frac"] =
      OverheadFrac(traced.calls.service_s, plain.calls.service_s);
  AddLayerMetrics(v, &result);
  if (!options.trace_out.empty() &&
      !probe.spans.WriteJsonl(options.trace_out)) {
    result.Fail("cannot write " + options.trace_out);
  }
  return result;
}

}  // namespace perfbench
