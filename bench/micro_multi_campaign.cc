// Multi-campaign host microbench (DESIGN.md §16): what does hosting cost
// per event? The same recorded streams are replayed (a) through each
// campaign's own ICrowd::ApplyEventBatch in chunks of 64 on this thread,
// campaigns back to back — the synchronous baseline — and (b) through one
// sharded CampaignManager hosting every campaign at once, at several shard
// counts. At shards=1 with the same sequential submission order the host
// adds routing (handle lookup, slot stamp, settle ledger, regroup) and the
// thread handoff, so the headline metric is host_overhead_shard1 =
// baseline events/sec over hosted events/sec. Results are checked
// bit-identical against the recordings before any number is reported:
// hosting must never change a decision.

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_harness.h"
#include "common/stopwatch.h"
#include "core/icrowd.h"
#include "datagen/entity_resolution.h"
#include "host/campaign_manager.h"
#include "ingest/event.h"
#include "journal/journal.h"
#include "sim/campaign_driver.h"

using namespace icrowd;         // NOLINT: bench brevity
using namespace icrowd::bench;  // NOLINT: bench brevity

namespace {

struct Recording {
  Dataset dataset;
  ICrowdConfig config;
  std::vector<IngestEvent> stream;
  std::vector<Label> expected;
};

ICrowdConfig MakeConfig(uint64_t seed) {
  ICrowdConfig config;
  config.num_qualification = 4;
  config.warmup.tasks_per_worker = 3;
  config.graph.measure = SimilarityMeasure::kJaccard;
  config.graph.threshold = 0.2;
  config.seed = seed;
  return config;
}

/// Records campaign `index`'s canonical stream and expected results via a
/// driven solo run (the same structural-heterogeneity scheme the isolation
/// tests use).
bool Record(size_t index, size_t workers, Recording* out) {
  EntityResolutionOptions data_options;
  data_options.tasks_per_family = 4 + index % 3;
  out->dataset = GenerateEntityResolution(data_options).MoveValueOrDie();
  std::vector<WorkerProfile> profiles =
      GenerateEntityResolutionWorkers(out->dataset, workers);
  out->config = MakeConfig(100 + 13 * index);
  ICrowdConfig recording_config = out->config;
  auto sink = std::make_shared<VectorSink>();
  recording_config.journal_sink = sink;
  auto system = ICrowd::Create(out->dataset, recording_config);
  if (!system.ok()) {
    std::fprintf(stderr, "record %zu: create failed: %s\n", index,
                 system.status().ToString().c_str());
    return false;
  }
  CampaignDriverOptions drive;
  drive.seed = 100 + 13 * index;
  drive.leave_after = index % 3 == 1 ? 6 : 0;
  auto outcome = DriveCampaign(system->get(), profiles, workers, drive);
  if (!outcome.ok()) {
    std::fprintf(stderr, "record %zu: drive failed: %s\n", index,
                 outcome.status().ToString().c_str());
    return false;
  }
  auto parsed = ReadJournal(sink->bytes());
  if (!parsed.ok()) {
    std::fprintf(stderr, "record %zu: journal parse failed: %s\n", index,
                 parsed.status().ToString().c_str());
    return false;
  }
  out->stream = IngestStreamFromJournal(parsed->events);
  out->expected = (*system)->Results();
  return true;
}

/// The synchronous baseline: each recording gets its own ICrowd, fed
/// through ApplyEventBatch in chunks of the HostConfig-default batch
/// ceiling (64), campaigns back to back on this thread. Returns
/// events/sec, 0 on failure.
double RunBaseline(const std::vector<Recording>& recordings) {
  const size_t chunk_size = HostConfig().max_batch;
  Stopwatch watch;
  uint64_t events = 0;
  for (size_t c = 0; c < recordings.size(); ++c) {
    const Recording& recording = recordings[c];
    ICrowdConfig config = recording.config;
    config.journal_sink = std::make_shared<VectorSink>();
    auto system = ICrowd::Create(recording.dataset, config);
    if (!system.ok()) {
      std::fprintf(stderr, "baseline %zu: create failed: %s\n", c,
                   system.status().ToString().c_str());
      return 0.0;
    }
    const std::vector<IngestEvent>& stream = recording.stream;
    for (size_t start = 0; start < stream.size(); start += chunk_size) {
      const size_t end = std::min(start + chunk_size, stream.size());
      std::vector<IngestEvent> chunk(
          stream.begin() + static_cast<std::ptrdiff_t>(start),
          stream.begin() + static_cast<std::ptrdiff_t>(end));
      auto outcomes = (*system)->ApplyEventBatch(chunk);
      if (!outcomes.ok()) {
        std::fprintf(stderr, "baseline %zu: apply failed: %s\n", c,
                     outcomes.status().ToString().c_str());
        return 0.0;
      }
    }
    if ((*system)->Results() != recording.expected) {
      std::fprintf(stderr, "FATAL: baseline %zu diverged from recording\n", c);
      return 0.0;
    }
    events += recording.stream.size();
  }
  double seconds = watch.ElapsedSeconds();
  return seconds > 0.0 ? static_cast<double>(events) / seconds : 0.0;
}

/// The hosted path: every recording lives in one CampaignManager with
/// `shards` shards. `interleave` false submits campaign by campaign in the
/// baseline's exact order (the apples-to-apples overhead probe);
/// true submits round-robin chunks (the mixed-batch regrouping workload).
double RunHosted(const std::vector<Recording>& recordings, size_t shards,
                 bool interleave) {
  HostConfig host;
  host.num_shards = shards;
  auto manager_or = CampaignManager::Start(host);
  if (!manager_or.ok()) {
    std::fprintf(stderr, "host start failed: %s\n",
                 manager_or.status().ToString().c_str());
    return 0.0;
  }
  std::unique_ptr<CampaignManager> manager = manager_or.MoveValueOrDie();
  Stopwatch watch;
  std::vector<CampaignHandle> handles;
  uint64_t events = 0;
  for (size_t c = 0; c < recordings.size(); ++c) {
    CampaignManager::CampaignOptions options;
    options.name = "bench-" + std::to_string(c);
    options.dataset = recordings[c].dataset;
    options.config = recordings[c].config;
    auto handle = manager->CreateCampaign(std::move(options));
    if (!handle.ok()) {
      std::fprintf(stderr, "hosted create %zu failed: %s\n", c,
                   handle.status().ToString().c_str());
      return 0.0;
    }
    handles.push_back(*handle);
    events += recordings[c].stream.size();
  }
  if (interleave) {
    constexpr size_t kChunk = 4;
    std::vector<size_t> position(recordings.size(), 0);
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (size_t c = 0; c < recordings.size(); ++c) {
        size_t end =
            std::min(position[c] + kChunk, recordings[c].stream.size());
        for (; position[c] < end; ++position[c]) {
          if (!manager->SubmitEvent(handles[c],
                                    recordings[c].stream[position[c]])
                   .ok()) {
            return 0.0;
          }
          progressed = true;
        }
      }
    }
  } else {
    for (size_t c = 0; c < recordings.size(); ++c) {
      for (const IngestEvent& event : recordings[c].stream) {
        if (!manager->SubmitEvent(handles[c], event).ok()) return 0.0;
      }
      if (!manager->Drain(handles[c]).ok()) return 0.0;
    }
  }
  Status drained = manager->DrainAll();
  if (!drained.ok()) {
    std::fprintf(stderr, "hosted drain failed: %s\n",
                 drained.ToString().c_str());
    return 0.0;
  }
  double seconds = watch.ElapsedSeconds();
  for (size_t c = 0; c < recordings.size(); ++c) {
    auto inspected = manager->Inspect(handles[c]);
    if (!inspected.ok() ||
        (*inspected)->Results() != recordings[c].expected) {
      std::fprintf(stderr, "FATAL: hosted %zu diverged from recording\n", c);
      return 0.0;
    }
  }
  return seconds > 0.0 ? static_cast<double>(events) / seconds : 0.0;
}

}  // namespace

ICROWD_BENCH("micro_multi_campaign") {
  const size_t campaigns = ctx.smoke() ? 6 : 24;
  const size_t workers = ctx.smoke() ? 6 : 10;
  std::vector<Recording> recordings(campaigns);
  uint64_t events = 0;
  for (size_t c = 0; c < campaigns; ++c) {
    if (!Record(c, workers, &recordings[c])) return;
    events += recordings[c].stream.size();
  }

  double baseline = RunBaseline(recordings);
  if (baseline <= 0.0) return;
  // Same submission order as the baseline, one shard: isolates the host's
  // per-event routing tax.
  double hosted_sequential = RunHosted(recordings, 1, /*interleave=*/false);
  if (hosted_sequential <= 0.0) return;

  const size_t shard_counts[] = {1, 2, 4, 8};
  Series& sweep = ctx.AddSeries("shard_sweep");
  size_t runs = 2;
  for (size_t shards : shard_counts) {
    double hosted = RunHosted(recordings, shards, /*interleave=*/true);
    if (hosted <= 0.0) return;
    ++runs;
    ctx.ReportMetric("hosted_shard" + std::to_string(shards) +
                         "_events_per_sec",
                     hosted);
    sweep.points.push_back({{{"shards", static_cast<double>(shards)},
                             {"events_per_sec", hosted}}});
  }

  ctx.AddIterations(events * runs);
  ctx.ReportMetric("campaigns", static_cast<double>(campaigns));
  ctx.ReportMetric("stream_events", static_cast<double>(events));
  ctx.ReportMetric("baseline_events_per_sec", baseline);
  ctx.ReportMetric("hosted_seq_shard1_events_per_sec", hosted_sequential);
  // The headline: how much slower the host is than applying the same
  // batches synchronously on the caller's thread.
  ctx.ReportMetric("host_overhead_shard1", baseline / hosted_sequential);
}
