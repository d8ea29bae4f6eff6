// Crash-recovery tests for durable campaigns (DESIGN.md §11): the journal +
// snapshot + tail-replay machinery must reconstruct a campaign bit-identical
// to the uninterrupted run from any kill point — a byte-offset truncation of
// the journal (the process died mid-append), a fault-injected sink (the disk
// died mid-run), a snapshot plus tail, or a snapshot newer than the tail.
//
// When a recovery expectation fails and ICROWD_RECOVERY_DUMP_DIR is set,
// the offending journal and its JSONL rendering are written there (CI
// uploads them as the failure artifact).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "common/binary_io.h"
#include "core/icrowd.h"
#include "datagen/entity_resolution.h"
#include "ingest/event.h"
#include "io/framing.h"
#include "journal/journal.h"
#include "obs/metrics.h"
#include "sim/campaign_driver.h"

namespace icrowd {
namespace {

constexpr size_t kNumWorkers = 8;

Dataset MakeDataset() {
  EntityResolutionOptions options;
  options.tasks_per_family = 5;
  return GenerateEntityResolution(options).MoveValueOrDie();
}

std::vector<WorkerProfile> MakeProfiles(const Dataset& dataset) {
  return GenerateEntityResolutionWorkers(dataset, kNumWorkers);
}

ICrowdConfig MakeConfig(uint64_t seed) {
  ICrowdConfig config;
  config.num_qualification = 4;
  config.warmup.tasks_per_worker = 3;
  config.graph.measure = SimilarityMeasure::kJaccard;
  config.graph.threshold = 0.2;
  config.seed = seed;
  return config;
}

obs::ExportOptions DeterministicExport() {
  obs::ExportOptions options;
  options.deterministic = true;
  options.include_spans = false;
  options.include_events = false;
  return options;
}

struct LiveRun {
  bool finished = false;
  std::vector<uint8_t> journal;
  std::vector<Label> results;
  std::vector<CapturedSnapshot> snapshots;
  uint64_t events = 0;
  std::string det_metrics;  // deterministic-metrics JSONL at campaign end
};

/// One uninterrupted journaled campaign: the reference run every recovery
/// scenario is compared against.
LiveRun RunLive(uint64_t seed, int snapshot_every = 0, int leave_after = 0) {
  obs::MetricsRegistry::Global().ResetForTesting();
  Dataset dataset = MakeDataset();
  std::vector<WorkerProfile> profiles = MakeProfiles(dataset);
  ICrowdConfig config = MakeConfig(seed);
  auto sink = std::make_shared<VectorSink>();
  config.journal_sink = sink;
  auto system = ICrowd::Create(std::move(dataset), config).MoveValueOrDie();
  CampaignDriverOptions options;
  options.seed = seed;
  options.snapshot_every = snapshot_every;
  options.leave_after = leave_after;
  auto outcome = DriveCampaign(system.get(), profiles, kNumWorkers, options);
  LiveRun run;
  if (outcome.ok()) {
    run.finished = outcome->finished;
    run.snapshots = std::move(outcome->snapshots);
  } else {
    ADD_FAILURE() << "live drive failed: " << outcome.status().ToString();
  }
  run.journal = sink->bytes();
  run.results = system->Results();
  run.events = system->events_applied();
  run.det_metrics =
      obs::MetricsRegistry::Global().ExportJsonlString(DeterministicExport());
  return run;
}

/// Failure artifact: the journal under test plus its JSONL dump, written to
/// $ICROWD_RECOVERY_DUMP_DIR when set (CI uploads the directory).
void DumpOnFailure(const std::vector<uint8_t>& journal,
                   const std::string& tag) {
  const char* dir = std::getenv("ICROWD_RECOVERY_DUMP_DIR");
  if (dir == nullptr) return;
  std::string base = std::string(dir) + "/" + tag;
  Status written = WriteFileBytes(base + ".journal", journal);
  if (!written.ok()) {
    std::fprintf(stderr, "dump failed: %s\n", written.ToString().c_str());
    return;
  }
  Status dumped = DumpJournalJsonl(base + ".journal", base + ".jsonl");
  if (!dumped.ok()) {
    std::fprintf(stderr, "dump failed: %s\n", dumped.ToString().c_str());
    return;
  }
  std::fprintf(stderr, "recovery artifacts: %s.journal %s.jsonl\n",
               base.c_str(), base.c_str());
}

// ------------------------------------------------------------ full replay --

TEST(RecoveryTest, FullReplayIsBitIdenticalToLive) {
  for (uint64_t seed : {11u, 77u}) {
    // leave_after exercises kWorkerLeft records in the stream.
    LiveRun live = RunLive(seed, /*snapshot_every=*/0, /*leave_after=*/20);
    obs::MetricsRegistry::Global().ResetForTesting();
    auto restored =
        ICrowd::Restore(MakeDataset(), MakeConfig(seed), {}, live.journal);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_EQ((*restored)->Results(), live.results);
    EXPECT_EQ((*restored)->events_applied(), live.events);
    // Replay re-derives every decision through the same code paths, so the
    // deterministic-metrics dump must match the live run bit for bit.
    EXPECT_EQ(obs::MetricsRegistry::Global().ExportJsonlString(
                  DeterministicExport()),
              live.det_metrics);
    if (HasFailure()) {
      DumpOnFailure(live.journal, "full_replay_seed" + std::to_string(seed));
      return;
    }
  }
}

// --------------------------------------------- kill-at-any-offset recovery --

TEST(RecoveryTest, KillAtAnyOffsetRecoversBitIdentical) {
  for (uint64_t seed : {11u, 77u}) {
    LiveRun live = RunLive(seed);
    ASSERT_TRUE(live.finished);
    auto parsed = ReadJournal(live.journal);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    const std::vector<JournalEvent>& events = parsed->events;
    FrameScan scan = ScanFrames(live.journal.data(), live.journal.size());
    ASSERT_FALSE(scan.frames.empty());
    // Restore needs at least the campaign-begin frame; past that, every
    // truncation point must recover. The prime stride hits mid-header,
    // mid-payload and boundary phases across the sweep.
    size_t min_offset = scan.frames[0].first + scan.frames[0].second;
    for (size_t offset = min_offset; offset <= live.journal.size();
         offset += 199) {
      std::string tag =
          "kill_seed" + std::to_string(seed) + "_off" + std::to_string(offset);
      std::vector<uint8_t> prefix(
          live.journal.begin(),
          live.journal.begin() + static_cast<long>(offset));
      auto restored =
          ICrowd::Restore(MakeDataset(), MakeConfig(seed), {}, prefix);
      ASSERT_TRUE(restored.ok())
          << tag << ": " << restored.status().ToString();
      std::unique_ptr<ICrowd> system = restored.MoveValueOrDie();
      // Finish the reference run: feed the journal tail back through the
      // public API, verifying each re-derived decision against the journal
      // on the way.
      Status redriven = RedriveJournalTail(
          system.get(), events, static_cast<size_t>(system->events_applied()));
      EXPECT_TRUE(redriven.ok()) << tag << ": " << redriven.ToString();
      EXPECT_EQ(system->Results(), live.results) << tag;
      EXPECT_EQ(system->events_applied(), live.events) << tag;
      if (HasFailure()) {
        DumpOnFailure(live.journal, tag);
        return;
      }
    }
  }
}

// ------------------------------------------------- kill-mid-batch recovery --

TEST(RecoveryTest, KillMidBatchRecoversThroughBatchedReingest) {
  // The batched path defers the journal flush to the batch end, so a crash
  // can now land anywhere inside a batch's worth of appended-but-unflushed
  // records. Whatever prefix reached storage, recovery plus a *batched*
  // re-ingest of the lost tail must converge on the per-event reference —
  // including re-writing, byte for byte, the journal suffix the crash ate.
  for (uint64_t seed : {11u, 77u}) {
    LiveRun live = RunLive(seed);
    ASSERT_TRUE(live.finished);
    auto parsed = ReadJournal(live.journal);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    const std::vector<JournalEvent>& events = parsed->events;
    FrameScan scan = ScanFrames(live.journal.data(), live.journal.size());
    ASSERT_FALSE(scan.frames.empty());
    size_t min_offset = scan.frames[0].first + scan.frames[0].second;
    // Prime stride ≠ the per-event sweep's, so the two tests cut the
    // journal at different header/payload/boundary phases.
    for (size_t offset = min_offset; offset <= live.journal.size();
         offset += 173) {
      std::string tag = "killbatch_seed" + std::to_string(seed) + "_off" +
                        std::to_string(offset);
      std::vector<uint8_t> prefix(
          live.journal.begin(),
          live.journal.begin() + static_cast<long>(offset));
      ICrowdConfig config = MakeConfig(seed);
      auto tail_sink = std::make_shared<VectorSink>();
      config.journal_sink = tail_sink;
      auto restored = ICrowd::Restore(MakeDataset(), config, {}, prefix);
      ASSERT_TRUE(restored.ok())
          << tag << ": " << restored.status().ToString();
      std::unique_ptr<ICrowd> system = restored.MoveValueOrDie();
      size_t from = static_cast<size_t>(system->events_applied());
      // Finish the run through the batched API in mid-sized chunks.
      std::vector<IngestEvent> remaining =
          IngestStreamFromJournal(events, from);
      constexpr size_t kBatch = 7;
      for (size_t start = 0; start < remaining.size(); start += kBatch) {
        size_t end = std::min(start + kBatch, remaining.size());
        std::vector<IngestEvent> chunk(
            remaining.begin() + static_cast<long>(start),
            remaining.begin() + static_cast<long>(end));
        auto outcomes = system->ApplyEventBatch(chunk);
        ASSERT_TRUE(outcomes.ok())
            << tag << ": " << outcomes.status().ToString();
        for (const IngestOutcome& outcome : *outcomes) {
          EXPECT_TRUE(outcome.status.ok())
              << tag << ": " << outcome.status.ToString();
        }
      }
      EXPECT_EQ(system->Results(), live.results) << tag;
      EXPECT_EQ(system->events_applied(), live.events) << tag;
      // The re-ingested tail journals exactly the bytes the crash lost:
      // the suffix starting at the first non-replayed frame.
      ASSERT_LE(from, scan.frames.size()) << tag;
      // frames[] holds payload offsets; back up over the frame header to
      // land on the frame boundary.
      size_t tail_start = from < scan.frames.size()
                              ? scan.frames[from].first - kFrameHeaderBytes
                              : live.journal.size();
      std::vector<uint8_t> expected_tail(
          live.journal.begin() + static_cast<long>(tail_start),
          live.journal.end());
      EXPECT_EQ(tail_sink->bytes(), expected_tail) << tag;
      if (HasFailure()) {
        DumpOnFailure(live.journal, tag);
        return;
      }
    }
  }
}

// ------------------------------------------------------- snapshot recovery --

TEST(RecoveryTest, EverySnapshotPlusTailMatchesLive) {
  const uint64_t seed = 11;
  LiveRun live = RunLive(seed, /*snapshot_every=*/7);
  ASSERT_FALSE(live.snapshots.empty());
  for (const CapturedSnapshot& snapshot : live.snapshots) {
    auto restored = ICrowd::Restore(MakeDataset(), MakeConfig(seed),
                                    snapshot.bytes, live.journal);
    ASSERT_TRUE(restored.ok())
        << "snapshot at " << snapshot.events_applied << ": "
        << restored.status().ToString();
    EXPECT_EQ((*restored)->Results(), live.results);
    EXPECT_EQ((*restored)->events_applied(), live.events);
  }
  if (HasFailure()) DumpOnFailure(live.journal, "snapshot_tail");
}

TEST(RecoveryTest, SnapshotNewerThanJournalTailReplaysNothing) {
  const uint64_t seed = 11;
  LiveRun live = RunLive(seed, /*snapshot_every=*/7);
  ASSERT_FALSE(live.snapshots.empty());
  const CapturedSnapshot& snapshot = live.snapshots.back();
  // The persisted journal lost its tail (e.g. a lagging replica), leaving
  // the snapshot ahead of it.
  std::vector<uint8_t> prefix(
      live.journal.begin(),
      live.journal.begin() + static_cast<long>(live.journal.size() / 2));
  auto parsed = ReadJournal(prefix);
  ASSERT_TRUE(parsed.ok());
  ASSERT_LT(parsed->events.size(), snapshot.events_applied)
      << "half journal should be older than the last snapshot";
  auto restored = ICrowd::Restore(MakeDataset(), MakeConfig(seed),
                                  snapshot.bytes, prefix);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->events_applied(), snapshot.events_applied);
  // Finishing from the snapshot position must land on the reference run.
  auto full = ReadJournal(live.journal);
  ASSERT_TRUE(full.ok());
  Status redriven = RedriveJournalTail(
      restored->get(), full->events,
      static_cast<size_t>((*restored)->events_applied()));
  ASSERT_TRUE(redriven.ok()) << redriven.ToString();
  EXPECT_EQ((*restored)->Results(), live.results);
  if (HasFailure()) DumpOnFailure(live.journal, "snapshot_newer");
}

// ------------------------------------------------------------- torn tails --

TEST(RecoveryTest, TornFinalRecordIsDroppedAndRederived) {
  const uint64_t seed = 77;
  LiveRun live = RunLive(seed);
  // Garbage after the last intact frame (the classic mid-append crash).
  std::vector<uint8_t> torn = live.journal;
  torn.insert(torn.end(), {0x07, 0x00, 0x00});
  auto restored =
      ICrowd::Restore(MakeDataset(), MakeConfig(seed), {}, torn);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->Results(), live.results);
  EXPECT_EQ((*restored)->events_applied(), live.events);

  // A final record cut mid-frame: the lost event is re-derived by redrive.
  std::vector<uint8_t> cut(live.journal.begin(), live.journal.end() - 3);
  auto reopened =
      ICrowd::Restore(MakeDataset(), MakeConfig(seed), {}, cut);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_LT((*reopened)->events_applied(), live.events);
  auto full = ReadJournal(live.journal);
  ASSERT_TRUE(full.ok());
  Status redriven = RedriveJournalTail(
      reopened->get(), full->events,
      static_cast<size_t>((*reopened)->events_applied()));
  ASSERT_TRUE(redriven.ok()) << redriven.ToString();
  EXPECT_EQ((*reopened)->Results(), live.results);
  if (HasFailure()) DumpOnFailure(live.journal, "torn_tail");
}

// ----------------------------------------- mid-run sink death + poisoning --

TEST(RecoveryTest, SinkFailureMidRunPoisonsAndRecovers) {
  const uint64_t seed = 11;
  LiveRun reference = RunLive(seed);
  ASSERT_GT(reference.journal.size(), 100u);
  for (double fraction : {0.25, 0.5, 0.8}) {
    // +3 lands the budget mid-frame: the append is torn, exactly like a
    // process killed inside write(2).
    size_t budget =
        static_cast<size_t>(static_cast<double>(reference.journal.size()) *
                            fraction) +
        3;
    Dataset dataset = MakeDataset();
    std::vector<WorkerProfile> profiles = MakeProfiles(dataset);
    ICrowdConfig config = MakeConfig(seed);
    auto inner = std::make_shared<VectorSink>();
    auto faulty = std::make_shared<FaultInjectingSink>(inner, budget);
    config.journal_sink = faulty;
    auto created = ICrowd::Create(std::move(dataset), config);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    std::unique_ptr<ICrowd> system = created.MoveValueOrDie();
    CampaignDriverOptions options;
    options.seed = seed;
    auto outcome = DriveCampaign(system.get(), profiles, kNumWorkers, options);
    ASSERT_FALSE(outcome.ok()) << "the sink was meant to die mid-run";
    EXPECT_TRUE(faulty->tripped());
    EXPECT_TRUE(system->failed());
    // Poisoned: journal and state may disagree, so every mutating call and
    // Snapshot() are refused until the caller restores.
    EXPECT_EQ(system->OnWorkerArrived().status().code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(system->RequestTask(0).status().code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(system->SubmitAnswer(0, 0, kNo).code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(system->Snapshot().status().code(),
              StatusCode::kFailedPrecondition);
    // Recovery sees only what reached storage — including the torn final
    // frame, which the scanner drops — and the campaign then runs to
    // completion.
    auto restored = ICrowd::Restore(MakeDataset(), MakeConfig(seed), {},
                                    inner->bytes());
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    std::unique_ptr<ICrowd> resumed = restored.MoveValueOrDie();
    auto continued =
        DriveCampaign(resumed.get(), profiles, kNumWorkers, options);
    ASSERT_TRUE(continued.ok()) << continued.status().ToString();
    EXPECT_TRUE(continued->finished);
    EXPECT_TRUE(resumed->Finished());
    if (HasFailure()) {
      DumpOnFailure(inner->bytes(),
                    "sink_failure_" + std::to_string(budget));
      return;
    }
  }
}

// -------------------------------------------------- mismatches and misuse --

TEST(RecoveryTest, RestoreRejectsMismatchedCampaign) {
  const uint64_t seed = 11;
  LiveRun live = RunLive(seed, 1);
  // Different config (k) — fingerprint mismatch.
  ICrowdConfig other_config = MakeConfig(seed);
  other_config.assignment_size = 5;
  EXPECT_FALSE(
      ICrowd::Restore(MakeDataset(), other_config, {}, live.journal).ok());
  // Different dataset — fingerprint mismatch.
  EntityResolutionOptions other_data;
  other_data.tasks_per_family = 6;
  EXPECT_FALSE(ICrowd::Restore(
                   GenerateEntityResolution(other_data).MoveValueOrDie(),
                   MakeConfig(seed), {}, live.journal)
                   .ok());
  // Nothing to restore from.
  EXPECT_FALSE(ICrowd::Restore(MakeDataset(), MakeConfig(seed), {}, {})
                   .ok());
}

TEST(RecoveryTest, RestoreUnderDifferentPprToleranceIsRefused) {
  // The tolerance changes the seed vectors and so p̂: a journal recorded at
  // the defaults must be refused before any replay, not replayed against
  // different estimates.
  const uint64_t seed = 11;
  LiveRun live = RunLive(seed);
  ICrowdConfig loose = MakeConfig(seed);
  loose.estimator.ppr.tolerance = 1e-2;
  auto restored = ICrowd::Restore(MakeDataset(), loose, {}, live.journal);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(restored.status().ToString().find("different campaign"),
            std::string::npos)
      << restored.status().ToString();
}

// ---------------------------------------------- corrupted snapshot fields --

// Each case writes one bad value into a valid snapshot of a finished
// campaign; Restore must answer InvalidArgument, never crash or allocate
// what the bad value asks for.
uint64_t GetU64(const std::vector<uint8_t>& bytes, size_t at) {
  uint64_t v = 0;
  for (size_t i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(bytes[at + i]) << (8 * i);
  }
  return v;
}

void PutU64(std::vector<uint8_t>* bytes, size_t at, uint64_t v) {
  for (size_t i = 0; i < 8; ++i) {
    (*bytes)[at + i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

std::vector<uint8_t> EncodeI32s(std::initializer_list<int32_t> values) {
  BinaryWriter writer;
  for (int32_t v : values) writer.I32(v);
  return writer.Release();
}

class CorruptSnapshotTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kSeed = 5;
  // Header (magic, version, fingerprint, events, now) then the campaign
  // state's (num_tasks, k) before its worker count.
  static constexpr size_t kStateAt = 4 + 4 + 8 + 8 + 8;
  static constexpr size_t kWorkerCountAt = kStateAt + 8 + 4;
  static constexpr size_t kCompletedCountAt = kWorkerCountAt + 8;

  void SetUp() override {
    obs::MetricsRegistry::Global().ResetForTesting();
    Dataset dataset = MakeDataset();
    num_tasks_ = dataset.size();
    std::vector<WorkerProfile> profiles = MakeProfiles(dataset);
    auto system = ICrowd::Create(std::move(dataset), MakeConfig(kSeed))
                      .MoveValueOrDie();
    CampaignDriverOptions options;
    options.seed = kSeed;
    ASSERT_TRUE(
        DriveCampaign(system.get(), profiles, kNumWorkers, options).ok());
    snapshot_ = system->Snapshot().MoveValueOrDie();
    num_workers_ = system->state().num_workers();
    ASSERT_EQ(GetU64(snapshot_, kWorkerCountAt), num_workers_);
    // The assigner's section starts with the estimator's state, which is a
    // long, unique byte string inside the snapshot.
    BinaryWriter estimator;
    system->estimator().SerializeState(&estimator);
    auto at = std::search(snapshot_.begin(), snapshot_.end(),
                          estimator.data().begin(), estimator.data().end());
    ASSERT_NE(at, snapshot_.end());
    estimator_at_ = static_cast<size_t>(at - snapshot_.begin());
    estimator_size_ = estimator.size();
    BinaryWriter state;
    system->state().SerializeState(&state);
    state_size_ = state.size();
  }

  Status Restore(const std::vector<uint8_t>& snapshot) const {
    return ICrowd::Restore(MakeDataset(), MakeConfig(kSeed), snapshot, {})
        .status();
  }

  void ExpectRejected(const std::vector<uint8_t>& snapshot) const {
    Status status = Restore(snapshot);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
  }

  // Offset of the first observed (task id, q) entry in the estimator state.
  size_t FirstObservedEntry() const {
    size_t pos = estimator_at_;
    uint64_t workers = GetU64(snapshot_, pos);
    pos += 8;
    for (uint64_t w = 0; w < workers; ++w) {
      pos += 1 + 1 + 8;  // registered, has_estimate, warm-up accuracy
      uint64_t observed = GetU64(snapshot_, pos);
      pos += 8;
      if (observed > 0) return pos;
      pos += observed * 12;
    }
    ADD_FAILURE() << "no observed entries in the snapshot";
    return 0;
  }

  // Offsets of the first task record (in task order) with at least one
  // assigned worker and one vote: its first assigned worker id and its
  // first vote label.
  std::pair<size_t, size_t> FirstAssignedAndVoteLabel() const {
    size_t pos = kCompletedCountAt + 8;
    for (size_t t = 0; t < num_tasks_; ++t) {
      uint64_t assigned = GetU64(snapshot_, pos);
      size_t votes_at = pos + 8 + 4 * assigned;
      uint64_t votes = GetU64(snapshot_, votes_at);
      if (assigned > 0 && votes > 0) return {pos + 8, votes_at + 8};
      pos = votes_at + 8 + 8 * votes + 1 + 4 + 1 + 1;
    }
    ADD_FAILURE() << "no task with assigned workers and votes";
    return {0, 0};
  }

  // The worker-status table (count, one byte each) follows the campaign
  // state; the facade's holding table follows it.
  size_t HoldingCountAt() const {
    size_t statuses_at = kStateAt + state_size_;
    return statuses_at + 8 + GetU64(snapshot_, statuses_at);
  }

  size_t DirtyCountAt() const { return estimator_at_ + estimator_size_; }
  size_t PlannedCountAt() const {
    return DirtyCountAt() + 8 + 4 * GetU64(snapshot_, DirtyCountAt());
  }

  // The snapshot with `entry` prepended to the list counted at `count_at`.
  std::vector<uint8_t> WithEntry(size_t count_at,
                                 const std::vector<uint8_t>& entry) const {
    std::vector<uint8_t> bytes = snapshot_;
    PutU64(&bytes, count_at, GetU64(bytes, count_at) + 1);
    bytes.insert(bytes.begin() + static_cast<long>(count_at + 8),
                 entry.begin(), entry.end());
    return bytes;
  }

  std::vector<uint8_t> snapshot_;
  size_t num_tasks_ = 0;
  size_t num_workers_ = 0;
  size_t estimator_at_ = 0;
  size_t estimator_size_ = 0;
  size_t state_size_ = 0;
};

TEST_F(CorruptSnapshotTest, UnmodifiedSnapshotRestores) {
  EXPECT_TRUE(Restore(snapshot_).ok());
  // The list editing itself keeps a snapshot valid.
  EXPECT_TRUE(Restore(WithEntry(DirtyCountAt(), EncodeI32s({0}))).ok());
  EXPECT_TRUE(Restore(WithEntry(HoldingCountAt(), EncodeI32s({0, 0}))).ok());
}

TEST_F(CorruptSnapshotTest, WorkerCountBeyondTheSnapshotIsRejected) {
  std::vector<uint8_t> bytes = snapshot_;
  PutU64(&bytes, kWorkerCountAt, uint64_t{1} << 40);
  ExpectRejected(bytes);
  PutU64(&bytes, kWorkerCountAt, bytes.size());
  ExpectRejected(bytes);
}

TEST_F(CorruptSnapshotTest, ObservedTaskIdOutOfRangeIsRejected) {
  size_t entry = FirstObservedEntry();
  for (int32_t bad : {static_cast<int32_t>(num_tasks_), -1, 1 << 30}) {
    std::vector<uint8_t> bytes = snapshot_;
    std::vector<uint8_t> id = EncodeI32s({bad});
    std::copy(id.begin(), id.end(), bytes.begin() + static_cast<long>(entry));
    ExpectRejected(bytes);
  }
}

TEST_F(CorruptSnapshotTest, ObservedAccuracyOutsideUnitIntervalIsRejected) {
  size_t q_at = FirstObservedEntry() + 4;
  for (double bad : {1.5, -0.25, std::nan("")}) {
    std::vector<uint8_t> bytes = snapshot_;
    BinaryWriter q;
    q.F64(bad);
    std::copy(q.data().begin(), q.data().end(),
              bytes.begin() + static_cast<long>(q_at));
    ExpectRejected(bytes);
  }
}

TEST_F(CorruptSnapshotTest, UnknownDirtyWorkerIsRejected) {
  for (int32_t bad : {static_cast<int32_t>(num_workers_), -1, 1 << 30}) {
    ExpectRejected(WithEntry(DirtyCountAt(), EncodeI32s({bad})));
  }
}

TEST_F(CorruptSnapshotTest, UnknownPlannedWorkerIsRejected) {
  for (int32_t bad : {static_cast<int32_t>(num_workers_), -1, 1 << 30}) {
    ExpectRejected(WithEntry(PlannedCountAt(), EncodeI32s({bad, 0})));
  }
}

TEST_F(CorruptSnapshotTest, UnknownPlannedTaskIsRejected) {
  for (int32_t bad : {static_cast<int32_t>(num_tasks_), -1}) {
    ExpectRejected(WithEntry(PlannedCountAt(), EncodeI32s({0, bad})));
  }
}

TEST_F(CorruptSnapshotTest, AssignedWorkerOutOfRangeIsRejected) {
  size_t worker_at = FirstAssignedAndVoteLabel().first;
  for (int32_t bad : {static_cast<int32_t>(num_workers_), -1, 1 << 30}) {
    std::vector<uint8_t> bytes = snapshot_;
    std::vector<uint8_t> id = EncodeI32s({bad});
    std::copy(id.begin(), id.end(),
              bytes.begin() + static_cast<long>(worker_at));
    ExpectRejected(bytes);
  }
}

TEST_F(CorruptSnapshotTest, VoteLabelNoAnswerCarriesIsRejected) {
  size_t label_at = FirstAssignedAndVoteLabel().second;
  for (int32_t bad : {-1, 7, 1 << 30}) {
    std::vector<uint8_t> bytes = snapshot_;
    std::vector<uint8_t> label = EncodeI32s({bad});
    std::copy(label.begin(), label.end(),
              bytes.begin() + static_cast<long>(label_at));
    ExpectRejected(bytes);
  }
}

TEST_F(CorruptSnapshotTest, CompletedCountBeyondTheTasksIsRejected) {
  for (uint64_t bad : {uint64_t{num_tasks_} + 1, uint64_t{1} << 40}) {
    std::vector<uint8_t> bytes = snapshot_;
    PutU64(&bytes, kCompletedCountAt, bad);
    ExpectRejected(bytes);
  }
}

TEST_F(CorruptSnapshotTest, HoldingWorkerOutOfRangeIsRejected) {
  for (int32_t bad : {static_cast<int32_t>(num_workers_), -1, 1 << 30}) {
    ExpectRejected(WithEntry(HoldingCountAt(), EncodeI32s({bad, 0})));
  }
}

TEST_F(CorruptSnapshotTest, HoldingTaskOutOfRangeIsRejected) {
  for (int32_t bad : {static_cast<int32_t>(num_tasks_), -1}) {
    ExpectRejected(WithEntry(HoldingCountAt(), EncodeI32s({0, bad})));
  }
}

// ------------------------------------- resume-then-continue metrics parity --

TEST(RecoveryTest, ResumeThenContinueMatchesUninterruptedMetrics) {
  const uint64_t seed = 77;
  LiveRun live = RunLive(seed);
  auto full = ReadJournal(live.journal);
  ASSERT_TRUE(full.ok());
  size_t offset = live.journal.size() * 2 / 3 + 1;  // mid-frame somewhere
  std::vector<uint8_t> prefix(
      live.journal.begin(),
      live.journal.begin() + static_cast<long>(offset));
  obs::MetricsRegistry::Global().ResetForTesting();
  auto restored =
      ICrowd::Restore(MakeDataset(), MakeConfig(seed), {}, prefix);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  std::unique_ptr<ICrowd> system = restored.MoveValueOrDie();
  Status redriven = RedriveJournalTail(
      system.get(), full->events,
      static_cast<size_t>(system->events_applied()));
  ASSERT_TRUE(redriven.ok()) << redriven.ToString();
  EXPECT_EQ(system->Results(), live.results);
  // Replayed prefix + redriven tail must count exactly what the
  // uninterrupted run counted: each event's deterministic counters fire
  // once, whichever side of the crash it landed on.
  EXPECT_EQ(obs::MetricsRegistry::Global().ExportJsonlString(
                DeterministicExport()),
            live.det_metrics);
  if (HasFailure()) DumpOnFailure(live.journal, "resume_metrics");
}

}  // namespace
}  // namespace icrowd
