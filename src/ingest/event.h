#ifndef ICROWD_INGEST_EVENT_H_
#define ICROWD_INGEST_EVENT_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "journal/journal.h"
#include "model/microtask.h"

namespace icrowd {

/// The ingest pipeline's event vocabulary (DESIGN.md §12): the four
/// mutating platform callbacks of the ICrowd facade, reified as values so
/// they can cross the producer/consumer queue and be applied in batches.
/// Clock ticks are deliberately absent — the facade derives and journals
/// the activity tick for each request itself, exactly as it does on the
/// per-event path, so a batched stream journals as the identical per-event
/// record sequence.
enum class IngestEventKind : uint8_t {
  /// A new worker accepted a HIT; the facade hands out the next id.
  kWorkerArrived = 0,
  /// `worker` asks for its next task (ICrowd::RequestTask).
  kWorkerRequested = 1,
  /// `worker` submits `answer` for the `task` it holds.
  kAnswerSubmitted = 2,
  /// `worker` returned/abandoned its HIT (ICrowd::OnWorkerLeft).
  kWorkerLeft = 3,
};

/// One queued platform event. Field use mirrors the facade calls:
///   kWorkerArrived:   (no fields — the id is assigned on apply)
///   kWorkerRequested: worker
///   kAnswerSubmitted: worker, task, answer
///   kWorkerLeft:      worker
struct IngestEvent {
  IngestEventKind kind = IngestEventKind::kWorkerRequested;
  WorkerId worker = -1;
  TaskId task = -1;
  Label answer = kNoLabel;
  /// Steady-clock nanoseconds stamped by BoundedEventQueue::Push, read by
  /// the CampaignManager shard loop to observe
  /// icrowd.ingest.queue_wait_seconds (DESIGN.md §14). Purely
  /// in-memory plumbing: never journaled, never part of event identity —
  /// the batch-invariance contract sees four fields, not five (or six).
  int64_t enqueue_ns = 0;
  /// Routing tag stamped by CampaignManager::SubmitEvent: the owning
  /// shard's slot index for the target campaign, letting one shard queue
  /// carry events for many campaigns (DESIGN.md §16). Like enqueue_ns this
  /// is in-memory plumbing only — never journaled, never part of event
  /// identity, invisible to the batch-invariance contract.
  uint32_t route = 0;

  static IngestEvent Arrived() {
    return {IngestEventKind::kWorkerArrived, -1, -1, kNoLabel};
  }
  static IngestEvent Requested(WorkerId worker) {
    return {IngestEventKind::kWorkerRequested, worker, -1, kNoLabel};
  }
  static IngestEvent Answered(WorkerId worker, TaskId task, Label answer) {
    return {IngestEventKind::kAnswerSubmitted, worker, task, answer};
  }
  static IngestEvent Left(WorkerId worker) {
    return {IngestEventKind::kWorkerLeft, worker, -1, kNoLabel};
  }
};

/// Per-event result of a batch application. `status` carries the same
/// recoverable per-call errors the facade returns on the per-event path
/// (e.g. answering a task the worker does not hold); a batch only *fails*
/// when the campaign poisons (journal/apply failure).
struct IngestOutcome {
  IngestEventKind kind = IngestEventKind::kWorkerRequested;
  Status status = Status::OK();
  /// Arrivals: the id handed out. Other kinds: the event's worker.
  WorkerId worker = -1;
  /// Requests: the served task, kNoTaskServed when nothing was assignable.
  TaskId task = kNoTaskServed;
};

/// Converts a journal event stream (from ReadJournal) starting at index
/// `from` into the equivalent ingest stream. Campaign-begin records and
/// clock ticks are dropped: re-applying the result through the batched API
/// re-derives ticks with the same logical times, so the journal a re-ingest
/// writes is byte-identical to the tail it was cut from. This is the bridge
/// the batch-invariance tests and the burst bench use to replay a recorded
/// campaign through the ingest pipeline.
std::vector<IngestEvent> IngestStreamFromJournal(
    const std::vector<JournalEvent>& events, size_t from = 0);

}  // namespace icrowd

#endif  // ICROWD_INGEST_EVENT_H_
