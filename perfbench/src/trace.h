// The traced run's helpers, all owned by the benchmark: an in-memory span
// recorder written out when the run ends, a timing JournalSink wrapper
// injected through ICrowdConfig::journal_sink, a reader of deltas of the
// counters the program exports in obs::MetricsRegistry, and the ledger that
// compares attributed layer time with end-to-end wall time.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"
#include "icrowd_api.h"

namespace perfbench {

/// One layer-boundary interval. Spans of one request share `request`;
/// `parent` is the id of the span that caused this one (0 = root).
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// In-memory span store. Each recording thread appends to a buffer of its
/// own (registered once under a lock), so threads never contend while
/// recording. Each thread also keeps its stack of open spans: a span opened
/// inside another on the same thread gets it as parent (the journal spans a
/// TimingSink records inside SubmitAnswer become children of the answer
/// span). Read the spans (Durations, WriteJsonl) only after every
/// recording thread is done.
class SpanRecorder {
 public:
  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Opens a span on the calling thread; `request` 0 inherits the
  /// enclosing span's request id. Returns the span id.
  uint64_t Begin(const char* name, uint64_t request = 0);
  /// Closes the innermost open span of the calling thread.
  void End();
  /// Records an interval timed elsewhere, as a child of the calling
  /// thread's innermost open span.
  void Record(const char* name, int64_t start_ns, int64_t end_ns,
              uint64_t request = 0);
  /// A fresh request id.
  uint64_t NewRequest() { return next_request_.fetch_add(1) + 1; }
  /// Room for `n` more spans in the calling thread's buffer and in every
  /// buffer registered afterwards, so recording on a timed path never
  /// reallocates.
  void ReservePerThread(size_t n);

  /// Durations (microseconds) of every closed span called `name`.
  Samples Durations(const char* name) const;
  /// Writes one JSON object per span.
  bool WriteJsonl(const std::string& path) const;

 private:
  struct Open {
    uint64_t id;
    uint64_t request;
    size_t index;
  };
  struct Buffer {
    std::vector<Span> spans;
    std::vector<Open> open;
  };
  /// The calling thread's buffer, registered on first use.
  Buffer& Local();
  Span MakeSpan(Buffer& buffer, const char* name, uint64_t request);

  /// Tells recorders apart in the thread-local cache, even when one is
  /// allocated where a destroyed one lived.
  const uint64_t serial_;
  std::atomic<uint64_t> next_id_{0};
  std::atomic<uint64_t> next_request_{0};
  std::atomic<size_t> reserve_{0};
  std::mutex mu_;  // guards buffers_
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, uint64_t request = 0)
      : recorder_(recorder) {
    if (recorder_ != nullptr) recorder_->Begin(name, request);
  }
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
};

/// JournalSink wrapper timing every Append and Flush of `inner` into
/// "journal.append" / "journal.flush" spans. One instance serves one
/// campaign, whose single writer thread is the only caller.
class TimingSink : public icrowd::JournalSink {
 public:
  TimingSink(std::shared_ptr<icrowd::JournalSink> inner,
             SpanRecorder* recorder)
      : inner_(std::move(inner)), recorder_(recorder) {}
  icrowd::Status Append(const uint8_t* data, size_t size) override;
  icrowd::Status Flush() override;

 private:
  std::shared_ptr<icrowd::JournalSink> inner_;
  SpanRecorder* recorder_;
};

/// Counter totals (histogram sums and counts as "<name>.sum" and
/// "<name>.count") of the global obs::MetricsRegistry.
using CounterTotals = std::map<std::string, double>;
CounterTotals ReadCounterTotals();

/// Marks a shadow call: whatever the program counts while it is alive is
/// booked as shadow work, which CounterDelta leaves out.
class ShadowScope {
 public:
  ShadowScope();
  ~ShadowScope();
  ShadowScope(const ShadowScope&) = delete;
  ShadowScope& operator=(const ShadowScope&) = delete;

 private:
  CounterTotals before_;
};

/// Deltas of the counters (and histogram sums/counts) the program exports
/// in obs::MetricsRegistry between construction (or Reset()) and the read,
/// minus what shadow calls counted meanwhile.
class CounterDelta {
 public:
  CounterDelta() { Reset(); }
  void Reset();
  uint64_t Counter(const std::string& name) const {
    return static_cast<uint64_t>(Delta(name));
  }
  double HistogramSum(const std::string& name) const {
    return Delta(name + ".sum");
  }
  uint64_t HistogramCount(const std::string& name) const {
    return static_cast<uint64_t>(Delta(name + ".count"));
  }

 private:
  double Delta(const std::string& name) const;

  CounterTotals base_;
  CounterTotals shadow_base_;
};

/// Layer time attributed by the trace against the end-to-end wall time it
/// happened in: ledger.attributed_frac = Σ attributed ÷ wall.
struct Ledger {
  double attributed_s = 0.0;
  double wall_s = 0.0;
  double AttributedFrac() const {
    return wall_s > 0.0 ? attributed_s / wall_s : 0.0;
  }
};

/// Ratio of a traced to an untraced timing of the same work, minus one.
inline double OverheadFrac(double traced_s, double untraced_s) {
  return untraced_s > 0.0 ? traced_s / untraced_s - 1.0 : 0.0;
}

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
