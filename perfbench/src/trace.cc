#include "trace.h"

#include <cstdio>

namespace perfbench {

namespace {
std::atomic<uint64_t> next_recorder_serial{1};
}  // namespace

SpanRecorder::SpanRecorder() : serial_(next_recorder_serial.fetch_add(1)) {}

SpanRecorder::Buffer& SpanRecorder::Local() {
  thread_local uint64_t cached_serial = 0;
  thread_local Buffer* cached = nullptr;
  if (cached_serial != serial_) {
    auto buffer = std::make_unique<Buffer>();
    buffer->spans.reserve(reserve_.load());
    cached = buffer.get();
    cached_serial = serial_;
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::move(buffer));
  }
  return *cached;
}

void SpanRecorder::ReservePerThread(size_t n) {
  reserve_.store(n);
  Buffer& buffer = Local();
  buffer.spans.reserve(buffer.spans.size() + n);
}

Span SpanRecorder::MakeSpan(Buffer& buffer, const char* name,
                            uint64_t request) {
  Span span;
  span.id = next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  span.name = name;
  span.parent = buffer.open.empty() ? 0 : buffer.open.back().id;
  span.request = request != 0 ? request
                              : (buffer.open.empty()
                                     ? 0
                                     : buffer.open.back().request);
  return span;
}

uint64_t SpanRecorder::Begin(const char* name, uint64_t request) {
  Buffer& buffer = Local();
  Span span = MakeSpan(buffer, name, request);
  span.start_ns = NowNs();
  buffer.open.push_back({span.id, span.request, buffer.spans.size()});
  buffer.spans.push_back(span);
  return span.id;
}

void SpanRecorder::End() {
  int64_t end = NowNs();
  Buffer& buffer = Local();
  if (buffer.open.empty()) return;
  buffer.spans[buffer.open.back().index].end_ns = end;
  buffer.open.pop_back();
}

void SpanRecorder::Record(const char* name, int64_t start_ns, int64_t end_ns,
                          uint64_t request) {
  Buffer& buffer = Local();
  Span span = MakeSpan(buffer, name, request);
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  buffer.spans.push_back(span);
}

Samples SpanRecorder::Durations(const char* name) const {
  std::string wanted = name;
  Samples out;
  for (const auto& buffer : buffers_) {
    for (const Span& span : buffer->spans) {
      if (span.end_ns >= span.start_ns && wanted == span.name) {
        out.Add(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
      }
    }
  }
  return out;
}

bool SpanRecorder::WriteJsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const auto& buffer : buffers_) {
    for (const Span& span : buffer->spans) {
      std::fprintf(out,
                 "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                 "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<unsigned long long>(span.request), span.name,
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns));
    }
  }
  return std::fclose(out) == 0;
}

icrowd::Status TimingSink::Append(const uint8_t* data, size_t size) {
  int64_t start = NowNs();
  icrowd::Status status = inner_->Append(data, size);
  recorder_->Record("journal.append", start, NowNs());
  return status;
}

icrowd::Status TimingSink::Flush() {
  int64_t start = NowNs();
  icrowd::Status status = inner_->Flush();
  recorder_->Record("journal.flush", start, NowNs());
  return status;
}

CounterTotals ReadCounterTotals() {
  CounterTotals totals;
  for (const auto& sample :
       icrowd::obs::MetricsRegistry::Global().SnapshotAll()) {
    if (sample.kind == icrowd::obs::MetricKind::kCounter) {
      totals[sample.name] = static_cast<double>(sample.counter);
    } else if (sample.kind == icrowd::obs::MetricKind::kHistogram) {
      totals[sample.name + ".sum"] = sample.histogram.sum;
      totals[sample.name + ".count"] =
          static_cast<double>(sample.histogram.count);
    }
  }
  return totals;
}

namespace {

/// What shadow calls have counted so far, process-wide.
std::mutex shadow_mu;
CounterTotals& ShadowTotals() {
  static CounterTotals* totals = new CounterTotals;
  return *totals;
}

double Lookup(const CounterTotals& totals, const std::string& name) {
  auto it = totals.find(name);
  return it == totals.end() ? 0.0 : it->second;
}

}  // namespace

ShadowScope::ShadowScope() : before_(ReadCounterTotals()) {}

ShadowScope::~ShadowScope() {
  CounterTotals after = ReadCounterTotals();
  std::lock_guard<std::mutex> lock(shadow_mu);
  for (const auto& [name, value] : after) {
    ShadowTotals()[name] += value - Lookup(before_, name);
  }
}

void CounterDelta::Reset() {
  base_ = ReadCounterTotals();
  std::lock_guard<std::mutex> lock(shadow_mu);
  shadow_base_ = ShadowTotals();
}

double CounterDelta::Delta(const std::string& name) const {
  double now = Lookup(ReadCounterTotals(), name);
  std::lock_guard<std::mutex> lock(shadow_mu);
  double shadow = Lookup(ShadowTotals(), name) - Lookup(shadow_base_, name);
  return now - Lookup(base_, name) - shadow;
}

}  // namespace perfbench
