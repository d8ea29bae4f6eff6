#include "common/logging.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace icrowd {

namespace {

std::atomic<int> g_log_level{static_cast<int>(LogLevel::kInfo)};

/// Guards sink installation and emission. Logging is cold by design (hot
/// paths use metrics, not log lines), so one mutex is fine and keeps
/// interleaved lines whole. Level 7 in tools/lock_order.txt: held while
/// the installed sink runs, so a sink may take its own (lower) lock — the
/// CaptureLogs state mutex — but must never call back into logging.
Mutex g_log_mutex;
LogSink g_log_sink ICROWD_GUARDED_BY(g_log_mutex);  // empty = stderr sink

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

std::chrono::steady_clock::time_point ProcessStart() {
  static const std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
  return start;
}

void DefaultSink(const LogRecord& record) {
  std::string line = FormatLogRecord(record);
  std::fprintf(stderr, "%s\n", line.c_str());
}

}  // namespace

void SetLogLevel(LogLevel level) {
  g_log_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel GetLogLevel() {
  return static_cast<LogLevel>(g_log_level.load(std::memory_order_relaxed));
}

bool LogLevelEnabled(LogLevel level) {
  return static_cast<int>(level) >=
         g_log_level.load(std::memory_order_relaxed);
}

LogSink SetLogSink(LogSink sink) {
  MutexLock lock(g_log_mutex);
  return std::exchange(g_log_sink, std::move(sink));
}

std::string FormatLogRecord(const LogRecord& record) {
  char prefix[64];
  std::snprintf(prefix, sizeof(prefix), "[%s %.3fs T%llu] ",
                LevelName(record.level), record.uptime_seconds,
                static_cast<unsigned long long>(record.thread));
  return prefix + record.message;
}

void LogMessage(LogLevel level, const std::string& message) {
  if (!LogLevelEnabled(level)) return;
  static const obs::Counter log_records =
      obs::MetricsRegistry::Global().GetCounter(
          "icrowd.obs.log_records",
          {/*deterministic=*/false, "log records that passed the threshold"});
  LogRecord record;
  record.level = level;
  record.uptime_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    ProcessStart())
          .count();
  record.wall_unix_seconds =
      std::chrono::duration_cast<std::chrono::seconds>(
          std::chrono::system_clock::now()  // lint: clock-ok(log timestamps correlate runs with the outside world)
              .time_since_epoch())
          .count();
  record.thread = obs::ThisThreadIndex();
  record.message = message;
  log_records.Increment();
  // Flight-record the line before taking the emission lock: the black box
  // should capture it even if a sink is wedged.
  obs::FlightRecorder& flight = obs::FlightRecorder::Global();
  if (flight.enabled()) {
    flight.RecordDetail(obs::FlightEventKind::kLog, LevelName(level), message,
                        static_cast<int64_t>(level));
  }
  MutexLock lock(g_log_mutex);
  if (g_log_sink) {
    g_log_sink(record);
  } else {
    DefaultSink(record);
  }
}

CaptureLogs::CaptureLogs() : state_(std::make_shared<State>()) {
  std::shared_ptr<State> state = state_;
  previous_ = SetLogSink([state](const LogRecord& record) {
    MutexLock lock(state->mutex);
    state->records.push_back(record);
  });
}

CaptureLogs::~CaptureLogs() { SetLogSink(std::move(previous_)); }

std::vector<LogRecord> CaptureLogs::records() const {
  MutexLock lock(state_->mutex);
  return state_->records;
}

bool CaptureLogs::Contains(const std::string& substring) const {
  MutexLock lock(state_->mutex);
  for (const LogRecord& record : state_->records) {
    if (record.message.find(substring) != std::string::npos) return true;
  }
  return false;
}

}  // namespace icrowd
