// perfbench: one run of one workload of the repo benchmark.
//
//   perfbench --workload solo_campaign|fleet_burst --seed N --seconds S
//             --trace 0|1 --workdir DIR --ppr-threads N
//             --fleet-ppr-threads N --shards N
//             [--trace-out FILE] [--smoke] [--inject-mismatch]
//
// Prints, as its last line, {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics with --trace 0, the per-layer ones with --trace 1.
// Exits 0 when every output checked out, 1 on a mismatch, 2 on bad usage.
// run.py builds this binary and is the entry point; see README.md.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

using perfbench::Metric;
using perfbench::RunOptions;
using perfbench::RunResult;

/// End-to-end metrics in report order (every workload reports each).
const char* const kEndToEnd[] = {
    "setup_s",    "request_p99_us", "answer_p99_us",    "events_per_s",
    "recovery_s", "accuracy",       "answers_per_task", "success_rate",
    "peak_rss_mb",
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "solo_campaign|fleet_burst --seed N --seconds S "
               "--trace 0|1 --workdir DIR --ppr-threads N "
               "--fleet-ppr-threads N --shards N "
               "[--trace-out FILE] [--smoke] [--inject-mismatch]\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, RunOptions* options) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--smoke") {
      options->smoke = true;
      continue;
    }
    if (arg == "--inject-mismatch") {
      options->inject_mismatch = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options->workload = value;
    } else if (arg == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
    } else if (arg == "--trace") {
      options->trace = std::strtol(value.c_str(), &end, 10) != 0;
    } else if (arg == "--workdir") {
      options->workdir = value;
    } else if (arg == "--trace-out") {
      options->trace_out = value;
    } else if (arg == "--ppr-threads") {
      options->ppr_threads = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--fleet-ppr-threads") {
      options->fleet_ppr_threads = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--shards") {
      options->shards = std::strtoull(value.c_str(), &end, 10);
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str())) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  if (!ParseArgs(argc, argv, &options)) return Usage("bad arguments");
  if (options.workdir.empty()) return Usage("--workdir is required");
  if (options.seconds <= 0 || options.shards == 0 ||
      options.ppr_threads == 0 || options.fleet_ppr_threads == 0) {
    return Usage("--seconds must be positive; --ppr-threads, "
                 "--fleet-ppr-threads and --shards are required and "
                 "positive");
  }

  RunResult result;
  if (options.workload == "solo_campaign") {
    result = perfbench::RunSolo(options);
  } else if (options.workload == "fleet_burst") {
    result = perfbench::RunFleet(options);
  } else {
    return Usage("unknown workload");
  }

  if (!options.trace) {
    double errors = static_cast<double>(result.failed);
    double attempted = static_cast<double>(std::max<uint64_t>(
        result.attempted, 1));
    result.Add("success_rate", 1.0 - errors / attempted, "ratio");
    result.Add("peak_rss_mb", perfbench::PeakRssMb(), "MB");
    std::map<std::string, Metric> by_name;
    for (const Metric& m : result.metrics) by_name[m.name] = m;
    result.metrics.clear();
    for (const char* name : kEndToEnd) {
      auto it = by_name.find(name);
      if (it == by_name.end()) {
        result.Fail(std::string("workload did not measure ") + name);
        continue;
      }
      result.metrics.push_back(it->second);
    }
  }
  if (result.attempted == 0) result.Fail("no operation was attempted");
  for (const std::string& why : result.mismatches) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
  }
  std::printf("%s\n", perfbench::ResultJson(result).c_str());
  return result.correct ? 0 : 1;
}
