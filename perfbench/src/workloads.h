// The workloads. Each returns the end-to-end metrics (untraced run)
// or the per-layer metrics (traced run), plus the correctness verdict.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

/// solo_campaign: one large campaign driven through the v1 facade.
RunResult RunSolo(const RunOptions& options);

/// fleet_burst: about 1000 small campaigns in one CampaignManager, fed as
/// fast as backpressure allows.
RunResult RunFleet(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
