#ifndef ICROWD_ICROWD_VERSION_H_
#define ICROWD_ICROWD_VERSION_H_

/// API version of the public surface exported by icrowd_api.h. Split out
/// of the umbrella so leaf translation units (the /buildz info block in
/// src/obs/build_info.cc) can stamp the version without pulling the whole
/// public API in — obs is the bottom of the dependency stack and must not
/// include headers from the layers above it.
///
/// ICROWD_API_VERSION bumps MINOR on additions and MAJOR on breaking
/// changes to anything exported from the umbrella (DESIGN.md §11 records
/// the policy).

// 2.0: the v2 multi-campaign redesign — execution knobs moved from
// ICrowdConfig into HostConfig (breaking), ICrowd::Create/Restore take a
// HostConfig, the process-global /metricsz campaign label was replaced by
// per-server and per-campaign labels, and the CampaignManager /
// CampaignHandle host API joined the surface.
// 3.0: MakeStrategy takes the campaign's precomputed PprEngine in place of
// the SimilarityGraph (breaking), so a campaign solves its PPR seeds once;
// AccuracyEstimator::FromEngine/ValidateOptions and
// SelectCampaignQualification joined the surface.
// 3.1: GreedySelect/GreedyCandidate (the shared Algorithm 3 kernel),
// ScoredWorker/RanksBefore/TopSetMetrics and AccuracyEstimator::AccuracyRow
// joined the surface; every existing signature is unchanged.
// 4.0: a request runs on one thread. HostConfig::num_threads/pool, the
// instance ThreadPool, and the HostConfig parameter of MakeStrategy and
// RunExperiment are gone (breaking). The campaign fingerprint now hashes
// every decision field (graph build, LDA, PPR iteration cap, tolerance and
// prune epsilon), so journals and snapshots from 3.x are refused.
// 5.0: one asynchronous event consumer, the CampaignManager shard loop.
// The standalone batch-ingest thread class with its options, and the
// facade's SubmitEvent/Drain event buffer, are gone (breaking);
// ApplyEventBatch is the facade's batch entry point, and a single
// campaign fed from another thread is a 1-shard host.
#define ICROWD_API_VERSION_MAJOR 5
#define ICROWD_API_VERSION_MINOR 0
#define ICROWD_API_VERSION \
  (ICROWD_API_VERSION_MAJOR * 1000 + ICROWD_API_VERSION_MINOR)

#endif  // ICROWD_ICROWD_VERSION_H_
