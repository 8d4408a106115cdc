// The three ccqbench workloads (README.md has the why of each).
#pragma once

#include "harness.hpp"

namespace ccqbench {

/// Closed loop, one client: GC on random_connected(1024, 2n extra)
/// alternating with EXACT-MST (phase_override=1) on
/// random_weighted_clique(512). One op = one GC job plus one MST job.
Outcome run_oneshot(const Options& opt);

/// Closed loop, one client: plain apply_batch of mixed churn on n=512
/// over a signature-cache-resident edge pool. One op = one batch.
Outcome run_svc_ingest(const Options& opt);

/// Open loop on n=512, local index: a writer applies churn batches on a
/// fixed cadence while a query client follows a seeded schedule. One op
/// = one query, timed from its due time.
Outcome run_svc_read(const Options& opt);

}  // namespace ccqbench
