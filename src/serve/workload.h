// Deterministic serving workloads: seeded Poisson arrival schedules and a
// closed-form driver that replays one against an InferenceEngine.
//
// The driver is the serving counterpart of the CorgiPile training runner:
// the arrival schedule is generated up front from (seed, rate) — never
// from the wall clock — so the engine's ServeStats for a given
// (schedule, ServeOptions, store) are bit-identical across reruns, which
// bench_serve_sweep and serve_test assert.

#pragma once

#include <string>
#include <vector>

#include "db/model_store.h"
#include "serve/inference_engine.h"
#include "serve/serve_stats.h"
#include "storage/tuple.h"
#include "util/status.h"

namespace corgipile {

struct WorkloadOptions {
  uint64_t num_requests = 1000;
  /// Mean Poisson arrival rate (requests per simulated second).
  double offered_load_rps = 1000.0;
  uint64_t seed = 42;
  /// Per-request service-start deadline passed through to ServeRequest.
  /// 0 = none.
  double deadline_s = 0.0;
  /// Hot-swap drill: just before submitting request with this index,
  /// Publish() a clone of the model under the same id (version bump).
  /// In-flight batches must keep the old version and nothing may fail.
  /// 0 = no swap.
  uint64_t swap_at_request = 0;
};

/// `n` nondecreasing arrival stamps with Exp(rate) interarrival gaps,
/// deterministic in `seed`.
std::vector<double> PoissonSchedule(uint64_t n, double rate_rps,
                                    uint64_t seed);

/// Reply-side tallies, accumulated from the replies independently of the
/// engine's own ServeStats — a cross-check that replies and stats agree.
struct WorkloadResult {
  ServeStats stats;
  uint64_t ok = 0;
  uint64_t shed = 0;
  uint64_t expired = 0;
  uint64_t cancelled = 0;
  uint64_t failed = 0;  ///< any other non-OK reply
  /// Distinct model versions observed among OK replies (hot-swap ⇒ ≥ 2).
  uint64_t versions_seen = 0;
};

/// Builds an engine over `store`, replays `num_requests` requests against
/// `model_id` cycling through `tuples` with InferenceEngine::Run (on the
/// calling thread; generated schedules drive all timing), and reconciles
/// replies against the engine stats.
Result<WorkloadResult> RunGeneratedWorkload(ModelStore* store,
                                            const std::string& model_id,
                                            const std::vector<Tuple>& tuples,
                                            ServeOptions serve,
                                            const WorkloadOptions& workload);

}  // namespace corgipile
