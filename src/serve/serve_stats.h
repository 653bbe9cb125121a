// Serving-side statistics: request accounting, simulated latency
// percentiles, batch occupancy, shed rate, and per-model-version traffic
// attribution.
//
// All times are *simulated* seconds on the inference engine's virtual
// timeline (see inference_engine.h). Because the timeline is advanced only
// by the single-threaded batching scheduler from generated arrival
// schedules, every field here is a pure function of (schedule, options,
// store contents) — two runs over the same inputs produce bit-identical
// snapshots, which bench_serve_sweep asserts via operator==.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace corgipile {

/// Latency distribution summary over the completed requests, simulated
/// seconds, nearest-rank percentiles.
struct LatencySummary {
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double mean = 0.0;
  double max = 0.0;

  bool operator==(const LatencySummary&) const = default;
};

/// Prediction-quality counters for one (model id, version): how much
/// traffic the version answered and how well. `loss_sum` is accumulated in
/// batch-dispatch order (ServeStatsBuilder keys pending contributions by
/// batch sequence number), so the floating-point total is bit-identical
/// across reruns even though worker threads report out of order.
struct VersionQuality {
  uint64_t served = 0;
  uint64_t correct = 0;
  double loss_sum = 0.0;

  double accuracy() const {
    return served ? static_cast<double>(correct) / served : 0.0;
  }
  double mean_loss() const {
    return served ? loss_sum / static_cast<double>(served) : 0.0;
  }

  bool operator==(const VersionQuality&) const = default;
};

/// Snapshot of one engine run (or one PREDICT BY statement).
struct ServeStats {
  // --- request accounting (submitted = sum of the rest) ---
  uint64_t submitted = 0;
  uint64_t completed = 0;   ///< executed and answered OK
  uint64_t shed = 0;        ///< rejected by admission control (queue full)
  uint64_t expired = 0;     ///< per-request deadline passed while queued
  uint64_t cancelled = 0;   ///< CancellationToken fired while queued
  uint64_t failed = 0;      ///< model missing / feature-dim mismatch

  // --- micro-batching ---
  uint64_t num_batches = 0;
  uint64_t max_batch_size = 0;
  uint64_t deadline_closes = 0;  ///< batches closed by batch_deadline
  uint64_t full_closes = 0;      ///< batches closed by reaching max_batch
  double mean_batch_occupancy = 0.0;

  // --- graceful degradation (DESIGN.md §12) ---
  uint64_t hedged_retries = 0;  ///< resolve retries after a failed attempt
  uint64_t breaker_opens = 0;   ///< circuit-breaker Closed/HalfOpen → Open
  /// Batches whose snapshot resolve was short-circuited by an Open breaker
  /// (no ModelStore call, no retry budget burned).
  uint64_t breaker_short_circuits = 0;
  uint64_t brownout_batches = 0;  ///< batches served from last-good snapshot
  uint64_t brownout_served = 0;   ///< requests answered in brownout mode

  // --- canary lifecycle (DESIGN.md §13) ---
  uint64_t canary_batches = 0;   ///< batches routed to a staged candidate
  uint64_t canary_served = 0;    ///< requests answered by the candidate
  uint64_t canary_breaches = 0;  ///< canary batches whose paired quality broke
  uint64_t canary_promotions = 0;  ///< engine promoted the candidate
  uint64_t canary_rollbacks = 0;   ///< breach breaker tripped → canary aborted

  // --- simulated timeline ---
  double first_arrival_s = 0.0;
  double last_completion_s = 0.0;
  double makespan_s = 0.0;        ///< last completion − first arrival
  double throughput_rps = 0.0;    ///< completed / makespan
  double service_busy_s = 0.0;    ///< summed batch service time (all workers)
  LatencySummary latency;

  /// Completed requests per (model id, version) — the hot-swap audit
  /// trail: a swap mid-run shows both versions with nonzero counts.
  std::map<std::string, std::map<uint64_t, uint64_t>> served_by_version;

  /// Prediction quality per (model id, version): the canary comparison
  /// input, and generally the per-version serving audit.
  std::map<std::string, std::map<uint64_t, VersionQuality>> quality_by_version;

  double shed_rate() const {
    return submitted ? static_cast<double>(shed) / submitted : 0.0;
  }

  bool operator==(const ServeStats&) const = default;

  /// One-line human summary ("completed=... p99=...ms shed=...%").
  std::string ToString() const;
};

/// Accumulates per-request observations on the scheduler thread and
/// finalizes percentiles. Not thread-safe; the engine serializes access.
class ServeStatsBuilder {
 public:
  void RecordArrival(double arrival_s);
  void RecordShed() { ++stats_.shed; }
  void RecordExpired() { ++stats_.expired; }
  void RecordCancelled() { ++stats_.cancelled; }
  void RecordFailed() { ++stats_.failed; }

  // Degradation accounting (CloseOpenBatch's resolve path).
  void RecordResolveRetry() { ++stats_.hedged_retries; }
  void RecordBreakerOpen() { ++stats_.breaker_opens; }
  void RecordBreakerShortCircuit() { ++stats_.breaker_short_circuits; }
  void RecordBrownoutBatch(uint64_t served) {
    ++stats_.brownout_batches;
    stats_.brownout_served += served;
  }

  // Canary lifecycle accounting (CloseOpenBatch's routing path).
  void RecordCanaryBatch(uint64_t served) {
    ++stats_.canary_batches;
    stats_.canary_served += served;
  }
  void RecordCanaryBreach() { ++stats_.canary_breaches; }
  void RecordCanaryPromotion() { ++stats_.canary_promotions; }
  void RecordCanaryRollback() { ++stats_.canary_rollbacks; }

  /// Quality contribution of dispatched batch `seq` (workers call this
  /// after executing the batch, in whatever order they finish; Finalize
  /// folds the contributions in `seq` order so loss sums are
  /// bit-identical).
  void RecordBatchQuality(uint64_t seq, const std::string& model_id,
                          uint64_t version, uint64_t served, uint64_t correct,
                          double loss_sum);

  /// One dispatched batch: per-request completion latencies are recorded
  /// by the caller via RecordCompletions.
  void RecordBatch(uint64_t size, bool closed_by_deadline, double service_s);
  /// The requests of one batch served by (`model_id`, `version`), all
  /// completing at `completion_s`; one latency per request, in batch order.
  void RecordCompletions(const std::string& model_id, uint64_t version,
                         double completion_s,
                         const std::vector<double>& latencies_s);

  /// Percentiles and rates computed; the builder can keep accumulating
  /// (Finalize is a pure snapshot).
  ServeStats Finalize() const;

 private:
  struct PendingQuality {
    std::string model_id;
    uint64_t version = 0;
    uint64_t served = 0;
    uint64_t correct = 0;
    double loss_sum = 0.0;
  };

  ServeStats stats_;
  bool saw_arrival_ = false;
  std::vector<double> latencies_;
  uint64_t batch_size_sum_ = 0;
  /// Batch-seq-ordered quality contributions, folded by Finalize.
  std::map<uint64_t, PendingQuality> pending_quality_;
};

}  // namespace corgipile
