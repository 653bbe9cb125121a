#include "serve/serve_stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace corgipile {

namespace {

/// Nearest-rank percentile over a sorted sample vector.
double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const size_t idx =
      static_cast<size_t>(std::max(1.0, rank)) - 1;  // 1-based → 0-based
  return sorted[std::min(idx, sorted.size() - 1)];
}

}  // namespace

std::string ServeStats::ToString() const {
  std::ostringstream os;
  os << "completed=" << completed << "/" << submitted << " shed=" << shed
     << " expired=" << expired << " cancelled=" << cancelled
     << " failed=" << failed << "; batches=" << num_batches
     << " (occupancy " << mean_batch_occupancy << ", max " << max_batch_size
     << "); p50=" << latency.p50 * 1e3 << "ms p95=" << latency.p95 * 1e3
     << "ms p99=" << latency.p99 * 1e3 << "ms; throughput="
     << throughput_rps << " req/s";
  if (hedged_retries + breaker_opens + breaker_short_circuits +
          brownout_batches >
      0) {
    os << "; degradation: retries=" << hedged_retries
       << " breaker_opens=" << breaker_opens
       << " short_circuits=" << breaker_short_circuits
       << " brownout=" << brownout_served << " req in " << brownout_batches
       << " batches";
  }
  if (canary_batches + canary_promotions + canary_rollbacks > 0) {
    os << "; canary: " << canary_served << " req in " << canary_batches
       << " batches, breaches=" << canary_breaches
       << " promotions=" << canary_promotions
       << " rollbacks=" << canary_rollbacks;
  }
  if (!served_by_version.empty()) {
    os << "; versions:";
    for (const auto& [id, per_version] : served_by_version) {
      for (const auto& [version, count] : per_version) {
        os << " " << id << "@v" << version << "=" << count;
      }
    }
  }
  return os.str();
}

void ServeStatsBuilder::RecordArrival(double arrival_s) {
  ++stats_.submitted;
  if (!saw_arrival_ || arrival_s < stats_.first_arrival_s) {
    stats_.first_arrival_s = arrival_s;
  }
  saw_arrival_ = true;
}

void ServeStatsBuilder::RecordBatch(uint64_t size, bool closed_by_deadline,
                                    double service_s) {
  ++stats_.num_batches;
  batch_size_sum_ += size;
  stats_.max_batch_size = std::max(stats_.max_batch_size, size);
  if (closed_by_deadline) {
    ++stats_.deadline_closes;
  } else {
    ++stats_.full_closes;
  }
  stats_.service_busy_s += service_s;
}

void ServeStatsBuilder::RecordCompletions(
    const std::string& model_id, uint64_t version, double completion_s,
    const std::vector<double>& latencies_s) {
  stats_.completed += latencies_s.size();
  latencies_.insert(latencies_.end(), latencies_s.begin(), latencies_s.end());
  stats_.last_completion_s = std::max(stats_.last_completion_s, completion_s);
  stats_.served_by_version[model_id][version] += latencies_s.size();
}

void ServeStatsBuilder::RecordBatchQuality(uint64_t seq,
                                           const std::string& model_id,
                                           uint64_t version, uint64_t served,
                                           uint64_t correct, double loss_sum) {
  PendingQuality& q = pending_quality_[seq];
  q.model_id = model_id;
  q.version = version;
  q.served = served;
  q.correct = correct;
  q.loss_sum = loss_sum;
}

ServeStats ServeStatsBuilder::Finalize() const {
  ServeStats out = stats_;
  for (const auto& [seq, q] : pending_quality_) {
    VersionQuality& dst = out.quality_by_version[q.model_id][q.version];
    dst.served += q.served;
    dst.correct += q.correct;
    dst.loss_sum += q.loss_sum;
  }
  if (out.num_batches > 0) {
    out.mean_batch_occupancy = static_cast<double>(batch_size_sum_) /
                               static_cast<double>(out.num_batches);
  }
  if (out.completed > 0) {
    std::vector<double> sorted = latencies_;
    std::sort(sorted.begin(), sorted.end());
    out.latency.p50 = Percentile(sorted, 0.50);
    out.latency.p95 = Percentile(sorted, 0.95);
    out.latency.p99 = Percentile(sorted, 0.99);
    out.latency.max = sorted.back();
    double sum = 0.0;
    for (double v : sorted) sum += v;
    out.latency.mean = sum / static_cast<double>(sorted.size());
    out.makespan_s = out.last_completion_s - out.first_arrival_s;
    if (out.makespan_s > 0.0) {
      out.throughput_rps =
          static_cast<double>(out.completed) / out.makespan_s;
    }
  }
  return out;
}

}  // namespace corgipile
