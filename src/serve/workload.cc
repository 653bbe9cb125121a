#include "serve/workload.h"

#include <cmath>
#include <set>
#include <utility>

#include "util/rng.h"

namespace corgipile {

std::vector<double> PoissonSchedule(uint64_t n, double rate_rps,
                                    uint64_t seed) {
  std::vector<double> out;
  out.reserve(n);
  Rng rng(seed);
  double t = 0.0;
  for (uint64_t i = 0; i < n; ++i) {
    // Inverse-CDF exponential; 1−u keeps the argument in (0, 1].
    const double u = rng.NextDouble();
    t += -std::log(1.0 - u) / rate_rps;
    out.push_back(t);
  }
  return out;
}

Result<WorkloadResult> RunGeneratedWorkload(ModelStore* store,
                                            const std::string& model_id,
                                            const std::vector<Tuple>& tuples,
                                            ServeOptions serve,
                                            const WorkloadOptions& workload) {
  if (tuples.empty()) {
    return Status::InvalidArgument("workload needs at least one tuple");
  }
  if (workload.offered_load_rps <= 0.0) {
    return Status::InvalidArgument("offered_load_rps must be positive");
  }
  const std::vector<double> schedule = PoissonSchedule(
      workload.num_requests, workload.offered_load_rps, workload.seed);

  std::vector<ServeRequest> requests;
  requests.reserve(workload.num_requests);
  for (uint64_t i = 0; i < workload.num_requests; ++i) {
    ServeRequest req;
    req.tuple = tuples[i % tuples.size()];
    req.model_id = model_id;
    req.arrival_s = schedule[i];
    req.deadline_s = workload.deadline_s;
    if (workload.swap_at_request > 0 && i == workload.swap_at_request) {
      // Hot-swap drill, executed by the scheduler when it reaches this
      // arrival so the version split in served_by_version is a
      // deterministic function of the schedule.
      req.on_arrival = [store, model_id] {
        auto snap = store->GetSnapshot(model_id);
        if (!snap.ok()) return;
        auto published = store->Publish(model_id, snap->model->Clone());
        (void)published;
      };
    }
    requests.push_back(std::move(req));
  }
  InferenceEngine engine(store, std::move(serve));
  CORGI_ASSIGN_OR_RETURN(std::vector<ServeReply> replies,
                         engine.Run(std::move(requests)));

  WorkloadResult result;
  std::set<uint64_t> versions;
  for (const ServeReply& reply : replies) {
    if (reply.status.ok()) {
      ++result.ok;
      versions.insert(reply.model_version);
    } else if (reply.status.IsResourceExhausted()) {
      ++result.shed;
    } else if (reply.status.IsDeadlineExceeded()) {
      ++result.expired;
    } else if (reply.status.IsCancelled()) {
      ++result.cancelled;
    } else {
      ++result.failed;
    }
  }
  result.versions_seen = versions.size();
  result.stats = engine.stats();

  // The engine's accounting and the replies must tell the same story.
  if (result.ok != result.stats.completed ||
      result.shed != result.stats.shed ||
      result.expired != result.stats.expired) {
    return Status::Internal("serve stats disagree with delivered replies: " +
                            result.stats.ToString());
  }
  return result;
}

}  // namespace corgipile
