#include "serve/inference_engine.h"

#include <algorithm>
#include <utility>

#include "iosim/fault_plane.h"

namespace corgipile {

namespace {

/// Does `t`'s feature space fit a model built for `model.input_dim()`
/// inputs? (0 = unknown dimensionality, accept.) Guards the Dot() contract
/// instead of reading past the weight vector.
bool TupleFits(const Tuple& t, const Model& model) {
  const uint32_t dim = model.input_dim();
  if (dim == 0) return true;
  if (t.sparse()) return t.feature_keys.empty() || t.feature_keys.back() < dim;
  return t.nnz() <= dim;
}

/// Blocking push that leaves `p` intact when the channel refuses it, so
/// the caller can still fulfill the promise with the failure.
template <typename T>
Status PushBlocking(Channel<T>& ch, T& p) {
  for (;;) {
    auto pushed = ch.TryPush(p);
    if (!pushed.ok()) return pushed.status();
    if (*pushed) return Status::OK();
    CORGI_RETURN_NOT_OK(ch.WaitWritable());
  }
}

}  // namespace

InferenceEngine::InferenceEngine(ModelStore* store, ServeOptions options)
    : store_(store),
      options_(std::move(options)),
      intake_(std::max<uint64_t>(
          64, options_.max_queue_depth == 0 ? 1024
                                            : 2 * options_.max_queue_depth)),
      batches_(2 * std::max<uint32_t>(1, options_.num_workers)),
      worker_free_s_(std::max<uint32_t>(1, options_.num_workers), 0.0) {
  // Chaos hook: scripted send failures on the scheduler→worker channel
  // surface as per-item errors, never as wrong answers (tests/chaos_test).
  batches_.set_chaos_point("channel.serve.batches");
}

InferenceEngine::~InferenceEngine() {
  // Destructor cannot propagate the Status; Drain() here only exists to
  // fulfill pending promises, and its failure modes (never started /
  // already drained) are exactly the states the guard excludes.
  if (mode_ == Mode::kThreaded && !drained_) (void)Drain();
}

Result<std::vector<ServeReply>> InferenceEngine::Run(
    std::vector<ServeRequest> requests) {
  if (mode_ == Mode::kThreaded) {
    return Status::Internal("InferenceEngine::Run after Start");
  }
  if (mode_ == Mode::kInline) {
    return Status::Internal("InferenceEngine::Run called twice");
  }
  mode_ = Mode::kInline;
  // No scheduler thread will ever read intake: a later Submit() fails.
  intake_.Close();

  std::vector<ServeReply> replies(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ProcessArrival(Pending{std::move(requests[i]), &replies[i]});
  }
  // End of schedule: the open batch waits out its deadline, exactly as the
  // threaded scheduler does with flush_on_idle = false. Every request has
  // been answered once it closes.
  CloseOpenBatch(open_time_ + options_.batch_deadline_s,
                 /*by_deadline=*/true);
  return replies;
}

Status InferenceEngine::Start() {
  if (mode_ == Mode::kThreaded) {
    return Status::Internal("InferenceEngine started twice");
  }
  if (mode_ == Mode::kInline) {
    return Status::Internal("InferenceEngine::Start after Run");
  }
  mode_ = Mode::kThreaded;
  const size_t workers = worker_free_s_.size();
  pool_ = std::make_unique<ThreadPool>(workers);
  scheduler_ = std::thread([this] { SchedulerLoop(); });
  worker_done_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    worker_done_.push_back(pool_->Submit([this] { WorkerLoop(); }));
  }
  return Status::OK();
}

std::future<ServeReply> InferenceEngine::Submit(ServeRequest req) {
  Pending p{std::move(req), std::promise<ServeReply>()};
  std::future<ServeReply> fut =
      std::get<std::promise<ServeReply>>(p.reply).get_future();
  Status st = PushBlocking(intake_, p);
  if (!st.ok()) Fail(std::move(p), std::move(st));
  return fut;
}

Status InferenceEngine::Drain() {
  if (mode_ == Mode::kIdle) {
    return Status::Internal("InferenceEngine never started");
  }
  if (mode_ == Mode::kInline || drained_) return Status::OK();
  drained_ = true;
  intake_.Close();
  if (scheduler_.joinable()) scheduler_.join();
  for (auto& done : worker_done_) done.wait();
  return Status::OK();
}

ServeStats InferenceEngine::stats() const {
  MutexLock lock(stats_mu_);
  return stats_.Finalize();
}

void InferenceEngine::Answer(Pending* p, ServeReply reply) {
  if (ServeReply** slot = std::get_if<ServeReply*>(&p->reply)) {
    **slot = std::move(reply);
  } else {
    std::get<std::promise<ServeReply>>(p->reply).set_value(std::move(reply));
  }
}

void InferenceEngine::Fail(Pending&& p, Status status) {
  ServeReply reply;
  reply.status = std::move(status);
  Answer(&p, std::move(reply));
}

void InferenceEngine::SchedulerLoop() {
  for (;;) {
    Pending p;
    if (options_.flush_on_idle && !open_items_.empty()) {
      auto popped = intake_.TryPop(&p);
      if (!popped.ok()) break;  // cancelled; open batch failed below
      if (!*popped) {
        if (intake_.closed()) break;  // final flush below
        // Idle: no session is waiting to join this batch — the deadline
        // effectively expires now.
        CloseOpenBatch(now_s_, /*by_deadline=*/true);
        continue;
      }
    } else {
      auto popped = intake_.Pop(&p);
      if (!popped.ok() || !*popped) break;
    }
    ProcessArrival(std::move(p));
  }
  // End of stream: the open batch waits out its deadline with no further
  // arrivals to fill it.
  if (!open_items_.empty()) {
    CloseOpenBatch(options_.flush_on_idle
                       ? now_s_
                       : open_time_ + options_.batch_deadline_s,
                   /*by_deadline=*/true);
  }
  batches_.Close();
}

void InferenceEngine::ProcessArrival(Pending&& p) {
  if (p.req.on_arrival) p.req.on_arrival();
  const double arrival = std::max(p.req.arrival_s, 0.0);
  now_s_ = std::max(now_s_, arrival);
  {
    MutexLock lock(stats_mu_);
    stats_.RecordArrival(arrival);
  }

  // A deadline that fell before this arrival closed the open batch first.
  if (!open_items_.empty() &&
      arrival > open_time_ + options_.batch_deadline_s) {
    CloseOpenBatch(open_time_ + options_.batch_deadline_s,
                   /*by_deadline=*/true);
  }

  if (p.req.token.cancelled()) {
    {
      MutexLock lock(stats_mu_);
      stats_.RecordCancelled();
    }
    Fail(std::move(p), p.req.token.status());
    return;
  }

  // Admission control against the modeled queue: requests whose service
  // has not started by `arrival` plus the open batch.
  while (backlog_head_ < backlog_.size() &&
         backlog_[backlog_head_].first <= arrival) {
    backlog_count_ -= backlog_[backlog_head_].second;
    ++backlog_head_;
  }
  if (backlog_head_ > 64 && backlog_head_ * 2 > backlog_.size()) {
    backlog_.erase(backlog_.begin(),
                   backlog_.begin() + static_cast<ptrdiff_t>(backlog_head_));
    backlog_head_ = 0;
  }
  const uint64_t occupancy = backlog_count_ + open_items_.size();
  if (options_.max_queue_depth > 0 &&
      occupancy >= options_.max_queue_depth) {
    {
      MutexLock lock(stats_mu_);
      stats_.RecordShed();
    }
    Fail(std::move(p),
         Status::ResourceExhausted(
             "serve queue full (" + std::to_string(occupancy) + " waiting)"));
    return;
  }

  // Batches are per model id; a switch closes the open batch early.
  if (!open_items_.empty() && p.req.model_id != open_model_id_) {
    CloseOpenBatch(arrival, /*by_deadline=*/false);
  }
  if (open_items_.empty()) {
    open_model_id_ = p.req.model_id;
    open_time_ = arrival;
  }
  open_items_.push_back(std::move(p));
  if (open_items_.size() >= options_.max_batch) {
    CloseOpenBatch(arrival, /*by_deadline=*/false);
  }
}

Result<ModelSnapshot> InferenceEngine::ResolveSnapshot(double close_s) {
  CircuitBreaker& breaker =
      breakers_.try_emplace(open_model_id_, options_.breaker).first->second;

  if (!breaker.AllowRequest(close_s)) {
    MutexLock lock(stats_mu_);
    stats_.RecordBreakerShortCircuit();
    return Status::ResourceExhausted("circuit breaker open for model '" +
                                     open_model_id_ + "'");
  }

  double backoff = options_.resolve_backoff_s;
  Status last = Status::OK();
  for (uint32_t attempt = 0;; ++attempt) {
    Result<ModelSnapshot> snap = [&]() -> Result<ModelSnapshot> {
      CORGI_INJECT_POINT("serve.resolve");
      return store_->GetSnapshot(open_model_id_);
    }();
    if (snap.ok()) {
      // A re-published model deserves a cold breaker: stale failures from
      // the previous version must not trip against the new one.
      auto prev = last_good_.find(open_model_id_);
      if (prev != last_good_.end() &&
          prev->second.version != snap.ValueOrDie().version) {
        breaker.Reset();
      }
      breaker.RecordSuccess();
      last_good_[open_model_id_] = snap.ValueOrDie();
      return snap;
    }
    // kNotFound is permanent (the model was never stored): no amount of
    // retrying or tripping helps, and brownout would serve a ghost.
    if (snap.status().IsNotFound()) return snap;
    last = snap.status();
    const uint64_t opens_before = breaker.opens();
    breaker.RecordFailure(close_s);
    if (breaker.opens() != opens_before) {
      MutexLock lock(stats_mu_);
      stats_.RecordBreakerOpen();
    }
    if (attempt >= options_.resolve_max_retries ||
        breaker.state() != CircuitBreaker::State::kClosed) {
      break;
    }
    {
      MutexLock lock(stats_mu_);
      stats_.RecordResolveRetry();
    }
    if (options_.clock != nullptr) {
      options_.clock->Advance(TimeCategory::kRetryBackoff, backoff);
    }
    backoff *= std::max(1.0, options_.resolve_backoff_multiplier);
  }
  return last;
}

bool InferenceEngine::ApplyCanary(const ModelSnapshot& incumbent,
                                  const TupleBatch& tuples, uint64_t served,
                                  double close_s, ModelSnapshot* snapshot) {
  if (!options_.serve_canary) return false;
  std::optional<CanarySnapshot> staged = store_->GetCanary(open_model_id_);
  if (!staged.has_value()) {
    // Promoted, aborted, or never staged: drop any stale runtime so a
    // future candidate starts cold.
    canaries_.erase(open_model_id_);
    return false;
  }
  const CanaryPolicy& policy = staged->policy;
  auto it = canaries_.find(open_model_id_);
  if (it == canaries_.end() || it->second.version != staged->version) {
    // Fresh candidate (or a re-stage burned the old one): cold routing RNG
    // and breach breaker, both derived from the staged policy so every
    // engine run makes identical decisions.
    if (it != canaries_.end()) canaries_.erase(it);
    CircuitBreakerOptions bopts;
    bopts.window = policy.breaker_window;
    bopts.min_samples = policy.breaker_min_samples;
    bopts.error_threshold = policy.breaker_error_threshold;
    it = canaries_
             .emplace(open_model_id_,
                      CanaryRuntime{staged->version, Rng(policy.seed),
                                    CircuitBreaker(bopts), 0})
             .first;
  }
  CanaryRuntime& rt = it->second;
  // One seeded draw per batch: whole micro-batches route to exactly one
  // version, so a request's reply never mixes versions.
  if (rt.rng.NextDouble() >= policy.fraction) return false;

  // Paired quality: candidate vs incumbent loss over the *same* tuples,
  // computed synchronously on the scheduler thread so the breach/promote
  // decision sequence is a pure function of the schedule.
  double candidate_loss = 0.0;
  double incumbent_loss = 0.0;
  staged->model->BatchLoss(tuples, &candidate_loss);
  incumbent.model->BatchLoss(tuples, &incumbent_loss);
  const bool breach =
      candidate_loss >
      incumbent_loss * (1.0 + policy.loss_tolerance) + 1e-12;

  {
    MutexLock lock(stats_mu_);
    stats_.RecordCanaryBatch(served);
    if (breach) stats_.RecordCanaryBreach();
  }

  // The breach breaker turns per-batch outcomes into the trip decision.
  // AllowRequest only advances the Open→HalfOpen timer; a tripped canary
  // is aborted below, so short-circuiting never applies here.
  (void)rt.breaker.AllowRequest(close_s);
  if (breach) {
    rt.clean_streak = 0;
    rt.breaker.RecordFailure(close_s);
  } else {
    rt.breaker.RecordSuccess();
    ++rt.clean_streak;
  }

  // This batch is already the candidate's (its answers are well-formed,
  // just possibly lower-quality); the decisions below only steer *future*
  // traffic.
  *snapshot = ModelSnapshot{staged->model, staged->version};

  if (breach && policy.auto_rollback &&
      rt.breaker.state() != CircuitBreaker::State::kClosed) {
    // Trip: the candidate regressed on enough paired batches. Abort so the
    // incumbent resumes 100% of traffic. A failed abort (chaos-injected)
    // leaves the runtime in place and retries on the next canary batch.
    if (store_->AbortCanary(open_model_id_).ok()) {
      MutexLock lock(stats_mu_);
      stats_.RecordCanaryRollback();
      canaries_.erase(open_model_id_);
    }
    return true;
  }
  if (!breach && policy.promote_after_batches > 0 &&
      rt.clean_streak >= policy.promote_after_batches) {
    if (store_->PromoteCanary(open_model_id_).ok()) {
      MutexLock lock(stats_mu_);
      stats_.RecordCanaryPromotion();
      canaries_.erase(open_model_id_);
    }
  }
  return true;
}

void InferenceEngine::CloseOpenBatch(double close_s, bool by_deadline) {
  if (open_items_.empty()) return;
  std::vector<Pending> items = std::move(open_items_);
  open_items_.clear();

  // Hot-swap boundary: the snapshot resolved here serves the whole batch,
  // even if a Publish() lands before the batch executes.
  bool brownout = false;
  auto snapshot = ResolveSnapshot(close_s);
  if (!snapshot.ok()) {
    // Brownout: answer from the last snapshot that did resolve — an older
    // version is still a *correct* model, just possibly stale, which beats
    // shedding the batch.
    auto good = last_good_.find(open_model_id_);
    if (options_.enable_brownout && !snapshot.status().IsNotFound() &&
        good != last_good_.end()) {
      snapshot = good->second;
      brownout = true;
    } else {
      MutexLock lock(stats_mu_);
      for (auto& item : items) {
        stats_.RecordFailed();
        Fail(std::move(item), snapshot.status());
      }
      return;
    }
  }

  // First-free simulated service slot (ties → lowest index).
  const size_t w = static_cast<size_t>(
      std::min_element(worker_free_s_.begin(), worker_free_s_.end()) -
      worker_free_s_.begin());
  const double start_s = std::max(close_s, worker_free_s_[w]);

  std::vector<Pending> run;
  run.reserve(items.size());
  for (auto& item : items) {
    if (item.req.token.cancelled()) {
      MutexLock lock(stats_mu_);
      stats_.RecordCancelled();
      Fail(std::move(item), item.req.token.status());
      continue;
    }
    if (item.req.deadline_s > 0.0 &&
        start_s - item.req.arrival_s > item.req.deadline_s) {
      MutexLock lock(stats_mu_);
      stats_.RecordExpired();
      Fail(std::move(item),
           Status::DeadlineExceeded(
               "request queued past its " +
               std::to_string(item.req.deadline_s) + "s deadline"));
      continue;
    }
    if (!TupleFits(item.req.tuple, *snapshot->model)) {
      MutexLock lock(stats_mu_);
      stats_.RecordFailed();
      Fail(std::move(item),
           Status::InvalidArgument(
               "tuple features exceed model '" + open_model_id_ +
               "' input_dim=" +
               std::to_string(snapshot->model->input_dim())));
      continue;
    }
    run.push_back(std::move(item));
  }
  if (run.empty()) return;  // nothing survived; no service slot consumed

  // Pack the arena before the canary stage: paired quality evaluation
  // needs the batched tuples.
  Batch batch;
  batch.model_id = open_model_id_;
  batch.tuples.set_target_tuples(run.size());
  for (const Pending& item : run) batch.tuples.Append(item.req.tuple);

  // Canary routing (DESIGN.md §13). A brownout batch never canaries: it is
  // already serving degraded, and its "incumbent" is a stale snapshot.
  ModelSnapshot serving = snapshot.ValueOrDie();
  bool canary = false;
  if (!brownout) {
    canary =
        ApplyCanary(snapshot.ValueOrDie(), batch.tuples, run.size(), close_s,
                    &serving);
  }

  const double service_s =
      options_.per_batch_overhead_s +
      static_cast<double>(run.size()) * options_.per_tuple_s;
  const double completion_s = start_s + service_s;
  worker_free_s_[w] = completion_s;
  backlog_.emplace_back(start_s, run.size());
  backlog_count_ += run.size();
  if (options_.clock != nullptr) {
    options_.clock->Advance(TimeCategory::kServe, service_s);
  }
  batch_latencies_.clear();
  for (const Pending& item : run) {
    batch_latencies_.push_back(completion_s - item.req.arrival_s);
  }
  {
    MutexLock lock(stats_mu_);
    stats_.RecordBatch(run.size(), by_deadline, service_s);
    if (brownout) stats_.RecordBrownoutBatch(run.size());
    stats_.RecordCompletions(open_model_id_, serving.version, completion_s,
                             batch_latencies_);
  }

  batch.model = serving.model;
  batch.version = serving.version;
  batch.seq = next_batch_seq_++;
  batch.canary = canary;
  batch.completion_s = completion_s;
  batch.items = std::move(run);
  if (mode_ == Mode::kInline) {
    ExecuteBatch(&batch, &inline_scratch_);
    return;
  }
  Status st = PushBlocking(batches_, batch);
  if (!st.ok()) {
    for (auto& item : batch.items) Fail(std::move(item), st);
  }
}

void InferenceEngine::WorkerLoop() {
  EvalScratch scratch;
  for (;;) {
    Batch batch;
    auto popped = batches_.Pop(&batch);
    if (!popped.ok() || !*popped) return;
    ExecuteBatch(&batch, &scratch);
  }
}

void InferenceEngine::ExecuteBatch(Batch* batch, EvalScratch* scratch) {
  const size_t n = batch->items.size();
  scratch->values.resize(n);
  scratch->losses.resize(n);
  scratch->corrects.resize(n);
  // One batched kernel call per micro-batch; BatchEvaluate is const and
  // thread-safe on the shared snapshot.
  batch->model->BatchEvaluate(batch->tuples, scratch->values.data(),
                              scratch->losses.data(),
                              scratch->corrects.data());
  // Per-version quality: summed row-major here (deterministic within the
  // batch), folded in dispatch order by ServeStatsBuilder::Finalize so
  // worker interleaving never changes the totals.
  uint64_t correct_count = 0;
  double loss_sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    correct_count += scratch->corrects[i] != 0 ? 1 : 0;
    loss_sum += scratch->losses[i];
  }
  {
    MutexLock lock(stats_mu_);
    stats_.RecordBatchQuality(batch->seq, batch->model_id, batch->version, n,
                              correct_count, loss_sum);
  }
  for (size_t i = 0; i < n; ++i) {
    ServeReply reply;
    reply.value = scratch->values[i];
    reply.loss = scratch->losses[i];
    reply.correct = scratch->corrects[i] != 0;
    reply.model_version = batch->version;
    reply.latency_s = batch->completion_s - batch->items[i].req.arrival_s;
    Answer(&batch->items[i], std::move(reply));
  }
}

}  // namespace corgipile
