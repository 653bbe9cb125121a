// Micro-batched in-database model serving (the online half of the paper's
// §6.1 in-kernel models; ROADMAP "heavy traffic" north star).
//
// One engine serves requests in one of two ways, chosen by the first call
// (each engine is used once, one way):
//
//  * Inline replay — Run(): a complete generated schedule is replayed on
//    the calling thread. Each arrival goes through the scheduler's
//    decision code below, each closed batch is evaluated right there, and
//    each reply is written straight into the returned vector. No thread is
//    started and nothing crosses a Channel, a ThreadPool or a promise.
//    PREDICT BY and RunGeneratedWorkload use this path.
//  * Live sessions — Start()/Submit()/Drain(): three stages connected by
//    Channels, mirroring DESIGN.md §8:
//
//      sessions --Submit()--> intake Channel --> scheduler thread
//          --Batch Channel--> ThreadPool workers --promise--> sessions
//
// The *scheduler* is the deterministic heart on both paths: code that
// takes requests in FIFO order, advances a virtual timeline (simulated
// seconds, same convention as SimClock/Deadline), forms micro-batches
// (close when `max_batch` tuples are buffered or when the next arrival
// shows the `batch_deadline_s` has passed, whichever first), applies
// admission control (shed with kResourceExhausted once the modeled queue
// holds `max_queue_depth` requests), per-request deadlines and
// cancellation (util/cancellation.h tokens), resolves the model snapshot
// from the versioned ModelStore (hot-swap boundary: a batch formed before
// a Publish() keeps serving the old version), and assigns each batch to
// the first-free of `num_workers` simulated service slots with
// service = per_batch_overhead_s + n · per_tuple_s.
//
// Because every timing decision reads only arrival stamps and this
// deterministic service model — never the wall clock — the ServeStats
// produced for a given (schedule, options, store) are bit-identical across
// reruns, and Run() produces the same ServeStats and replies as a
// threaded replay with flush_on_idle = false. Batch *execution*
// (Model::BatchEvaluate) cannot affect the stats: inline it runs before
// the next arrival, threaded it runs on the ThreadPool workers and only
// decides when each promise is fulfilled.
//
// Liveness modes of the threaded path:
//  * flush_on_idle = false (threaded replay of a generated schedule): the
//    scheduler blocks for the next request before deciding whether the
//    open batch's deadline passed — fully deterministic, but a partial
//    batch only closes on the next arrival or Drain(). Run() always
//    behaves this way.
//  * flush_on_idle = true (live concurrent sessions): an empty intake
//    queue closes the open batch immediately, so a session that submits
//    one request and waits on its future is never stalled behind an open
//    batch. Stats remain internally consistent but depend on arrival
//    interleaving.

#pragma once

#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "db/model_store.h"
#include "exec/tuple_batch.h"
#include "iosim/sim_clock.h"
#include "serve/circuit_breaker.h"
#include "serve/serve_stats.h"
#include "storage/tuple.h"
#include "util/cancellation.h"
#include "util/channel.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/threadpool.h"

namespace corgipile {

struct ServeOptions {
  /// Close the open batch once it holds this many requests.
  uint32_t max_batch = 32;
  /// ...or once the next arrival is this many simulated seconds past the
  /// batch's first request (adaptive micro-batching: low load pays at most
  /// this much extra latency, high load fills batches before it expires).
  double batch_deadline_s = 2e-3;
  /// Simulated service slots AND real ThreadPool executor threads.
  uint32_t num_workers = 4;
  /// Admission control: shed arrivals once this many accepted requests are
  /// waiting to start service. 0 = unbounded (never shed).
  uint64_t max_queue_depth = 256;
  /// Deterministic service-time model for one batch of n tuples:
  /// per_batch_overhead_s + n * per_tuple_s. The overhead is what
  /// micro-batching amortizes.
  double per_batch_overhead_s = 1e-3;
  double per_tuple_s = 5e-5;
  /// Start()/Submit() only (Run() ignores it): close a partial batch as
  /// soon as the intake queue is empty. See the header comment; false for
  /// a bit-identical threaded replay of a generated schedule.
  bool flush_on_idle = true;
  /// Optional: batch service time is charged here under kServe. Borrowed.
  SimClock* clock = nullptr;

  // --- graceful degradation (DESIGN.md §12) ---
  // Snapshot resolution (ModelStore::GetSnapshot at batch close, the
  // FaultPlane point "serve.resolve") degrades in three layers: bounded
  // retry with exponential backoff, a per-model circuit breaker that
  // short-circuits resolves while failures persist, and a brownout mode
  // that answers from the last successfully resolved snapshot. kNotFound
  // is permanent (model never stored) and bypasses all three.
  /// Retries after the first failed resolve; each retry is preceded by a
  /// backoff charged to `clock` under kRetryBackoff.
  uint32_t resolve_max_retries = 2;
  double resolve_backoff_s = 1e-3;
  /// Backoff grows by this factor per retry (>= 1).
  double resolve_backoff_multiplier = 2.0;
  CircuitBreakerOptions breaker;
  /// Serve the last-good snapshot (possibly an older version — the
  /// hot-swap degradation story) when resolution fails; false fails the
  /// batch with the resolve error instead.
  bool enable_brownout = true;

  // --- canary lifecycle (DESIGN.md §13) ---
  // When the ModelStore has a canary staged for a batch's model id, the
  // scheduler routes a seeded fraction of batches (granularity: whole
  // micro-batches, so a batch is served by exactly one version) to the
  // candidate, pairs each canary batch's loss against the incumbent's loss
  // on the same tuples, feeds the outcome into a per-canary CircuitBreaker,
  // and — all on the deterministic virtual timeline — promotes the
  // candidate after `promote_after_batches` clean canary batches or aborts
  // it (auto-rollback) when the breach breaker trips. All knobs live in
  // the staged CanaryPolicy so every engine applies the same rules.
  /// Master switch: false ignores staged canaries entirely (the incumbent
  /// serves 100% of traffic).
  bool serve_canary = true;
};

struct ServeRequest {
  Tuple tuple;
  std::string model_id;
  /// Arrival stamp on the engine's virtual timeline (simulated seconds).
  /// Schedules are generated, not wall-clock (see workload.h).
  double arrival_s = 0.0;
  /// Fail with kDeadlineExceeded if service has not *started* within this
  /// many simulated seconds of arrival. 0 = no deadline.
  double deadline_s = 0.0;
  /// Cooperative cancellation; checked at admission and batch formation.
  CancellationToken token;
  /// Optional control hook, run by the scheduler when it processes this
  /// arrival (before any batching decision): on the scheduler thread after
  /// Submit(), on the caller's thread in Run(). Because the scheduler
  /// serializes arrivals in submission order, a side effect here — e.g. a
  /// ModelStore::Publish hot-swap drill — lands at a deterministic point
  /// in the timeline instead of racing batch formation from the submitter
  /// thread. Keep it cheap; it runs inside the batching loop.
  std::function<void()> on_arrival;
};

struct ServeReply {
  Status status;  ///< OK, or why the request was not served
  double value = 0.0;     ///< Model::Predict
  double loss = 0.0;      ///< Model::Loss
  bool correct = false;   ///< Model::Correct
  uint64_t model_version = 0;  ///< which hot-swap version served it
  double latency_s = 0.0;      ///< simulated completion − arrival
};

class InferenceEngine {
 public:
  /// `store` is borrowed and must outlive the engine.
  InferenceEngine(ModelStore* store, ServeOptions options);
  /// Drains if the caller has not; pending promises are always fulfilled.
  ~InferenceEngine();

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// Replays `requests` (a complete schedule, in arrival order) on the
  /// calling thread and returns one reply per request, in request order.
  /// Makes exactly the decisions of Start()/Submit()/Drain() with
  /// flush_on_idle = false, evaluating each closed batch inline; the tail
  /// batch closes at its deadline. Creates no thread. Fails if the engine
  /// was already Start()ed or Run().
  Result<std::vector<ServeReply>> Run(std::vector<ServeRequest> requests);

  /// Spawns the scheduler thread and worker loops (the only place the
  /// engine creates threads). Call once, and not after Run().
  Status Start();

  /// Thread-safe; callable from any number of session threads. The reply
  /// arrives through the returned future (possibly with a non-OK status:
  /// kResourceExhausted when shed, kDeadlineExceeded, kCancelled, ...).
  /// Blocks only for intake-channel flow control, never on service time.
  std::future<ServeReply> Submit(ServeRequest req);

  /// Closes intake, waits until every submitted request has been answered
  /// and all threads have stopped. Idempotent; a no-op after Run().
  Status Drain();

  /// Snapshot; stable after Drain().
  ServeStats stats() const;

  const ServeOptions& options() const { return options_; }

 private:
  struct Pending {
    ServeRequest req;
    /// Where the reply goes: Run()'s reply vector, or the promise behind a
    /// Submit() caller's future. The slot saves Run() one shared state
    /// (allocation plus lock) per request.
    std::variant<ServeReply*, std::promise<ServeReply>> reply;
  };
  struct Batch {
    std::shared_ptr<const Model> model;
    std::string model_id;
    uint64_t version = 0;
    /// Dispatch sequence number; keys the worker's quality report so
    /// Finalize can fold contributions in a deterministic order.
    uint64_t seq = 0;
    /// Served by a staged canary candidate instead of the incumbent.
    bool canary = false;
    double completion_s = 0.0;
    /// Admitted tuples packed into one arena; row i belongs to items[i].
    /// Workers evaluate the whole batch with Model::BatchEvaluate instead
    /// of per-item Predict/Loss/Correct calls.
    TupleBatch tuples;
    std::vector<Pending> items;
  };

  /// Per-executor output buffers for ExecuteBatch, reused across batches.
  struct EvalScratch {
    std::vector<double> values;
    std::vector<double> losses;
    std::vector<uint8_t> corrects;
  };
  enum class Mode { kIdle, kThreaded, kInline };

  void SchedulerLoop();
  void ProcessArrival(Pending&& p);
  /// Forms the open batch; `close_s` is the simulated close time. Inline
  /// the batch is executed here, threaded it is pushed to the workers.
  void CloseOpenBatch(double close_s, bool by_deadline);
  void WorkerLoop();
  /// Evaluates one batch, records its quality and answers its requests.
  void ExecuteBatch(Batch* batch, EvalScratch* scratch);
  static void Answer(Pending* p, ServeReply reply);
  void Fail(Pending&& p, Status status);
  /// Resolves the snapshot serving the open batch, applying the breaker /
  /// bounded-retry layers (scheduler thread only). On success also updates
  /// the last-good map and resets the model's breaker on a version change.
  Result<ModelSnapshot> ResolveSnapshot(double close_s);
  /// Canary stage at batch close (scheduler thread only): seeded routing
  /// draw, paired candidate-vs-incumbent loss on the batch tuples, breach
  /// breaker, promote / auto-rollback. `incumbent` is the resolved current
  /// snapshot; on a canary draw *snapshot is replaced by the candidate.
  /// Returns true when the batch is served by the candidate.
  bool ApplyCanary(const ModelSnapshot& incumbent, const TupleBatch& tuples,
                   uint64_t served, double close_s, ModelSnapshot* snapshot);

  ModelStore* store_;
  const ServeOptions options_;

  Channel<Pending> intake_;
  Channel<Batch> batches_;
  std::unique_ptr<ThreadPool> pool_;  ///< created by Start()
  std::thread scheduler_;
  std::vector<std::future<void>> worker_done_;
  Mode mode_ = Mode::kIdle;
  bool drained_ = false;

  // --- scheduler-thread state (unsynchronized by design) ---
  double now_s_ = 0.0;  ///< virtual timeline, monotone
  std::vector<Pending> open_items_;
  std::string open_model_id_;
  double open_time_ = 0.0;
  std::vector<double> worker_free_s_;  ///< simulated service slots
  /// Dispatched batches whose service has not started yet at the current
  /// timeline position: (service_start_s, size). Front-pruned as arrivals
  /// advance time; the summed sizes are the modeled queue occupancy that
  /// admission control bounds.
  std::vector<std::pair<double, uint64_t>> backlog_;
  size_t backlog_head_ = 0;  ///< pruned prefix
  uint64_t backlog_count_ = 0;
  /// Per-model degradation state (ordered maps: the determinism linter
  /// forbids unordered iteration, and these are tiny).
  std::map<std::string, CircuitBreaker> breakers_;
  std::map<std::string, ModelSnapshot> last_good_;
  uint64_t next_batch_seq_ = 0;
  /// Per-model canary runtime: routing RNG, breach breaker, clean streak.
  /// Keyed by staged version so a re-staged candidate gets a cold start.
  struct CanaryRuntime {
    uint64_t version = 0;
    Rng rng;
    CircuitBreaker breaker{CircuitBreakerOptions{}};
    uint32_t clean_streak = 0;
  };
  std::map<std::string, CanaryRuntime> canaries_;
  /// Completion latencies of the batch being closed (reused buffer).
  std::vector<double> batch_latencies_;
  EvalScratch inline_scratch_;  ///< Run()'s executor buffers

  mutable Mutex stats_mu_;
  ServeStatsBuilder stats_ CORGI_GUARDED_BY(stats_mu_);
};

}  // namespace corgipile
