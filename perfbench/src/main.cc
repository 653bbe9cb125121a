// perfbench: wall-clock benchmark of the SQL surface (Session::Train /
// Predict / Insert) on three workloads.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --data <dir>
//
// Every workload runs three sessions for --seconds, so that every
// end-to-end metric exists on every workload:
//   trainer   closed loop: TRAIN BY lr ... publish=m
//   scorer    closed loop: PREDICT BY m over a scoring table; on train_* a
//             fixed number after each TRAIN on the trainer's thread, on
//             serve_mix on a thread of its own
//   ingester  open loop on its own thread: a 16-row INSERT every 20 ms,
//             timed from its due time
// The workloads differ in the data regime and in which session dominates
// (kWorkloads below; BENCHMARK.json records why each was chosen).
//
// --trace 0 measures the untraced statements and prints the end-to-end
// metrics. --trace 1 runs the workload untraced for half the time and then
// traced for the other half: every TRAIN and PREDICT is composed from the
// engine's public calls with a timing decorator around each operator and
// around the model (composed.h), and the per-layer metrics come from that
// half. The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is non-zero when a correctness check failed.

#include <malloc.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "composed.h"
#include "dataset/catalog.h"
#include "db/database.h"
#include "db/query.h"
#include "iosim/device.h"
#include "traced.h"
#include "util/threadpool.h"

namespace perfbench {
namespace {

using namespace corgipile;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr int kSetupRepeats = 5;
constexpr uint64_t kInsertRows = 16;
constexpr double kInsertPeriodS = 0.020;

struct Workload {
  const char* name;
  const char* dataset;
  double scale;
  uint32_t shards;
  uint64_t pool_bytes;
  int epochs;
  uint64_t score_rows;
  /// PREDICTs the trainer runs after each TRAIN; 0 = a concurrent
  /// closed-loop scorer thread instead.
  int predicts_per_train;
  /// INSERT into the training table (serve_mix) or into a side table the
  /// trainer never reads (train_*, so repeated TRAINs stay identical).
  bool ingest_into_train;

  bool serving() const { return predicts_per_train == 0; }
};

// train_spill_sparse's 16 MB pool is below its ~34 MB table, so the table
// bypasses the pool and every epoch reads the device.
constexpr Workload kWorkloads[] = {
    {"train_cached_dense", "susy", 1.0, 1, 32ull << 20, 10, 2200, 4, false},
    {"train_spill_sparse", "criteo", 0.5, 1, 16ull << 20, 5, 2200, 8, false},
    {"serve_mix", "susy", 1.0, 4, 32ull << 20, 2, 2200, 0, true},
};

uint64_t Elapsed(uint64_t t0) { return NowNs() - t0; }

// ---------------------------------------------------------------------------
// Correctness accounting shared by all threads.

class Checks {
 public:
  void Fail(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    if (failures_.size() < 20) failures_.push_back(what);
    ++count_;
  }
  bool ok() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_ == 0;
  }
  void Report() const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::string& f : failures_) {
      std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
    }
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::string> failures_;
  uint64_t count_ = 0;
};

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// ---------------------------------------------------------------------------
// Set-up: dataset generation, RegisterDataset, side tables, warm-up.

struct Env {
  std::unique_ptr<Database> db;
  Dataset data;
  Schema schema;
  std::string train_sql;
  std::string predict_sql = "SELECT * FROM score PREDICT BY m";
  std::string insert_table;
  uint64_t score_rows = 0;
  /// Params and accuracy of the warm-up TRAIN; every repeat of the same
  /// statement on an unchanged table must reproduce them bit for bit.
  std::vector<double> ref_params;
  double ref_accuracy = 0.0;
};

std::string TrainSql(const Workload& w, uint64_t seed,
                     const std::string& publish) {
  return "SELECT * FROM train TRAIN BY lr WITH block_size=64KB, "
         "buffer_fraction=0.1, double_buffer=true, max_epoch_num=" +
         std::to_string(w.epochs) + ", seed=" + std::to_string(seed) +
         ", publish=" + publish;
}

template <typename T>
T Unwrap(Result<T> r, const char* what) {
  if (!r.ok()) {
    std::fprintf(stderr, "perfbench: %s: %s\n", what,
                 r.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(r).ValueOrDie();
}

void Require(const Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: %s: %s\n", what, st.ToString().c_str());
    std::exit(2);
  }
}

Env Setup(const Workload& w, uint64_t seed, const std::string& dir) {
  std::filesystem::create_directories(dir);
  Env env;
  DatasetSpec spec = Unwrap(CatalogLookup(w.dataset, w.scale), "catalog");
  spec.seed ^= seed * 0x9E3779B97F4A7C15ull;
  env.data = GenerateDataset(spec, DataOrder::kClustered);
  env.schema = env.data.MakeSchema();
  env.db = std::make_unique<Database>(
      dir, DeviceProfile::Hdd().Scaled(1e-3), w.pool_bytes);
  Require(env.db->RegisterDataset("train", env.data, w.shards), "register");

  const std::vector<Tuple>& test = *env.data.test;
  std::vector<Tuple> score(test.begin(),
                           test.begin() + std::min<size_t>(w.score_rows,
                                                           test.size()));
  env.score_rows = score.size();
  Require(env.db->CreateTable("score", env.schema, score, false,
                              Page::kDefaultSize, w.shards),
          "create score");
  env.insert_table = "train";
  if (!w.ingest_into_train) {
    env.insert_table = "feedback";
    std::vector<Tuple> first(env.data.train->begin(),
                             env.data.train->begin() + kInsertRows);
    Require(env.db->CreateTable("feedback", env.schema, first),
            "create feedback");
  }

  env.train_sql = TrainSql(w, seed, "m");
  std::unique_ptr<Session> session = env.db->CreateSession({seed, "warmup"});
  Statement train = Unwrap(ParseQuery(env.train_sql), "parse train");
  InDbTrainResult r = Unwrap(
      session->Train(std::get<TrainStatement>(train)), "warm-up train");
  env.ref_accuracy = r.final_metric;
  env.ref_params =
      Unwrap(env.db->models().GetVersionSnapshot("m", r.model_version),
             "warm-up model")
          .model->params();
  Statement predict = Unwrap(ParseQuery(env.predict_sql), "parse predict");
  Unwrap(session->Predict(std::get<PredictStatement>(predict)),
         "warm-up predict");
  return env;
}

// ---------------------------------------------------------------------------
// One measured phase: trainer, scorer and ingester sessions on threads.

struct Latencies {
  std::vector<double> ms;  ///< +inf for a failed statement
  uint64_t failed = 0;
};

/// Device, buffer-pool and simulated-time counters. They are global to the
/// database, so a delta includes whatever ran concurrently.
struct Counters {
  double bytes_read = 0.0, random_reads = 0.0, sequential_reads = 0.0;
  double writes = 0.0, bytes_written = 0.0;
  double hits = 0.0, misses = 0.0, evictions = 0.0;
  double sim_read = 0.0, sim_decompress = 0.0, sim_compute = 0.0;

  static Counters Take(Database* db) {
    Counters c;
    const IoStats& io = db->io_stats();
    c.bytes_read = static_cast<double>(io.bytes_read.load());
    c.random_reads = static_cast<double>(io.random_reads.load());
    c.sequential_reads = static_cast<double>(io.sequential_reads.load());
    c.writes = static_cast<double>(io.writes.load());
    c.bytes_written = static_cast<double>(io.bytes_written.load());
    if (db->buffer_pool() != nullptr) {
      const BufferManager::Stats pool = db->buffer_pool()->stats();
      c.hits = static_cast<double>(pool.hits);
      c.misses = static_cast<double>(pool.misses);
      c.evictions = static_cast<double>(pool.evictions);
    }
    c.sim_read = db->clock().Elapsed(TimeCategory::kIoRead);
    c.sim_decompress = db->clock().Elapsed(TimeCategory::kDecompress);
    c.sim_compute = db->clock().Elapsed(TimeCategory::kCompute);
    return c;
  }

  /// Adds `after - before` to every counter.
  void AddDelta(const Counters& before, const Counters& after) {
    static constexpr double Counters::*kAll[] = {
        &Counters::bytes_read,     &Counters::random_reads,
        &Counters::sequential_reads, &Counters::writes,
        &Counters::bytes_written,  &Counters::hits,
        &Counters::misses,         &Counters::evictions,
        &Counters::sim_read,       &Counters::sim_decompress,
        &Counters::sim_compute};
    for (double Counters::*f : kAll) this->*f += after.*f - before.*f;
  }
};

struct PhaseResult {
  Latencies train, predict, insert;
  std::vector<double> train_rates;  ///< tuples per second of each TRAIN
  double train_sim_io_s = 0.0;  ///< SimClock kIoRead + kDecompress, summed
  /// Traced phase: counter deltas summed over the TRAIN statements only. On
  /// the train workloads nothing that reads runs beside a TRAIN; on
  /// serve_mix the concurrent PREDICTs are included.
  Counters train_counters;
  std::vector<double> accuracies;
  uint64_t predict_rows = 0;
  double predict_busy_s = 0.0;
  uint64_t inserted_rows = 0;
  double ingest_lag_max_ms = 0.0;
  uint64_t serve_batches = 0;
  uint64_t serve_completed = 0;
  uint64_t serve_shed = 0;
  double serve_sim_p50_sum = 0.0;
  double serve_sim_p99_sum = 0.0;

  uint64_t attempted() const {
    return train.ms.size() + predict.ms.size() + insert.ms.size();
  }
  uint64_t failed() const {
    return train.failed + predict.failed + insert.failed;
  }
};

void Record(Latencies* l, bool ok, uint64_t ns) {
  l->ms.push_back(ok ? static_cast<double>(ns) * 1e-6 : kInf);
  if (!ok) ++l->failed;
}

/// Sleeps until `due_ns` (steady clock); returns how late the caller is.
double WaitUntil(uint64_t due_ns) {
  const uint64_t now = NowNs();
  if (now < due_ns) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now));
    return 0.0;
  }
  return static_cast<double>(now - due_ns) * 1e-6;
}

/// Runs the workload for `seconds`. With `spans` non-null every TRAIN and
/// PREDICT is the composed, decorated statement and INSERT time is traced.
PhaseResult RunPhase(const Workload& w, Env* env, uint64_t seed,
                     double seconds, LayerSpans* spans, ThreadPool* pool,
                     Checks* checks) {
  Database* db = env->db.get();
  PhaseResult res;
  ShardedTable* insert_table =
      Unwrap(db->GetShardedTable(env->insert_table), "insert table");
  const uint64_t insert_rows_before = insert_table->num_tuples();
  std::unique_ptr<Session> trainer = db->CreateSession({seed, "trainer"});
  std::unique_ptr<Session> scorer = db->CreateSession({seed, "scorer"});
  std::unique_ptr<Session> ingester = db->CreateSession({seed, "ingester"});
  if (spans != nullptr) {
    // Serve the traced model from the first PREDICT on, not only after the
    // first traced TRAIN has published one.
    std::shared_ptr<const Model> current =
        Unwrap(db->models().Get("m"), "served model");
    Unwrap(db->models().Publish(
               "m", std::make_unique<TracedModel>(current->Clone(), spans)),
           "republish traced model");
  }

  const uint64_t t_begin = NowNs();
  const uint64_t t_end = t_begin + static_cast<uint64_t>(seconds * 1e9);

  auto parse = [&](const std::string& sql) {
    const uint64_t t0 = NowNs();
    Result<Statement> stmt = ParseQuery(sql);
    if (spans != nullptr) spans->parse.Add(Elapsed(t0), 0);
    return stmt;
  };

  // Closed-loop PREDICT; called from one thread per phase only.
  auto predict_once = [&] {
    const uint64_t t0 = NowNs();
    Result<Statement> stmt = parse(env->predict_sql);
    Result<InDbPredictResult> r = Status::Internal("unparsed");
    if (stmt.ok()) {
      const auto& p = std::get<PredictStatement>(*stmt);
      r = spans != nullptr
              ? ComposedPredict(db, p, env->schema.label_type, pool, spans)
              : scorer->Predict(p);
    }
    const uint64_t ns = Elapsed(t0);
    const bool ok = r.ok() && r->count == env->score_rows &&
                    r->serve.failed == 0 &&
                    r->serve.completed == env->score_rows;
    Record(&res.predict, ok, ns);
    if (!ok) {
      checks->Fail(r.ok() ? "PREDICT row count or failed replies wrong"
                          : "PREDICT failed: " + r.status().ToString());
      return;
    }
    res.predict_rows += r->count;
    res.predict_busy_s += static_cast<double>(ns) * 1e-9;
    res.serve_batches += r->serve.num_batches;
    res.serve_completed += r->serve.completed;
    res.serve_shed += r->serve.shed;
    res.serve_sim_p50_sum += r->serve.latency.p50;
    res.serve_sim_p99_sum += r->serve.latency.p99;
  };

  auto sim_io = [db] {
    return db->clock().Elapsed(TimeCategory::kIoRead) +
           db->clock().Elapsed(TimeCategory::kDecompress);
  };

  std::thread train_thread([&] {
    while (NowNs() < t_end) {
      const Counters c0 =
          spans != nullptr ? Counters::Take(db) : Counters();
      const double io0 = sim_io();
      const uint64_t t0 = NowNs();
      Result<Statement> stmt = parse(env->train_sql);
      bool ok = stmt.ok();
      double accuracy = 0.0;
      uint64_t tuples = 0;
      std::vector<double> params;
      if (ok && spans != nullptr) {
        Result<ComposedTrainResult> r = ComposedTrain(
            db, std::get<TrainStatement>(*stmt), env->data.test.get(),
            env->schema.label_type, spans);
        ok = r.ok();
        if (ok) {
          accuracy = r->result.final_metric;
          tuples = r->tuples;
          params = std::move(r->params);
        }
      } else if (ok) {
        Result<InDbTrainResult> r =
            trainer->Train(std::get<TrainStatement>(*stmt));
        ok = r.ok();
        if (ok) {
          accuracy = r->final_metric;
          for (const EpochLog& e : r->epochs) tuples += e.tuples_seen;
          if (!w.ingest_into_train) {
            auto snap = db->models().GetVersionSnapshot("m", r->model_version);
            ok = snap.ok();
            if (ok) params = snap->model->params();
          }
        }
      }
      const uint64_t ns = Elapsed(t0);
      Record(&res.train, ok, ns);
      if (!ok) {
        checks->Fail("TRAIN failed");
        continue;
      }
      res.train_rates.push_back(static_cast<double>(tuples) * 1e9 /
                                static_cast<double>(ns));
      res.train_sim_io_s += sim_io() - io0;
      if (spans != nullptr) res.train_counters.AddDelta(c0, Counters::Take(db));
      res.accuracies.push_back(accuracy);
      if (!w.ingest_into_train &&
          (!SameBits(params, env->ref_params) ||
           !SameBits(accuracy, env->ref_accuracy))) {
        checks->Fail("repeated TRAIN differs from the first");
      }
      for (int k = 0; k < w.predicts_per_train; ++k) predict_once();
    }
  });

  std::thread score_thread([&] {
    while (w.serving() && NowNs() < t_end) predict_once();
  });

  std::thread ingest_thread([&] {
    const std::vector<Tuple>& source = *env->data.train;
    std::vector<Tuple> batch(kInsertRows);
    for (uint64_t i = 0;; ++i) {
      const uint64_t due =
          t_begin + static_cast<uint64_t>(static_cast<double>(i) *
                                          kInsertPeriodS * 1e9);
      if (due >= t_end) break;
      for (uint64_t j = 0; j < kInsertRows; ++j) {
        batch[j] = source[(i * kInsertRows + j) % source.size()];
      }
      res.ingest_lag_max_ms = std::max(res.ingest_lag_max_ms, WaitUntil(due));
      const uint64_t t_start = NowNs();
      const Status st = ingester->Insert(env->insert_table, batch);
      const uint64_t t_done = NowNs();
      if (spans != nullptr) spans->append.Add(t_done - t_start, kInsertRows);
      Record(&res.insert, st.ok(), t_done - due);
      if (st.ok()) {
        res.inserted_rows += kInsertRows;
      } else {
        checks->Fail("INSERT failed: " + st.ToString());
      }
    }
  });

  train_thread.join();
  score_thread.join();
  ingest_thread.join();

  const uint64_t rows_after = insert_table->num_tuples();
  if (rows_after != insert_rows_before + res.inserted_rows) {
    checks->Fail("table '" + env->insert_table + "' holds " +
                 std::to_string(rows_after) + " rows, expected " +
                 std::to_string(insert_rows_before + res.inserted_rows));
  }
  // The sessions count what ran through them; the composed statements of a
  // traced phase bypass the session layer, so only INSERTs are compared.
  const SessionStats ts = trainer->stats(), ss = scorer->stats(),
                     is = ingester->stats();
  const uint64_t via_session =
      spans != nullptr ? res.insert.ms.size() : res.attempted();
  const uint64_t failed_via_session =
      spans != nullptr ? res.insert.failed : res.failed();
  if (ts.statements + ss.statements + is.statements != via_session ||
      ts.failed + ss.failed + is.failed != failed_via_session) {
    checks->Fail("session statistics disagree with the statements issued");
  }
  return res;
}

// ---------------------------------------------------------------------------
// Trace fidelity: composed statements must equal the untraced ones.

void CheckComposedFidelity(const Workload& w, Env* env, uint64_t seed,
                           ThreadPool* pool, Checks* checks) {
  Database* db = env->db.get();
  LayerSpans scratch;
  std::unique_ptr<Session> session = db->CreateSession({seed, "fidelity"});
  auto train_stmt = [&](const std::string& id) {
    return std::get<TrainStatement>(
        Unwrap(ParseQuery(TrainSql(w, seed, id)), "parse"));
  };
  Result<InDbTrainResult> plain = session->Train(train_stmt("fid_plain"));
  Result<ComposedTrainResult> traced =
      ComposedTrain(db, train_stmt("fid_traced"), env->data.test.get(),
                    env->schema.label_type, &scratch);
  if (!plain.ok() || !traced.ok()) {
    checks->Fail("fidelity TRAIN failed");
    return;
  }
  auto plain_model = db->models().Get("fid_plain");
  bool same = plain_model.ok() &&
              SameBits((*plain_model)->params(), traced->params) &&
              plain->epochs.size() == traced->result.epochs.size();
  for (size_t e = 0; same && e < plain->epochs.size(); ++e) {
    const EpochLog& a = plain->epochs[e];
    const EpochLog& b = traced->result.epochs[e];
    same = a.tuples_seen == b.tuples_seen &&
           SameBits(a.train_loss, b.train_loss) &&
           SameBits(a.test_loss, b.test_loss) &&
           SameBits(a.test_metric, b.test_metric);
  }
  if (!same) checks->Fail("composed TRAIN differs from Session::Train");

  Result<InDbPredictResult> p_plain =
      session->Predict(PredictStatement{"score", "fid_plain"});
  Result<InDbPredictResult> p_traced =
      ComposedPredict(db, PredictStatement{"score", "fid_traced"},
                      env->schema.label_type, pool, &scratch);
  if (!p_plain.ok() || !p_traced.ok() || p_plain->count != p_traced->count ||
      !SameBits(p_plain->metric, p_traced->metric) ||
      !SameBits(p_plain->mean_loss, p_traced->mean_loss) ||
      p_plain->serve.num_batches != p_traced->serve.num_batches) {
    checks->Fail("composed PREDICT differs from Session::Predict");
  }
}

// ---------------------------------------------------------------------------
// Statistics and output.

/// Nearest-rank percentile; +inf entries (failed statements) sort last.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

double Median(const std::vector<double>& v) { return Percentile(v, 50.0); }

/// States the sample count of a latency series and the highest percentile
/// that still has ten samples beyond it.
void DescribeSamples(const char* what, const Latencies& l) {
  const double n = static_cast<double>(l.ms.size());
  static constexpr std::pair<double, const char*> kTails[] = {
      {99.0, "p99"}, {90.0, "p90"}, {50.0, "p50"}};
  const char* tail = "none";
  for (const auto& [p, name] : kTails) {
    if (n * (1.0 - p / 100.0) >= 10.0) {
      tail = name;
      break;
    }
  }
  std::printf("%-8s samples=%zu failed=%" PRIu64
              " highest percentile with >=10 beyond: %s\n",
              what, l.ms.size(), l.failed, tail);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Finite stand-in for a percentile that landed on a failed statement.
double Finite(double v) { return std::isfinite(v) ? v : 1e12; }

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Peak RSS of one set-up (dataset generation, RegisterDataset, warm-up
/// TRAIN and PREDICT), measured in a forked child with a single malloc
/// arena. ru_maxrss covers a whole process lifetime, and with glibc's
/// per-thread arenas the peak of a multi-threaded run swings by a whole
/// arena (tens of MB) from run to run; one arena repeats to within a
/// percent. Must be called before the process starts any thread. Returns
/// a negative value if the child failed.
double SetupPeakRssMb(const Workload& w, uint64_t seed,
                      const std::string& dir) {
  int fds[2];
  if (pipe(fds) != 0) return -1.0;
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return -1.0;
  }
  if (pid == 0) {
    close(fds[0]);
    mallopt(M_ARENA_MAX, 1);
    { Env env = Setup(w, seed, dir); }
    const double mb = PeakRssMb();
    const bool sent = write(fds[1], &mb, sizeof(mb)) == sizeof(mb);
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  double mb = -1.0;
  if (read(fds[0], &mb, sizeof(mb)) != sizeof(mb)) mb = -1.0;
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  std::filesystem::remove_all(dir);
  return WIFEXITED(status) && WEXITSTATUS(status) == 0 ? mb : -1.0;
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-32s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

/// Prints `metrics` by name, then the JSON result line carrying them.
void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  PrintMetrics(metrics);
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  char buf[128];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, ",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value);
    json += buf;
    json += "\"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// The end-to-end metrics the JSON result carries; each is non-zero on every
/// workload.
std::vector<Metric> EndToEndMetrics(double setup_s, double peak_rss_mb,
                                    const PhaseResult& r) {
  auto per_s = [](double n, double s) { return s > 0.0 ? n / s : 0.0; };
  return {
      {"setup_s", setup_s, "s"},
      {"train_tuples_per_s", Median(r.train_rates), "tuples/s"},
      {"retrain_p50_ms", Finite(Median(r.train.ms)), "ms"},
      {"test_accuracy", Median(r.accuracies), "ratio"},
      {"predict_p50_ms", Finite(Median(r.predict.ms)), "ms"},
      {"predict_p90_ms", Finite(Percentile(r.predict.ms, 90.0)), "ms"},
      {"predict_rows_per_s",
       per_s(static_cast<double>(r.predict_rows), r.predict_busy_s), "rows/s"},
      {"insert_p50_ms", Finite(Median(r.insert.ms)), "ms"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
}

/// End-to-end figures printed by name but kept out of the JSON result. The
/// simulated read time is 0 once a pool-resident table is warm, and the
/// error rate is 0 on a clean run (the JSON's attempted/failed carry it).
/// The INSERT tail is set by fsync latency on a shared disk and moves by
/// more between runs than any bound worth enforcing.
std::vector<Metric> UnboundedMetrics(const PhaseResult& r) {
  const double trains = static_cast<double>(r.train.ms.size());
  return {
      {"insert_p90_ms", Finite(Percentile(r.insert.ms, 90.0)), "ms"},
      {"train_sim_io_s", trains > 0.0 ? r.train_sim_io_s / trains : 0.0,
       "sim_s/train"},
      {"error_rate",
       static_cast<double>(r.failed()) /
           std::max<double>(1.0, static_cast<double>(r.attempted())),
       "ratio"},
  };
}

/// `phase` holds the counter deltas over the whole traced phase; the
/// read-side counters come from r.train_counters.
std::vector<Metric> LayerMetrics(const LayerSpans& s, const PhaseResult& r,
                                 const Counters& phase,
                                 double overhead_ratio) {
  auto div = [](double x, double n) { return n > 0.0 ? x / n : 0.0; };
  const double trains = static_cast<double>(r.train.ms.size());
  const double predicts = static_cast<double>(r.predict.ms.size());
  const double inserts = static_cast<double>(r.insert.ms.size());
  const Counters& t = r.train_counters;
  // SgdOp's own time: the epoch minus waiting on TupleShuffleOp and the
  // gradient kernels; it includes the per-epoch test evaluation, whose
  // per-tuple model calls are not timed.
  const double sgd_self = s.sgd_epoch.seconds() - s.shuffle_pull.seconds() -
                          s.shuffle_rescan.seconds() - s.grad_step.seconds();
  return {
      {"storage.block_fetch_s", div(s.block_fetch.seconds(), trains), "s/train"},
      {"storage.bytes_read", div(t.bytes_read, trains), "bytes/train"},
      {"storage.random_reads", div(t.random_reads, trains), "count/train"},
      {"storage.sequential_reads", div(t.sequential_reads, trains),
       "count/train"},
      {"storage.buffer_hits", div(t.hits, trains), "count/train"},
      {"storage.buffer_misses", div(t.misses, trains), "count/train"},
      {"storage.buffer_hit_rate", div(t.hits, t.hits + t.misses), "ratio"},
      {"storage.buffer_evictions", div(t.evictions, trains), "count/train"},
      {"storage.append_s", div(s.append.seconds(), inserts), "s/insert"},
      {"storage.writes", div(phase.writes, inserts), "count/insert"},
      {"storage.bytes_written", div(phase.bytes_written, inserts),
       "bytes/insert"},
      {"iosim.sim_io_read_s", div(t.sim_read, trains), "sim_s/train"},
      {"iosim.sim_decompress_s", div(t.sim_decompress, trains), "sim_s/train"},
      {"iosim.sim_compute_s", div(t.sim_compute, trains), "sim_s/train"},
      {"db.tuple_shuffle_wait_s", div(s.shuffle_pull.seconds(), trains),
       "s/train"},
      {"db.tuple_shuffle_fill_s", div(s.shuffle_fill.seconds(), trains),
       "s/train"},
      {"db.tuple_shuffle_buffers",
       div(static_cast<double>(s.shuffle_fill.rows.load()), trains),
       "count/train"},
      {"db.sgd_epoch_s", div(s.sgd_epoch.seconds(), trains), "s/train"},
      {"db.sgd_self_s", div(sgd_self, trains), "s/train"},
      {"db.parse_us",
       div(s.parse.seconds() * 1e6, static_cast<double>(s.parse.calls.load())),
       "us/stmt"},
      {"ml.grad_step_s", div(s.grad_step.seconds(), trains), "s/train"},
      {"ml.grad_step_rows",
       div(static_cast<double>(s.grad_step.rows.load()), trains), "rows/train"},
      {"ml.grad_step_ns_per_row",
       div(static_cast<double>(s.grad_step.ns.load()),
           static_cast<double>(s.grad_step.rows.load())),
       "ns/row"},
      {"ml.eval_s", div(s.eval.seconds(), predicts), "s/predict"},
      {"ml.eval_rows", div(static_cast<double>(s.eval.rows.load()), predicts),
       "rows/predict"},
      {"exec.merge_scan_s", div(s.merge_scan.seconds(), predicts),
       "s/predict"},
      {"exec.merge_scan_rows",
       div(static_cast<double>(s.merge_scan.rows.load()), predicts),
       "rows/predict"},
      {"serve.engine_s", div(s.engine.seconds(), predicts), "s/predict"},
      {"serve.batches", div(static_cast<double>(r.serve_batches), predicts),
       "count/predict"},
      {"serve.mean_batch_size",
       div(static_cast<double>(r.serve_completed),
           static_cast<double>(r.serve_batches)),
       "rows/batch"},
      {"serve.sim_latency_p50_s", div(r.serve_sim_p50_sum, predicts), "sim_s"},
      {"serve.sim_latency_p99_s", div(r.serve_sim_p99_sum, predicts), "sim_s"},
      {"serve.shed", static_cast<double>(r.serve_shed), "count"},
      {"session.statements", static_cast<double>(r.attempted()), "count"},
      {"session.failed", static_cast<double>(r.failed()), "count"},
      {"load.ingest_lag_max_ms", r.ingest_lag_max_ms, "ms"},
      {"trace.overhead_ratio", overhead_ratio, "ratio"},
  };
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string data_dir;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::stoull(v);
    else if (k == "--seconds") a->seconds = std::stod(v);
    else if (k == "--trace") a->trace = v == "1";
    else if (k == "--data") a->data_dir = v;
    else return false;
  }
  return !a->workload.empty() && !a->data_dir.empty() && a->seconds > 0.0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --data <dir>\n");
    return 2;
  }
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (args.workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  double peak_rss_mb = 0.0;
  if (!args.trace) {
    peak_rss_mb = SetupPeakRssMb(*w, args.seed, args.data_dir + "/rss");
    if (peak_rss_mb < 0.0) {
      std::fprintf(stderr, "perfbench: set-up memory probe failed\n");
      return 2;
    }
  }

  // Set up several times and keep the last; setup_s is the median.
  std::vector<double> setup_s;
  Env env;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const std::string dir = args.data_dir + "/setup" + std::to_string(k);
    env = Env();  // closes the previous database before its files go
    if (k > 0) {
      std::filesystem::remove_all(args.data_dir + "/setup" +
                                  std::to_string(k - 1));
    }
    const uint64_t t0 = NowNs();
    env = Setup(*w, args.seed, dir);
    setup_s.push_back(static_cast<double>(Elapsed(t0)) * 1e-9);
  }

  Checks checks;
  ThreadPool pool(4);
  std::vector<Metric> metrics;
  uint64_t attempted = 0, failed = 0;
  if (!args.trace) {
    PhaseResult r =
        RunPhase(*w, &env, args.seed, args.seconds, nullptr, &pool, &checks);
    DescribeSamples("train", r.train);
    DescribeSamples("predict", r.predict);
    DescribeSamples("insert", r.insert);
    PrintMetrics(UnboundedMetrics(r));
    metrics = EndToEndMetrics(Median(setup_s), peak_rss_mb, r);
    attempted = r.attempted();
    failed = r.failed();
  } else {
    CheckComposedFidelity(*w, &env, args.seed, &pool, &checks);
    PhaseResult plain = RunPhase(*w, &env, args.seed, args.seconds / 2,
                                 nullptr, &pool, &checks);
    LayerSpans spans;
    const Counters before = Counters::Take(env.db.get());
    PhaseResult traced = RunPhase(*w, &env, args.seed, args.seconds / 2,
                                  &spans, &pool, &checks);
    Counters phase;
    phase.AddDelta(before, Counters::Take(env.db.get()));
    // Overhead on the statement the workload is built around.
    const double ratio =
        w->serving() ? Median(traced.predict.ms) / Median(plain.predict.ms)
                : Median(traced.train.ms) / Median(plain.train.ms);
    DescribeSamples("train", traced.train);
    DescribeSamples("predict", traced.predict);
    DescribeSamples("insert", traced.insert);
    metrics = LayerMetrics(spans, traced, phase, Finite(ratio));
    attempted = plain.attempted() + traced.attempted();
    failed = plain.failed() + traced.failed();
  }
  checks.Report();
  const bool correct = checks.ok() && failed == 0;
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
