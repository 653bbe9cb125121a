// Multi-session sweep — concurrent sessions × table shards on the
// snapshot engine, A/B'd against a global-scan-lock baseline built here:
// in the scan_lock cells one bench-side mutex is held around every
// EVALUATE and every INSERT, which serializes them the way the engine's
// old `scan_mu_` did.
//
// Grid: sessions {1, 2, 4} × shards {1, 4} × {snapshot, scan_lock}. Every
// session runs the same scan-bound EVALUATE workload against one shared
// table through its own Session, timed on the wall clock (real threads
// contending on real mutexes — simulated I/O time can't see lock
// convoys).
//
// Claims under test (the binary exits non-zero on any violation):
//  (1) zero cross-session interference: every EVALUATE from every
//      concurrent session reproduces the single-session reference report
//      bit-for-bit (accuracy and AUC exactly equal) — snapshots isolate
//      scans from each other and from the inserter session that streams
//      appends into a side table throughout;
//  (2) scan order is shard-count independent: evaluating the same model
//      over two copies of the table registered at different shard counts
//      yields bit-identical reports, because the cyclic merge
//      reconstructs insertion order exactly (training itself is only
//      deterministic per shard count — block geometry changes with K);
//  (3) concurrent-scan speedup: at 4 sessions the snapshot engine beats
//      the serialized baseline on wall time (asserted only on full runs;
//      --quick configs are too small to time reliably).

#include "bench_common.h"

#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "db/database.h"
#include "db/query.h"
#include "dataset/catalog.h"
#include "dataset/loader.h"
#include "ml/metrics.h"
#include "session/session.h"
#include "util/timer.h"

using namespace corgipile;
using namespace corgipile::bench;

namespace {

struct CellResult {
  double wall_ms = 0.0;
  uint64_t scans = 0;
  bool reports_match = true;
};

std::vector<Tuple> InsertBatch(const Schema& schema, uint64_t first_id,
                               uint64_t n) {
  std::vector<Tuple> out;
  out.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    std::vector<float> values(schema.dim);
    for (uint32_t d = 0; d < schema.dim; ++d) {
      values[d] = static_cast<float>((first_id + i + d) % 5) * 0.5f;
    }
    out.push_back(MakeDenseTuple(first_id + i, (first_id + i) % 2 ? 1.0 : -1.0,
                                 std::move(values)));
  }
  return out;
}

bool SameReport(const BinaryReport& a, const BinaryReport& b) {
  return a.total() == b.total() && a.accuracy() == b.accuracy() &&
         a.auc == b.auc;
}

// `sessions` concurrent scanners (EVALUATE × `scans_each`) plus one ingest
// session streaming inserts into a side table. Every report is compared
// against `reference` bit-for-bit. With `scan_lock` every statement runs
// under one mutex (the serialized baseline).
CellResult RunCell(Database* db, const Dataset& ds, uint32_t sessions,
                   uint64_t scans_each, const BinaryReport& reference,
                   bool scan_lock) {
  CellResult cell;
  std::mutex scan_mu;
  auto maybe_lock = [&] {
    return scan_lock ? std::unique_lock<std::mutex>(scan_mu)
                     : std::unique_lock<std::mutex>();
  };
  std::vector<std::unique_ptr<Session>> scanners;
  for (uint32_t s = 0; s < sessions; ++s) {
    SessionOptions opts;
    opts.label = "scan" + std::to_string(s);
    scanners.push_back(db->CreateSession(opts));
  }
  auto ingest = db->CreateSession();
  std::vector<uint8_t> ok(sessions, 1);

  WallTimer timer;
  std::vector<std::thread> threads;
  for (uint32_t s = 0; s < sessions; ++s) {
    threads.emplace_back([&, s] {
      for (uint64_t r = 0; r < scans_each; ++r) {
        Result<BinaryReport> report = [&] {
          auto lock = maybe_lock();
          return scanners[s]->Evaluate(EvaluateStatement{"susy", "m"});
        }();
        if (!report.ok() || !SameReport(*report, reference)) ok[s] = 0;
      }
    });
  }
  std::thread inserter([&] {
    const Schema schema = ds.MakeSchema();
    for (uint64_t b = 0; b < 4; ++b) {
      Status st = [&] {
        auto lock = maybe_lock();
        return ingest->Insert("stream", InsertBatch(schema, b * 64, 64));
      }();
      if (!st.ok()) std::fprintf(stderr, "insert: %s\n", st.ToString().c_str());
    }
  });
  for (auto& t : threads) t.join();
  inserter.join();
  cell.wall_ms = timer.ElapsedMillis();
  cell.scans = sessions * scans_each;
  for (uint32_t s = 0; s < sessions; ++s) cell.reports_match &= ok[s] != 0;
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  BenchEnv env = BenchEnv::FromArgs(argc, argv);
  const double scale = env.DatasetScale("susy") * (env.quick ? 0.5 : 1.0);
  const uint64_t scans_each = env.quick ? 2 : 6;
  auto spec = CatalogLookup("susy", scale).ValueOrDie();
  const Dataset ds = GenerateDataset(spec, DataOrder::kClustered);

  CsvTable table({"shards", "sessions", "mode", "wall_ms", "scans",
                  "reports_match", "speedup_vs_lock"});
  bool violations = false;

  for (uint32_t shards : {1u, 4u}) {
    const std::string dir =
        env.data_dir + "/session_sweep_s" + std::to_string(shards);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const uint32_t alt_shards = shards == 1 ? 4 : 1;
    Database db(dir, env.Device(DeviceKind::kSsd));
    if (!db.RegisterDataset("susy", ds, shards).ok() ||
        !db.RegisterDataset("susy_alt", ds, alt_shards).ok() ||
        !db.CreateTable("stream", ds.MakeSchema(), {}, false,
                        Page::kDefaultSize, shards)
             .ok()) {
      std::fprintf(stderr, "setup failed (shards=%u)\n", shards);
      return 1;
    }
    auto trained = db.Execute(
        "SELECT * FROM susy TRAIN BY lr WITH learning_rate=0.005, "
        "max_epoch_num=2, block_size=64KB, buffer_fraction=0.1, seed=13, "
        "publish=m");
    if (!trained.ok()) {
      std::fprintf(stderr, "train: %s\n", trained.status().ToString().c_str());
      return 1;
    }
    auto reference = db.EvaluateModel(EvaluateStatement{"susy", "m"});
    if (!reference.ok()) {
      std::fprintf(stderr, "eval: %s\n",
                   reference.status().ToString().c_str());
      return 1;
    }
    // Claim (2): scanning the same data through a different shard count
    // yields a bit-identical report for the same model — the cyclic merge
    // reconstructs the insertion order exactly.
    auto alt = db.EvaluateModel(EvaluateStatement{"susy_alt", "m"});
    if (!alt.ok()) {
      std::fprintf(stderr, "eval alt: %s\n", alt.status().ToString().c_str());
      return 1;
    }
    if (!SameReport(*reference, *alt)) {
      std::fprintf(stderr,
                   "VIOLATION: report differs between shards=%u and "
                   "shards=%u copies of the table\n",
                   shards, alt_shards);
      violations = true;
    }

    for (uint32_t sessions : {1u, 2u, 4u}) {
      CellResult lock = RunCell(&db, ds, sessions, scans_each, *reference,
                                /*scan_lock=*/true);
      CellResult snap = RunCell(&db, ds, sessions, scans_each, *reference,
                                /*scan_lock=*/false);

      // Claim (1): bit-identical reports from every concurrent session.
      if (!lock.reports_match || !snap.reports_match) {
        std::fprintf(stderr,
                     "VIOLATION: cross-session interference at shards=%u "
                     "sessions=%u\n",
                     shards, sessions);
        violations = true;
      }
      const double speedup =
          snap.wall_ms > 0 ? lock.wall_ms / snap.wall_ms : 0.0;
      table.NewRow()
          .Add(static_cast<uint64_t>(shards))
          .Add(static_cast<uint64_t>(sessions))
          .Add("scan_lock")
          .Add(lock.wall_ms, 3)
          .Add(lock.scans)
          .Add(lock.reports_match ? "yes" : "NO")
          .Add("");
      table.NewRow()
          .Add(static_cast<uint64_t>(shards))
          .Add(static_cast<uint64_t>(sessions))
          .Add("snapshot")
          .Add(snap.wall_ms, 3)
          .Add(snap.scans)
          .Add(snap.reports_match ? "yes" : "NO")
          .Add(speedup, 3);
      // Claim (3): with 4 concurrent sessions the lock-free engine wins.
      // Wall-clock, so only asserted on full-size runs.
      if (!env.quick && sessions == 4 && speedup <= 1.0) {
        std::fprintf(stderr,
                     "VIOLATION: no concurrent-scan speedup at shards=%u "
                     "(lock %.1fms vs snapshot %.1fms)\n",
                     shards, lock.wall_ms, snap.wall_ms);
        violations = true;
      }
    }
  }

  env.Emit("session_sweep", table);
  if (violations) {
    std::fprintf(stderr, "bench_session_sweep: assertions failed\n");
    return 1;
  }
  std::printf("bench_session_sweep: all assertions held\n");
  return 0;
}
