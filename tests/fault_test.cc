// Fault-injection suite: deterministic media-rule behaviour, page/record
// checksum detection, retry-with-backoff, quarantine-and-keep-training,
// crash-safe checkpoints, and buffer-manager behaviour under faults.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <thread>
#include <utility>

#include "dataset/catalog.h"
#include "dataset/loader.h"
#include "db/block_shuffle_op.h"
#include "db/database.h"
#include "db/query.h"
#include "db/tuple_shuffle_op.h"
#include "dataloader/distributed.h"
#include "dataloader/record_file.h"
#include "iosim/fault_plane.h"
#include "iosim/sim_clock.h"
#include "ml/checkpoint.h"
#include "ml/linear_models.h"
#include "ml/trainer.h"
#include "shuffle/tuple_stream.h"
#include "storage/block_source.h"
#include "storage/buffer_manager.h"
#include "storage/heapfile.h"
#include "storage/page.h"
#include "storage/table.h"
#include "util/status.h"

#include "drain.h"
#include "media_faults.h"

namespace corgipile {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + name;
}

/// Stamps every failure message of the enclosing scope with the scenario
/// (the test name) and the fault seed, so a red run reproduces with
/// `--gtest_filter=<scenario>` and the printed seed (DESIGN.md §12).
#define FAULT_SCENARIO_TRACE(seed_expr)                                      \
  SCOPED_TRACE(::std::string("scenario=") +                                  \
               ::testing::UnitTest::GetInstance()->current_test_info()->name() + \
               " seed=" + ::std::to_string(seed_expr))

// Flips one bit of the file at `path`, byte `offset`.
void FlipByteOnDisk(const std::string& path, uint64_t offset) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
  int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
  std::fputc(c ^ 0x40, f);
  std::fclose(f);
}

// --- Media rule determinism ---------------------------------------------

TEST(MediaRuleTest, DecisionsAreDeterministic) {
  const uint64_t seed = 99;
  FAULT_SCENARIO_TRACE(seed);
  FaultPlane* plane = FaultPlane::Process();
  const uint64_t tag = FaultPlane::TagForPath("/data/t.tbl");
  auto scan = [&] {
    ScopedMediaFaults faults(
        seed, {MediaRule(kHeapRead, ChaosAction::kReadError, 0.5, 0)});
    std::vector<bool> ok;
    for (uint64_t off = 0; off < 64 * 4096; off += 4096) {
      ok.push_back(plane->OnMediaRead(kHeapRead, tag, off).ok());
    }
    return ok;
  };
  const std::vector<bool> a = scan();
  EXPECT_EQ(scan(), a);
  EXPECT_NE(std::count(a.begin(), a.end(), false), 0);
  EXPECT_NE(std::count(a.begin(), a.end(), true), 0);
  EXPECT_EQ(FaultPlane::TagForPath("/data/t.tbl"), tag);
  EXPECT_NE(FaultPlane::TagForPath("/data/u.tbl"), tag);
}

TEST(MediaRuleTest, TransientSiteEventuallySucceeds) {
  const uint64_t seed = 7;
  FAULT_SCENARIO_TRACE(seed);
  ScopedMediaFaults faults(
      seed, {MediaRule(kHeapRead, ChaosAction::kReadError, 1.0, 3)});
  FaultPlane* plane = FaultPlane::Process();
  int failures = 0;
  Status st;
  for (int attempt = 0; attempt < 10; ++attempt) {
    st = plane->OnMediaRead(kHeapRead, 1, 0);
    if (st.ok()) break;
    ++failures;
  }
  EXPECT_TRUE(st.ok());
  EXPECT_GE(failures, 1);
  EXPECT_LE(failures, 3);
  // Once drained, the site stays healthy.
  EXPECT_TRUE(plane->OnMediaRead(kHeapRead, 1, 0).ok());
}

TEST(MediaRuleTest, BitFlipIsStickyAndCounted) {
  const uint64_t seed = 5;
  FAULT_SCENARIO_TRACE(seed);
  ScopedMediaFaults faults(
      seed, {MediaRule(kHeapRead, ChaosAction::kBitFlip, 1.0)});
  FaultPlane* plane = FaultPlane::Process();
  std::vector<uint8_t> a(64, 0xAB), b(64, 0xAB);
  EXPECT_EQ(plane->OnMediaData(kHeapRead, 2, 128, a.data(), a.size()), 0.0);
  EXPECT_EQ(plane->OnMediaData(kHeapRead, 2, 128, b.data(), b.size()), 0.0);
  EXPECT_EQ(a, b);  // same site → same flipped bit
  EXPECT_NE(a, std::vector<uint8_t>(64, 0xAB));
  EXPECT_EQ(faults.stats().injected_bit_flips, 2u);
  // Media hooks never move the point's hit counter.
  EXPECT_EQ(plane->Hits(kHeapRead), 0u);
}

TEST(RetryPolicyTest, BackoffIsExponential) {
  RetryPolicy p;
  p.initial_backoff_s = 0.001;
  p.backoff_multiplier = 2.0;
  EXPECT_DOUBLE_EQ(p.BackoffSeconds(0), 0.001);
  EXPECT_DOUBLE_EQ(p.BackoffSeconds(1), 0.002);
  EXPECT_DOUBLE_EQ(p.BackoffSeconds(2), 0.004);
}

// --- Page validation + checksums -----------------------------------------

TEST(PageValidateTest, EmptyAndPopulatedPagesAreValid) {
  Page p(512);
  EXPECT_TRUE(p.Validate().ok());
  const uint8_t rec[] = {1, 2, 3, 4};
  ASSERT_TRUE(p.AddRecord(rec, sizeof(rec)));
  EXPECT_TRUE(p.Validate().ok());
}

TEST(PageValidateTest, RejectsMalformedBytes) {
  // Too small to hold a header.
  EXPECT_TRUE(Page::FromBytes(std::vector<uint8_t>(4, 0))
                  .Validate()
                  .IsCorruption());

  // Slot directory larger than the page.
  std::vector<uint8_t> overflow(64, 0);
  overflow[0] = 0xFF;  // num_slots = 0x00FF → directory needs 8+255*4 bytes
  EXPECT_TRUE(Page::FromBytes(overflow).Validate().IsCorruption());

  // data_start before the directory end.
  std::vector<uint8_t> bad_start(64, 0);  // num_slots=0, data_start=0 < 8
  EXPECT_TRUE(Page::FromBytes(bad_start).Validate().IsCorruption());

  // One slot whose offset points into the directory.
  Page good(64);
  const uint8_t rec[] = {9, 9};
  ASSERT_TRUE(good.AddRecord(rec, sizeof(rec)));
  std::vector<uint8_t> slot_bad = good.bytes();
  slot_bad[8] = 0;  // slot 0 offset low byte → 0 (inside header)
  slot_bad[9] = 0;
  EXPECT_TRUE(Page::FromBytes(slot_bad).Validate().IsCorruption());

  // One slot with zero length.
  std::vector<uint8_t> len_bad = good.bytes();
  len_bad[10] = 0;
  len_bad[11] = 0;
  EXPECT_TRUE(Page::FromBytes(len_bad).Validate().IsCorruption());
}

TEST(PageChecksumTest, StampVerifyAndInvalidate) {
  Page p(512);
  const uint8_t rec[] = {10, 20, 30};
  ASSERT_TRUE(p.AddRecord(rec, sizeof(rec)));
  EXPECT_EQ(p.stored_checksum(), 0u);  // unstamped
  EXPECT_TRUE(p.VerifyChecksum());     // trivially

  p.StampChecksum();
  EXPECT_NE(p.stored_checksum(), 0u);
  EXPECT_TRUE(p.VerifyChecksum());

  p.data()[p.size() - 1] ^= 0x01;  // corrupt a record byte
  EXPECT_FALSE(p.VerifyChecksum());
  p.data()[p.size() - 1] ^= 0x01;
  EXPECT_TRUE(p.VerifyChecksum());

  // Appending after stamping resets the checksum field.
  ASSERT_TRUE(p.AddRecord(rec, sizeof(rec)));
  EXPECT_EQ(p.stored_checksum(), 0u);
}

// --- HeapFile read path ---------------------------------------------------

std::unique_ptr<HeapFile> MakeHeapFile(const std::string& path,
                                       uint32_t page_size, int num_pages) {
  auto file = HeapFile::Create(path, page_size);
  EXPECT_TRUE(file.ok());
  for (int i = 0; i < num_pages; ++i) {
    Page p(page_size);
    std::vector<uint8_t> rec(32);
    for (size_t j = 0; j < rec.size(); ++j) {
      rec[j] = static_cast<uint8_t>(1 + i + j);
    }
    EXPECT_TRUE(p.AddRecord(rec.data(), rec.size()));
    EXPECT_TRUE((*file)->AppendPage(p).ok());
  }
  EXPECT_TRUE((*file)->Sync().ok());
  return std::move(*file);
}

TEST(HeapFileFaultTest, OnDiskBitRotIsDetected) {
  const std::string path = TempPath("hf_bitrot.tbl");
  auto file = MakeHeapFile(path, 512, 3);
  Page out;
  EXPECT_TRUE(file->ReadPage(1, &out).ok());

  FlipByteOnDisk(path, 512 + 300);  // inside page 1's record area
  Status st = file->ReadPage(1, &out);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  // Other pages still read fine.
  EXPECT_TRUE(file->ReadPage(0, &out).ok());
  EXPECT_TRUE(file->ReadPage(2, &out).ok());
}

TEST(HeapFileFaultTest, InjectedBitFlipsAreAlwaysDetected) {
  const std::string path = TempPath("hf_flip.tbl");
  auto file = MakeHeapFile(path, 512, 16);
  const uint64_t seed = 11;
  FAULT_SCENARIO_TRACE(seed);
  Page out;
  {
    // Every page read comes back corrupted.
    ScopedMediaFaults faults(
        seed, {MediaRule(kHeapRead, ChaosAction::kBitFlip, 1.0)});
    for (uint64_t p = 0; p < file->num_pages(); ++p) {
      Status st = file->ReadPage(p, &out);
      EXPECT_TRUE(st.IsCorruption()) << "page " << p << ": " << st.ToString();
    }
    EXPECT_EQ(faults.stats().injected_bit_flips, file->num_pages());
  }
  EXPECT_TRUE(file->ReadPage(0, &out).ok());
}

TEST(HeapFileFaultTest, TransientErrorsRecoverWithBackoff) {
  const std::string path = TempPath("hf_transient.tbl");
  auto file = MakeHeapFile(path, 512, 4);
  const uint64_t seed = 3;
  FAULT_SCENARIO_TRACE(seed);
  ScopedMediaFaults faults(
      seed, {MediaRule(kHeapRead, ChaosAction::kReadError, 1.0, 2)});
  SimClock clock;
  IoStats io;
  file->SetIoAccounting(DeviceProfile::Memory(), &clock, &io);

  Page out;
  for (uint64_t p = 0; p < file->num_pages(); ++p) {
    EXPECT_TRUE(file->ReadPage(p, &out).ok()) << "page " << p;
  }
  const FaultPlaneStats stats = faults.stats();
  EXPECT_GE(stats.retries, file->num_pages());
  EXPECT_EQ(stats.recovered, file->num_pages());
  EXPECT_EQ(stats.permanent_failures, 0u);
  EXPECT_GT(clock.Elapsed(TimeCategory::kRetryBackoff), 0.0);
}

TEST(HeapFileFaultTest, PermanentErrorsSurfaceAfterRetries) {
  const std::string path = TempPath("hf_permanent.tbl");
  auto file = MakeHeapFile(path, 512, 1);
  const uint64_t seed = 3;
  FAULT_SCENARIO_TRACE(seed);
  ScopedMediaFaults faults(
      seed, {MediaRule(kHeapRead, ChaosAction::kReadError, 1.0, 0)});

  Page out;
  Status st = file->ReadPage(0, &out);
  EXPECT_TRUE(st.IsIoError()) << st.ToString();
  const FaultPlaneStats stats = faults.stats();
  EXPECT_EQ(stats.permanent_failures, 1u);
  EXPECT_EQ(stats.recovered, 0u);
  // All max_retries + 1 attempts were made and failed.
  EXPECT_EQ(stats.injected_permanent_errors, 4u);
}

TEST(HeapFileFaultTest, TornWriteIsDetectedOnRead) {
  const std::string path = TempPath("hf_torn.tbl");
  const uint64_t seed = 21;
  FAULT_SCENARIO_TRACE(seed);
  ScopedMediaFaults faults(
      seed, {MediaRule(kHeapAppend, ChaosAction::kTornWrite, 1.0)});
  auto create = HeapFile::Create(path, 512);
  ASSERT_TRUE(create.ok());
  auto& file = *create;
  Page p(512);
  std::vector<uint8_t> rec(200);
  for (size_t j = 0; j < rec.size(); ++j) {
    rec[j] = static_cast<uint8_t>(0x10 + j);
  }
  ASSERT_TRUE(p.AddRecord(rec.data(), rec.size()));
  ASSERT_TRUE(file->AppendPage(p).ok());
  EXPECT_EQ(faults.stats().injected_torn_writes, 1u);
  // The tear is silent at write time; the checksum catches it on read.
  Page out;
  Status st = file->ReadPage(0, &out);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

TEST(HeapFileFaultTest, LatencySpikesChargeSimTime) {
  const std::string path = TempPath("hf_latency.tbl");
  auto file = MakeHeapFile(path, 512, 4);
  const uint64_t seed = 13;
  FAULT_SCENARIO_TRACE(seed);
  ScopedMediaFaults faults(
      seed, {MediaRule(kHeapRead, ChaosAction::kLatencySpike, 1.0, 1, 0.25)});
  SimClock clock;
  IoStats io;
  file->SetIoAccounting(DeviceProfile::Memory(), &clock, &io);
  Page out;
  ASSERT_TRUE(file->ReadPage(0, &out).ok());
  EXPECT_GE(clock.Elapsed(TimeCategory::kIoRead), 0.25);
  EXPECT_EQ(faults.stats().injected_latency_spikes, 1u);
}

// --- Record files ---------------------------------------------------------

std::vector<Tuple> MakeRecordTuples(int n) {
  std::vector<Tuple> tuples;
  for (int i = 0; i < n; ++i) {
    tuples.push_back(MakeDenseTuple(
        i, i % 2 == 0 ? 1.0 : -1.0,
        {1.5f + i, -2.5f * i, 3.0f, static_cast<float>(i)}));
  }
  return tuples;
}

TEST(RecordFileFaultTest, PayloadCorruptionIsDetected) {
  const std::string path = TempPath("rf_crc.bin");
  Schema schema{"r", 4, false, LabelType::kBinary, 2};
  auto tuples = MakeRecordTuples(50);
  auto src = MaterializeRecordFile(schema, tuples, path, 1024);
  ASSERT_TRUE(src.ok());
  std::vector<Tuple> out;
  for (uint32_t b = 0; b < (*src)->num_blocks(); ++b) {
    ASSERT_TRUE((*src)->ReadBlock(b, &out).ok());
  }
  EXPECT_EQ(out.size(), tuples.size());

  // Flip a payload byte of record 0 (header is 8 bytes) and re-open.
  FlipByteOnDisk(path, 12);
  auto index = BuildRecordBlockIndex(path, 1024);
  ASSERT_TRUE(index.ok());
  auto corrupt = RecordFileBlockSource::Open(path, *index, schema);
  ASSERT_TRUE(corrupt.ok());
  out.clear();
  Status st = (*corrupt)->ReadBlock(0, &out);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  // Later blocks are unaffected.
  EXPECT_TRUE((*corrupt)->ReadBlock(1, &out).ok());
}

TEST(RecordFileFaultTest, InjectedFlipsAndRetries) {
  const std::string path = TempPath("rf_inj.bin");
  Schema schema{"r", 4, false, LabelType::kBinary, 2};
  auto src = MaterializeRecordFile(schema, MakeRecordTuples(40), path, 512);
  ASSERT_TRUE(src.ok());

  const uint64_t seed = 17;
  FAULT_SCENARIO_TRACE(seed);
  std::vector<Tuple> out;
  {
    ScopedMediaFaults flip(
        seed, {MediaRule(kRecordRead, ChaosAction::kBitFlip, 1.0)});
    Status st = (*src)->ReadBlock(0, &out);
    EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  }
  ScopedMediaFaults transient(
      seed, {MediaRule(kRecordRead, ChaosAction::kReadError, 1.0, 2)});
  out.clear();
  EXPECT_TRUE((*src)->ReadBlock(0, &out).ok());
  EXPECT_GE(transient.stats().recovered, 1u);
}

TEST(RecordBlockIndexTest, ValidateRejectsBrokenIndexes) {
  RecordBlockIndex good;
  good.blocks.push_back({0, 100, 5});
  good.blocks.push_back({100, 80, 4});
  good.total_tuples = 9;
  EXPECT_TRUE(good.Validate(180).ok());

  RecordBlockIndex overlap = good;
  overlap.blocks[1].offset = 50;  // overlaps block 0
  EXPECT_TRUE(overlap.Validate(180).IsCorruption());

  RecordBlockIndex oob = good;
  oob.blocks[1].bytes = 500;  // extends past the file
  EXPECT_TRUE(oob.Validate(180).IsCorruption());

  RecordBlockIndex small = good;
  small.blocks[0].num_tuples = 50;  // 100 bytes can't hold 50 records
  EXPECT_TRUE(small.Validate(180).IsCorruption());

  RecordBlockIndex sum = good;
  sum.total_tuples = 42;  // doesn't match the per-block counts
  EXPECT_TRUE(sum.Validate(180).IsCorruption());

  RecordBlockIndex empty = good;
  empty.blocks[0].bytes = 0;
  EXPECT_TRUE(empty.Validate(180).IsCorruption());
}

// --- Quarantine + keep training ------------------------------------------

struct FaultTrainFixture {
  Dataset ds;
  std::unique_ptr<Table> table;
  std::unique_ptr<TableBlockSource> source;

  explicit FaultTrainFixture(const std::string& tag) {
    auto spec = CatalogLookup("susy", 0.1);
    ds = GenerateDataset(*spec, DataOrder::kClustered);
    auto t = MaterializeTrainTable(ds, TempPath(tag + ".tbl"), 2048);
    table = std::move(t).ValueOrDie();
    // 4 pages per block.
    source = std::make_unique<TableBlockSource>(table.get(), 4 * 2048);
  }

  Result<TrainResult> Run(const BlockReadTolerance& tolerance) {
    ShuffleOptions sopts;
    sopts.buffer_fraction = 0.1;
    sopts.tolerance = tolerance;
    auto stream =
        MakeTupleStream(ShuffleStrategy::kCorgiPile, source.get(), sopts);
    EXPECT_TRUE(stream.ok());
    LogisticRegression model(ds.spec.dim);
    TrainerOptions topts;
    topts.epochs = 5;
    topts.lr.initial = 0.005;
    topts.test_set = ds.test.get();
    topts.label_type = ds.MakeSchema().label_type;
    return Train(&model, stream->get(), topts);
  }
};

TEST(QuarantineTrainingTest, TrainingSurvivesSparseBitRot) {
  FaultTrainFixture f("quarantine");
  auto clean = f.Run({});
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean->total_quarantined_blocks, 0u);

  // Sparse sticky bit rot: ~1% of pages → a few corrupt blocks.
  const uint64_t seed = 1234;
  FAULT_SCENARIO_TRACE(seed);
  ScopedMediaFaults faults(
      seed, {MediaRule(kHeapRead, ChaosAction::kBitFlip, 0.01)});

  BlockReadTolerance tol;
  tol.quarantine_corrupt_blocks = true;
  tol.max_bad_block_fraction = 0.10;
  auto faulty = f.Run(tol);
  ASSERT_TRUE(faulty.ok()) << faulty.status().ToString();

  // Every corrupt block was detected and quarantined, with the loss
  // accounted in the epoch logs.
  EXPECT_GE(faulty->total_quarantined_blocks, 1u);
  EXPECT_GE(faulty->total_skipped_tuples, faulty->total_quarantined_blocks);
  uint64_t epoch_sum = 0;
  for (const EpochLog& log : faulty->epochs) epoch_sum += log.quarantined_blocks;
  EXPECT_EQ(epoch_sum, faulty->total_quarantined_blocks);

  // Losing ~1% of blocks must not change convergence materially.
  EXPECT_NEAR(faulty->final_test_metric, clean->final_test_metric, 0.01);

  // Without tolerance the same faults abort the run.
  auto strict = f.Run({});
  EXPECT_FALSE(strict.ok());
  EXPECT_TRUE(strict.status().IsCorruption()) << strict.status().ToString();
}

TEST(QuarantineTrainingTest, AbortsPastBadBlockThreshold) {
  FaultTrainFixture f("threshold");
  const uint64_t seed = 2;
  FAULT_SCENARIO_TRACE(seed);
  // Every block is corrupt.
  ScopedMediaFaults faults(
      seed, {MediaRule(kHeapRead, ChaosAction::kBitFlip, 1.0)});

  BlockReadTolerance tol;
  tol.quarantine_corrupt_blocks = true;
  tol.max_bad_block_fraction = 0.05;
  auto result = f.Run(tol);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorruption()) << result.status().ToString();
}

TEST(QuarantineTrainingTest, DatabasePipelineQuarantinesAndReports) {
  const std::string dir = TempPath("db_fault");
  std::filesystem::create_directories(dir);
  Database db(dir, DeviceProfile::Memory(), /*buffer_pool_bytes=*/0);
  auto spec = CatalogLookup("susy", 0.1);
  Dataset ds = GenerateDataset(*spec, DataOrder::kClustered);
  ASSERT_TRUE(db.RegisterDataset("susy", ds).ok());

  const uint64_t seed = 77;
  FAULT_SCENARIO_TRACE(seed);
  ScopedMediaFaults faults(
      seed, {MediaRule(kHeapRead, ChaosAction::kBitFlip, 0.03)});

  TrainStatement stmt;
  stmt.table_name = "susy";
  stmt.model_kind = "lr";
  stmt.params = Params::Parse(
                    "learning_rate=0.005, max_epoch_num=4, block_size=16KB, "
                    "tolerate_corruption=true, max_bad_fraction=0.25")
                    .ValueOrDie();
  auto tolerant = db.Train(stmt);
  ASSERT_TRUE(tolerant.ok()) << tolerant.status().ToString();
  EXPECT_GE(tolerant->total_quarantined_blocks, 1u);
  EXPECT_GE(tolerant->total_skipped_tuples, 1u);
  uint64_t epoch_sum = 0;
  for (const EpochLog& log : tolerant->epochs) {
    epoch_sum += log.quarantined_blocks;
  }
  EXPECT_EQ(epoch_sum, tolerant->total_quarantined_blocks);
  EXPECT_GT(tolerant->final_metric, 0.6);  // still learns

  // Same faults without the tolerance flag abort with kCorruption.
  stmt.params = Params::Parse(
                    "learning_rate=0.005, max_epoch_num=4, block_size=16KB")
                    .ValueOrDie();
  auto strict = db.Train(stmt);
  EXPECT_FALSE(strict.ok());
  EXPECT_TRUE(strict.status().IsCorruption()) << strict.status().ToString();
}

// A corrupt block mid-stream with corruption tolerance off must surface
// kCorruption through TupleShuffleOp::status() in BOTH buffer modes: the
// double-buffered path delivers the producer's error through the channel
// after the already-filled buffers drain, i.e. at the same point in the
// tuple stream where the single-buffered path hits it.
TEST(QuarantineTrainingTest, CorruptionSurfacesInBothBufferModes) {
  for (const bool double_buffer : {false, true}) {
    SCOPED_TRACE(double_buffer ? "double buffered" : "single buffered");
    FaultTrainFixture f(double_buffer ? "pipe_corrupt_d" : "pipe_corrupt_s");

    BlockShuffleOp::Options bopts;
    bopts.block_size_bytes = 4 * 2048;
    bopts.seed = 5;  // shuffled block order → the corrupt block lands
                     // mid-stream, after healthy blocks were consumed
    BlockShuffleOp block_op(f.table.get(), bopts);
    TupleShuffleOp::Options topts;
    topts.buffer_tuples = 64;
    topts.double_buffer = double_buffer;
    TupleShuffleOp op(&block_op, topts);

    // Sparse sticky corruption; tolerance is off (no BlockReadTolerance).
    const uint64_t seed = 1234;
    FAULT_SCENARIO_TRACE(seed);
    ScopedMediaFaults faults(
        seed, {MediaRule(kHeapRead, ChaosAction::kBitFlip, 0.01)});

    ASSERT_TRUE(op.Init().ok());
    const size_t delivered = DrainRest(&op).size();
    Status st = op.status();
    EXPECT_TRUE(st.IsCorruption()) << st.ToString();
    // Healthy buffers filled before the bad block still reached the
    // consumer.
    EXPECT_GT(delivered, 0u);
    EXPECT_LT(delivered, f.ds.train->size());
    op.Close();
  }
}

// A block that fails to decode part-way (a CRC-valid page holding a
// truncated record) is quarantined whole: the rows decoded from its
// healthy pages before the failure never reach the consumer, even when it
// is the last block of the epoch.
TEST(QuarantineTrainingTest, PartiallyDecodedBlockIsDroppedWhole) {
  const std::string path = TempPath("partial_block.tbl");
  constexpr uint32_t kPageSize = 512;
  std::vector<uint64_t> healthy_ids;
  {
    auto file = HeapFile::Create(path, kPageSize);
    ASSERT_TRUE(file.ok());
    uint64_t id = 0;
    for (int p = 0; p < 4; ++p) {
      Page page(kPageSize);
      for (int r = 0; r < 3; ++r) {
        std::vector<uint8_t> rec;
        MakeDenseTuple(id, 1.0, {1.0f, 2.0f}).SerializeTo(&rec);
        if (p == 3 && r == 2) rec.resize(rec.size() - 5);  // truncated
        ASSERT_TRUE(page.AddRecord(rec.data(), rec.size()));
        if (p < 2) healthy_ids.push_back(id);
        ++id;
      }
      ASSERT_TRUE((*file)->AppendPage(page).ok());
    }
    ASSERT_TRUE((*file)->Sync().ok());
  }
  auto table = Table::Open(path, Schema{"t", 2, false, LabelType::kBinary, 2},
                           TableOptions{kPageSize, false});
  ASSERT_TRUE(table.ok());

  BlockShuffleOp::Options opts;
  opts.block_size_bytes = 2 * kPageSize;  // blocks {0,1} and {2,3}
  opts.shuffle_blocks = false;            // the bad block is read last
  opts.tolerance.quarantine_corrupt_blocks = true;
  opts.tolerance.max_bad_block_fraction = 1.0;
  BlockShuffleOp op(table->get(), opts);
  ASSERT_TRUE(op.Init().ok());
  EXPECT_EQ(Ids(DrainRest(&op, 1000)), healthy_ids);
  EXPECT_TRUE(op.status().ok()) << op.status().ToString();
  EXPECT_EQ(op.QuarantinedBlocks(), 1u);
  EXPECT_EQ(op.SkippedTuples(), 6u);
  op.Close();
  std::remove(path.c_str());
}

// --- Checkpoints ----------------------------------------------------------

TEST(CheckpointTest, RoundTrip) {
  TrainCheckpoint ckpt;
  ckpt.model_name = "lr";
  ckpt.next_epoch = 7;
  ckpt.params = {0.25, -1.5, 3.75};
  ckpt.avg_params = {0.1, 0.2, 0.3};
  ckpt.weight_sum = 12.5;
  ckpt.total_tuples = 123456;
  ckpt.best_test_metric = 0.87;
  ckpt.total_quarantined_blocks = 3;
  ckpt.total_skipped_tuples = 99;
  const std::string path = TempPath("ckpt_rt.bin");
  ASSERT_TRUE(SaveCheckpoint(ckpt, path).ok());

  auto loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->model_name, ckpt.model_name);
  EXPECT_EQ(loaded->next_epoch, ckpt.next_epoch);
  EXPECT_EQ(loaded->params, ckpt.params);
  EXPECT_EQ(loaded->avg_params, ckpt.avg_params);
  EXPECT_DOUBLE_EQ(loaded->weight_sum, ckpt.weight_sum);
  EXPECT_EQ(loaded->total_tuples, ckpt.total_tuples);
  EXPECT_DOUBLE_EQ(loaded->best_test_metric, ckpt.best_test_metric);
  EXPECT_EQ(loaded->total_quarantined_blocks, 3u);
  EXPECT_EQ(loaded->total_skipped_tuples, 99u);
}

TEST(CheckpointTest, MissingFileIsNotFound) {
  auto r = LoadCheckpoint(TempPath("no_such_ckpt.bin"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST(CheckpointTest, CorruptFileIsRejected) {
  TrainCheckpoint ckpt;
  ckpt.model_name = "svm";
  ckpt.params = {1.0, 2.0};
  const std::string path = TempPath("ckpt_corrupt.bin");
  ASSERT_TRUE(SaveCheckpoint(ckpt, path).ok());
  FlipByteOnDisk(path, 20);
  auto r = LoadCheckpoint(path);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption()) << r.status().ToString();
}

TEST(CheckpointTest, ResumeReproducesTheUninterruptedRun) {
  auto spec = CatalogLookup("susy", 0.1);
  Dataset ds = GenerateDataset(*spec, DataOrder::kClustered);
  auto tuples = std::make_shared<const std::vector<Tuple>>(*ds.train);
  InMemoryBlockSource source(ds.MakeSchema(), tuples, 100);

  auto make_stream = [&] {
    ShuffleOptions sopts;
    sopts.buffer_fraction = 0.1;
    auto s = MakeTupleStream(ShuffleStrategy::kCorgiPile, &source, sopts);
    EXPECT_TRUE(s.ok());
    return std::move(*s);
  };
  TrainerOptions base;
  base.epochs = 6;
  base.lr.initial = 0.005;
  base.test_set = ds.test.get();
  base.label_type = ds.MakeSchema().label_type;

  // Uninterrupted reference run.
  LogisticRegression full_model(ds.spec.dim);
  auto full_stream = make_stream();
  auto full = Train(&full_model, full_stream.get(), base);
  ASSERT_TRUE(full.ok());

  // Run that "crashes" after epoch 3, leaving a checkpoint behind…
  const std::string ckpt = TempPath("ckpt_resume.bin");
  std::filesystem::remove(ckpt);
  {
    LogisticRegression model(ds.spec.dim);
    auto stream = make_stream();
    TrainerOptions opts = base;
    opts.epochs = 3;
    opts.checkpoint_path = ckpt;
    ASSERT_TRUE(Train(&model, stream.get(), opts).ok());
  }

  // …and a fresh process resuming from it.
  LogisticRegression resumed_model(ds.spec.dim);
  auto resumed_stream = make_stream();
  TrainerOptions opts = base;
  opts.checkpoint_path = ckpt;
  opts.resume = true;
  auto resumed = Train(&resumed_model, resumed_stream.get(), opts);
  ASSERT_TRUE(resumed.ok());

  EXPECT_EQ(resumed->resumed_from_epoch, 3u);
  EXPECT_EQ(resumed->epochs.size(), 3u);  // epochs 3, 4, 5
  ASSERT_EQ(resumed_model.params().size(), full_model.params().size());
  for (size_t i = 0; i < full_model.params().size(); ++i) {
    EXPECT_DOUBLE_EQ(resumed_model.params()[i], full_model.params()[i])
        << "param " << i;
  }
  EXPECT_DOUBLE_EQ(resumed->final_test_metric, full->final_test_metric);
  EXPECT_EQ(resumed->total_tuples, full->total_tuples);
}

// --- Media fault goldens --------------------------------------------------

// Pins where seeded media faults land and what they cost, end to end. The
// expected values were recorded with the per-file fault injector the
// FaultPlane media rules replaced (EXPERIMENTS.md), so a change to a draw,
// a salt, the transient budget or the per-page split fails here. Sites are
// keyed by the path string a file is opened with, so the goldens use fixed
// relative paths (under the working directory, one per build tree when
// ctest runs them) rather than testing::TempDir(), and remove them after.

/// Removes `paths` on scope exit, also when an assertion returns early.
struct RemoveOnExit {
  std::vector<std::string> paths;
  ~RemoveOnExit() {
    for (const std::string& p : paths) std::filesystem::remove_all(p);
  }
};

std::vector<ChaosRule> GoldenHeapRules() {
  return {MediaRule(kHeapRead, ChaosAction::kBitFlip, 0.03),
          MediaRule(kHeapRead, ChaosAction::kReadError, 0.1, 2),
          MediaRule(kHeapRead, ChaosAction::kReadError, 0.01, 0)};
}

// The codes of the blocks of `source` that fail to read.
std::vector<std::pair<uint32_t, StatusCode>> BadBlocks(BlockSource* source) {
  std::vector<std::pair<uint32_t, StatusCode>> bad;
  for (uint32_t b = 0; b < source->num_blocks(); ++b) {
    std::vector<Tuple> out;
    const Status st = source->ReadBlock(b, &out);
    if (!st.ok()) bad.emplace_back(b, st.code());
  }
  return bad;
}

TEST(MediaFaultGoldenTest, HeapTrainByUnderReadFaults) {
  const uint64_t seed = 2024;
  FAULT_SCENARIO_TRACE(seed);
  const std::string dir = "media_golden_heap";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  RemoveOnExit cleanup{{dir}};
  Database db(dir, DeviceProfile::Ssd(), /*buffer_pool_bytes=*/0);
  auto spec = CatalogLookup("susy", 0.1);
  Dataset ds = GenerateDataset(*spec, DataOrder::kClustered);
  ASSERT_TRUE(db.RegisterDataset("susy", ds).ok());

  // Single buffering: a double-buffered producer reads ahead into the next
  // epoch, so which epoch a quarantined block is counted in depends on
  // thread timing there.
  TrainStatement stmt;
  stmt.table_name = "susy";
  stmt.model_kind = "lr";
  stmt.params = Params::Parse(
                    "learning_rate=0.005, max_epoch_num=3, block_size=16KB, "
                    "seed=7, double_buffer=false, tolerate_corruption=true, "
                    "max_bad_fraction=0.5")
                    .ValueOrDie();
  {
    ScopedMediaFaults faults(seed, GoldenHeapRules());
    db.ResetAccounting();
    auto result = db.Train(stmt);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->total_quarantined_blocks, 12u);
    EXPECT_EQ(result->total_skipped_tuples, 2016u);
    ASSERT_EQ(result->epochs.size(), 3u);
    for (const EpochLog& log : result->epochs) {
      EXPECT_EQ(log.quarantined_blocks, 4u);
      EXPECT_EQ(log.skipped_tuples, 672u);
    }
    const FaultPlaneStats stats = faults.stats();
    EXPECT_EQ(stats.injected_transient_errors, 8u);
    EXPECT_EQ(stats.injected_permanent_errors, 24u);
    EXPECT_EQ(stats.injected_bit_flips, 6u);
    EXPECT_EQ(stats.retries, 26u);
    EXPECT_EQ(stats.recovered, 6u);
    EXPECT_EQ(stats.permanent_failures, 6u);
    EXPECT_EQ(db.clock().Elapsed(TimeCategory::kRetryBackoff),
              0x1.a9fbe76c8b43cp-5);
    EXPECT_EQ(db.clock().Elapsed(TimeCategory::kIoRead),
              0x1.184f95d4e8fb2p-7);
    auto model = db.models().Get(result->model_id);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    const std::vector<double> kParams = {
        0x1.c4cedb973c128p+0,  -0x1.1e2795722d507p-1, 0x1.6964cb0b80addp-3,
        -0x1.b29d174f681c2p-4, -0x1.309ed38f225fcp-3, 0x1.28109709c839ep-1,
        0x1.55204a5dd1d0ap-4,  -0x1.da9c274647114p-3, -0x1.9fb795bbddba8p-4,
        -0x1.748a285795b9p-2,  0x1.bb39d6e6dd8ep-4,   0x1.7ff1be718cab4p-4,
        0x1.0afdfe3b4f30bp-2,  0x1.dddbf16f3bb28p-3,  -0x1.7648704770e19p-4,
        0x1.635a41531b473p-2,  0x1.09bf5b68cf5dfp-3,  0x1.103f332a37e9bp-2,
        0x1.9c98eda6f7c0bp-7};
    EXPECT_EQ((*model)->params(), kParams);
  }
  // A fresh arming replays the same sites: the quarantined blocks.
  ScopedMediaFaults faults(seed, GoldenHeapRules());
  TableBlockSource source(db.GetTable("susy").ValueOrDie(), 16 * 1024);
  ASSERT_EQ(source.num_blocks(), 27u);
  const std::vector<std::pair<uint32_t, StatusCode>> kBad = {
      {4, StatusCode::kIoError},
      {8, StatusCode::kIoError},
      {21, StatusCode::kCorruption},
      {22, StatusCode::kCorruption}};
  EXPECT_EQ(BadBlocks(&source), kBad);
}

std::vector<ChaosRule> GoldenRecordRules() {
  return {MediaRule(kRecordRead, ChaosAction::kLatencySpike, 0.02, 1, 25.0),
          MediaRule(kRecordAppend, ChaosAction::kTornWrite, 0.0005)};
}

TEST(MediaFaultGoldenTest, RecordFileTrainDistributedUnderSpikesAndTears) {
  const uint64_t seed = 33;
  FAULT_SCENARIO_TRACE(seed);
  auto spec = CatalogLookup("susy", 0.05);
  Dataset ds = GenerateDataset(*spec, DataOrder::kClustered);
  const std::string path = "media_golden.bin";
  RemoveOnExit cleanup{{path, path + ".idx"}};
  std::unique_ptr<RecordFileBlockSource> source;
  SimClock clock;
  IoStats io;
  {
    ScopedMediaFaults faults(seed, GoldenRecordRules());
    auto materialized =
        MaterializeRecordFile(ds.MakeSchema(), *ds.train, path, 2048);
    ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();
    source = std::move(*materialized);
    source->SetIoAccounting(DeviceProfile::Ssd(), &clock, &io);

    DistributedTrainerOptions opts;
    opts.num_workers = 4;
    opts.global_batch_size = 64;
    opts.epochs = 3;
    opts.lr.initial = 0.01;
    opts.test_set = ds.test.get();
    opts.label_type = ds.MakeSchema().label_type;
    opts.shuffle_blocks = false;
    opts.clock = &clock;
    opts.failure_policy = WorkerFailurePolicy::kDropAndRescale;
    opts.straggler_deadline_sim_seconds = 5.0;
    LogisticRegression model(ds.spec.dim);
    auto result = TrainDistributed(&model, source.get(), opts);
    ASSERT_TRUE(result.ok()) << result.status().ToString();

    ASSERT_EQ(result->dropped_workers.size(), 2u);
    EXPECT_EQ(result->dropped_workers[0].worker_id, 2u);
    EXPECT_EQ(result->dropped_workers[0].epoch, 0u);
    EXPECT_EQ(result->dropped_workers[0].code, StatusCode::kDeadlineExceeded);
    EXPECT_EQ(result->dropped_workers[1].worker_id, 3u);
    EXPECT_EQ(result->dropped_workers[1].epoch, 0u);
    EXPECT_EQ(result->dropped_workers[1].code, StatusCode::kCorruption);
    ASSERT_EQ(result->epochs.size(), 3u);
    const uint64_t kSeen[] = {1972, 1140, 1140};
    const double kBarrier[] = {0x1.90039a3ac8755p+4, 0x1.4640cc543p-10,
                               0x1.4640cc543p-10};
    for (size_t e = 0; e < 3; ++e) {
      EXPECT_EQ(result->epochs[e].tuples_seen, kSeen[e]) << "epoch " << e;
      // Barriers are deltas of the clock's total, which also holds the
      // measured compute time, so their last bits vary from run to run.
      EXPECT_NEAR(result->epochs[e].barrier_sim_seconds, kBarrier[e], 1e-12)
          << "epoch " << e;
    }
    const FaultPlaneStats stats = faults.stats();
    EXPECT_EQ(stats.injected_torn_writes, 1u);
    EXPECT_EQ(stats.injected_latency_spikes, 1u);
    EXPECT_EQ(stats.retries, 0u);
    EXPECT_EQ(stats.recovered, 0u);
    EXPECT_EQ(stats.permanent_failures, 0u);
    EXPECT_EQ(clock.Elapsed(TimeCategory::kRetryBackoff), 0.0);
    EXPECT_EQ(clock.Elapsed(TimeCategory::kIoRead), 0x1.9026aca72aec4p+4);
    const std::vector<double> kParams = {
        0x1.cbda5f7b8e6bep-3,  -0x1.7a81a695c5135p-4, 0x1.950855b0eb4cdp-6,
        -0x1.579cec9e450e4p-6, -0x1.1025a82a775f2p-7, 0x1.24fc6b84c3879p-4,
        0x1.11f6d8c7cd9f1p-6,  -0x1.67f1bcb4ce4bfp-5, -0x1.d77cb3101943ep-6,
        -0x1.9efd14853603p-5,  0x1.430d3da946ee5p-6,  0x1.01e2964a28e03p-5,
        0x1.de24639e665ap-6,   0x1.b18781cb210b9p-6,  -0x1.3262dd6999c3ep-6,
        0x1.688a0885ddfdbp-5,  0x1.315165d2efecep-6,  0x1.b139f1499503ap-5,
        -0x1.439f459344c2ap-2};
    EXPECT_EQ(model.params(), kParams);
  }
  // The torn record's block, the one that dropped worker 3.
  ScopedMediaFaults faults(seed, GoldenRecordRules());
  ASSERT_EQ(source->num_blocks(), 113u);
  const std::vector<std::pair<uint32_t, StatusCode>> kBad = {
      {111, StatusCode::kCorruption}};
  EXPECT_EQ(BadBlocks(source.get()), kBad);
}

// Arming the plane reaches every file without per-object plumbing: the
// Database's tables and shuffled copies, and the record-file writer and
// reader.
TEST(MediaFaultPlumbingTest, ArmingReachesEveryFile) {
  const uint64_t seed = 3;
  FAULT_SCENARIO_TRACE(seed);
  const std::string dir = TempPath("media_plumbing");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  Database db(dir, DeviceProfile::Memory(), /*buffer_pool_bytes=*/0);
  auto spec = CatalogLookup("susy", 0.02);
  Dataset ds = GenerateDataset(*spec, DataOrder::kClustered);
  // The shuffle source, written and read before any arming.
  ASSERT_TRUE(db.RegisterDataset("base", ds).ok());
  const uint64_t base_pages = db.GetTable("base").ValueOrDie()->num_pages();
  const std::vector<Tuple> rows(ds.train->begin(), ds.train->begin() + 40);
  {
    ScopedMediaFaults tears(
        seed, {MediaRule(kHeapAppend, ChaosAction::kTornWrite, 1.0),
               MediaRule(kRecordAppend, ChaosAction::kTornWrite, 1.0)});
    ASSERT_TRUE(db.CreateTable("t", ds.MakeSchema(), rows).ok());
    const uint64_t t_pages = db.GetTable("t").ValueOrDie()->num_pages();
    EXPECT_EQ(tears.stats().injected_torn_writes, t_pages);
    Page page;
    HeapFile* t_file = db.GetTable("t").ValueOrDie()->file();
    EXPECT_TRUE(t_file->ReadPage(0, &page).IsCorruption());

    // The copy is written torn, and TRAIN trips over it.
    TrainStatement stmt;
    stmt.table_name = "base";
    stmt.model_kind = "lr";
    stmt.params =
        Params::Parse("max_epoch_num=1, strategy=shuffle_once").ValueOrDie();
    auto trained = db.Train(stmt);
    ASSERT_FALSE(trained.ok());
    EXPECT_TRUE(trained.status().IsCorruption()) << trained.status().ToString();
    EXPECT_NE(trained.status().message().find("base.shuffled.tbl"),
              std::string::npos)
        << trained.status().ToString();
    EXPECT_EQ(tears.stats().injected_torn_writes, t_pages + base_pages);

    // A tear that zeroes a length field also breaks the block index.
    auto torn =
        MaterializeRecordFile(ds.MakeSchema(), rows, dir + "/torn.bin", 4096);
    EXPECT_TRUE(torn.ok() || torn.status().IsCorruption())
        << torn.status().ToString();
    EXPECT_EQ(tears.stats().injected_torn_writes,
              t_pages + base_pages + rows.size());
  }
  ScopedMediaFaults flips(
      seed, {MediaRule(kHeapRead, ChaosAction::kBitFlip, 1.0),
             MediaRule(kRecordRead, ChaosAction::kBitFlip, 1.0)});
  Page page;
  HeapFile* base_file = db.GetTable("base").ValueOrDie()->file();
  EXPECT_TRUE(base_file->ReadPage(0, &page).IsCorruption());
  auto copy = HeapFile::Open(dir + "/base.shuffled.tbl", Page::kDefaultSize);
  ASSERT_TRUE(copy.ok()) << copy.status().ToString();
  EXPECT_TRUE((*copy)->ReadPage(0, &page).IsCorruption());
  auto records =
      MaterializeRecordFile(ds.MakeSchema(), rows, dir + "/rows.bin", 4096);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  std::vector<Tuple> out;
  EXPECT_TRUE((*records)->ReadBlock(0, &out).IsCorruption());
  EXPECT_EQ(flips.stats().injected_bit_flips, 3u);
}

// --- BufferManager under faults ------------------------------------------

TEST(BufferManagerFaultTest, EvictsLeastRecentlyUsed) {
  const std::string path = TempPath("bm_evict.tbl");
  auto file = MakeHeapFile(path, 512, 4);
  BufferManager bm(2 * 512);  // room for two pages

  ASSERT_TRUE(bm.Fetch(file.get(), 0).ok());
  ASSERT_TRUE(bm.Fetch(file.get(), 1).ok());
  ASSERT_TRUE(bm.Fetch(file.get(), 0).ok());  // touch 0 → 1 becomes LRU
  ASSERT_TRUE(bm.Fetch(file.get(), 2).ok());  // evicts 1

  EXPECT_TRUE(bm.Contains(file.get(), 0));
  EXPECT_FALSE(bm.Contains(file.get(), 1));
  EXPECT_TRUE(bm.Contains(file.get(), 2));
  EXPECT_EQ(bm.stats().evictions, 1u);
}

TEST(BufferManagerFaultTest, CorruptPageIsNeverCached) {
  const std::string path = TempPath("bm_corrupt.tbl");
  auto file = MakeHeapFile(path, 512, 2);
  FlipByteOnDisk(path, 512 + 400);  // page 1

  BufferManager bm(8 * 512);
  auto bad = bm.Fetch(file.get(), 1);
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsCorruption()) << bad.status().ToString();
  EXPECT_FALSE(bm.Contains(file.get(), 1));
  // The healthy page still caches normally.
  ASSERT_TRUE(bm.Fetch(file.get(), 0).ok());
  EXPECT_TRUE(bm.Contains(file.get(), 0));
}

TEST(BufferManagerFaultTest, FetchedPageSurvivesInvalidate) {
  const std::string path = TempPath("bm_pin.tbl");
  auto file = MakeHeapFile(path, 512, 1);
  BufferManager bm(8 * 512);
  auto page = bm.Fetch(file.get(), 0);
  ASSERT_TRUE(page.ok());
  const uint16_t before = (*page)->num_records();
  bm.Invalidate(file.get());
  EXPECT_FALSE(bm.Contains(file.get(), 0));
  // The shared_ptr keeps the evicted page alive and intact.
  EXPECT_EQ((*page)->num_records(), before);
  EXPECT_TRUE((*page)->Validate().ok());
}

TEST(BufferManagerFaultTest, InvalidateRacingFetchIsSafe) {
  const std::string path = TempPath("bm_race.tbl");
  auto file = MakeHeapFile(path, 512, 8);
  BufferManager bm(4 * 512);

  std::atomic<bool> stop{false};
  std::thread invalidator([&] {
    while (!stop.load()) bm.Invalidate(file.get());
  });
  for (int iter = 0; iter < 2000; ++iter) {
    auto page = bm.Fetch(file.get(), iter % 8);
    ASSERT_TRUE(page.ok());
    EXPECT_TRUE((*page)->Validate().ok());
    EXPECT_EQ((*page)->num_records(), 1u);
  }
  stop.store(true);
  invalidator.join();
}

}  // namespace
}  // namespace corgipile
