// Unit tests for storage/: tuple serialization, pages, heap files, buffer
// manager, compression, tables, block sources.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>

#include "exec/tuple_batch.h"
#include "storage/block_source.h"
#include "storage/buffer_manager.h"
#include "storage/compression.h"
#include "storage/heapfile.h"
#include "storage/page.h"
#include "storage/table.h"
#include "storage/tuple.h"
#include "util/rng.h"

namespace corgipile {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + name;
}

TEST(TupleTest, DenseRoundTrip) {
  Tuple t = MakeDenseTuple(42, -1.0, {1.0f, 2.5f, -3.0f});
  std::vector<uint8_t> buf;
  t.SerializeTo(&buf);
  EXPECT_EQ(buf.size(), t.SerializedSize());
  size_t consumed = 0;
  auto r = Tuple::Deserialize(buf.data(), buf.size(), &consumed);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(consumed, buf.size());
  EXPECT_EQ(*r, t);
  EXPECT_FALSE(r->sparse());
}

TEST(TupleTest, SparseRoundTrip) {
  Tuple t = MakeSparseTuple(7, 1.0, {3, 17, 99}, {0.5f, -1.5f, 2.0f});
  std::vector<uint8_t> buf;
  t.SerializeTo(&buf);
  size_t consumed = 0;
  auto r = Tuple::Deserialize(buf.data(), buf.size(), &consumed);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, t);
  EXPECT_TRUE(r->sparse());
}

TEST(TupleTest, DeserializeTruncatedFails) {
  Tuple t = MakeDenseTuple(1, 1.0, {1.0f, 2.0f});
  std::vector<uint8_t> buf;
  t.SerializeTo(&buf);
  size_t consumed = 0;
  auto r = Tuple::Deserialize(buf.data(), buf.size() - 3, &consumed);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption());
}

TEST(TupleTest, DotAndAxpy) {
  Tuple dense = MakeDenseTuple(0, 1.0, {1.0f, 2.0f, 3.0f});
  std::vector<double> w{1.0, 1.0, 1.0, 99.0};  // extra bias slot untouched
  EXPECT_DOUBLE_EQ(dense.Dot(w), 6.0);
  dense.AxpyInto(2.0, &w);
  EXPECT_DOUBLE_EQ(w[0], 3.0);
  EXPECT_DOUBLE_EQ(w[2], 7.0);
  EXPECT_DOUBLE_EQ(w[3], 99.0);

  Tuple sparse = MakeSparseTuple(0, 1.0, {0, 2}, {2.0f, 4.0f});
  std::vector<double> w2{1.0, 5.0, 1.0};
  EXPECT_DOUBLE_EQ(sparse.Dot(w2), 6.0);
  sparse.AxpyInto(1.0, &w2);
  EXPECT_DOUBLE_EQ(w2[0], 3.0);
  EXPECT_DOUBLE_EQ(w2[1], 5.0);
  EXPECT_DOUBLE_EQ(w2[2], 5.0);
}

TEST(TupleTest, SquaredNorm) {
  Tuple t = MakeDenseTuple(0, 1.0, {3.0f, 4.0f});
  EXPECT_DOUBLE_EQ(t.SquaredNorm(), 25.0);
}

TEST(PageTest, AddAndReadRecords) {
  Page page(512);
  const uint16_t before = page.num_records();
  EXPECT_EQ(before, 0);
  std::vector<uint8_t> rec1{1, 2, 3};
  std::vector<uint8_t> rec2{9, 8, 7, 6};
  ASSERT_TRUE(page.AddRecord(rec1.data(), rec1.size()));
  ASSERT_TRUE(page.AddRecord(rec2.data(), rec2.size()));
  EXPECT_EQ(page.num_records(), 2);
  auto [p1, l1] = page.Record(0);
  EXPECT_EQ(l1, 3u);
  EXPECT_EQ(p1[0], 1);
  auto [p2, l2] = page.Record(1);
  EXPECT_EQ(l2, 4u);
  EXPECT_EQ(p2[3], 6);
}

TEST(PageTest, RejectsWhenFull) {
  Page page(64);
  std::vector<uint8_t> rec(40, 0xAB);
  EXPECT_TRUE(page.AddRecord(rec.data(), rec.size()));
  EXPECT_FALSE(page.AddRecord(rec.data(), rec.size()));
}

TEST(PageTest, FreeSpaceShrinks) {
  Page page(256);
  const uint32_t before = page.free_space();
  std::vector<uint8_t> rec(10, 1);
  ASSERT_TRUE(page.AddRecord(rec.data(), rec.size()));
  EXPECT_EQ(page.free_space(), before - 10 - Page::kSlotBytes);
}

TEST(PageTest, ClearResets) {
  Page page(128);
  std::vector<uint8_t> rec{1};
  ASSERT_TRUE(page.AddRecord(rec.data(), rec.size()));
  page.Clear();
  EXPECT_EQ(page.num_records(), 0);
}

TEST(HeapFileTest, CreateAppendRead) {
  const std::string path = TempPath("hf_basic.dat");
  auto hf = HeapFile::Create(path, 512);
  ASSERT_TRUE(hf.ok());
  Page page(512);
  std::vector<uint8_t> rec{5, 5, 5};
  ASSERT_TRUE(page.AddRecord(rec.data(), rec.size()));
  ASSERT_TRUE((*hf)->AppendPage(page).ok());
  ASSERT_TRUE((*hf)->AppendPage(page).ok());
  EXPECT_EQ((*hf)->num_pages(), 2u);

  Page out(512);
  ASSERT_TRUE((*hf)->ReadPage(1, &out).ok());
  EXPECT_EQ(out.num_records(), 1);
  auto [data, len] = out.Record(0);
  EXPECT_EQ(len, 3u);
  EXPECT_EQ(data[0], 5);
  std::remove(path.c_str());
}

TEST(HeapFileTest, ReadPastEndFails) {
  const std::string path = TempPath("hf_oob.dat");
  auto hf = HeapFile::Create(path, 512);
  ASSERT_TRUE(hf.ok());
  Page out(512);
  EXPECT_TRUE((*hf)->ReadPage(0, &out).IsOutOfRange());
  std::remove(path.c_str());
}

TEST(HeapFileTest, OpenExisting) {
  const std::string path = TempPath("hf_reopen.dat");
  {
    auto hf = HeapFile::Create(path, 256);
    ASSERT_TRUE(hf.ok());
    Page page(256);
    std::vector<uint8_t> rec{1, 2};
    page.AddRecord(rec.data(), rec.size());
    ASSERT_TRUE((*hf)->AppendPage(page).ok());
  }
  auto hf = HeapFile::Open(path, 256);
  ASSERT_TRUE(hf.ok());
  EXPECT_EQ((*hf)->num_pages(), 1u);
  std::remove(path.c_str());
}

TEST(HeapFileTest, SequentialVsRandomAccounting) {
  const std::string path = TempPath("hf_acct.dat");
  auto hf = HeapFile::Create(path, 512);
  ASSERT_TRUE(hf.ok());
  Page page(512);
  std::vector<uint8_t> rec{1};
  page.AddRecord(rec.data(), rec.size());
  for (int i = 0; i < 10; ++i) ASSERT_TRUE((*hf)->AppendPage(page).ok());

  SimClock clock;
  IoStats stats;
  (*hf)->SetIoAccounting(DeviceProfile::Hdd(), &clock, &stats);

  Page out(512);
  // First read: random (fresh cursor). Then 0→1→2 sequential.
  ASSERT_TRUE((*hf)->ReadPage(0, &out).ok());
  ASSERT_TRUE((*hf)->ReadPage(1, &out).ok());
  ASSERT_TRUE((*hf)->ReadPage(2, &out).ok());
  EXPECT_EQ(stats.random_reads, 1u);
  EXPECT_EQ(stats.sequential_reads, 2u);

  // Jumping backwards is random again.
  ASSERT_TRUE((*hf)->ReadPage(0, &out).ok());
  EXPECT_EQ(stats.random_reads, 2u);

  // ResetReadCursor forces a seek even for the "next" page.
  (*hf)->ResetReadCursor();
  ASSERT_TRUE((*hf)->ReadPage(1, &out).ok());
  EXPECT_EQ(stats.random_reads, 3u);

  EXPECT_GT(clock.Elapsed(TimeCategory::kIoRead), 3 * 8e-3);  // 3 seeks
  std::remove(path.c_str());
}

TEST(HeapFileTest, ReadPagesContiguousBilledOnce) {
  const std::string path = TempPath("hf_block.dat");
  auto hf = HeapFile::Create(path, 512);
  ASSERT_TRUE(hf.ok());
  Page page(512);
  std::vector<uint8_t> rec{1};
  page.AddRecord(rec.data(), rec.size());
  for (int i = 0; i < 8; ++i) ASSERT_TRUE((*hf)->AppendPage(page).ok());

  SimClock clock;
  IoStats stats;
  (*hf)->SetIoAccounting(DeviceProfile::Hdd(), &clock, &stats);
  std::vector<Page> pages;
  ASSERT_TRUE((*hf)->ReadPages(2, 4, &pages).ok());
  EXPECT_EQ(pages.size(), 4u);
  EXPECT_EQ(stats.random_reads + stats.sequential_reads, 1u);
  EXPECT_EQ(stats.bytes_read, 4 * 512u);
  std::remove(path.c_str());
}

TEST(BufferManagerTest, HitsAndMisses) {
  const std::string path = TempPath("bm.dat");
  auto hf = HeapFile::Create(path, 512);
  ASSERT_TRUE(hf.ok());
  Page page(512);
  std::vector<uint8_t> rec{1};
  page.AddRecord(rec.data(), rec.size());
  for (int i = 0; i < 4; ++i) ASSERT_TRUE((*hf)->AppendPage(page).ok());

  BufferManager bm(10 * 512);
  ASSERT_TRUE(bm.Fetch(hf->get(), 0).ok());
  ASSERT_TRUE(bm.Fetch(hf->get(), 0).ok());
  ASSERT_TRUE(bm.Fetch(hf->get(), 1).ok());
  EXPECT_EQ(bm.stats().hits, 1u);
  EXPECT_EQ(bm.stats().misses, 2u);
  std::remove(path.c_str());
}

TEST(BufferManagerTest, EvictsLru) {
  const std::string path = TempPath("bm_evict.dat");
  auto hf = HeapFile::Create(path, 512);
  ASSERT_TRUE(hf.ok());
  Page page(512);
  std::vector<uint8_t> rec{1};
  page.AddRecord(rec.data(), rec.size());
  for (int i = 0; i < 4; ++i) ASSERT_TRUE((*hf)->AppendPage(page).ok());

  BufferManager bm(2 * 512);  // room for 2 pages
  ASSERT_TRUE(bm.Fetch(hf->get(), 0).ok());
  ASSERT_TRUE(bm.Fetch(hf->get(), 1).ok());
  ASSERT_TRUE(bm.Fetch(hf->get(), 2).ok());  // evicts page 0
  EXPECT_EQ(bm.stats().evictions, 1u);
  ASSERT_TRUE(bm.Fetch(hf->get(), 0).ok());  // miss again
  EXPECT_EQ(bm.stats().misses, 4u);
  std::remove(path.c_str());
}

TEST(BufferManagerTest, InvalidateDropsPages) {
  const std::string path = TempPath("bm_inval.dat");
  auto hf = HeapFile::Create(path, 512);
  ASSERT_TRUE(hf.ok());
  Page page(512);
  std::vector<uint8_t> rec{1};
  page.AddRecord(rec.data(), rec.size());
  ASSERT_TRUE((*hf)->AppendPage(page).ok());
  BufferManager bm(512 * 8);
  ASSERT_TRUE(bm.Fetch(hf->get(), 0).ok());
  bm.Invalidate();
  ASSERT_TRUE(bm.Fetch(hf->get(), 0).ok());
  EXPECT_EQ(bm.stats().misses, 2u);
  std::remove(path.c_str());
}

TEST(CompressionTest, RoundTripZeroHeavy) {
  Rng rng(5);
  std::vector<uint8_t> input;
  for (int i = 0; i < 10000; ++i) {
    input.push_back(rng.NextBool(0.7) ? 0 : static_cast<uint8_t>(rng.Uniform(256)));
  }
  std::vector<uint8_t> compressed, output;
  CompressBytes(input, &compressed);
  EXPECT_LT(compressed.size(), input.size());
  ASSERT_TRUE(DecompressBytes(compressed.data(), compressed.size(), &output).ok());
  EXPECT_EQ(output, input);
}

TEST(CompressionTest, RoundTripIncompressible) {
  Rng rng(6);
  std::vector<uint8_t> input;
  for (int i = 0; i < 5000; ++i) {
    input.push_back(static_cast<uint8_t>(1 + rng.Uniform(255)));
  }
  std::vector<uint8_t> compressed, output;
  CompressBytes(input, &compressed);
  // Expansion bounded by ~1/128 control overhead.
  EXPECT_LT(compressed.size(), input.size() + input.size() / 64 + 16);
  ASSERT_TRUE(DecompressBytes(compressed.data(), compressed.size(), &output).ok());
  EXPECT_EQ(output, input);
}

TEST(CompressionTest, EmptyInput) {
  std::vector<uint8_t> compressed, output;
  CompressBytes({}, &compressed);
  EXPECT_TRUE(compressed.empty());
  ASSERT_TRUE(DecompressBytes(compressed.data(), 0, &output).ok());
  EXPECT_TRUE(output.empty());
}

TEST(CompressionTest, TruncatedInputIsCorruption) {
  std::vector<uint8_t> input(100, 42), compressed, output;
  CompressBytes(input, &compressed);
  EXPECT_TRUE(DecompressBytes(compressed.data(), compressed.size() - 1, &output)
                  .IsCorruption());
}

std::vector<Tuple> MakeTuples(size_t n, uint32_t dim) {
  Rng rng(99);
  std::vector<Tuple> out;
  for (size_t i = 0; i < n; ++i) {
    std::vector<float> vals(dim);
    for (auto& v : vals) v = static_cast<float>(rng.NextGaussian());
    out.push_back(MakeDenseTuple(i, i % 2 ? 1.0 : -1.0, std::move(vals)));
  }
  return out;
}

TEST(TableTest, BuildScanRoundTrip) {
  const std::string path = TempPath("tbl_roundtrip.dat");
  Schema schema{"t", 8, false, LabelType::kBinary, 2};
  auto tuples = MakeTuples(500, 8);
  TableBuilder builder(schema, path, TableOptions{512, false});
  for (const auto& t : tuples) ASSERT_TRUE(builder.Append(t).ok());
  auto table = builder.Finish();
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->num_tuples(), 500u);

  std::vector<Tuple> scanned;
  ASSERT_TRUE((*table)
                  ->Scan([&](const Tuple& t) {
                    scanned.push_back(t);
                    return Status::OK();
                  })
                  .ok());
  ASSERT_EQ(scanned.size(), tuples.size());
  for (size_t i = 0; i < tuples.size(); ++i) EXPECT_EQ(scanned[i], tuples[i]);
  std::remove(path.c_str());
}

TEST(TableTest, ReadTupleAtMatchesOrder) {
  const std::string path = TempPath("tbl_at.dat");
  Schema schema{"t", 4, false, LabelType::kBinary, 2};
  auto tuples = MakeTuples(200, 4);
  TableBuilder builder(schema, path, TableOptions{512, false});
  for (const auto& t : tuples) ASSERT_TRUE(builder.Append(t).ok());
  auto table = builder.Finish();
  ASSERT_TRUE(table.ok());
  for (uint64_t idx : {0ULL, 57ULL, 123ULL, 199ULL}) {
    auto t = (*table)->ReadTupleAt(idx);
    ASSERT_TRUE(t.ok());
    EXPECT_EQ(*t, tuples[idx]);
  }
  EXPECT_FALSE((*table)->ReadTupleAt(200).ok());
  std::remove(path.c_str());
}

TEST(TableTest, CompressedRoundTripAndDecompressBilling) {
  const std::string path = TempPath("tbl_comp.dat");
  Schema schema{"t", 64, false, LabelType::kBinary, 2};
  // Zero-heavy features so compression bites.
  Rng rng(3);
  std::vector<Tuple> tuples;
  for (size_t i = 0; i < 100; ++i) {
    std::vector<float> vals(64, 0.0f);
    for (int k = 0; k < 8; ++k) {
      vals[rng.Uniform(64)] = static_cast<float>(rng.NextGaussian());
    }
    tuples.push_back(MakeDenseTuple(i, 1.0, std::move(vals)));
  }
  TableBuilder builder(schema, path, TableOptions{4096, true});
  for (const auto& t : tuples) ASSERT_TRUE(builder.Append(t).ok());
  auto table = builder.Finish();
  ASSERT_TRUE(table.ok());

  SimClock clock;
  (*table)->SetIoAccounting(DeviceProfile::Memory(), &clock, nullptr);
  std::vector<Tuple> read;
  ASSERT_TRUE((*table)->ReadTuplesFromPages(0, (*table)->num_pages(), &read).ok());
  ASSERT_EQ(read.size(), tuples.size());
  for (size_t i = 0; i < tuples.size(); ++i) EXPECT_EQ(read[i], tuples[i]);
  EXPECT_GT(clock.Elapsed(TimeCategory::kDecompress), 0.0);
  std::remove(path.c_str());
}

TEST(TableTest, TupleLargerThanPageRejected) {
  const std::string path = TempPath("tbl_big.dat");
  Schema schema{"t", 1000, false, LabelType::kBinary, 2};
  TableBuilder builder(schema, path, TableOptions{512, false});
  std::vector<float> vals(1000, 1.0f);
  EXPECT_TRUE(builder.Append(MakeDenseTuple(0, 1.0, vals)).IsInvalidArgument());
  std::remove(path.c_str());
}

TEST(BlockSourceTest, InMemoryBlocks) {
  Schema schema{"t", 4, false, LabelType::kBinary, 2};
  auto tuples = std::make_shared<std::vector<Tuple>>(MakeTuples(25, 4));
  InMemoryBlockSource src(schema, tuples, 10);
  EXPECT_EQ(src.num_blocks(), 3u);
  EXPECT_EQ(src.num_tuples(), 25u);
  EXPECT_EQ(src.TuplesInBlock(0), 10u);
  EXPECT_EQ(src.TuplesInBlock(2), 5u);
  std::vector<Tuple> block;
  ASSERT_TRUE(src.ReadBlock(2, &block).ok());
  EXPECT_EQ(block.size(), 5u);
  EXPECT_EQ(block[0].id, 20u);
  EXPECT_FALSE(src.ReadBlock(3, &block).ok());
}

TEST(BlockSourceTest, TableBlocksCoverAllTuples) {
  const std::string path = TempPath("tbl_blocks.dat");
  Schema schema{"t", 8, false, LabelType::kBinary, 2};
  auto tuples = MakeTuples(300, 8);
  TableBuilder builder(schema, path, TableOptions{512, false});
  for (const auto& t : tuples) ASSERT_TRUE(builder.Append(t).ok());
  auto table = builder.Finish();
  ASSERT_TRUE(table.ok());

  TableBlockSource src(table->get(), 2048);  // 4 pages per block
  EXPECT_EQ(src.pages_per_block(), 4u);
  std::vector<Tuple> all;
  for (uint32_t b = 0; b < src.num_blocks(); ++b) {
    const size_t before = all.size();
    ASSERT_TRUE(src.ReadBlock(b, &all).ok());
    EXPECT_EQ(all.size() - before, src.TuplesInBlock(b));
  }
  ASSERT_EQ(all.size(), tuples.size());
  for (size_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i], tuples[i]);
  std::remove(path.c_str());
}

TEST(TableBufferManagerTest, SecondEpochIsFree) {
  const std::string path = TempPath("tbl_bm.dat");
  Schema schema{"t", 8, false, LabelType::kBinary, 2};
  auto tuples = MakeTuples(400, 8);
  TableBuilder builder(schema, path, TableOptions{512, false});
  for (const auto& t : tuples) ASSERT_TRUE(builder.Append(t).ok());
  auto table = builder.Finish();
  ASSERT_TRUE(table.ok());

  SimClock clock;
  IoStats stats;
  (*table)->SetIoAccounting(DeviceProfile::Hdd(), &clock, &stats);
  BufferManager bm(1 << 20);  // plenty for the whole table
  (*table)->SetBufferManager(&bm);

  std::vector<Tuple> out;
  ASSERT_TRUE((*table)->ReadTuplesFromPages(0, (*table)->num_pages(), &out).ok());
  ASSERT_EQ(out.size(), tuples.size());
  const double after_first = clock.Elapsed(TimeCategory::kIoRead);
  EXPECT_GT(after_first, 0.0);

  // Second pass: everything cached, no new device time.
  out.clear();
  (*table)->ResetReadCursor();
  ASSERT_TRUE((*table)->ReadTuplesFromPages(0, (*table)->num_pages(), &out).ok());
  ASSERT_EQ(out.size(), tuples.size());
  EXPECT_DOUBLE_EQ(clock.Elapsed(TimeCategory::kIoRead), after_first);
  for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], tuples[i]);
  std::remove(path.c_str());
}

TEST(TableBufferManagerTest, SmallPoolStillPaysIo) {
  const std::string path = TempPath("tbl_bm_small.dat");
  Schema schema{"t", 8, false, LabelType::kBinary, 2};
  auto tuples = MakeTuples(400, 8);
  TableBuilder builder(schema, path, TableOptions{512, false});
  for (const auto& t : tuples) ASSERT_TRUE(builder.Append(t).ok());
  auto table = builder.Finish();
  ASSERT_TRUE(table.ok());

  SimClock clock;
  (*table)->SetIoAccounting(DeviceProfile::Hdd(), &clock, nullptr);
  BufferManager bm(4 * 512);  // only 4 pages: thrashes
  (*table)->SetBufferManager(&bm);
  std::vector<Tuple> out;
  ASSERT_TRUE((*table)->ReadTuplesFromPages(0, (*table)->num_pages(), &out).ok());
  const double after_first = clock.Elapsed(TimeCategory::kIoRead);
  out.clear();
  (*table)->ResetReadCursor();
  ASSERT_TRUE((*table)->ReadTuplesFromPages(0, (*table)->num_pages(), &out).ok());
  EXPECT_GT(clock.Elapsed(TimeCategory::kIoRead), 1.5 * after_first);
  std::remove(path.c_str());
}

TEST(TableBufferManagerTest, MixedRunsDecodeInOrder) {
  // Pre-cache every other page, then read a range: cached and uncached
  // pages must interleave back in the right order.
  const std::string path = TempPath("tbl_bm_mix.dat");
  Schema schema{"t", 4, false, LabelType::kBinary, 2};
  auto tuples = MakeTuples(300, 4);
  TableBuilder builder(schema, path, TableOptions{512, false});
  for (const auto& t : tuples) ASSERT_TRUE(builder.Append(t).ok());
  auto table = builder.Finish();
  ASSERT_TRUE(table.ok());
  BufferManager bm(1 << 20);
  (*table)->SetBufferManager(&bm);
  for (uint64_t p = 0; p < (*table)->num_pages(); p += 2) {
    ASSERT_TRUE(bm.Fetch((*table)->file(), p).ok());
  }
  std::vector<Tuple> out;
  ASSERT_TRUE((*table)->ReadTuplesFromPages(0, (*table)->num_pages(), &out).ok());
  ASSERT_EQ(out.size(), tuples.size());
  for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], tuples[i]);
  std::remove(path.c_str());
}

TEST(TableBufferManagerTest, BlockReadCountsMissesThenHits) {
  const std::string path = TempPath("tbl_bm_miss.dat");
  Schema schema{"t", 8, false, LabelType::kBinary, 2};
  auto tuples = MakeTuples(400, 8);
  TableBuilder builder(schema, path, TableOptions{512, false});
  for (const auto& t : tuples) ASSERT_TRUE(builder.Append(t).ok());
  auto table = builder.Finish();
  ASSERT_TRUE(table.ok());
  const uint64_t pages = (*table)->num_pages();
  ASSERT_GT(pages, 1u);
  BufferManager bm(1 << 20);
  (*table)->SetBufferManager(&bm);

  std::vector<Tuple> out;
  ASSERT_TRUE((*table)->ReadTuplesFromPages(0, pages, &out).ok());
  EXPECT_EQ(bm.stats().misses, pages);
  EXPECT_EQ(bm.stats().hits, 0u);

  ASSERT_TRUE((*table)->ReadTuplesFromPages(0, pages, &out).ok());
  EXPECT_EQ(bm.stats().hits, pages);
  EXPECT_EQ(bm.stats().misses, pages);
  EXPECT_DOUBLE_EQ(bm.stats().HitRate(), 0.5);
  std::remove(path.c_str());
}

TEST(BufferManagerTest, InsertAndContains) {
  const std::string path = TempPath("bm_ins.dat");
  auto hf = HeapFile::Create(path, 512);
  ASSERT_TRUE(hf.ok());
  Page page(512);
  std::vector<uint8_t> rec{9};
  page.AddRecord(rec.data(), rec.size());
  ASSERT_TRUE((*hf)->AppendPage(page).ok());

  BufferManager bm(8 * 512);
  EXPECT_FALSE(bm.Contains(hf->get(), 0));
  bm.Insert(hf->get(), 0, std::make_shared<const Page>(page));
  EXPECT_TRUE(bm.Contains(hf->get(), 0));
  // Fetch of an inserted page is a hit, no file read.
  auto fetched = bm.Fetch(hf->get(), 0);
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(bm.stats().hits, 1u);
  EXPECT_EQ(bm.stats().misses, 0u);
  // Duplicate insert is a no-op.
  bm.Insert(hf->get(), 0, std::make_shared<const Page>(page));
  EXPECT_TRUE(bm.Contains(hf->get(), 0));
  std::remove(path.c_str());
}

// --- MVCC table snapshots (DESIGN.md §14) ----------------------------------

TEST(TableSnapshotTest, SnapshotIsImmutableAcrossAppend) {
  const std::string path = TempPath("tbl_snap.dat");
  Schema schema{"t", 4, false, LabelType::kBinary, 2};
  auto tuples = MakeTuples(120, 4);
  TableBuilder builder(schema, path, TableOptions{512, false});
  for (const auto& t : tuples) ASSERT_TRUE(builder.Append(t).ok());
  auto table = builder.Finish();
  ASSERT_TRUE(table.ok());

  TableSnapshot snap = (*table)->Snapshot();
  EXPECT_EQ(snap.num_tuples(), 120u);
  const uint64_t pages_before = snap.num_pages();

  auto extra = MakeTuples(80, 4);
  ASSERT_TRUE((*table)->AppendTuples(extra).ok());

  // The captured snapshot still bounds reads at its creation point…
  EXPECT_EQ(snap.num_tuples(), 120u);
  EXPECT_EQ(snap.num_pages(), pages_before);
  std::vector<Tuple> scanned;
  ASSERT_TRUE(snap.Scan([&](const Tuple& t) {
                    scanned.push_back(t);
                    return Status::OK();
                  })
                  .ok());
  ASSERT_EQ(scanned.size(), 120u);
  for (size_t i = 0; i < scanned.size(); ++i) EXPECT_EQ(scanned[i], tuples[i]);
  EXPECT_TRUE(snap.ReadTupleAt(120).status().IsOutOfRange());

  // …while a fresh snapshot sees the published append.
  TableSnapshot fresh = (*table)->Snapshot();
  EXPECT_EQ(fresh.num_tuples(), 200u);
  EXPECT_EQ(*fresh.ReadTupleAt(120), extra[0]);
  std::remove(path.c_str());
}

// --- sharded tables --------------------------------------------------------

TEST(ShardedTableTest, ShardPathKeepsLegacyNameForShardZero) {
  EXPECT_EQ(ShardedTable::ShardPath("/d/t", 0), "/d/t.tbl");
  EXPECT_EQ(ShardedTable::ShardPath("/d/t", 1), "/d/t.shard1.tbl");
  EXPECT_EQ(ShardedTable::ShardPath("/d/t", 7), "/d/t.shard7.tbl");
}

TEST(ShardedTableTest, RoundRobinPlacementAndBalance) {
  const std::string base = TempPath("sharded_rr");
  Schema schema{"t", 4, false, LabelType::kBinary, 2};
  auto tuples = MakeTuples(100, 4);
  auto table =
      ShardedTable::Create(base, schema, TableOptions{512, false}, tuples, 3);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ((*table)->num_shards(), 3u);
  EXPECT_EQ((*table)->num_tuples(), 100u);
  // 100 over 3 shards round-robin: 34/33/33.
  EXPECT_EQ((*table)->shard(0)->num_tuples(), 34u);
  EXPECT_EQ((*table)->shard(1)->num_tuples(), 33u);
  EXPECT_EQ((*table)->shard(2)->num_tuples(), 33u);
  // Tuple i lives in shard i % 3 at local position i / 3.
  for (uint64_t i : {0ULL, 1ULL, 2ULL, 50ULL, 99ULL}) {
    auto t = (*table)->shard(i % 3)->ReadTupleAt(i / 3);
    ASSERT_TRUE(t.ok());
    EXPECT_EQ(*t, tuples[i]) << "tuple " << i;
  }
}

TEST(ShardedTableTest, AppendContinuesRoundRobinAndPublishesAtomically) {
  const std::string base = TempPath("sharded_append");
  Schema schema{"t", 4, false, LabelType::kBinary, 2};
  auto tuples = MakeTuples(10, 4);
  auto table =
      ShardedTable::Create(base, schema, TableOptions{512, false}, tuples, 4);
  ASSERT_TRUE(table.ok());

  ShardedSnapshot before = (*table)->Snapshot();
  auto extra = MakeTuples(7, 4);
  ASSERT_TRUE((*table)->AppendTuples(extra).ok());
  EXPECT_EQ(before.num_tuples(), 10u);  // old snapshot unaffected

  // Global position 10 continues at shard 10 % 4 = 2.
  ShardedSnapshot after = (*table)->Snapshot();
  EXPECT_EQ(after.num_tuples(), 17u);
  auto t10 = after.shard(2).ReadTupleAt(10 / 4);
  ASSERT_TRUE(t10.ok());
  EXPECT_EQ(*t10, extra[0]);
}

TEST(ShardedTableTest, OpenRoundTripsAllShards) {
  const std::string base = TempPath("sharded_reopen");
  Schema schema{"t", 4, false, LabelType::kBinary, 2};
  auto tuples = MakeTuples(41, 4);
  {
    auto table = ShardedTable::Create(base, schema, TableOptions{512, false},
                                      tuples, 2);
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE((*table)->AppendTuples(MakeTuples(5, 4)).ok());
  }
  auto reopened =
      ShardedTable::Open(base, schema, TableOptions{512, false}, 2);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->num_tuples(), 46u);
  EXPECT_EQ((*reopened)->num_shards(), 2u);
  // Missing shard file fails cleanly.
  EXPECT_FALSE(
      ShardedTable::Open(base, schema, TableOptions{512, false}, 3).ok());
}

TEST(SnapshotBlockSourceTest, ShardMajorBlocksCoverAllTuples) {
  const std::string base = TempPath("snap_blocks");
  Schema schema{"t", 4, false, LabelType::kBinary, 2};
  auto tuples = MakeTuples(90, 4);
  auto table =
      ShardedTable::Create(base, schema, TableOptions{512, false}, tuples, 2);
  ASSERT_TRUE(table.ok());

  SnapshotBlockSource source((*table)->Snapshot(), /*block_size_bytes=*/1024);
  EXPECT_EQ(source.num_tuples(), 90u);
  uint64_t covered = 0;
  std::vector<Tuple> all;
  for (uint32_t b = 0; b < source.num_blocks(); ++b) {
    covered += source.TuplesInBlock(b);
    ASSERT_TRUE(source.ReadBlock(b, &all).ok());
  }
  EXPECT_EQ(covered, 90u);
  ASSERT_EQ(all.size(), 90u);
  // Shard-major enumeration: shard 0's tuples (even ids) first.
  EXPECT_EQ(all.front(), tuples[0]);
  EXPECT_EQ(all[1], tuples[2]);
  EXPECT_FALSE(source.ReadBlock(source.num_blocks(), &all).ok());
}

// --- Decoding pages straight into a TupleBatch ------------------------------

// Row-for-row, bit-for-bit equality of two batches, layout flags included.
void ExpectSameBatch(const TupleBatch& got, const TupleBatch& want) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(got.uniform_dense(), want.uniform_dense());
  EXPECT_EQ(got.uniform_dim(), want.uniform_dim());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got.id(i), want.id(i)) << "row " << i;
    ASSERT_EQ(std::memcmp(&got.labels_data()[i], &want.labels_data()[i],
                          sizeof(double)),
              0)
        << "row " << i;
    ASSERT_EQ(got.sparse(i), want.sparse(i)) << "row " << i;
    ASSERT_EQ(got.nnz(i), want.nnz(i)) << "row " << i;
    const size_t n = want.nnz(i);
    if (n == 0) continue;
    ASSERT_EQ(std::memcmp(got.values(i), want.values(i), n * sizeof(float)), 0)
        << "row " << i;
    if (want.sparse(i)) {
      ASSERT_EQ(std::memcmp(got.keys(i), want.keys(i), n * sizeof(uint32_t)),
                0)
          << "row " << i;
    }
  }
}

enum class DecodeShape { kDense, kSparse, kMixedWidth, kZeroNnz };

std::vector<Tuple> MakeShapedTuples(DecodeShape shape, size_t n) {
  Rng rng(2024);
  std::vector<Tuple> out;
  for (size_t i = 0; i < n; ++i) {
    const double label = rng.NextBool() ? 1.0 : -1.0;
    const bool sparse_row =
        shape == DecodeShape::kSparse ||
        ((shape == DecodeShape::kMixedWidth || shape == DecodeShape::kZeroNnz) &&
         i % 3 == 1);
    size_t width = 6;
    if (shape == DecodeShape::kMixedWidth) width = 1 + rng.Uniform(9);
    if (shape == DecodeShape::kZeroNnz && i % 3 != 1) width = i % 2 ? 0 : 3;
    if (sparse_row) {
      std::vector<uint32_t> keys;
      std::vector<float> vals;
      for (uint32_t k = 0; k < 40 && keys.size() < 5; ++k) {
        if (rng.NextBool(0.3)) {
          keys.push_back(k);
          vals.push_back(static_cast<float>(rng.NextGaussian()));
        }
      }
      if (keys.empty()) {
        keys.push_back(7);
        vals.push_back(-0.0f);
      }
      out.push_back(MakeSparseTuple(i, label, std::move(keys), std::move(vals)));
    } else {
      std::vector<float> vals(width);
      for (auto& v : vals) v = static_cast<float>(rng.NextGaussian());
      out.push_back(MakeDenseTuple(i, label, std::move(vals)));
    }
  }
  return out;
}

struct DecodeCase {
  DecodeShape shape;
  bool compress;
  bool pool;
};

class TableBatchReadTest : public ::testing::TestWithParam<DecodeCase> {};

// The batch sink against the Tuple sink + per-row TupleBatch::Append: same
// rows, same layout flags, same simulated I/O and decompression time, same
// pool counters, for whole-table and block-by-block reads.
TEST_P(TableBatchReadTest, MatchesTupleReadPlusAppend) {
  const DecodeCase c = GetParam();
  const std::string path =
      TempPath("tbl_batch_read_" + std::to_string(static_cast<int>(c.shape)) +
               (c.compress ? "_z" : "") + (c.pool ? "_pool" : "") + ".dat");
  Schema schema{"t", 40, c.shape == DecodeShape::kSparse, LabelType::kBinary,
                2};
  auto tuples = MakeShapedTuples(c.shape, 300);
  TableBuilder builder(schema, path, TableOptions{512, c.compress});
  for (const auto& t : tuples) ASSERT_TRUE(builder.Append(t).ok());
  auto table = builder.Finish();
  ASSERT_TRUE(table.ok());
  const uint64_t pages = (*table)->num_pages();
  ASSERT_GT(pages, 4u);
  const TableSnapshot snap = (*table)->Snapshot();

  for (const uint64_t block_pages : {pages, uint64_t{3}}) {
    SimClock tuple_clock;
    SimClock batch_clock;
    BufferManager tuple_pool(1 << 20);
    BufferManager batch_pool(1 << 20);

    (*table)->SetIoAccounting(DeviceProfile::Hdd(), &tuple_clock, nullptr);
    (*table)->SetBufferManager(c.pool ? &tuple_pool : nullptr);
    (*table)->ResetReadCursor();
    TupleBatch want;
    for (uint64_t first = 0; first < pages; first += block_pages) {
      std::vector<Tuple> rows;
      ASSERT_TRUE(snap.ReadTuplesFromPages(
                          first, std::min(block_pages, pages - first), &rows)
                      .ok());
      for (const Tuple& t : rows) want.Append(t);
    }

    (*table)->SetIoAccounting(DeviceProfile::Hdd(), &batch_clock, nullptr);
    (*table)->SetBufferManager(c.pool ? &batch_pool : nullptr);
    (*table)->ResetReadCursor();
    TupleBatch got;
    for (uint64_t first = 0; first < pages; first += block_pages) {
      ASSERT_TRUE(snap.ReadTuplesFromPages(
                          first, std::min(block_pages, pages - first), &got)
                      .ok());
    }

    ASSERT_EQ(want.size(), tuples.size());
    ExpectSameBatch(got, want);
    for (size_t i = 0; i < tuples.size(); ++i) {
      EXPECT_EQ(got.ToTuple(i), tuples[i]) << "row " << i;
    }
    for (auto cat : {TimeCategory::kIoRead, TimeCategory::kDecompress}) {
      EXPECT_EQ(batch_clock.Elapsed(cat), tuple_clock.Elapsed(cat));
    }
    if (c.compress) {
      EXPECT_GT(batch_clock.Elapsed(TimeCategory::kDecompress), 0.0);
    }
    EXPECT_EQ(batch_pool.stats().hits, tuple_pool.stats().hits);
    EXPECT_EQ(batch_pool.stats().misses, tuple_pool.stats().misses);
  }
  (*table)->SetBufferManager(nullptr);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TableBatchReadTest,
    ::testing::Values(DecodeCase{DecodeShape::kDense, false, false},
                      DecodeCase{DecodeShape::kDense, false, true},
                      DecodeCase{DecodeShape::kSparse, false, false},
                      DecodeCase{DecodeShape::kSparse, false, true},
                      DecodeCase{DecodeShape::kMixedWidth, false, false},
                      DecodeCase{DecodeShape::kMixedWidth, false, true},
                      DecodeCase{DecodeShape::kZeroNnz, false, false},
                      DecodeCase{DecodeShape::kZeroNnz, false, true},
                      DecodeCase{DecodeShape::kDense, true, false},
                      DecodeCase{DecodeShape::kDense, true, true},
                      DecodeCase{DecodeShape::kSparse, true, false},
                      DecodeCase{DecodeShape::kSparse, true, true},
                      DecodeCase{DecodeShape::kMixedWidth, true, false},
                      DecodeCase{DecodeShape::kMixedWidth, true, true},
                      DecodeCase{DecodeShape::kZeroNnz, true, false},
                      DecodeCase{DecodeShape::kZeroNnz, true, true}));

// Writes one heap page holding `records` verbatim and opens it as a table.
std::unique_ptr<Table> TableFromRawRecords(
    const std::string& path, const std::vector<std::vector<uint8_t>>& records) {
  {
    auto file = HeapFile::Create(path, 512);
    EXPECT_TRUE(file.ok());
    if (!file.ok()) return nullptr;
    Page page(512);
    for (const auto& r : records) EXPECT_TRUE(page.AddRecord(r.data(), r.size()));
    EXPECT_TRUE((*file)->AppendPage(page).ok());
    EXPECT_TRUE((*file)->Sync().ok());
  }
  auto table = Table::Open(path, Schema{"t", 8, false, LabelType::kBinary, 2},
                           TableOptions{512, false});
  EXPECT_TRUE(table.ok());
  return table.ok() ? std::move(table).ValueOrDie() : nullptr;
}

// A record with the sparse flag set and nnz 0 (SerializeTo never writes
// one) reads back as a dense row of width 0 through both sinks.
TEST(TableBatchReadTest, SparseFlagWithZeroNnzIsDenseWidthZero) {
  std::vector<uint8_t> flagged;
  MakeDenseTuple(5, 1.0, {}).SerializeTo(&flagged);
  flagged[sizeof(uint64_t) + sizeof(double) + sizeof(uint32_t)] = 1;
  std::vector<uint8_t> plain;
  MakeDenseTuple(6, -1.0, {}).SerializeTo(&plain);
  const std::string path = TempPath("tbl_flag_zero.dat");
  auto table = TableFromRawRecords(path, {flagged, plain});
  ASSERT_NE(table, nullptr);

  std::vector<Tuple> rows;
  ASSERT_TRUE(table->ReadTuplesFromPages(0, 1, &rows).ok());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_FALSE(rows[0].sparse());
  EXPECT_EQ(rows[0].nnz(), 0u);
  TupleBatch want;
  for (const Tuple& t : rows) want.Append(t);

  TupleBatch got;
  ASSERT_TRUE(table->Snapshot().ReadTuplesFromPages(0, 1, &got).ok());
  ExpectSameBatch(got, want);
  EXPECT_FALSE(got.sparse(0));
  EXPECT_EQ(got.keys(0), nullptr);
  EXPECT_TRUE(got.uniform_dense());
  EXPECT_EQ(got.uniform_dim(), 0u);
  std::remove(path.c_str());
}

// A truncated record inside a page whose CRC and slot directory are valid
// is caught by the wire parser, through both sinks.
TEST(TableBatchReadTest, TruncatedRecordIsCorruptionThroughBothSinks) {
  std::vector<uint8_t> good;
  MakeSparseTuple(1, 1.0, {2, 9}, {0.5f, 1.5f}).SerializeTo(&good);
  for (size_t cut : {size_t{3}, size_t{9}, good.size() - 10}) {
    std::vector<uint8_t> truncated(good.begin(), good.end() - cut);
    const std::string path = TempPath("tbl_trunc_rec.dat");
    auto table = TableFromRawRecords(path, {good, truncated});
    ASSERT_NE(table, nullptr);
    std::vector<Tuple> rows;
    EXPECT_TRUE(table->ReadTuplesFromPages(0, 1, &rows).IsCorruption())
        << "cut " << cut;
    TupleBatch batch;
    EXPECT_TRUE(
        table->Snapshot().ReadTuplesFromPages(0, 1, &batch).IsCorruption())
        << "cut " << cut;
    TupleBatch direct;
    EXPECT_TRUE(direct.AppendWire(truncated.data(), truncated.size())
                    .IsCorruption());
    EXPECT_TRUE(direct.empty());
    std::remove(path.c_str());
  }
}

// AppendRange must equal per-row AppendFrom, including when it
// concatenates ranges of batches with different widths and shapes.
TEST(TupleBatchRangeTest, AppendRangeEqualsPerRowAppendFrom) {
  std::vector<TupleBatch> sources(5);
  Rng rng(77);
  for (size_t i = 0; i < 20; ++i) {
    std::vector<float> four(4), seven(7);
    for (auto& v : four) v = static_cast<float>(rng.NextGaussian());
    for (auto& v : seven) v = static_cast<float>(rng.NextGaussian());
    sources[0].Append(MakeDenseTuple(i, 1.0, four));
    sources[1].Append(MakeDenseTuple(100 + i, -1.0, seven));
    const auto last_key = static_cast<uint32_t>(9 + i);
    sources[2].Append(MakeSparseTuple(200 + i, 1.0, {1, 5, last_key},
                                      {four[0], four[1], four[2]}));
    sources[3].Append(MakeDenseTuple(300 + i, -1.0, {}));
    if (i % 2 == 0) {
      sources[4].Append(MakeDenseTuple(400 + i, 1.0, four));
    } else {
      sources[4].Append(MakeSparseTuple(400 + i, 1.0, {3}, {seven[0]}));
    }
  }
  for (int trial = 0; trial < 300; ++trial) {
    TupleBatch bulk;
    TupleBatch per_row;
    const size_t pieces = 1 + rng.Uniform(4);
    for (size_t piece = 0; piece < pieces; ++piece) {
      const TupleBatch& src = sources[rng.Uniform(sources.size())];
      const size_t begin = rng.Uniform(src.size() + 1);
      const size_t end = begin + rng.Uniform(src.size() - begin + 1);
      bulk.AppendRange(src, begin, end);
      for (size_t i = begin; i < end; ++i) per_row.AppendFrom(src, i);
      ExpectSameBatch(bulk, per_row);
    }
    // Clear() keeps working after a bulk append.
    bulk.Clear();
    bulk.AppendRange(sources[0], 0, 3);
    EXPECT_TRUE(bulk.uniform_dense());
    EXPECT_EQ(bulk.uniform_dim(), 4u);
  }
}

}  // namespace
}  // namespace corgipile
