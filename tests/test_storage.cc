// The storage subsystem underneath every index: the flat file format and
// its validation, the mmap-backed store's open-time integrity checks, slice
// views, and the copy-on-write semantics of VectorStoreRef that the whole
// "indexes retain the store" refactor leans on.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dataset/io.h"
#include "storage/flat_file.h"
#include "storage/mmap_store.h"
#include "storage/vector_store.h"
#include "util/random.h"

namespace lccs {
namespace storage {
namespace {

util::Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  util::Matrix m(rows, cols);
  util::Rng rng(seed);
  rng.FillGaussian(m.data(), rows * cols);
  return m;
}

class StorageTest : public ::testing::Test {
 protected:
  std::string Path(const std::string& name) {
    const std::string path = ::testing::TempDir() + "/" + name;
    paths_.push_back(path);
    return path;
  }

  void TearDown() override {
    for (const auto& path : paths_) std::remove(path.c_str());
  }

  std::vector<std::string> paths_;
};

TEST_F(StorageTest, FlatHeaderRoundTrip) {
  const auto m = RandomMatrix(37, 12, 1);
  const std::string path = Path("round_trip.flat");
  const FlatHeader written = WriteFlatFile(path, m);
  EXPECT_EQ(written.rows, 37u);
  EXPECT_EQ(written.cols, 12u);

  const FlatHeader read = ReadFlatHeader(path);
  EXPECT_EQ(read.rows, written.rows);
  EXPECT_EQ(read.cols, written.cols);
  EXPECT_EQ(read.checksum, written.checksum);

  const auto store = MmapStore::Open(path);
  ASSERT_EQ(store->rows(), m.rows());
  ASSERT_EQ(store->cols(), m.cols());
  EXPECT_EQ(std::memcmp(store->data(), m.data(), m.SizeBytes()), 0);
}

TEST_F(StorageTest, StreamingWriterMatchesBulkWriter) {
  const auto m = RandomMatrix(29, 7, 2);
  const std::string bulk = Path("bulk.flat");
  const std::string streamed = Path("streamed.flat");
  const FlatHeader a = WriteFlatFile(bulk, m);
  FlatFileWriter writer(streamed, m.cols());
  for (size_t i = 0; i < m.rows(); ++i) writer.AppendRow(m.Row(i));
  const FlatHeader b = writer.Finish();
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.rows, b.rows);
}

TEST_F(StorageTest, FinishPublishesAtomicallyOrNotAtAll) {
  // A crash between the temp file's fsync and its rename must leave the
  // final path absent — never a half-written file under the real name. The
  // failpoint simulates the kill by throwing out of the publish.
  const auto m = RandomMatrix(11, 4, 13);
  const std::string path = Path("atomic.flat");
  paths_.push_back(path + ".tmp");
  SetStorageFailpoint([](const char* site) {
    if (std::strcmp(site, "publish:before_rename") == 0) {
      throw std::runtime_error("injected crash before rename");
    }
  });
  {
    FlatFileWriter writer(path, m.cols());
    for (size_t i = 0; i < m.rows(); ++i) writer.AppendRow(m.Row(i));
    EXPECT_THROW(writer.Finish(), std::runtime_error);
  }
  SetStorageFailpoint(nullptr);
  EXPECT_FALSE(std::ifstream(path).good()) << "torn file published";
  EXPECT_FALSE(std::ifstream(path + ".tmp").good()) << "temp file leaked";

  // The same writer sequence with no failpoint produces a verifiable file.
  FlatFileWriter writer(path, m.cols());
  for (size_t i = 0; i < m.rows(); ++i) writer.AppendRow(m.Row(i));
  const FlatHeader header = writer.Finish();
  EXPECT_EQ(header.rows, m.rows());
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  const auto store = MmapStore::Open(path);  // checksum verified
  EXPECT_EQ(std::memcmp(store->data(), m.data(), m.SizeBytes()), 0);
}

TEST_F(StorageTest, RejectsWrongMagicVersionEndiannessAndSize) {
  const auto m = RandomMatrix(5, 3, 3);
  const std::string path = Path("tamper.flat");
  WriteFlatFile(path, m);
  std::string good;
  {
    std::ifstream in(path, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    good = buffer.str();
  }
  const auto rewrite = [&](std::string bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };
  const auto expect_throws = [&](const char* what) {
    EXPECT_THROW(ReadFlatHeader(path), std::runtime_error) << what;
    EXPECT_THROW(MmapStore::Open(path), std::runtime_error) << what;
  };

  {
    std::string bad = good;
    bad[0] = 'X';  // magic
    rewrite(bad);
    expect_throws("magic");
  }
  {
    std::string bad = good;
    bad[8] = 99;  // version
    rewrite(bad);
    expect_throws("version");
  }
  {
    std::string bad = good;
    std::swap(bad[12], bad[15]);  // endianness tag, byte-reversed
    rewrite(bad);
    expect_throws("endianness");
  }
  {
    std::string bad = good;
    bad.resize(bad.size() - 5);  // truncated payload
    rewrite(bad);
    expect_throws("size");
  }
  {
    std::string bad = good;
    const uint64_t rows = 1000;  // header promises more rows than the file
    std::memcpy(&bad[16], &rows, sizeof(rows));
    rewrite(bad);
    expect_throws("rows");
  }
  EXPECT_THROW(ReadFlatHeader(Path("missing.flat")), std::runtime_error);
}

TEST_F(StorageTest, ChecksumMismatchDetectedAtOpen) {
  const auto m = RandomMatrix(64, 9, 4);
  const std::string path = Path("modified.flat");
  WriteFlatFile(path, m);

  // Keep a map of the original alive while the file is scribbled over —
  // the "modified under the map" scenario. The *next* open must notice.
  const auto first = MmapStore::Open(path);
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(kFlatHeaderBytes + 17 * sizeof(float));
    const float poison = 1e30f;
    f.write(reinterpret_cast<const char*>(&poison), sizeof(poison));
  }
  try {
    MmapStore::Open(path);
    FAIL() << "modified payload did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
        << "unhelpful message: " << e.what();
  }
  // Opting out of verification still opens (the bench's
  // just-wrote-it-myself path).
  MmapStore::Options lax;
  lax.verify_checksum = false;
  EXPECT_EQ(MmapStore::Open(path, lax)->rows(), 64u);
}

TEST_F(StorageTest, UnlinkOnCloseRemovesFile) {
  const auto m = RandomMatrix(4, 4, 5);
  const std::string path = Path("temp_epoch.flat");
  WriteFlatFile(path, m);
  MmapStore::Options options;
  options.unlink_on_close = true;
  {
    const auto store = MmapStore::Open(path, options);
    EXPECT_EQ(store->rows(), 4u);
  }
  std::ifstream gone(path);
  EXPECT_FALSE(gone.good());
}

TEST_F(StorageTest, SliceStoreIsAZeroCopyWindow) {
  const auto m = RandomMatrix(20, 6, 6);
  auto parent = std::make_shared<InMemoryStore>(util::Matrix(m));
  const auto slice = std::make_shared<SliceStore>(parent, 5, 10);
  EXPECT_EQ(slice->rows(), 10u);
  EXPECT_EQ(slice->cols(), 6u);
  EXPECT_EQ(slice->data(), parent->Row(5));  // same bytes, no copy
  EXPECT_EQ(slice->Row(3), parent->Row(8));
  EXPECT_EQ(slice->ResidentBytes(), 0u);

  EXPECT_THROW(SliceStore(parent, 15, 6), std::runtime_error);  // past end
  EXPECT_THROW(SliceStore(nullptr, 0, 0), std::runtime_error);
}

TEST_F(StorageTest, ResidencyBudgetDropsPages) {
  const auto m = RandomMatrix(256, 32, 8);
  const std::string path = Path("budget.flat");
  WriteFlatFile(path, m);
  MmapStore::Options options;
  options.residency_budget_bytes = 8 * 32 * sizeof(float);  // 8 rows
  const auto store = MmapStore::Open(path, options);
  // Contents must survive any number of budget-triggered drops (pages
  // refault transparently).
  double sum = 0.0;
  for (size_t i = 0; i < store->rows(); ++i) {
    store->PrefetchRange(i, 1);
    sum += store->Row(i)[0];
  }
  double again = 0.0;
  for (size_t i = 0; i < store->rows(); ++i) {
    const int32_t id = static_cast<int32_t>(i);
    store->PrefetchRows(&id, 1);
    again += store->Row(i)[0];
  }
  EXPECT_EQ(sum, again);
  store->ReleaseResidency();  // explicit drop is also contents-preserving
  EXPECT_EQ(std::memcmp(store->data(), m.data(), m.SizeBytes()), 0);
}

TEST_F(StorageTest, CopyGatherReadsRowsWithoutFaultingTheMapping) {
  const auto m = RandomMatrix(300, 24, 21);
  const std::string path = Path("gather.flat");
  WriteFlatFile(path, m);
  MmapStore::Options options;
  options.residency_budget_bytes = 8 * 24 * sizeof(float);
  const auto store = MmapStore::Open(path, options);
  EXPECT_TRUE(store->PrefersCopyGather());

  // Scattered ids including both edges; n = 1 takes the single-pread path,
  // the large batch exceeds the io_uring ring (64 entries) so chunking is
  // exercised too (and the whole test passes identically where io_uring is
  // unavailable and the pread fallback serves every read).
  for (const size_t count : {size_t{1}, size_t{7}, size_t{150}}) {
    std::vector<int32_t> ids;
    for (size_t i = 0; i < count; ++i) {
      ids.push_back(static_cast<int32_t>((i * 131 + 17) % m.rows()));
    }
    ids.front() = 0;
    ids.back() = static_cast<int32_t>(m.rows() - 1);
    std::vector<float> out(count * m.cols());
    store->ReadRowsInto(ids.data(), ids.size(), out.data());
    for (size_t i = 0; i < count; ++i) {
      ASSERT_EQ(std::memcmp(out.data() + i * m.cols(),
                            m.data() + static_cast<size_t>(ids[i]) * m.cols(),
                            m.cols() * sizeof(float)),
                0)
          << "row " << ids[i] << " in batch of " << count;
    }
  }

  // Without a budget the store has no gather fd and no copy-gather
  // preference; the base-class memcpy path must serve the same bytes.
  const auto plain = MmapStore::Open(path);
  EXPECT_FALSE(plain->PrefersCopyGather());
  const int32_t ids[2] = {3, 299};
  std::vector<float> out(2 * m.cols());
  plain->ReadRowsInto(ids, 2, out.data());
  EXPECT_EQ(std::memcmp(out.data(), m.data() + 3 * m.cols(),
                        m.cols() * sizeof(float)),
            0);
  EXPECT_EQ(std::memcmp(out.data() + m.cols(), m.data() + 299 * m.cols(),
                        m.cols() * sizeof(float)),
            0);
}

TEST_F(StorageTest, VectorStoreRefSharesUntilWritten) {
  VectorStoreRef a(RandomMatrix(10, 3, 9));
  VectorStoreRef b = a;  // shares
  EXPECT_EQ(a.data(), b.data());

  // Writing through one handle clones; the other keeps the original bytes.
  const float before = b.At(2, 1);
  a.At(2, 1) = before + 42.0f;
  EXPECT_NE(a.data(), b.data());
  EXPECT_EQ(b.At(2, 1), before);
  EXPECT_EQ(a.At(2, 1), before + 42.0f);

  // A sole owner mutates in place — no clone churn.
  const float* stable = a.data();
  a.At(0, 0) = 7.0f;
  EXPECT_EQ(a.data(), stable);
}

TEST_F(StorageTest, VectorStoreRefClonesMmapOnWrite) {
  const auto m = RandomMatrix(6, 4, 10);
  const std::string path = Path("cow.flat");
  WriteFlatFile(path, m);
  const auto store = MmapStore::Open(path);
  VectorStoreRef ref(store);
  EXPECT_EQ(ref.data(), store->data());
  ref.At(1, 1) = -1.0f;  // write to a read-only map => heap clone
  EXPECT_NE(ref.data(), store->data());
  EXPECT_EQ(ref.At(1, 1), -1.0f);
  EXPECT_EQ(store->Row(1)[1], m.At(1, 1));  // the map is untouched
}

TEST_F(StorageTest, BorrowedStoreWrapsWithoutOwnership) {
  const auto m = RandomMatrix(8, 2, 11);
  const auto borrowed = WrapBorrowed(m.data(), m.rows(), m.cols());
  EXPECT_EQ(borrowed->data(), m.data());
  EXPECT_EQ(borrowed->ResidentBytes(), 0u);
  // The lifetime contract consumers key deep-copy decisions on
  // (DynamicIndex::Build snapshots borrowed-backed datasets).
  EXPECT_FALSE(borrowed->KeepsVectorsAlive());
  auto in_memory = std::make_shared<InMemoryStore>(RandomMatrix(4, 2, 12));
  EXPECT_TRUE(in_memory->KeepsVectorsAlive());
  EXPECT_FALSE(SliceStore(borrowed, 1, 3).KeepsVectorsAlive());
  EXPECT_TRUE(SliceStore(in_memory, 1, 2).KeepsVectorsAlive());
}

TEST_F(StorageTest, ConvertersProduceVerifiableFlatFiles) {
  const auto m = RandomMatrix(23, 5, 12);
  const std::string fvecs = Path("convert.fvecs");
  const std::string flat = Path("convert.flat");
  dataset::WriteFvecs(fvecs, m);
  const FlatHeader header = dataset::ConvertFvecsToFlat(fvecs, flat);
  EXPECT_EQ(header.rows, 23u);
  EXPECT_EQ(header.cols, 5u);
  const auto store = MmapStore::Open(flat);  // checksum verified
  EXPECT_EQ(std::memcmp(store->data(), m.data(), m.SizeBytes()), 0);
}

}  // namespace
}  // namespace storage
}  // namespace lccs
