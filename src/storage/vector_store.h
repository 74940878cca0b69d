#ifndef LCCS_STORAGE_VECTOR_STORE_H_
#define LCCS_STORAGE_VECTOR_STORE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>

#include "util/matrix.h"

namespace lccs {
namespace storage {

class QuantizedStore;

/// Read access to a dense row-major float matrix of base or query vectors —
/// the one data structure every index in this repository verifies candidates
/// against. Splitting it out of util::Matrix lets the same built index run
/// over heap-resident vectors (InMemoryStore), a read-only memory-mapped
/// flat file (MmapStore, storage/mmap_store.h), or a zero-copy row range of
/// either (SliceStore), without the hot query paths paying for the
/// abstraction:
///
/// **Contiguity invariant.** Every VectorStore exposes its rows() x cols()
/// floats as one contiguous row-major block at data(). Row() and data() are
/// therefore non-virtual pointer arithmetic, and the SIMD verification
/// kernels (util::VerifyCandidates / DistanceMany) work off the raw base
/// pointer exactly as they always have — bit-identical results regardless of
/// which store backs the pointer.
///
/// What *is* virtual is advisory: PrefetchRows / PrefetchRange tell the
/// store which rows a verification batch or a build sweep is about to read.
/// The in-memory stores issue cache-line prefetches; MmapStore additionally
/// uses the calls to account touched bytes against an optional residency
/// budget (dropping its pages with madvise once the budget is exceeded) and
/// to trigger read-ahead — the mechanism that keeps paper-scale (10^6+)
/// datasets servable under a fixed RSS ceiling (bench/disk_store).
///
/// Stores are immutable through this interface and safe for concurrent
/// readers; mutation happens only through VectorStoreRef's copy-on-write
/// accessors before a store is shared.
class VectorStore {
 public:
  virtual ~VectorStore() = default;
  // Non-copyable: the cached base_ view would silently keep pointing into
  // the source object's storage. Stores live behind shared_ptrs.
  VectorStore(const VectorStore&) = delete;
  VectorStore& operator=(const VectorStore&) = delete;

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  /// Contiguous row-major base pointer (nullptr only for an empty store).
  const float* data() const { return base_; }
  const float* Row(size_t i) const { return base_ + i * cols_; }
  float At(size_t i, size_t j) const { return base_[i * cols_ + j]; }

  /// Bytes addressed by the store (mapped or owned).
  size_t SizeBytes() const { return rows_ * cols_ * sizeof(float); }

  /// Heap bytes actually owned — 0 for a memory-mapped or borrowed store,
  /// SizeBytes() for an in-memory one. What RSS accounting should charge.
  virtual size_t ResidentBytes() const { return SizeBytes(); }

  /// Advises the store that the `n` rows listed in `ids` are about to be
  /// verified (gather access). Default: first-cache-line prefetch per row
  /// plus NoteTouched. Cheap enough for every VerifyCandidates call site.
  virtual void PrefetchRows(const int32_t* ids, size_t n) const;

  /// Advises a sequential sweep over rows [begin, begin + n) — build-time
  /// hashing and blocked scans. Default prefetches the first rows and calls
  /// NoteTouched; MmapStore turns it into read-ahead.
  virtual void PrefetchRange(size_t begin, size_t n) const;

  /// Residency accounting hooks: `n` rows were (or are about to be) read —
  /// NoteTouched for dense sequential ranges (cost ≈ the rows' bytes),
  /// NoteGather for scattered candidate ids (cost ≈ one page per row: the
  /// kernel faults whole pages, so sparse reads occupy far more memory
  /// than they ask for). No-ops except for MmapStore's budget clock;
  /// public so view stores can forward to their parent.
  virtual void NoteTouched(size_t n) const { (void)n; }
  virtual void NoteGather(size_t n) const { NoteTouched(n); }

  /// The int8 quantized sibling attached to this store, if any, with
  /// `*row_offset` set to this store's first row inside it, so a SliceStore
  /// view of a quantized base scores its slice-local candidate ids against
  /// the right code rows. nullptr when no quantized tier is attached.
  /// Lock-free (one atomic load); called on every query.
  virtual const QuantizedStore* Quantized(size_t* row_offset) const {
    if (row_offset != nullptr) *row_offset = 0;
    return quantized_raw_.load(std::memory_order_acquire);
  }

  /// Attaches a quantized sibling covering exactly this store's rows.
  /// First-wins: if a sibling is already attached (e.g. two threads raced
  /// EnsureQuantized), the existing one is kept and returned — attachment
  /// is logically const because it never changes the float vectors anyone
  /// reads, only adds an advisory scoring tier.
  const QuantizedStore* AttachQuantized(
      std::shared_ptr<const QuantizedStore> quantized) const;

  /// True when scattered candidate rows should be *copied* out of the store
  /// (ReadRowsInto) rather than read in place through data(). A
  /// budget-governed MmapStore says yes: faulting a scattered row maps a
  /// whole page (and the kernel's fault-around maps ~16), so an in-place
  /// rerank gather both grows residency and advances the drop clock, while
  /// a copy leaves the mapping untouched. Heap stores say no — in-place
  /// reads are already just loads.
  virtual bool PrefersCopyGather() const { return false; }

  /// Copies the `n` rows listed in `ids` into `out` (n * cols() floats,
  /// row-major, in ids order). Default: memcpy from the contiguous base;
  /// MmapStore overrides with pread when a residency budget is active, so
  /// the copy bypasses the mapping entirely (page cache, not page tables).
  virtual void ReadRowsInto(const int32_t* ids, size_t n, float* out) const;

  /// True when holding a shared_ptr to this store guarantees the vectors
  /// themselves stay valid (heap-owned, mmap, or a view of such a store).
  /// BorrowedStore returns false: it pins nothing, the caller's buffer
  /// does — consumers that outlive their caller (DynamicIndex::Build)
  /// must deep-copy such a store instead of retaining it.
  virtual bool KeepsVectorsAlive() const { return true; }

  /// Human-readable description for logs and errors.
  virtual std::string DebugName() const = 0;

 protected:
  VectorStore() = default;

  /// Implementations call this whenever their storage moves (construction,
  /// resize) to keep the non-virtual accessors valid.
  void SetView(const float* base, size_t rows, size_t cols) {
    base_ = base;
    rows_ = rows;
    cols_ = cols;
  }

 private:
  const float* base_ = nullptr;
  size_t rows_ = 0;
  size_t cols_ = 0;
  // Attached quantized sibling. The shared_ptr (under the mutex) owns it;
  // the raw atomic mirrors it so the per-query Quantized() lookup is one
  // acquire load. mutable: see AttachQuantized.
  mutable std::mutex quantized_mu_;
  mutable std::shared_ptr<const QuantizedStore> quantized_;
  mutable std::atomic<const QuantizedStore*> quantized_raw_{nullptr};
};

/// Heap-owned store adopting (or copying) a util::Matrix. The store every
/// synthetic dataset and fvecs load produces by default.
class InMemoryStore : public VectorStore {
 public:
  InMemoryStore() { SetView(nullptr, 0, 0); }
  explicit InMemoryStore(util::Matrix matrix) : matrix_(std::move(matrix)) {
    SetView(matrix_.data(), matrix_.rows(), matrix_.cols());
  }

  const util::Matrix& matrix() const { return matrix_; }

  /// Mutable access for VectorStoreRef's copy-on-write path. Callers must
  /// hold the only reference; indexes built over the store would otherwise
  /// observe the mutation.
  float* MutableData() { return matrix_.data(); }
  float* MutableRow(size_t i) { return matrix_.Row(i); }
  void Resize(size_t rows, size_t cols) {
    matrix_.Resize(rows, cols);
    SetView(matrix_.data(), matrix_.rows(), matrix_.cols());
  }

  std::string DebugName() const override;

 private:
  util::Matrix matrix_;
};

/// Non-owning view over caller-managed rows — how the raw-pointer
/// core::LccsLsh::Build(const float*, n, d) entry points join the store
/// world without copying. The caller guarantees the data outlives the store
/// (the exact contract those entry points always had).
class BorrowedStore : public VectorStore {
 public:
  BorrowedStore(const float* data, size_t rows, size_t cols) {
    SetView(data, rows, cols);
  }
  size_t ResidentBytes() const override { return 0; }
  bool KeepsVectorsAlive() const override { return false; }
  std::string DebugName() const override;
};

/// Zero-copy contiguous row range [first_row, first_row + rows) of a parent
/// store. serve::ShardedIndex hands each shard one of these over the single
/// shared (possibly memory-mapped) base store instead of a private copy.
class SliceStore : public VectorStore {
 public:
  SliceStore(std::shared_ptr<const VectorStore> parent, size_t first_row,
             size_t rows);

  size_t first_row() const { return first_row_; }
  const std::shared_ptr<const VectorStore>& parent() const { return parent_; }

  size_t ResidentBytes() const override { return 0; }
  void PrefetchRows(const int32_t* ids, size_t n) const override;
  void PrefetchRange(size_t begin, size_t n) const override;
  void NoteTouched(size_t n) const override { parent_->NoteTouched(n); }
  void NoteGather(size_t n) const override { parent_->NoteGather(n); }
  const QuantizedStore* Quantized(size_t* row_offset) const override;
  bool PrefersCopyGather() const override {
    return parent_->PrefersCopyGather();
  }
  void ReadRowsInto(const int32_t* ids, size_t n, float* out) const override;
  bool KeepsVectorsAlive() const override {
    return parent_->KeepsVectorsAlive();
  }
  std::string DebugName() const override;

 private:
  std::shared_ptr<const VectorStore> parent_;
  size_t first_row_ = 0;
};

/// Value-semantics handle holding a shared VectorStore — the type
/// dataset::Dataset stores its base and query sets in. Reads forward to the
/// store; the mutating accessors (non-const Row/At, MutableData, Resize,
/// assignment from a Matrix) are **copy-on-write**: they mutate in place
/// only while this handle owns the sole reference to an InMemoryStore, and
/// otherwise first clone the current contents into a fresh heap store. That
/// preserves the pre-storage-refactor semantics exactly — an index (or a
/// DynamicIndex epoch) that captured the store keeps seeing the bytes it
/// was built over, while the caller's later writes land in a private copy.
///
/// Copying the handle shares the store (cheap); genuine deep copies happen
/// only on write. Like util::Matrix, the mutating accessors are not
/// thread-safe; concurrent const reads are.
class VectorStoreRef {
 public:
  VectorStoreRef() = default;
  /// Adopts a matrix into a fresh owned InMemoryStore (implicit, so
  /// `ds.data = ReadFvecs(path)` keeps working).
  VectorStoreRef(util::Matrix matrix);  // NOLINT(google-explicit-constructor)
  /// Shares an existing store (implicit for the same reason; templated so a
  /// shared_ptr to any concrete store converts in one step).
  template <typename T,
            typename = std::enable_if_t<
                std::is_convertible_v<T*, const VectorStore*>>>
  VectorStoreRef(std::shared_ptr<T> store)  // NOLINT
      : store_(std::move(store)) {}
  VectorStoreRef& operator=(util::Matrix matrix);

  size_t rows() const { return store_ ? store_->rows() : 0; }
  size_t cols() const { return store_ ? store_->cols() : 0; }
  bool empty() const { return store_ == nullptr || store_->empty(); }
  size_t SizeBytes() const { return store_ ? store_->SizeBytes() : 0; }

  const float* data() const { return store_ ? store_->data() : nullptr; }
  const float* Row(size_t i) const { return store_->Row(i); }
  float At(size_t i, size_t j) const { return store_->At(i, j); }

  /// Copy-on-write mutable accessors (see class comment).
  float* Row(size_t i);
  float& At(size_t i, size_t j);
  float* MutableData();
  /// Replaces the contents with a zero-filled rows x cols heap store.
  void Resize(size_t rows, size_t cols);

  /// The underlying store, for indexes that retain it past the Dataset's
  /// lifetime. Null only for a default-constructed handle.
  std::shared_ptr<const VectorStore> store() const { return store_; }
  const VectorStore* get() const { return store_.get(); }

  void PrefetchRows(const int32_t* ids, size_t n) const {
    if (store_) store_->PrefetchRows(ids, n);
  }
  void PrefetchRange(size_t begin, size_t n) const {
    if (store_) store_->PrefetchRange(begin, n);
  }

 private:
  /// Returns an exclusively-owned InMemoryStore, cloning current contents
  /// (from any store kind) when the store is shared or not heap-backed.
  InMemoryStore* Own();

  std::shared_ptr<const VectorStore> store_;
  /// Set iff store_ points at an InMemoryStore created by this handle (or a
  /// handle it was copied from); aliases the same control block, so
  /// store_.use_count() == 2 means "no one else is watching".
  std::shared_ptr<InMemoryStore> owned_;
};

/// Convenience: wraps caller-managed rows in a shared BorrowedStore.
std::shared_ptr<const VectorStore> WrapBorrowed(const float* data, size_t rows,
                                                size_t cols);

/// Sequential sweep over rows [begin, end) calling `fn(i)` per row, with
/// PrefetchRange advisories issued in ~4 MiB sub-blocks rather than once up
/// front. The granularity matters: a budgeted MmapStore bounds its
/// residency by dropping pages when the advised-bytes clock crosses the
/// budget, and a single whole-range advisory would tick the clock exactly
/// once — before the sweep — letting the faults pile up unaccounted. Every
/// build-time hashing loop reads its rows through this.
template <typename Fn>
void ScanRows(const VectorStore& store, size_t begin, size_t end, Fn&& fn) {
  const size_t row_bytes = store.cols() * sizeof(float);
  const size_t block =
      row_bytes > 0
          ? (row_bytes >= (size_t{4} << 20) ? 1
                                            : (size_t{4} << 20) / row_bytes)
          : end - begin;
  for (size_t b = begin; b < end; b += block) {
    const size_t len = b + block < end ? block : end - b;
    store.PrefetchRange(b, len);
    for (size_t i = b; i < b + len; ++i) fn(i);
  }
}

}  // namespace storage
}  // namespace lccs

#endif  // LCCS_STORAGE_VECTOR_STORE_H_
