#ifndef LCCS_STORAGE_MMAP_STORE_H_
#define LCCS_STORAGE_MMAP_STORE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>

#include "storage/flat_file.h"
#include "storage/vector_store.h"

namespace lccs {
namespace storage {

/// Read-only memory-mapped VectorStore over an LCCS flat vector file
/// (storage/flat_file.h) — the DiskANN-style layout that lets paper-scale
/// (10^6+, Table 2) base sets be built over and served without ever being
/// heap-resident. The payload is mapped PROT_READ and handed out as the
/// store's contiguous base pointer, so every index and SIMD kernel runs on
/// it unchanged and bit-identically to an InMemoryStore of the same file.
///
/// **Open-time validation.** Open() rejects wrong magic / version /
/// endianness / size (via ReadFlatHeader) and, unless
/// Options::verify_checksum is off, re-computes the payload's FNV-1a 64
/// checksum with buffered preads — not through the map, so validation of a
/// huge file does not inflate the process RSS — and compares it against the
/// header. A file modified since it was produced (including one scribbled
/// over while another map of it was live) therefore fails at open instead
/// of silently serving wrong vectors. Writes to the file *after* a
/// successful Open are undefined behavior, as with any mapped file.
///
/// **Residency budget.** With Options::residency_budget_bytes > 0 the store
/// runs a coarse clock over the PrefetchRows/PrefetchRange/NoteTouched
/// advisories every verification batch and build sweep issues: once the
/// touched-byte counter crosses the budget, the whole mapping is dropped
/// with madvise(MADV_DONTNEED) (pages refault from the page cache / disk on
/// the next access) and the clock restarts. Peak RSS attributable to the
/// vectors stays around the budget plus the current working set — the
/// mechanism bench/disk_store measures. 0 disables the clock.
///
/// Thread safety: concurrent readers are safe, including against a
/// concurrent budget reset (a dropped page refaults transparently).
class MmapStore : public VectorStore {
 public:
  struct Options {
    /// Verify the payload checksum at open (full sequential read of the
    /// file, without touching the map). Disable only for files this
    /// process just wrote and fsynced itself.
    bool verify_checksum = true;
    /// Touched-bytes budget before the mapping is dropped; 0 = never drop.
    size_t residency_budget_bytes = 0;
    /// Unlink the file when the store is destroyed — how DynamicIndex's
    /// spill consolidation makes its temporary epoch files self-cleaning.
    bool unlink_on_close = false;
  };

  /// Opens and validates `path`. Throws std::runtime_error naming the
  /// problem (missing file, bad magic/version/endianness, size mismatch,
  /// checksum mismatch). (Two overloads rather than a defaulted Options
  /// argument: a default member initializer of a nested struct cannot be
  /// used as a default argument inside its own class.)
  static std::shared_ptr<MmapStore> Open(const std::string& path);
  static std::shared_ptr<MmapStore> Open(const std::string& path,
                                         const Options& options);

  ~MmapStore() override;

  MmapStore(const MmapStore&) = delete;
  MmapStore& operator=(const MmapStore&) = delete;

  const std::string& path() const { return path_; }
  const FlatHeader& header() const { return header_; }

  size_t ResidentBytes() const override { return 0; }
  void PrefetchRange(size_t begin, size_t n) const override;
  void NoteTouched(size_t n) const override;
  void NoteGather(size_t n) const override;
  /// Under a residency budget, scattered rerank rows must be copied, not
  /// faulted: an in-place gather maps a page per row (16 with fault-around)
  /// and advances the drop clock, serially re-faulting the working set.
  bool PrefersCopyGather() const override {
    return options_.residency_budget_bytes > 0;
  }
  /// pread-based copy when a budget is active (the fd is kept open for
  /// this): the rows come out of the page cache without touching the page
  /// tables, so the copy neither grows RSS nor charges the clock. Without a
  /// budget, the default in-place memcpy is used.
  void ReadRowsInto(const int32_t* ids, size_t n, float* out) const override;
  std::string DebugName() const override;

  /// Drops every resident page of the mapping now (and resets the budget
  /// clock). Harmless to call while readers are active.
  void ReleaseResidency() const;

 private:
  MmapStore(std::string path, FlatHeader header, void* map, size_t map_bytes,
            Options options);

  std::string path_;
  FlatHeader header_;
  void* map_ = nullptr;
  size_t map_bytes_ = 0;
  /// Clock tick shared by the accounting hooks.
  void ChargeBytes(size_t bytes) const;
  /// The drop itself; caller holds release_mutex_.
  void DropLocked() const;

  Options options_;
  /// Open file descriptor for the pread gather path; -1 when no residency
  /// budget is active (the mapping alone then keeps the file referenced).
  int fd_ = -1;
  size_t page_bytes_ = 4096;
  mutable std::atomic<size_t> touched_bytes_{0};
  mutable std::mutex release_mutex_;
};

}  // namespace storage
}  // namespace lccs

#endif  // LCCS_STORAGE_MMAP_STORE_H_
