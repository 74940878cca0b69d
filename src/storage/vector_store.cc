#include "storage/vector_store.h"

#include <cstring>
#include <stdexcept>
#include <vector>

namespace lccs {
namespace storage {

namespace {

inline void PrefetchLine(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/1);
#else
  (void)p;
#endif
}

}  // namespace

void VectorStore::PrefetchRows(const int32_t* ids, size_t n) const {
  if (empty()) return;
  if (ids == nullptr) {
    NoteTouched(n);
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    PrefetchLine(Row(static_cast<size_t>(ids[i])));
  }
  NoteGather(n);
}

void VectorStore::PrefetchRange(size_t begin, size_t n) const {
  if (empty() || n == 0) return;
  // A sequential sweep is what hardware prefetchers handle best; priming the
  // first few rows covers the ramp-up, the rest streams.
  const size_t prime = n < 4 ? n : 4;
  for (size_t i = 0; i < prime; ++i) PrefetchLine(Row(begin + i));
  NoteTouched(n);
}

void VectorStore::ReadRowsInto(const int32_t* ids, size_t n,
                               float* out) const {
  const size_t row_bytes = cols() * sizeof(float);
  for (size_t i = 0; i < n; ++i) {
    std::memcpy(out + i * cols(), Row(static_cast<size_t>(ids[i])),
                row_bytes);
  }
}

const QuantizedStore* VectorStore::AttachQuantized(
    std::shared_ptr<const QuantizedStore> quantized) const {
  std::lock_guard<std::mutex> lock(quantized_mu_);
  if (quantized_ == nullptr && quantized != nullptr) {
    quantized_ = std::move(quantized);
    quantized_raw_.store(quantized_.get(), std::memory_order_release);
  }
  return quantized_.get();
}

std::string InMemoryStore::DebugName() const {
  return "InMemoryStore(" + std::to_string(rows()) + "x" +
         std::to_string(cols()) + ")";
}

std::string BorrowedStore::DebugName() const {
  return "BorrowedStore(" + std::to_string(rows()) + "x" +
         std::to_string(cols()) + ")";
}

SliceStore::SliceStore(std::shared_ptr<const VectorStore> parent,
                       size_t first_row, size_t rows)
    : parent_(std::move(parent)), first_row_(first_row) {
  if (parent_ == nullptr) {
    throw std::runtime_error("SliceStore: null parent store");
  }
  if (first_row + rows < first_row ||  // overflow
      first_row + rows > parent_->rows()) {
    throw std::runtime_error("SliceStore: row range [" +
                             std::to_string(first_row) + ", " +
                             std::to_string(first_row + rows) +
                             ") exceeds parent with " +
                             std::to_string(parent_->rows()) + " rows");
  }
  SetView(rows > 0 ? parent_->Row(first_row) : parent_->data(), rows,
          parent_->cols());
}

void SliceStore::PrefetchRows(const int32_t* ids, size_t n) const {
  // Slice-local ids address the same contiguous bytes, so the generic
  // prefetch is correct; only the touch accounting must reach the parent.
  VectorStore::PrefetchRows(ids, n);
}

void SliceStore::PrefetchRange(size_t begin, size_t n) const {
  parent_->PrefetchRange(first_row_ + begin, n);
}

void SliceStore::ReadRowsInto(const int32_t* ids, size_t n,
                              float* out) const {
  if (first_row_ == 0) {
    parent_->ReadRowsInto(ids, n, out);
    return;
  }
  std::vector<int32_t> translated(n);
  for (size_t i = 0; i < n; ++i) {
    translated[i] = ids[i] + static_cast<int32_t>(first_row_);
  }
  parent_->ReadRowsInto(translated.data(), n, out);
}

const QuantizedStore* SliceStore::Quantized(size_t* row_offset) const {
  // A sibling attached directly to the slice (rare) covers slice-local ids;
  // otherwise translate into a sibling attached to the parent.
  const QuantizedStore* own = VectorStore::Quantized(row_offset);
  if (own != nullptr) return own;
  size_t parent_offset = 0;
  const QuantizedStore* parent_q = parent_->Quantized(&parent_offset);
  if (parent_q != nullptr && row_offset != nullptr) {
    *row_offset = parent_offset + first_row_;
  }
  return parent_q;
}

std::string SliceStore::DebugName() const {
  return "SliceStore(" + std::to_string(first_row_) + "+" +
         std::to_string(rows()) + " of " + parent_->DebugName() + ")";
}

VectorStoreRef::VectorStoreRef(util::Matrix matrix)
    : owned_(std::make_shared<InMemoryStore>(std::move(matrix))) {
  store_ = owned_;
}

VectorStoreRef& VectorStoreRef::operator=(util::Matrix matrix) {
  owned_ = std::make_shared<InMemoryStore>(std::move(matrix));
  store_ = owned_;
  return *this;
}

InMemoryStore* VectorStoreRef::Own() {
  // use_count() == 2 means exactly the two internal aliases (store_ and
  // owned_): no other handle, index, or epoch is watching, so in-place
  // mutation cannot be observed.
  if (owned_ != nullptr && store_.use_count() == 2) return owned_.get();
  util::Matrix copy(rows(), cols());
  if (!empty()) {
    std::memcpy(copy.data(), data(), SizeBytes());
  }
  owned_ = std::make_shared<InMemoryStore>(std::move(copy));
  store_ = owned_;
  return owned_.get();
}

float* VectorStoreRef::Row(size_t i) { return Own()->MutableRow(i); }

float& VectorStoreRef::At(size_t i, size_t j) {
  return Own()->MutableRow(i)[j];
}

float* VectorStoreRef::MutableData() { return Own()->MutableData(); }

void VectorStoreRef::Resize(size_t rows, size_t cols) {
  owned_ = std::make_shared<InMemoryStore>(util::Matrix(rows, cols));
  store_ = owned_;
}

std::shared_ptr<const VectorStore> WrapBorrowed(const float* data, size_t rows,
                                                size_t cols) {
  return std::make_shared<BorrowedStore>(data, rows, cols);
}

}  // namespace storage
}  // namespace lccs
