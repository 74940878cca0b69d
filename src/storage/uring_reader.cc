#include "storage/uring_reader.h"

#include <linux/io_uring.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>

namespace lccs {
namespace storage {

namespace {

// Latched the first time io_uring_setup fails, so a kernel or sandbox that
// rejects io_uring costs one failed syscall per process, not one per query.
std::atomic<bool> g_uring_unsupported{false};

int SysIoUringSetup(unsigned entries, struct io_uring_params* params) {
  return static_cast<int>(syscall(__NR_io_uring_setup, entries, params));
}

int SysIoUringEnter(int fd, unsigned to_submit, unsigned min_complete,
                    unsigned flags) {
  return static_cast<int>(syscall(__NR_io_uring_enter, fd, to_submit,
                                  min_complete, flags, nullptr, 0));
}

// Ring size: an exact-rerank gather is k' = 2k rows (tens); 64
// covers every caller in one chunk without wasting ring pages.
constexpr unsigned kRingEntries = 64;

}  // namespace

UringReader::~UringReader() {
  if (sqes_ != nullptr) munmap(sqes_, sqes_bytes_);
  if (cq_ring_ != nullptr && cq_ring_ != sq_ring_) {
    munmap(cq_ring_, cq_ring_bytes_);
  }
  if (sq_ring_ != nullptr) munmap(sq_ring_, sq_ring_bytes_);
  if (ring_fd_ >= 0) close(ring_fd_);
}

bool UringReader::Init() {
  struct io_uring_params params;
  std::memset(&params, 0, sizeof(params));
  ring_fd_ = SysIoUringSetup(kRingEntries, &params);
  if (ring_fd_ < 0) return false;
  sq_entries_ = params.sq_entries;

  sq_ring_bytes_ = params.sq_off.array + params.sq_entries * sizeof(unsigned);
  cq_ring_bytes_ =
      params.cq_off.cqes + params.cq_entries * sizeof(struct io_uring_cqe);
  const bool single_mmap = (params.features & IORING_FEAT_SINGLE_MMAP) != 0;
  if (single_mmap && cq_ring_bytes_ > sq_ring_bytes_) {
    sq_ring_bytes_ = cq_ring_bytes_;
  }
  sq_ring_ = mmap(nullptr, sq_ring_bytes_, PROT_READ | PROT_WRITE,
                  MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_SQ_RING);
  if (sq_ring_ == MAP_FAILED) {
    sq_ring_ = nullptr;
    return false;
  }
  if (single_mmap) {
    cq_ring_ = sq_ring_;
  } else {
    cq_ring_ = mmap(nullptr, cq_ring_bytes_, PROT_READ | PROT_WRITE,
                    MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_CQ_RING);
    if (cq_ring_ == MAP_FAILED) {
      cq_ring_ = nullptr;
      return false;
    }
  }
  sqes_bytes_ = params.sq_entries * sizeof(struct io_uring_sqe);
  sqes_ = mmap(nullptr, sqes_bytes_, PROT_READ | PROT_WRITE,
               MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_SQES);
  if (sqes_ == MAP_FAILED) {
    sqes_ = nullptr;
    return false;
  }

  auto* sq_base = static_cast<char*>(sq_ring_);
  sq_tail_ = reinterpret_cast<unsigned*>(sq_base + params.sq_off.tail);
  sq_mask_ = reinterpret_cast<unsigned*>(sq_base + params.sq_off.ring_mask);
  sq_array_ = reinterpret_cast<unsigned*>(sq_base + params.sq_off.array);
  auto* cq_base = static_cast<char*>(cq_ring_);
  cq_head_ = reinterpret_cast<unsigned*>(cq_base + params.cq_off.head);
  cq_tail_ = reinterpret_cast<unsigned*>(cq_base + params.cq_off.tail);
  cq_mask_ = reinterpret_cast<unsigned*>(cq_base + params.cq_off.ring_mask);
  cqes_ = cq_base + params.cq_off.cqes;
  return true;
}

UringReader* UringReader::Get() {
  if (g_uring_unsupported.load(std::memory_order_relaxed)) return nullptr;
  thread_local UringReader reader;
  thread_local bool initialized = false;
  thread_local bool ok = false;
  if (!initialized) {
    initialized = true;
    ok = reader.Init();
    if (!ok) g_uring_unsupported.store(true, std::memory_order_relaxed);
  }
  return ok ? &reader : nullptr;
}

bool UringReader::SubmitChunk(int fd, const Segment* segments, size_t n) {
  auto* sqes = static_cast<struct io_uring_sqe*>(sqes_);
  const unsigned mask = *sq_mask_;
  // The ring is empty between batches (every submit waits for all of its
  // completions below), so slots [tail, tail + n) are always free here.
  unsigned tail = __atomic_load_n(sq_tail_, __ATOMIC_RELAXED);
  for (size_t i = 0; i < n; ++i) {
    const unsigned slot = (tail + static_cast<unsigned>(i)) & mask;
    struct io_uring_sqe* sqe = &sqes[slot];
    std::memset(sqe, 0, sizeof(*sqe));
    sqe->opcode = IORING_OP_READ;
    sqe->fd = fd;
    sqe->addr = reinterpret_cast<uint64_t>(segments[i].buf);
    sqe->len = segments[i].len;
    sqe->off = segments[i].off;
    sqe->user_data = i;
    sq_array_[slot] = slot;
  }
  __atomic_store_n(sq_tail_, tail + static_cast<unsigned>(n),
                   __ATOMIC_RELEASE);

  size_t submitted = 0;
  size_t completed = 0;
  bool all_full = true;
  while (completed < n) {
    const unsigned to_submit =
        static_cast<unsigned>(submitted < n ? n - submitted : 0);
    const int rc =
        SysIoUringEnter(ring_fd_, to_submit,
                        static_cast<unsigned>(n - completed),
                        IORING_ENTER_GETEVENTS);
    if (rc < 0) {
      if (errno == EINTR) continue;
      // Lost track of in-flight reads; poison the ring for this process
      // rather than risk a later batch reaping this one's completions.
      g_uring_unsupported.store(true, std::memory_order_relaxed);
      return false;
    }
    submitted += static_cast<size_t>(rc);
    // Reap what is available; GETEVENTS guarantees progress per call.
    const unsigned cq_mask = *cq_mask_;
    auto* cqes = static_cast<struct io_uring_cqe*>(cqes_);
    unsigned head = __atomic_load_n(cq_head_, __ATOMIC_RELAXED);
    const unsigned cq_tail = __atomic_load_n(cq_tail_, __ATOMIC_ACQUIRE);
    while (head != cq_tail) {
      const struct io_uring_cqe* cqe = &cqes[head & cq_mask];
      const size_t idx = static_cast<size_t>(cqe->user_data);
      if (idx >= n || cqe->res < 0 ||
          static_cast<uint32_t>(cqe->res) != segments[idx].len) {
        all_full = false;  // error or short read: caller re-reads via pread
      }
      ++head;
      ++completed;
    }
    __atomic_store_n(cq_head_, head, __ATOMIC_RELEASE);
  }
  return all_full;
}

bool UringReader::ReadBatch(int fd, const Segment* segments, size_t n) {
  bool ok = true;
  for (size_t i = 0; i < n; i += sq_entries_) {
    const size_t chunk = std::min(static_cast<size_t>(sq_entries_), n - i);
    if (!SubmitChunk(fd, segments + i, chunk)) ok = false;
    if (g_uring_unsupported.load(std::memory_order_relaxed)) return false;
  }
  return ok;
}

}  // namespace storage
}  // namespace lccs
