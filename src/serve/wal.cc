#include "serve/wal.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "storage/flat_file.h"

namespace lccs {
namespace serve {

namespace {

constexpr char kWalMagic[8] = {'L', 'C', 'C', 'S', 'W', 'A', 'L', '1'};
constexpr uint32_t kWalFormatVersion = 1;
constexpr size_t kWalHeaderBytes = 24;

constexpr char kCkptMagic[8] = {'L', 'C', 'C', 'S', 'C', 'K', 'P', '1'};
constexpr uint32_t kCkptFormatVersion = 1;
constexpr size_t kCkptHeaderBytes = 16;
/// state_version (8) + next_id (8) + metric (4) + dim (4) + rows (8).
constexpr uint64_t kCkptFixedBodyBytes = 32;
static_assert(WriteAheadLog::kCheckpointPrefixBytes ==
                  kCkptHeaderBytes + kCkptFixedBodyBytes,
              "the checkpoint prefix is the header plus the fixed body");

template <typename T>
void PutPod(std::vector<unsigned char>* buf, const T& v) {
  const auto* p = reinterpret_cast<const unsigned char*>(&v);
  buf->insert(buf->end(), p, p + sizeof(T));
}

template <typename T>
bool GetPod(const unsigned char* buf, size_t len, size_t* off, T* out) {
  if (len < *off + sizeof(T)) return false;
  std::memcpy(out, buf + *off, sizeof(T));
  *off += sizeof(T);
  return true;
}

/// Test-only read-failure injection (SetWalReadFailpoint). Consulted before
/// every segment fread; returning true simulates a transient I/O error.
std::function<bool(const std::string&, uint64_t)> g_wal_read_failpoint;

/// fread that distinguishes a real I/O error (std::ferror, or the injected
/// failpoint) from a short read at end-of-file. Throws on error; a short
/// return without error is EOF / a torn tail, for the caller to classify.
size_t FreadChecked(std::FILE* f, void* buf, size_t n, const std::string& path,
                    uint64_t offset) {
  if (g_wal_read_failpoint && g_wal_read_failpoint(path, offset)) {
    throw std::runtime_error("WAL segment read I/O error (injected): " + path +
                             " at offset " + std::to_string(offset));
  }
  const size_t got = std::fread(buf, 1, n, f);
  if (got < n && std::ferror(f)) {
    throw std::runtime_error("WAL segment read I/O error: " + path +
                             " at offset " + std::to_string(offset));
  }
  return got;
}

void WriteAllFd(int fd, const void* data, size_t n, const std::string& path) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t written = ::write(fd, p, n);
    if (written < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("WAL write failed: " + path);
    }
    p += written;
    n -= static_cast<size_t>(written);
  }
}

std::string NumberedName(const char* prefix, uint64_t value,
                         const char* suffix) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s%020llu%s", prefix,
                static_cast<unsigned long long>(value), suffix);
  return std::string(buf);
}

bool HasSuffix(const std::string& name, const char* suffix) {
  const size_t len = std::strlen(suffix);
  return name.size() > len &&
         name.compare(name.size() - len, len, suffix) == 0;
}

bool ParseNumberedName(const std::string& name, const char* prefix,
                       const char* suffix, uint64_t* value) {
  const size_t prefix_len = std::strlen(prefix);
  const size_t suffix_len = std::strlen(suffix);
  if (name.size() <= prefix_len + suffix_len) return false;
  if (name.compare(0, prefix_len, prefix) != 0) return false;
  if (!HasSuffix(name, suffix)) return false;
  // 2^64 - 1 is 20 digits: any longer run cannot fit, and an in-range run
  // still needs the overflow guard (e.g. 20 nines). Silently wrapping here
  // would give a stray file a small first_version and corrupt segment
  // ordering, checkpoint GC, and recovery.
  if (name.size() - suffix_len - prefix_len > 20) return false;
  uint64_t v = 0;
  for (size_t i = prefix_len; i < name.size() - suffix_len; ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    const uint64_t digit = static_cast<uint64_t>(name[i] - '0');
    if (v > (UINT64_MAX - digit) / 10) return false;
    v = v * 10 + digit;
  }
  *value = v;
  return true;
}

/// The one directory scan: every entry name in `dir`.
std::vector<std::string> ListNames(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    throw std::runtime_error("cannot open WAL directory: " + dir);
  }
  std::vector<std::string> names;
  for (struct dirent* e = ::readdir(d); e != nullptr; e = ::readdir(d)) {
    names.emplace_back(e->d_name);
  }
  ::closedir(d);
  return names;
}

/// (number, path) of every `<prefix><number><suffix>` file in `dir`,
/// ascending.
std::vector<std::pair<uint64_t, std::string>> ListNumbered(
    const std::string& dir, const char* prefix, const char* suffix) {
  std::vector<std::pair<uint64_t, std::string>> out;
  for (const std::string& name : ListNames(dir)) {
    uint64_t v = 0;
    if (ParseNumberedName(name, prefix, suffix, &v)) {
      out.emplace_back(v, dir + "/" + name);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// --- Segment header and frame reader (layouts in wal.h) ----------------------

std::vector<unsigned char> EncodeSegmentHeader(uint64_t first_version) {
  std::vector<unsigned char> header(kWalMagic, kWalMagic + sizeof(kWalMagic));
  PutPod(&header, kWalFormatVersion);
  PutPod(&header, storage::kFlatEndianTag);
  PutPod(&header, first_version);
  return header;
}

/// Outcome of reading a segment header or a record frame.
enum class ReadStatus : uint8_t {
  kOk,
  kEnd,  ///< no byte at the frame offset: the segment ends cleanly there
  kShortHeader,
  kBadMagic,
  kBadFormat,
  kBadEndian,
  kMislabeled,
  kTornPrelude,
  kBadLength,
  kTornBody,
  kBadChecksum,
  kBadBody,
  kOutOfSequence,
};

const char* StatusName(ReadStatus status) {
  static constexpr const char* kNames[] = {
      "ok",
      "end of segment",
      "truncated segment header",
      "bad segment magic",
      "unsupported segment format version",
      "segment endianness does not match this machine",
      "segment header does not match its file name",
      "torn record prelude",
      "implausible record length",
      "torn record body",
      "record checksum mismatch",
      "malformed record body",
      "record version out of sequence",
  };
  return kNames[static_cast<size_t>(status)];
}

/// Reads and checks the header of a segment file opened at offset 0.
/// `named_version` is the first version in the file name (0 when the name
/// has none — versions start at 1). `*first_version` receives the header's
/// field whenever the header is whole.
ReadStatus ReadSegmentHeader(std::FILE* f, const std::string& path,
                             uint64_t named_version, uint64_t* first_version) {
  unsigned char header[kWalHeaderBytes];
  if (FreadChecked(f, header, sizeof(header), path, 0) != sizeof(header)) {
    return ReadStatus::kShortHeader;
  }
  uint32_t format = 0;
  uint32_t endian = 0;
  std::memcpy(&format, header + 8, sizeof(format));
  std::memcpy(&endian, header + 12, sizeof(endian));
  std::memcpy(first_version, header + 16, sizeof(uint64_t));
  if (std::memcmp(header, kWalMagic, sizeof(kWalMagic)) != 0) {
    return ReadStatus::kBadMagic;
  }
  if (format != kWalFormatVersion) return ReadStatus::kBadFormat;
  if (endian != storage::kFlatEndianTag) return ReadStatus::kBadEndian;
  if (*first_version != named_version) return ReadStatus::kMislabeled;
  return ReadStatus::kOk;
}

/// Reads the frame at `offset` of an open segment file and decodes it as
/// record `expected_version`. `frame` receives the prelude plus as much of
/// the body as the prelude announces, so the frame ends at offset +
/// frame->size() whatever the status. Throws on a real I/O error.
ReadStatus ReadFrame(std::FILE* f, const std::string& path, uint64_t offset,
                     uint64_t expected_version,
                     std::vector<unsigned char>* frame,
                     WriteAheadLog::Record* record) {
  constexpr size_t kPrelude = WriteAheadLog::kFramePreludeBytes;
  std::clearerr(f);
  if (std::fseek(f, static_cast<long>(offset), SEEK_SET) != 0) {
    throw std::runtime_error("WAL segment seek failed: " + path);
  }
  frame->resize(kPrelude);
  const size_t got = FreadChecked(f, frame->data(), kPrelude, path, offset);
  if (got == 0) return ReadStatus::kEnd;
  if (got < kPrelude) return ReadStatus::kTornPrelude;
  WriteAheadLog::FramePrelude prelude;
  if (!prelude.Decode(frame->data())) return ReadStatus::kBadLength;
  frame->resize(kPrelude + prelude.body_bytes);
  unsigned char* body = frame->data() + kPrelude;
  if (FreadChecked(f, body, prelude.body_bytes, path, offset + kPrelude) !=
      prelude.body_bytes) {
    return ReadStatus::kTornBody;
  }
  if (!prelude.Matches(body)) return ReadStatus::kBadChecksum;
  if (!WriteAheadLog::DecodeRecordBody(body, prelude.body_bytes, record)) {
    return ReadStatus::kBadBody;
  }
  if (record->version != expected_version) return ReadStatus::kOutOfSequence;
  return ReadStatus::kOk;
}

}  // namespace

void SetWalReadFailpoint(
    std::function<bool(const std::string& path, uint64_t offset)> hook) {
  g_wal_read_failpoint = std::move(hook);
}

std::vector<unsigned char> WriteAheadLog::EncodeFrame(
    uint64_t version, uint8_t kind, int32_t id,
    std::initializer_list<Bytes> tail) {
  size_t body_bytes = kMinFrameBodyBytes;
  for (const Bytes& span : tail) body_bytes += span.size;
  if (body_bytes > kMaxFrameBodyBytes) {
    throw std::runtime_error("WAL: record too large");
  }
  std::vector<unsigned char> frame;
  frame.reserve(kFramePreludeBytes + body_bytes);
  PutPod(&frame, static_cast<uint32_t>(body_bytes));
  PutPod(&frame, uint64_t{0});  // checksum, filled in below
  PutPod(&frame, version);
  PutPod(&frame, kind);
  PutPod(&frame, id);
  for (const Bytes& span : tail) {
    const auto* p = static_cast<const unsigned char*>(span.data);
    frame.insert(frame.end(), p, p + span.size);
  }
  storage::FnvChecksum checksum;
  checksum.Update(frame.data() + kFramePreludeBytes, body_bytes);
  const uint64_t digest = checksum.Digest();
  std::memcpy(frame.data() + sizeof(uint32_t), &digest, sizeof(digest));
  return frame;
}

bool WriteAheadLog::FramePrelude::Decode(const unsigned char* prelude) {
  std::memcpy(&body_bytes, prelude, sizeof(body_bytes));
  std::memcpy(&checksum, prelude + sizeof(body_bytes), sizeof(checksum));
  return body_bytes >= kMinFrameBodyBytes && body_bytes <= kMaxFrameBodyBytes;
}

bool WriteAheadLog::FramePrelude::Matches(const unsigned char* body) const {
  storage::FnvChecksum fnv;
  fnv.Update(body, body_bytes);
  return fnv.Digest() == checksum;
}

bool WriteAheadLog::DecodeRecordBody(const unsigned char* body, size_t len,
                                     Record* record) {
  size_t off = 0;
  uint8_t kind = 0;
  if (!GetPod(body, len, &off, &record->version) ||
      !GetPod(body, len, &off, &kind) || !GetPod(body, len, &off, &record->id) ||
      kind > 1) {
    return false;
  }
  record->is_insert = kind == 0;
  record->vec.clear();
  if (!record->is_insert) return off == len;
  uint32_t dim = 0;
  if (!GetPod(body, len, &off, &dim)) return false;
  if (len - off != static_cast<size_t>(dim) * sizeof(float)) {
    return false;
  }
  record->vec.resize(dim);
  std::memcpy(record->vec.data(), body + off, dim * sizeof(float));
  return true;
}

void WriteAheadLog::ApplyRecord(ShardedIndex* index, const Record& record) {
  if (record.is_insert && record.vec.size() != index->dim()) {
    throw std::runtime_error(
        "log record " + std::to_string(record.version) + " inserts a " +
        std::to_string(record.vec.size()) + "-dim vector into a " +
        std::to_string(index->dim()) + "-dim index");
  }
  const ShardedIndex::MutationResult applied =
      record.is_insert ? index->ApplyInsert(record.vec.data())
                       : index->ApplyRemove(record.id);
  if ((record.is_insert && applied.id != record.id) ||
      applied.state_version != record.version) {
    throw std::runtime_error(
        "apply diverged from log record " + std::to_string(record.version) +
        " (" + (record.is_insert ? "insert" : "remove") + " id " +
        std::to_string(record.id) + "): index assigned id " +
        std::to_string(applied.id) + " at version " +
        std::to_string(applied.state_version));
  }
}

WriteAheadLog::WriteAheadLog(std::string dir, Options options)
    : dir_(std::move(dir)), options_(std::move(options)) {
  if (::mkdir(dir_.c_str(), 0755) != 0 && errno != EEXIST) {
    throw std::runtime_error("cannot create WAL directory: " + dir_);
  }
}

WriteAheadLog::~WriteAheadLog() {
  std::lock_guard<std::mutex> lock(mu_);
  CloseSegmentLocked();
}

void WriteAheadLog::Failpoint(const char* site) const {
  if (options_.failpoint) options_.failpoint(site);
}

void WriteAheadLog::OpenSegmentLocked(uint64_t first_version) {
  const std::string path =
      dir_ + "/" + NumberedName("wal_", first_version, ".log");
  // O_TRUNC: a name collision only happens when recovery replayed nothing
  // from an existing segment of this first version (it was empty or fully
  // torn), so its content is dead by definition.
  const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd < 0) {
    throw std::runtime_error("cannot create WAL segment: " + path);
  }
  const std::vector<unsigned char> header = EncodeSegmentHeader(first_version);
  try {
    WriteAllFd(fd, header.data(), header.size(), path);
    // Make the directory entry and header durable up front: the covering
    // fsyncs that release acks then only have to flush record content.
    storage::SyncFd(fd, path);
    storage::SyncParentDir(path);
  } catch (...) {
    ::close(fd);
    throw;
  }
  fd_ = fd;
  segment_path_ = path;
  segment_bytes_written_ = kWalHeaderBytes;
  ++stats_.segments_created;
}

void WriteAheadLog::CloseSegmentLocked() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
    segment_path_.clear();
    segment_bytes_written_ = 0;
  }
}

void WriteAheadLog::Append(const Record& record) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!recovered_) {
    throw std::runtime_error("WAL: Recover() must run before Append()");
  }
  if (record.version != next_version_) {
    throw std::runtime_error("WAL: non-dense append: got version " +
                             std::to_string(record.version) + ", expected " +
                             std::to_string(next_version_));
  }
  const uint32_t dim = static_cast<uint32_t>(record.vec.size());
  const bool insert = record.is_insert;
  const std::vector<unsigned char> frame = EncodeFrame(
      record.version, insert ? 0 : 1, record.id,
      {{&dim, insert ? sizeof(dim) : 0},
       {record.vec.data(), insert ? record.vec.size() * sizeof(float) : 0}});
  if (fd_ >= 0 && segment_bytes_written_ >= options_.segment_bytes) {
    // Rotation mid-batch: pending records live in the old segment, so the
    // fsync covering them must land before it is closed — the group-commit
    // Sync above this layer would otherwise flush only the new file.
    SyncLocked();
    CloseSegmentLocked();
    Failpoint("wal:rotate");
  }
  if (fd_ < 0) OpenSegmentLocked(next_version_);

  WriteAllFd(fd_, frame.data(), kFramePreludeBytes, segment_path_);
  // A kill right here leaves a prelude with no (or half a) body — exactly
  // the torn tail recovery detects and truncates.
  Failpoint("wal:append:mid_record");
  WriteAllFd(fd_, frame.data() + kFramePreludeBytes,
             frame.size() - kFramePreludeBytes, segment_path_);
  segment_bytes_written_ += frame.size();
  ++next_version_;
  ++pending_records_;
  ++stats_.records_appended;
  stats_.bytes_appended += frame.size();
  Failpoint("wal:append:done");
}

bool WriteAheadLog::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  return SyncLocked();
}

bool WriteAheadLog::SyncLocked() {
  if (fd_ < 0 || pending_records_ == 0) return false;
  Failpoint("wal:fsync:before");
  storage::SyncFd(fd_, segment_path_);
  Failpoint("wal:fsync:after");
  pending_records_ = 0;
  ++stats_.fsyncs;
  return true;
}

size_t WriteAheadLog::pending_records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_records_;
}

uint64_t WriteAheadLog::last_version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_version_ - 1;
}

WriteAheadLog::Stats WriteAheadLog::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void WriteAheadLog::WriteCheckpoint(const ShardedIndex::CheckpointState& state) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!recovered_) {
    throw std::runtime_error("WAL: Recover() must run before WriteCheckpoint()");
  }
  Failpoint("wal:checkpoint:begin");
  const std::string path =
      dir_ + "/" + NumberedName("checkpoint_", state.state_version, ".ckpt");
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    throw std::runtime_error("cannot open checkpoint temp file: " + tmp);
  }
  try {
    const std::vector<unsigned char> image = EncodeCheckpoint(state);
    // Two writes with a failpoint between them, so the kill harness can
    // leave a half-written image behind (split at the ids/vectors border).
    const size_t split =
        std::min(image.size(), kCheckpointPrefixBytes +
                                   state.ids.size() * sizeof(int32_t));
    const auto write_part = [&](const void* data, size_t n) {
      if (n == 0) return;
      if (std::fwrite(data, 1, n, f) != n) {
        throw std::runtime_error("checkpoint write failed: " + tmp);
      }
    };
    write_part(image.data(), split);
    Failpoint("wal:checkpoint:mid_write");
    write_part(image.data() + split, image.size() - split);
    storage::FlushAndSyncFile(f, tmp);
  } catch (...) {
    std::fclose(f);
    std::remove(tmp.c_str());
    throw;
  }
  if (std::fclose(f) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("checkpoint close failed: " + tmp);
  }
  Failpoint("wal:checkpoint:before_publish");
  try {
    storage::PublishFile(tmp, path);
  } catch (...) {
    std::remove(tmp.c_str());
    throw;
  }
  ++stats_.checkpoints;
  Failpoint("wal:checkpoint:after_publish");
  // The new checkpoint is durable: everything it supersedes can go.
  for (const CheckpointInfo& ckpt : ListCheckpoints(dir_)) {
    if (ckpt.version < state.state_version) std::remove(ckpt.path.c_str());
  }
  TruncateSegmentsBelowLocked(state.state_version);
  Failpoint("wal:checkpoint:done");
}

void WriteAheadLog::TruncateSegmentsBelowLocked(uint64_t version) {
  const std::vector<SegmentInfo> segments = ListSegments(dir_);
  bool deleted = false;
  for (size_t i = 0; i + 1 < segments.size(); ++i) {
    // Segment i spans [first_i, first_{i+1}); reclaimable only once its
    // successor already covers version + 1 — and never the open segment.
    if (segments[i + 1].first_version > version + 1) break;
    if (segments[i].path == segment_path_) break;
    if (std::remove(segments[i].path.c_str()) == 0) {
      ++stats_.segments_deleted;
      deleted = true;
    }
  }
  if (deleted) {
    // Unlink durability is cosmetic (a resurrected segment is re-deleted by
    // the next checkpoint, and replay skips its records anyway).
    try {
      storage::SyncParentDir(segments.front().path);
    } catch (...) {
    }
  }
}

WriteAheadLog::RecoveryResult WriteAheadLog::Recover(ShardedIndex* index) {
  std::lock_guard<std::mutex> lock(mu_);
  if (recovered_) {
    throw std::runtime_error("WAL: Recover() ran twice");
  }
  RecoveryResult result;
  // A segment we cannot replay may still hold durable, acked records above
  // the recovered prefix (a hole can never be bridged, but the bytes are
  // evidence). Deleting them on a fallback path would be lossy and
  // unauditable, so they are renamed aside instead (ListOrphans /
  // `lccs_tool wal-dump` surface them).
  const auto quarantine = [&](const std::string& path) {
    struct stat st;
    const uint64_t bytes =
        ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
    const std::string orphan = path + ".orphan";
    std::remove(orphan.c_str());  // stale quarantine from an older recovery
    if (std::rename(path.c_str(), orphan.c_str()) != 0) {
      throw std::runtime_error("cannot quarantine orphaned WAL segment: " +
                               path);
    }
    ++result.orphaned_segments;
    result.orphaned_bytes += bytes;
  };

  // Stray temp files are checkpoint publishes that never happened — dead.
  for (const std::string& name : ListNames(dir_)) {
    if (HasSuffix(name, ".tmp")) std::remove((dir_ + "/" + name).c_str());
  }

  // 1. Newest checkpoint that validates end to end (a damaged file is
  // skipped, not fatal — an older checkpoint plus a longer replay gives
  // the same state).
  const std::vector<CheckpointInfo> checkpoints = ListCheckpoints(dir_);
  bool restored = false;
  for (size_t i = checkpoints.size(); i-- > 0 && !restored;) {
    try {
      index->RestoreCheckpointState(ReadCheckpoint(checkpoints[i].path));
      result.checkpoint_version = checkpoints[i].version;
      restored = true;
    } catch (const std::runtime_error&) {
    }
  }
  uint64_t next =
      (restored ? result.checkpoint_version : index->state_version()) + 1;

  // 2. Replay the contiguous valid tail, in segment order.
  const std::vector<SegmentInfo> segments = ListSegments(dir_);
  size_t stop_after = segments.size();
  for (size_t i = 0; i < segments.size(); ++i) {
    const std::string& path = segments[i].path;
    if (segments[i].first_version > next) {
      // A hole (only possible after mid-stream damage): nothing beyond it
      // can ever be replayed.
      stop_after = i;
      break;
    }
    const ScanResult scan =
        ScanSegment(path, [&](const Record& record, uint64_t) {
          if (record.version < next) return;  // inside the checkpoint
          ApplyRecord(index, record);
          ++next;
          ++result.replayed;
        });
    if (!scan.clean) {
      if (scan.valid_bytes < kWalHeaderBytes) {
        // Even the header is damaged: nothing in the file is attributable
        // to a version, so the whole segment goes to quarantine.
        quarantine(path);
      } else {
        // Torn/corrupt suffix: physically discard it so the on-disk log is
        // exactly the recovered prefix.
        struct stat st;
        if (::stat(path.c_str(), &st) == 0 &&
            static_cast<uint64_t>(st.st_size) > scan.valid_bytes) {
          result.truncated_bytes +=
              static_cast<uint64_t>(st.st_size) - scan.valid_bytes;
        }
        if (::truncate(path.c_str(), scan.valid_bytes) != 0) {
          throw std::runtime_error("cannot truncate torn WAL segment: " + path);
        }
      }
      stop_after = i + 1;
      break;
    }
  }
  // Segments beyond the stop point are unreachable across the hole:
  // quarantine, never delete.
  for (size_t i = stop_after; i < segments.size(); ++i) {
    quarantine(segments[i].path);
  }
  if (result.orphaned_segments > 0) {
    // Rename durability is best-effort, like unlink in checkpoint GC: a
    // resurrected segment is re-quarantined by the next recovery.
    try {
      storage::SyncParentDir(segments.front().path);
    } catch (...) {
    }
  }

  result.final_version = next - 1;
  next_version_ = next;
  stats_.recovery_replayed = result.replayed;
  recovered_ = true;
  return result;
}

std::vector<WriteAheadLog::SegmentInfo> WriteAheadLog::ListSegments(
    const std::string& dir) {
  std::vector<SegmentInfo> out;
  for (auto& [version, path] : ListNumbered(dir, "wal_", ".log")) {
    out.push_back(SegmentInfo{std::move(path), version});
  }
  return out;
}

std::vector<WriteAheadLog::CheckpointInfo> WriteAheadLog::ListCheckpoints(
    const std::string& dir) {
  std::vector<CheckpointInfo> out;
  for (auto& [version, path] : ListNumbered(dir, "checkpoint_", ".ckpt")) {
    out.push_back(CheckpointInfo{std::move(path), version});
  }
  return out;
}

WriteAheadLog::ScanResult WriteAheadLog::ScanSegment(
    const std::string& path,
    const std::function<void(const Record&, uint64_t offset)>& fn) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw std::runtime_error("cannot open WAL segment: " + path);
  }
  struct Closer {
    std::FILE* f;
    ~Closer() { std::fclose(f); }
  } closer{f};

  ScanResult result;
  uint64_t named_version = 0;
  ParseNumberedName(path.substr(path.find_last_of('/') + 1), "wal_", ".log",
                    &named_version);
  ReadStatus status =
      ReadSegmentHeader(f, path, named_version, &result.first_version);
  if (status == ReadStatus::kOk) {
    result.valid_bytes = kWalHeaderBytes;
    std::vector<unsigned char> frame;
    Record record;
    while ((status = ReadFrame(f, path, result.valid_bytes,
                               result.first_version + result.records, &frame,
                               &record)) == ReadStatus::kOk) {
      if (fn) fn(record, result.valid_bytes);
      ++result.records;
      result.last_version = record.version;
      result.valid_bytes += frame.size();
    }
  }
  if (status != ReadStatus::kEnd) {
    result.clean = false;
    result.error = StatusName(status);
  }
  return result;
}

std::vector<std::string> WriteAheadLog::ListOrphans(const std::string& dir) {
  std::vector<std::string> out;
  for (const std::string& name : ListNames(dir)) {
    if (HasSuffix(name, ".orphan")) out.push_back(dir + "/" + name);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<unsigned char> WriteAheadLog::EncodeCheckpoint(
    const ShardedIndex::CheckpointState& state) {
  std::vector<unsigned char> out;
  out.reserve(kCheckpointPrefixBytes +
              state.ids.size() * sizeof(int32_t) + state.vectors.SizeBytes() +
              sizeof(uint64_t));
  out.resize(sizeof(kCkptMagic));
  std::memcpy(out.data(), kCkptMagic, sizeof(kCkptMagic));
  PutPod(&out, kCkptFormatVersion);
  PutPod(&out, storage::kFlatEndianTag);
  const size_t body_start = out.size();
  PutPod(&out, state.state_version);
  PutPod(&out, static_cast<int64_t>(state.next_id));
  PutPod(&out, static_cast<uint32_t>(state.metric));
  PutPod(&out, static_cast<uint32_t>(state.dim));
  PutPod(&out, static_cast<uint64_t>(state.ids.size()));
  const auto* ids = reinterpret_cast<const unsigned char*>(state.ids.data());
  out.insert(out.end(), ids, ids + state.ids.size() * sizeof(int32_t));
  const auto* vecs =
      reinterpret_cast<const unsigned char*>(state.vectors.data());
  out.insert(out.end(), vecs, vecs + state.vectors.SizeBytes());
  storage::FnvChecksum checksum;
  checksum.Update(out.data() + body_start, out.size() - body_start);
  PutPod(&out, checksum.Digest());
  return out;
}

namespace {

/// The fixed fields of a checkpoint prefix, validated, and the image length
/// they imply.
struct CheckpointPrefix {
  uint64_t state_version = 0;
  int64_t next_id = 0;
  uint32_t metric = 0;
  uint32_t dim = 0;
  uint64_t rows = 0;
  uint64_t image_bytes = 0;
};

CheckpointPrefix ParseCheckpointPrefix(const unsigned char* bytes, size_t len,
                                       const std::string& context) {
  if (len < kCkptHeaderBytes) {
    throw std::runtime_error("checkpoint header truncated: " + context);
  }
  uint32_t format = 0;
  uint32_t endian = 0;
  std::memcpy(&format, bytes + 8, sizeof(format));
  std::memcpy(&endian, bytes + 12, sizeof(endian));
  if (std::memcmp(bytes, kCkptMagic, sizeof(kCkptMagic)) != 0) {
    throw std::runtime_error("not an LCCS checkpoint file: " + context);
  }
  if (format != kCkptFormatVersion) {
    throw std::runtime_error("unsupported checkpoint format: " + context);
  }
  if (endian != storage::kFlatEndianTag) {
    throw std::runtime_error(
        "checkpoint endianness does not match this machine: " + context);
  }

  if (len < WriteAheadLog::kCheckpointPrefixBytes) {
    throw std::runtime_error("checkpoint body truncated: " + context);
  }
  const unsigned char* fixed = bytes + kCkptHeaderBytes;
  CheckpointPrefix prefix;
  std::memcpy(&prefix.state_version, fixed + 0, sizeof(prefix.state_version));
  std::memcpy(&prefix.next_id, fixed + 8, sizeof(prefix.next_id));
  std::memcpy(&prefix.metric, fixed + 16, sizeof(prefix.metric));
  std::memcpy(&prefix.dim, fixed + 20, sizeof(prefix.dim));
  std::memcpy(&prefix.rows, fixed + 24, sizeof(prefix.rows));
  if (prefix.next_id < 0 || prefix.next_id > INT32_MAX ||
      prefix.metric > static_cast<uint32_t>(util::Metric::kJaccard) ||
      prefix.dim > (1u << 20) ||
      prefix.rows > static_cast<uint64_t>(prefix.next_id) ||
      (prefix.rows > 0 && prefix.dim == 0)) {
    throw std::runtime_error("checkpoint fields implausible: " + context);
  }
  // rows < 2^31 and a row under 2^23 bytes: the product stays below 2^54.
  const uint64_t row_bytes =
      sizeof(int32_t) + static_cast<uint64_t>(prefix.dim) * sizeof(float);
  prefix.image_bytes = WriteAheadLog::kCheckpointPrefixBytes +
                       prefix.rows * row_bytes + sizeof(uint64_t);
  return prefix;
}

}  // namespace

uint64_t WriteAheadLog::CheckpointImageBytes(const unsigned char* bytes,
                                             size_t len,
                                             const std::string& context) {
  return ParseCheckpointPrefix(bytes, len, context).image_bytes;
}

ShardedIndex::CheckpointState WriteAheadLog::DecodeCheckpoint(
    const unsigned char* bytes, size_t len, const std::string& context) {
  const CheckpointPrefix prefix = ParseCheckpointPrefix(bytes, len, context);
  if (prefix.image_bytes != len) {
    throw std::runtime_error("checkpoint size does not match its header: " +
                             context);
  }

  const unsigned char* fixed = bytes + kCkptHeaderBytes;
  const size_t rows = static_cast<size_t>(prefix.rows);
  storage::FnvChecksum fnv;
  fnv.Update(fixed, kCkptFixedBodyBytes);
  ShardedIndex::CheckpointState state;
  state.state_version = prefix.state_version;
  state.next_id = static_cast<int32_t>(prefix.next_id);
  state.metric = static_cast<util::Metric>(prefix.metric);
  state.dim = prefix.dim;
  state.ids.resize(rows);
  state.vectors = util::Matrix(rows, prefix.dim);
  if (rows > 0) {
    const unsigned char* p = fixed + kCkptFixedBodyBytes;
    std::memcpy(state.ids.data(), p, rows * sizeof(int32_t));
    fnv.Update(p, rows * sizeof(int32_t));
    p += rows * sizeof(int32_t);
    const size_t vec_bytes = rows * prefix.dim * sizeof(float);
    std::memcpy(state.vectors.data(), p, vec_bytes);
    fnv.Update(p, vec_bytes);
  }
  uint64_t digest = 0;
  std::memcpy(&digest, bytes + len - sizeof(digest), sizeof(digest));
  if (digest != fnv.Digest()) {
    throw std::runtime_error("checkpoint checksum mismatch: " + context);
  }
  return state;
}

ShardedIndex::CheckpointState WriteAheadLog::ReadCheckpoint(
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw std::runtime_error("cannot open checkpoint: " + path);
  }
  struct Closer {
    std::FILE* f;
    ~Closer() { std::fclose(f); }
  } closer{f};

  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    throw std::runtime_error("cannot stat checkpoint: " + path);
  }
  std::vector<unsigned char> bytes(static_cast<size_t>(st.st_size));
  if (!bytes.empty() &&
      std::fread(bytes.data(), 1, bytes.size(), f) != bytes.size()) {
    throw std::runtime_error("checkpoint read failed: " + path);
  }
  return DecodeCheckpoint(bytes.data(), bytes.size(), path);
}

// --- Tailer ------------------------------------------------------------------

WriteAheadLog::Tailer WriteAheadLog::TailSegments(const std::string& dir,
                                                  uint64_t start_version) {
  if (start_version == 0) {
    throw std::runtime_error("TailSegments: start_version must be >= 1");
  }
  Tailer tailer;
  tailer.dir_ = dir;
  tailer.next_version_ = start_version;
  tailer.deliver_from_ = start_version;
  // Eagerly detect a GC gap (the caller must bootstrap from a checkpoint
  // instead of tailing); an empty directory just means the writer has not
  // opened its first segment yet.
  const std::vector<SegmentInfo> segments = ListSegments(dir);
  if (!segments.empty() && segments.front().first_version > start_version) {
    throw std::runtime_error(
        "TailSegments: version " + std::to_string(start_version) +
        " already truncated away (oldest segment starts at " +
        std::to_string(segments.front().first_version) + "): " + dir);
  }
  return tailer;
}

bool WriteAheadLog::Tailer::AdvanceSegment() {
  const std::vector<SegmentInfo> segments = WriteAheadLog::ListSegments(dir_);
  const SegmentInfo* best = nullptr;
  for (const SegmentInfo& s : segments) {
    if (s.first_version <= next_version_ &&
        (best == nullptr || s.first_version > best->first_version)) {
      best = &s;
    }
  }
  if (best == nullptr) {
    if (!segments.empty()) {
      throw std::runtime_error(
          "WAL tail gap: version " + std::to_string(next_version_) +
          " already truncated away (oldest segment starts at " +
          std::to_string(segments.front().first_version) + "): " + dir_);
    }
    return false;  // nothing on disk yet
  }
  if (file_ != nullptr && best->path == segment_path_) {
    return false;  // no successor yet — stay where we are
  }
  File f(std::fopen(best->path.c_str(), "rb"));
  if (f == nullptr) {
    // Listed a moment ago but gone now: checkpoint GC raced us. The next
    // Poll re-lists and either finds a successor or reports the gap.
    return false;
  }
  uint64_t first_version = 0;
  const ReadStatus status = ReadSegmentHeader(f.get(), best->path,
                                              best->first_version,
                                              &first_version);
  if (status == ReadStatus::kShortHeader) {
    // The writer creates a segment with a single 24-byte header write; a
    // short file here is that write still landing. Only if the stream has
    // moved past this segment is a short header settled damage.
    for (const SegmentInfo& s : segments) {
      if (s.first_version > best->first_version) {
        throw std::runtime_error("WAL tail: truncated segment header: " +
                                 best->path);
      }
    }
    return false;
  }
  if (status != ReadStatus::kOk) {
    throw std::runtime_error(std::string("WAL tail: bad segment header (") +
                             StatusName(status) + "): " + best->path);
  }
  file_ = std::move(f);
  segment_path_ = best->path;
  segment_first_version_ = best->first_version;
  offset_ = kWalHeaderBytes;
  next_version_ = best->first_version;
  return true;
}

uint64_t WriteAheadLog::Tailer::PendingBytes() const {
  uint64_t pending = 0;
  for (const SegmentInfo& s : WriteAheadLog::ListSegments(dir_)) {
    struct stat st;
    if (::stat(s.path.c_str(), &st) != 0) continue;
    const uint64_t size = static_cast<uint64_t>(st.st_size);
    if (file_ != nullptr && s.path == segment_path_) {
      if (size > offset_) pending += size - offset_;
    } else if (s.first_version >
               (file_ != nullptr ? segment_first_version_ : 0)) {
      if (size > kWalHeaderBytes) pending += size - kWalHeaderBytes;
    }
  }
  return pending;
}

size_t WriteAheadLog::Tailer::Poll(
    const std::function<void(const Record&, const unsigned char* frame,
                             size_t frame_bytes)>& fn,
    size_t max_records) {
  size_t delivered = 0;
  std::vector<unsigned char> frame;
  Record record;
  // A short or mangled frame at the write head is an append in flight (the
  // writer's prelude/body land in two write()s) — wait and retry. The same
  // bytes are settled corruption once anything exists beyond them: more
  // bytes in this file, or a later segment.
  const auto settled = [&](uint64_t frame_end) {
    struct stat st;
    if (::stat(segment_path_.c_str(), &st) == 0 &&
        static_cast<uint64_t>(st.st_size) > frame_end) {
      return true;
    }
    for (const SegmentInfo& s : WriteAheadLog::ListSegments(dir_)) {
      if (s.first_version > segment_first_version_) return true;
    }
    return false;
  };
  while (delivered < max_records) {
    if (file_ == nullptr && !AdvanceSegment()) return delivered;
    const ReadStatus status = ReadFrame(file_.get(), segment_path_, offset_,
                                        next_version_, &frame, &record);
    if (status == ReadStatus::kEnd) {
      // End of this segment: rotate when the dense successor exists.
      bool successor = false;
      bool later = false;
      for (const SegmentInfo& s : WriteAheadLog::ListSegments(dir_)) {
        if (s.first_version == next_version_ && s.path != segment_path_) {
          successor = true;
        }
        if (s.first_version > next_version_) later = true;
      }
      if (successor) {
        file_.reset();
        continue;  // AdvanceSegment opens it
      }
      if (later) {
        throw std::runtime_error(
            "WAL tail gap: version " + std::to_string(next_version_) +
            " missing between segments: " + dir_);
      }
      return delivered;  // caught up with the writer
    }
    if (status != ReadStatus::kOk) {
      // A whole prelude lands in one write(), so only a short read or a
      // checksum mismatch can be a write still landing.
      const bool may_be_landing = status == ReadStatus::kTornPrelude ||
                                  status == ReadStatus::kTornBody ||
                                  status == ReadStatus::kBadChecksum;
      if (may_be_landing && !settled(offset_ + frame.size())) {
        return delivered;
      }
      throw std::runtime_error(std::string("WAL tail: ") + StatusName(status) +
                               ": " + segment_path_);
    }
    if (record.version >= deliver_from_) {
      if (fn) fn(record, frame.data(), frame.size());
      ++delivered;
    }
    offset_ += frame.size();
    ++next_version_;
  }
  return delivered;
}

}  // namespace serve
}  // namespace lccs
