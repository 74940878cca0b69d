#include "serve/replication.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <stdexcept>

namespace lccs {
namespace serve {

namespace {

constexpr char kReplMagic[8] = {'L', 'C', 'C', 'S', 'R', 'E', 'P', '1'};
constexpr uint32_t kReplFormatVersion = 1;
constexpr size_t kHelloBytes = 20;  ///< magic + format + have_version
constexpr size_t kReplyBytes = 28;  ///< magic + format + start + ckpt_len

/// Records forwarded per Tailer::Poll before stats are refreshed.
constexpr size_t kMaxBatchRecords = 256;
/// Sleep between polls while caught up with the writer.
constexpr useconds_t kIdlePollUs = 500;

/// The heartbeat frame (layout in replication.h) is a record frame of the
/// WAL codec (wal.h) with this wire-only kind and two uint64 gauges after
/// the body's version, kind and id.
constexpr uint8_t kKindHeartbeat = 2;
constexpr size_t kHeartbeatBodyBytes =
    WriteAheadLog::kMinFrameBodyBytes + 2 * sizeof(uint64_t);
/// Bootstrap checkpoint sanity cap (a mangled reply must not make the
/// follower allocate petabytes).
constexpr uint64_t kMaxCheckpointBytes = 1ull << 40;
/// The bootstrap image buffer grows by at most this much per receive, so
/// memory follows the bytes that actually arrived.
constexpr size_t kBootstrapStepBytes = size_t{64} << 20;

uint64_t NowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Blocking full send; false on any error (peer gone). MSG_NOSIGNAL: a
/// vanished follower must surface as an error, not SIGPIPE.
bool SendAll(int fd, const void* data, size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t sent = ::send(fd, p, n, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += sent;
    n -= static_cast<size_t>(sent);
  }
  return true;
}

enum class RecvStatus { kOk, kClosed, kStopped };

/// Reads exactly n bytes. The socket carries a receive timeout; every
/// timeout tick re-checks `stop` so Stop() never waits on a silent peer.
RecvStatus RecvFull(int fd, void* data, size_t n,
                    const std::function<bool()>& stop) {
  char* p = static_cast<char*>(data);
  while (n > 0) {
    const ssize_t got = ::recv(fd, p, n, 0);
    if (got == 0) return RecvStatus::kClosed;
    if (got < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (stop && stop()) return RecvStatus::kStopped;
        continue;
      }
      return RecvStatus::kClosed;
    }
    p += got;
    n -= static_cast<size_t>(got);
  }
  return RecvStatus::kOk;
}

void SetRecvTimeout(int fd, uint64_t timeout_us) {
  struct timeval tv;
  tv.tv_sec = static_cast<time_t>(timeout_us / 1000000);
  tv.tv_usec = static_cast<suseconds_t>(timeout_us % 1000000);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

void SetNoDelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// A heartbeat frame, built by the WAL's frame encoder so the follower's
/// one frame loop handles it. Version 0: it sits outside the log.
std::vector<unsigned char> EncodeHeartbeat(uint64_t head_version,
                                           uint64_t pending_bytes) {
  return WriteAheadLog::EncodeFrame(
      0, kKindHeartbeat, -1,
      {{&head_version, sizeof(head_version)},
       {&pending_bytes, sizeof(pending_bytes)}});
}

/// Thrown inside the ship loop when the follower socket fails — the
/// connection is over, but the shipper itself is healthy.
struct FollowerGone {};

}  // namespace

// --- LogShipper --------------------------------------------------------------

LogShipper::LogShipper(ShardedIndex* index, WriteAheadLog* wal,
                       Options options)
    : index_(index), wal_(wal), options_(std::move(options)) {}

LogShipper::~LogShipper() { Stop(); }

void LogShipper::Failpoint(const char* site) const {
  if (options_.failpoint) options_.failpoint(site);
}

void LogShipper::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (listen_fd_ >= 0) return;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error("LogShipper: cannot create socket");
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, 16) != 0) {
    ::close(fd);
    throw std::runtime_error("LogShipper: cannot bind 127.0.0.1:" +
                             std::to_string(options_.port));
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr),
                    &addr_len) != 0) {
    ::close(fd);
    throw std::runtime_error("LogShipper: getsockname failed");
  }
  listen_fd_ = fd;
  port_ = ntohs(addr.sin_port);
  accept_thread_ = std::thread(&LogShipper::AcceptLoop, this);
}

void LogShipper::Stop() {
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
    for (int fd : follower_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    threads.swap(follower_threads_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

uint16_t LogShipper::port() const {
  std::lock_guard<std::mutex> lock(mu_);
  return port_;
}

LogShipper::Stats LogShipper::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void LogShipper::AcceptLoop() {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return;
    }
    struct pollfd pfd;
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int ready = ::poll(&pfd, 1, 100);
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    SetRecvTimeout(fd, 100000);
    SetNoDelay(fd);
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      ::close(fd);
      return;
    }
    ++stats_.followers_connected;
    ++stats_.followers_active;
    follower_fds_.push_back(fd);
    follower_threads_.emplace_back(&LogShipper::ServeFollower, this, fd);
  }
}

WriteAheadLog::Tailer LogShipper::Handshake(int fd) {
  unsigned char hello[kHelloBytes];
  const auto stopped = [this] {
    std::lock_guard<std::mutex> lock(mu_);
    return stopping_;
  };
  if (RecvFull(fd, hello, sizeof(hello), stopped) != RecvStatus::kOk) {
    throw FollowerGone{};
  }
  uint32_t format = 0;
  uint64_t have_version = 0;
  std::memcpy(&format, hello + 8, sizeof(format));
  std::memcpy(&have_version, hello + 12, sizeof(have_version));
  if (std::memcmp(hello, kReplMagic, sizeof(kReplMagic)) != 0 ||
      format != kReplFormatVersion) {
    throw std::runtime_error("LogShipper: bad follower hello");
  }

  const auto reply = [&](uint64_t start_version, uint64_t ckpt_len) {
    unsigned char head[kReplyBytes];
    std::memcpy(head, kReplMagic, sizeof(kReplMagic));
    std::memcpy(head + 8, &kReplFormatVersion, sizeof(kReplFormatVersion));
    std::memcpy(head + 12, &start_version, sizeof(start_version));
    std::memcpy(head + 20, &ckpt_len, sizeof(ckpt_len));
    if (!SendAll(fd, head, sizeof(head))) throw FollowerGone{};
  };

  if (have_version > 0) {
    // Resume: the follower keeps its state and the stream continues at the
    // next dense version — unless checkpoint GC already reclaimed it.
    try {
      WriteAheadLog::Tailer tailer =
          WriteAheadLog::TailSegments(wal_->dir(), have_version + 1);
      reply(have_version + 1, 0);
      return tailer;
    } catch (const std::runtime_error&) {
      // Fall through to a bootstrap.
    }
  }

  // Bootstrap: a live checkpoint capture, then tail from right past it. A
  // checkpoint GC can race between the capture and the tail (reclaiming
  // the captured version's segments), so retry with a fresh capture.
  for (int attempt = 0;; ++attempt) {
    const ShardedIndex::CheckpointState state =
        index_->CaptureCheckpointState();
    std::optional<WriteAheadLog::Tailer> tailer;
    try {
      tailer.emplace(
          WriteAheadLog::TailSegments(wal_->dir(), state.state_version + 1));
    } catch (const std::runtime_error&) {
      if (attempt >= 4) throw;
      continue;
    }
    const std::vector<unsigned char> image =
        WriteAheadLog::EncodeCheckpoint(state);
    reply(state.state_version + 1, image.size());
    if (!SendAll(fd, image.data(), image.size())) throw FollowerGone{};
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.bootstraps_sent;
    }
    return std::move(*tailer);
  }
}

void LogShipper::ServeFollower(int fd) {
  try {
    WriteAheadLog::Tailer tailer = Handshake(fd);
    uint64_t last_heartbeat_us = 0;  // heartbeat immediately after handshake
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (stopping_) break;
      }
      uint64_t batch_bytes = 0;
      const size_t shipped = tailer.Poll(
          [&](const WriteAheadLog::Record&, const unsigned char* frame,
              size_t frame_bytes) {
            // Two sends with a failpoint between them: the kill harness
            // SIGKILLs the primary with half a frame on the wire, which the
            // follower must survive (reconnect + resume).
            const size_t split = frame_bytes / 2;
            if (!SendAll(fd, frame, split)) throw FollowerGone{};
            Failpoint("repl:ship:mid_frame");
            if (!SendAll(fd, frame + split, frame_bytes - split)) {
              throw FollowerGone{};
            }
            batch_bytes += frame_bytes;
            Failpoint("repl:ship:after_frame");
          },
          kMaxBatchRecords);
      if (shipped > 0) {
        std::lock_guard<std::mutex> lock(mu_);
        stats_.records_shipped += shipped;
        stats_.bytes_shipped += batch_bytes;
        stats_.shipped_version =
            std::max(stats_.shipped_version, tailer.next_version() - 1);
        continue;  // drain the backlog before going idle
      }
      const uint64_t now = NowUs();
      if (now - last_heartbeat_us >= options_.heartbeat_us) {
        const std::vector<unsigned char> heartbeat =
            EncodeHeartbeat(wal_->last_version(), tailer.PendingBytes());
        if (!SendAll(fd, heartbeat.data(), heartbeat.size())) break;
        last_heartbeat_us = now;
      }
      ::usleep(kIdlePollUs);
    }
  } catch (const FollowerGone&) {
    // Normal follower departure.
  } catch (const std::exception&) {
    // Tail gap or settled corruption: drop the connection; the follower
    // reconnects and the handshake bootstraps it past the damage.
  }
  ::close(fd);
  std::lock_guard<std::mutex> lock(mu_);
  --stats_.followers_active;
  follower_fds_.erase(
      std::remove(follower_fds_.begin(), follower_fds_.end(), fd),
      follower_fds_.end());
}

// --- Replica -----------------------------------------------------------------

Replica::Replica(std::string host, uint16_t port, Options options)
    : host_(std::move(host)), port_(port), options_(std::move(options)) {
  if (!options_.factory) {
    throw std::runtime_error("Replica: a shard factory is required");
  }
  ShardedIndex::Options index_options;
  index_options.num_shards = options_.num_shards;
  index_ = std::make_unique<ShardedIndex>(options_.factory, index_options);
}

Replica::~Replica() { Stop(); }

void Replica::Failpoint(const char* site) const {
  if (options_.failpoint) options_.failpoint(site);
}

void Replica::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) return;
  started_ = true;
  stopping_ = false;
  tail_thread_ = std::thread(&Replica::TailLoop, this);
}

void Replica::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return;
    stopping_ = true;
    if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
  }
  cv_.notify_all();
  if (tail_thread_.joinable()) tail_thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  started_ = false;
}

ShardedSnapshot Replica::AcquireSnapshot() const {
  return index_->AcquireSnapshot();
}

std::vector<util::Neighbor> Replica::Query(const float* vec, size_t k) const {
  return index_->Query(vec, k);
}

Replica::Progress Replica::progress() const {
  std::lock_guard<std::mutex> lock(mu_);
  return progress_;
}

bool Replica::WaitForVersion(uint64_t version, uint64_t timeout_us) const {
  std::unique_lock<std::mutex> lock(mu_);
  return cv_.wait_for(lock, std::chrono::microseconds(timeout_us), [&] {
    return progress_.applied_version >= version || !progress_.error.empty();
  }) && progress_.applied_version >= version;
}

void Replica::TailLoop() {
  bool first = true;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return;
      if (!first) ++progress_.reconnects;
      first = false;
    }
    const bool keep_going = StreamOnce();
    bool done = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      progress_.connected = false;
      done = !keep_going || stopping_;
    }
    cv_.notify_all();  // waiters re-check (poisoned replicas never advance)
    if (done) return;
    ::usleep(static_cast<useconds_t>(options_.reconnect_backoff_us));
  }
}

bool Replica::StreamOnce() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return true;  // transient; retry
  SetRecvTimeout(fd, options_.recv_timeout_us);
  SetNoDelay(fd);
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    std::lock_guard<std::mutex> lock(mu_);
    progress_.error = "Replica: bad primary address: " + host_;
    return false;
  }
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return true;  // primary down or not up yet; retry
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      ::close(fd);
      return false;
    }
    fd_ = fd;
  }
  const auto stopped = [this] {
    std::lock_guard<std::mutex> lock(mu_);
    return stopping_;
  };
  // Leaves `fd_` unregistered again on every exit path.
  struct FdGuard {
    Replica* replica;
    int fd;
    ~FdGuard() {
      ::close(fd);
      std::lock_guard<std::mutex> lock(replica->mu_);
      replica->fd_ = -1;
    }
  } guard{this, fd};

  try {
    // Hello: tell the primary what we already have.
    uint64_t have_version = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      have_version = progress_.applied_version;
    }
    unsigned char hello[kHelloBytes];
    std::memcpy(hello, kReplMagic, sizeof(kReplMagic));
    std::memcpy(hello + 8, &kReplFormatVersion, sizeof(kReplFormatVersion));
    std::memcpy(hello + 12, &have_version, sizeof(have_version));
    if (!SendAll(fd, hello, sizeof(hello))) return true;

    unsigned char reply[kReplyBytes];
    if (RecvFull(fd, reply, sizeof(reply), stopped) != RecvStatus::kOk) {
      return !stopped();
    }
    uint32_t format = 0;
    uint64_t start_version = 0;
    uint64_t ckpt_len = 0;
    std::memcpy(&format, reply + 8, sizeof(format));
    std::memcpy(&start_version, reply + 12, sizeof(start_version));
    std::memcpy(&ckpt_len, reply + 20, sizeof(ckpt_len));
    if (std::memcmp(reply, kReplMagic, sizeof(kReplMagic)) != 0 ||
        format != kReplFormatVersion || start_version == 0 ||
        ckpt_len > kMaxCheckpointBytes) {
      throw std::runtime_error("Replica: bad handshake reply");
    }

    if (ckpt_len > 0) {
      // The image's own prefix must imply exactly the length the reply
      // claims; only then does the buffer grow, a bounded step at a time,
      // as the rows arrive.
      std::vector<unsigned char> image(WriteAheadLog::kCheckpointPrefixBytes);
      if (RecvFull(fd, image.data(), image.size(), stopped) !=
          RecvStatus::kOk) {
        return !stopped();
      }
      const uint64_t implied = WriteAheadLog::CheckpointImageBytes(
          image.data(), image.size(), "replication bootstrap");
      if (implied != ckpt_len) {
        throw std::runtime_error(
            "Replica: bootstrap reply claims " + std::to_string(ckpt_len) +
            " checkpoint bytes, its header implies " + std::to_string(implied));
      }
      // Capacity doubles with the bytes received but never passes
      // ckpt_len, so a growth step holds at most have + ckpt_len bytes.
      while (image.size() < ckpt_len) {
        const size_t have = image.size();
        const size_t step = static_cast<size_t>(
            std::min<uint64_t>(kBootstrapStepBytes, ckpt_len - have));
        if (image.capacity() < have + step) {
          image.reserve(static_cast<size_t>(std::min<uint64_t>(
              ckpt_len, std::max(2 * have, have + step))));
        }
        image.resize(have + step);
        if (RecvFull(fd, image.data() + have, step, stopped) !=
            RecvStatus::kOk) {
          return !stopped();
        }
      }
      const ShardedIndex::CheckpointState state = WriteAheadLog::DecodeCheckpoint(
          image.data(), image.size(), "replication bootstrap");
      // The decoded rows are a second copy of the image: free it before the
      // restore builds the shards from them.
      std::vector<unsigned char>().swap(image);
      if (state.state_version + 1 != start_version) {
        throw std::runtime_error(
            "Replica: bootstrap checkpoint does not meet the stream");
      }
      index_->RestoreCheckpointState(state);
      std::lock_guard<std::mutex> lock(mu_);
      progress_.applied_version = state.state_version;
      progress_.primary_version =
          std::max(progress_.primary_version, state.state_version);
      ++progress_.bootstraps;
    } else if (start_version != have_version + 1) {
      throw std::runtime_error("Replica: resume offset mismatch");
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      progress_.connected = true;
    }
    cv_.notify_all();

    // Frame loop: the WAL codec's prelude and checksum check — the
    // segment validation, re-run over the socket.
    std::vector<unsigned char> body;
    for (;;) {
      unsigned char prelude_bytes[WriteAheadLog::kFramePreludeBytes];
      const RecvStatus status =
          RecvFull(fd, prelude_bytes, sizeof(prelude_bytes), stopped);
      if (status != RecvStatus::kOk) return status != RecvStatus::kStopped;
      WriteAheadLog::FramePrelude prelude;
      if (!prelude.Decode(prelude_bytes)) {
        throw std::runtime_error("Replica: implausible frame length");
      }
      body.resize(prelude.body_bytes);
      const RecvStatus body_status =
          RecvFull(fd, body.data(), body.size(), stopped);
      if (body_status != RecvStatus::kOk) {
        return body_status != RecvStatus::kStopped;
      }
      if (!prelude.Matches(body.data())) {
        throw std::runtime_error("Replica: frame checksum mismatch");
      }
      // The kind byte follows the body's uint64 version.
      if (body[sizeof(uint64_t)] == kKindHeartbeat) {
        if (body.size() != kHeartbeatBodyBytes) {
          throw std::runtime_error("Replica: malformed heartbeat");
        }
        uint64_t head_version = 0;
        uint64_t pending_bytes = 0;
        const unsigned char* gauges =
            body.data() + WriteAheadLog::kMinFrameBodyBytes;
        std::memcpy(&head_version, gauges, sizeof(head_version));
        std::memcpy(&pending_bytes, gauges + sizeof(head_version),
                    sizeof(pending_bytes));
        std::lock_guard<std::mutex> lock(mu_);
        progress_.primary_version =
            std::max(progress_.primary_version, head_version);
        progress_.lag_records =
            progress_.primary_version > progress_.applied_version
                ? progress_.primary_version - progress_.applied_version
                : 0;
        progress_.lag_bytes = pending_bytes;
        continue;
      }
      ApplyFrame(body.data(), body.size());
      cv_.notify_all();
    }
  } catch (const std::exception& e) {
    std::lock_guard<std::mutex> lock(mu_);
    progress_.error = e.what();
    return false;  // poisoned: never resume from a diverged state
  }
}

void Replica::ApplyFrame(const unsigned char* body, size_t len) {
  WriteAheadLog::Record record;
  if (!WriteAheadLog::DecodeRecordBody(body, len, &record)) {
    throw std::runtime_error("Replica: malformed record body");
  }
  uint64_t expected = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    expected = progress_.applied_version + 1;
  }
  if (record.version != expected) {
    throw std::runtime_error(
        "Replica: record version out of sequence: got " +
        std::to_string(record.version) + ", expected " +
        std::to_string(expected));
  }
  Failpoint("repl:apply:before");
  WriteAheadLog::ApplyRecord(index_.get(), record);
  std::lock_guard<std::mutex> lock(mu_);
  progress_.applied_version = record.version;
  progress_.primary_version =
      std::max(progress_.primary_version, record.version);
  progress_.lag_records =
      progress_.primary_version > progress_.applied_version
          ? progress_.primary_version - progress_.applied_version
          : 0;
  ++progress_.records_applied;
}

std::unique_ptr<WriteAheadLog> Replica::Promote(
    const std::string& wal_dir, WriteAheadLog::Options wal_options) {
  Stop();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!progress_.error.empty()) {
      throw std::runtime_error("Replica: cannot promote a poisoned replica: " +
                               progress_.error);
    }
  }
  auto wal =
      std::make_unique<WriteAheadLog>(wal_dir, std::move(wal_options));
  // Promotion seals the applied state into a log of its own; adopting an
  // old log here would splice two histories together.
  if (!WriteAheadLog::ListSegments(wal_dir).empty() ||
      !WriteAheadLog::ListCheckpoints(wal_dir).empty()) {
    throw std::runtime_error(
        "Replica: promotion WAL directory is not fresh: " + wal_dir);
  }
  wal->Recover(index_.get());  // adopts the applied state as the base
  // An initial checkpoint makes the new log self-contained: a recovery of
  // this directory reconstructs the promoted state without the old
  // primary's log.
  wal->WriteCheckpoint(index_->CaptureCheckpointState());
  return wal;
}

}  // namespace serve
}  // namespace lccs
