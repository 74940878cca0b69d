#ifndef LCCS_BENCH_TRACE_H_
#define LCCS_BENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace lccs_bench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One reported number, printed by name with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string better;  ///< "lower" or "higher"
  size_t samples = 0;  ///< observations behind the value (0 = one number)
};

/// Summary of one timed operation over its calls.
struct CallStats {
  size_t calls = 0;
  double busy_s = 0.0;
  double p50 = 0.0;  ///< seconds per call
  double p99 = 0.0;  ///< seconds per call
};

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 if empty.
double Percentile(std::vector<double> values, double q);

CallStats Summarize(const std::vector<double>& seconds);

/// In-memory span recorder for the traced replay. Spans are opened and
/// closed from one thread (the replay loop), so the open-span stack gives
/// each span its parent; the library calls inside a span may fan out on the
/// thread pool, but they are timed from outside as one unit. Nothing is
/// written until WriteChromeTrace, so recording costs two clock reads and a
/// vector append per span. A disabled tracer records nothing — the replay
/// runs once each way and the ratio of the two is the tracing overhead.
class Tracer {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  uint32_t Begin(const char* name, uint64_t request_id);
  void End(uint32_t span);

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, uint64_t request_id = 0)
        : tracer_(tracer), span_(tracer->Begin(name, request_id)) {}
    ~Scope() { tracer_->End(span_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    uint32_t span_;
  };

  /// Per span name, the self time of every span in seconds: its duration
  /// minus the part of it that its child spans cover.
  std::map<std::string, std::vector<double>> SelfTimes() const;

  /// Chrome trace-event JSON ("X" complete events, microsecond timestamps),
  /// loadable in Perfetto or chrome://tracing. Throws on I/O failure.
  void WriteChromeTrace(const std::string& path,
                        const std::string& process_name) const;

 private:
  struct Span {
    const char* name = nullptr;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    uint32_t parent = kNone;
    uint64_t request_id = 0;
  };

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
};

}  // namespace lccs_bench

#endif  // LCCS_BENCH_TRACE_H_
