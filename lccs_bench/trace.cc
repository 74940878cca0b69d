#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace lccs_bench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const size_t index = rank == 0 ? 0 : std::min(rank, values.size()) - 1;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

CallStats Summarize(const std::vector<double>& seconds) {
  CallStats stats;
  stats.calls = seconds.size();
  for (const double s : seconds) stats.busy_s += s;
  stats.p50 = Percentile(seconds, 0.50);
  stats.p99 = Percentile(seconds, 0.99);
  return stats;
}

uint32_t Tracer::Begin(const char* name, uint64_t request_id) {
  if (!enabled_) return kNone;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? kNone : open_.back();
  span.request_id = request_id;
  const auto index = static_cast<uint32_t>(spans_.size());
  open_.push_back(index);
  span.start_ns = NowNs();
  spans_.push_back(span);
  return index;
}

void Tracer::End(uint32_t span) {
  if (span == kNone) return;
  spans_[span].end_ns = NowNs();
  // Scopes close in LIFO order, so the span being closed is the top.
  open_.pop_back();
}

std::map<std::string, std::vector<double>> Tracer::SelfTimes() const {
  // Children of one span run one after another on the replay thread, so
  // the part of a span they cover is the sum of their durations.
  std::vector<uint64_t> covered(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent != kNone) {
      covered[span.parent] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, std::vector<double>> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const uint64_t duration = spans_[i].end_ns - spans_[i].start_ns;
    const uint64_t self = duration > covered[i] ? duration - covered[i] : 0;
    out[spans_[i].name].push_back(static_cast<double>(self) * 1e-9);
  }
  return out;
}

void Tracer::WriteChromeTrace(const std::string& path,
                              const std::string& process_name) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw std::runtime_error("cannot write " + path);
  const uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(out,
               "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
               "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
               "\"tid\": 1, \"args\": {\"name\": \"%s\"}}",
               process_name.c_str());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(out,
                 ",\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"span\": %zu, \"parent\": %lld, \"request\": %llu}}",
                 span.name, static_cast<double>(span.start_ns - origin) * 1e-3,
                 static_cast<double>(span.end_ns - span.start_ns) * 1e-3, i,
                 span.parent == kNone ? -1LL
                                      : static_cast<long long>(span.parent),
                 static_cast<unsigned long long>(span.request_id));
  }
  std::fprintf(out, "\n]}\n");
  if (std::fclose(out) != 0) throw std::runtime_error("cannot write " + path);
}

}  // namespace lccs_bench
