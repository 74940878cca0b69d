#ifndef LCCS_CORE_STREAM_IO_H_
#define LCCS_CORE_STREAM_IO_H_

#include <cstdint>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>

namespace lccs {
namespace core {
namespace io {

/// Little-endian-native stream helpers of the index serialization code
/// (core/serialize.cc, core/csa.cc). ReadPod throws std::runtime_error
/// naming `what` — the stream being parsed — on a short read, so truncated
/// files surface as errors, never as half-initialized structures.

template <typename T>
void WritePod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
void ReadPod(std::istream& in, T* value, const char* what) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  if (!in) throw std::runtime_error(std::string("truncated ") + what);
}

/// Bytes left between the current position and the end of the stream, or
/// UINT64_MAX when the stream is not seekable. Header-derived allocations
/// are capped by this, so a corrupt header that passes the range checks
/// still cannot drive a resize beyond what the stream could possibly back,
/// surfacing as a corrupt-stream runtime_error instead of bad_alloc. The
/// read position is restored before returning.
inline uint64_t RemainingBytes(std::istream& in) {
  const std::istream::pos_type pos = in.tellg();
  if (pos == std::istream::pos_type(-1)) {
    return std::numeric_limits<uint64_t>::max();
  }
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.seekg(pos);
  if (!in || end == std::istream::pos_type(-1) || end < pos) {
    in.clear();
    in.seekg(pos);
    return std::numeric_limits<uint64_t>::max();
  }
  return static_cast<uint64_t>(end - pos);
}

}  // namespace io
}  // namespace core
}  // namespace lccs

#endif  // LCCS_CORE_STREAM_IO_H_
