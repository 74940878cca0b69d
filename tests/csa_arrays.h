#ifndef LCCS_TESTS_CSA_ARRAYS_H_
#define LCCS_TESTS_CSA_ARRAYS_H_

#include <cstdint>
#include <string>

#include "core/csa.h"

namespace lccs {
namespace core {

/// Every array of a built CSA as one byte string, for comparing two CSAs
/// with EXPECT_EQ: n, m, the hash strings, then per shift I_i, N_i and L_i
/// (its n - 1 read entries). Equal strings mean equal structures. The CSA
/// must still hold its next links (no ReleaseNextLinks).
inline std::string CsaArrays(const CircularShiftArray& csa) {
  std::string bytes;
  const auto append = [&bytes](const auto& value) {
    bytes.append(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  const size_t n = csa.n(), m = csa.m();
  append(static_cast<uint64_t>(n));
  append(static_cast<uint64_t>(m));
  for (size_t id = 0; id < n; ++id) {
    const HashValue* row = csa.String(static_cast<int32_t>(id));
    for (size_t i = 0; i < m; ++i) append(row[i]);
  }
  for (size_t shift = 0; shift < m; ++shift) {
    for (size_t pos = 0; pos < n; ++pos) append(csa.SortedId(shift, pos));
    for (size_t pos = 0; pos < n; ++pos) append(csa.NextPosition(shift, pos));
    for (size_t pos = 0; pos + 1 < n; ++pos) {
      append(csa.AdjacentLcp(shift, pos));
    }
  }
  return bytes;
}

}  // namespace core
}  // namespace lccs

#endif  // LCCS_TESTS_CSA_ARRAYS_H_
