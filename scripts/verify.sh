#!/usr/bin/env bash
# Tier-1 verification: configure, build everything (library, 35 test
# binaries, all benches and examples) with -Wall -Wextra, fail the build on
# any warning in src/ (-DLCCS_WERROR=ON adds -Werror to the lccs library
# target only), then run the full CTest suite.
#
# LCCS_BUILD_TYPE selects the CMake build type (default Release, so the
# -O3-compiled SIMD kernels are what gets tested).
set -euo pipefail

cd "$(dirname "$0")/.."

: "${LCCS_BUILD_TYPE:=Release}"

cmake -B build -S . -DLCCS_WERROR=ON -DCMAKE_BUILD_TYPE="${LCCS_BUILD_TYPE}"
cmake --build build -j "$(nproc)"
cd build
ctest --output-on-failure -j "$(nproc)"
