#!/usr/bin/env bash
# Builds the repo with TABLEGAN_SANITIZE=undefined and runs the kernel
# and substrate tests under UBSan (-fno-sanitize-recover=all, so any
# undefined behavior — misaligned vector loads, signed overflow in index
# arithmetic, out-of-range float casts — fails the run). The SIMD
# backends are the main target: every intrinsics path is driven through
# the parity suite's awkward-shape sweep. The serve-protocol, CSV and
# failpoint suites cover the frame writer and the char-buffer CSV writer.
#
# Usage: tools/run_ubsan_tests.sh [build-dir]   (default: build-ubsan)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build-ubsan}"

ubsan_tests=(
  common_test
  tensor_test
  matmul_parallel_test
  kernel_parity_test
  nn_test
  nn_gradcheck_test
  nn_misc_test
  conv_sweep_test
  property_fuzz_test
  loss_mode_test
  columnar_test
  chunked_test
  gmm_normalizer_test
  conditional_test
  checkpoint_golden_test
  serve_protocol_test
  csv_robustness_test
  failpoint_test
)

cmake -B "${build_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DTABLEGAN_SANITIZE=undefined
cmake --build "${build_dir}" -j "$(nproc)" --target "${ubsan_tests[@]}"

filter="$(IFS='|'; echo "${ubsan_tests[*]}")"
# print_stacktrace gives symbolized reports.
UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}" \
  ctest --test-dir "${build_dir}" --output-on-failure -R "^(${filter})$"
