#!/usr/bin/env bash
# Builds the repo with TABLEGAN_SANITIZE=address and runs the I/O and
# serialization tests (CSV round-trips, checkpoint corruption matrix,
# resume determinism) under AddressSanitizer, so Load on truncated or
# bit-flipped files is verified to fail cleanly rather than read out of
# bounds. conv_sweep_test covers the batched convolution lowering, whose
# strided column-block copies are where an off-by-stride write would
# land.
#
# Usage: tools/run_asan_tests.sh [build-dir]   (default: build-asan)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build-asan}"

asan_tests=(
  data_test
  schema_text_test
  csv_robustness_test
  serialization_test
  checkpoint_resume_test
  checkpoint_golden_test
  failpoint_test
  property_fuzz_test
  loss_mode_test
  divergence_guard_test
  kernel_parity_test
  conv_sweep_test
  serve_protocol_test
  columnar_test
  chunked_test
  gmm_normalizer_test
  conditional_test
)

cmake -B "${build_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DTABLEGAN_SANITIZE=address
cmake --build "${build_dir}" -j "$(nproc)" --target "${asan_tests[@]}"

filter="$(IFS='|'; echo "${asan_tests[*]}")"
# Fail on any leak or error; abort_on_error gives a backtrace at the
# first report instead of carrying on.
ASAN_OPTIONS="${ASAN_OPTIONS:-abort_on_error=1:detect_leaks=1}" \
  ctest --test-dir "${build_dir}" --output-on-failure -R "^(${filter})$"
