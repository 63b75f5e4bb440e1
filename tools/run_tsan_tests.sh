#!/usr/bin/env bash
# Builds the repo with TABLEGAN_SANITIZE=thread and runs the substrate
# tests (common / tensor / nn layers) plus the parallel evaluation
# pipeline tests (sampling, DCR, fidelity) that exercise the
# thread-parallel GEMM, convolution and nearest-neighbor kernels, and
# the ml tests (random-forest fits on the pool, concurrent MLP
# predictions) under ThreadSanitizer.
#
# Usage: tools/run_tsan_tests.sh [build-dir]   (default: build-tsan)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build-tsan}"

tsan_tests=(
  common_test
  tensor_test
  matmul_parallel_test
  threading_determinism_test
  nn_test
  nn_gradcheck_test
  nn_misc_test
  loss_mode_test
  conv_sweep_test
  parallel_eval_test
  eval_test
  privacy_test
  kernel_parity_test
  serve_protocol_test
  columnar_test
  chunked_test
  gmm_normalizer_test
  conditional_test
  ml_test
)

cmake -B "${build_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DTABLEGAN_SANITIZE=thread
cmake --build "${build_dir}" -j "$(nproc)" --target "${tsan_tests[@]}"

filter="$(IFS='|'; echo "${tsan_tests[*]}")"
# halt_on_error makes a race fail the test run instead of just logging.
TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
  ctest --test-dir "${build_dir}" --output-on-failure -R "^(${filter})$"
