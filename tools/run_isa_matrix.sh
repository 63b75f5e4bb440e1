#!/usr/bin/env bash
# Runs the full ctest suite once per instruction-set backend:
# TABLEGAN_ISA=scalar (the golden-pinned reference) and, when the host
# supports it, TABLEGAN_ISA=avx2 without and with TABLEGAN_FMA=1. A host
# without AVX2 skips those legs gracefully instead of failing. Every test
# must pass under every backend — this is the cross-ISA acceptance gate
# for the dispatch layer (DESIGN.md §12).
#
# Every leg runs even when an earlier one fails; a per-leg summary is
# printed at the end and the script exits non-zero if any leg failed.
#
# Usage: tools/run_isa_matrix.sh [build-dir]   (default: build)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"

cmake -B "${build_dir}" -S "${repo_root}"
cmake --build "${build_dir}" -j "$(nproc)"

# Each leg is a label and the environment assignments it runs under.
legs=("scalar|TABLEGAN_ISA=scalar")
# Probe the host the same way the dispatcher does (CPUID); grep'ing
# /proc/cpuinfo keeps the probe dependency-free and works in containers.
if grep -qw avx2 /proc/cpuinfo 2>/dev/null && \
   grep -qw fma /proc/cpuinfo 2>/dev/null; then
  legs+=("avx2|TABLEGAN_ISA=avx2"
         "avx2+fma|TABLEGAN_ISA=avx2 TABLEGAN_FMA=1")
else
  echo "== host lacks AVX2+FMA; skipping the avx2 legs =="
fi

summary=()
failed=0
for leg in "${legs[@]}"; do
  name="${leg%%|*}"
  read -r -a vars <<< "${leg#*|}"
  echo "== ctest with ${vars[*]} =="
  if env "${vars[@]}" ctest --test-dir "${build_dir}" --output-on-failure; then
    summary+=("PASS  ${name}")
  else
    summary+=("FAIL  ${name}")
    failed=1
  fi
done

echo "== ISA matrix summary =="
printf '%s\n' "${summary[@]}"
exit "${failed}"
