#!/usr/bin/env python3
"""Builds and runs the table-GAN end-to-end benchmark.

Run from the root of a checkout:

    python3 e2ebench/run.py --workload <train-lacity|serve-mixed|release-audit>
        --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --self-test     # unit tests of the helpers

The first run configures and builds the libraries from ../src and the
benchmark in .bench_build/e2ebench (Release); later runs only rebuild what
changed. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. The exit code is the benchmark's: 0 only when
every output check passed.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")


def fail(message):
    print("e2ebench/run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build(target):
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build of " + target + " failed")
    return os.path.join(BUILD, target)


def source_digest():
    """sha256 over the library and benchmark sources, for provenance when
    the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    """HEAD of the checkout, or "unknown" when the checkout is not itself a
    git work tree (a parent directory's repository does not count)."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2:
        return "unknown"
    if os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def main(argv):
    if argv == ["--self-test"]:
        return subprocess.run([build("e2ebench_helpers_test")]).returncode
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("table-GAN sources not found at " + os.path.join(ROOT, "src"))
    binary = build("e2ebench")
    cmd = [binary] + argv + ["--git-sha", git_sha(),
                             "--source-digest", source_digest()]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
