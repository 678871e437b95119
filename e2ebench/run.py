#!/usr/bin/env python3
"""Build and run the eDKM end-to-end benchmark.

Usage (from the repository root):

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

The first call configures and builds e2ebench/ (the library from src/
plus the benchmark) into .bench_build/e2ebench; later calls rebuild only
what changed. Build output goes to stderr, so the last line of stdout is
the benchmark's JSON result.

The benchmark process gets EDKM_NUM_THREADS=1 unless it is already set.
On a shared host whose vCPUs are preempted, a parallel region waits for
its slowest thread, and run-to-run spread grew several-fold with 3 pool
threads. One pool thread measures per-thread efficiency steadily; the
repository's scaling benches cover parallel speedup.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(".bench_build", "e2ebench")
RUN_TIMEOUT_S = 170


def build():
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if not os.path.exists(cache):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(max(1, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "e2ebench")


def main():
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"e2ebench: build failed: {err}", file=sys.stderr)
        return 3
    env = dict(os.environ)
    env.setdefault("EDKM_NUM_THREADS", "1")
    proc = subprocess.Popen([binary] + sys.argv[1:], env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("e2ebench: run timed out", file=sys.stderr)
        return 4
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main())
