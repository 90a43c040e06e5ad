#!/usr/bin/env python3
"""Build bidec_bench from source and run one workload of the benchmark.

Run from the root of a checkout:

    python3 bench/e2e/run.py --workload mcnc_bdd --seed 1 --seconds 20 --trace 0

The benchmark builds into .bench_build/ (CMake, Release), generates the
workload's inputs from the seed under .bench_build/runs/, and forwards the
binary's output: provenance, one row per measured fact, and as the last line
one JSON object with the metrics. The exit code is the binary's; 2 means the
sources or the build are missing.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("mcnc_bdd", "reorder_auto", "sat_certified", "server_mix")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def commit_id(root):
    """The git commit, or a digest of the sources outside a git checkout."""
    if not (root / ".git").exists():
        return sources_digest(root)
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return sources_digest(root)


def sources_digest(root):
    digest = hashlib.sha256()
    for top in ("src", "bench/e2e"):
        for path in sorted((root / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:20]


def build(root, build_dir):
    """Configure (once) and build bidec_bench; build output goes to stderr."""
    jobs = str(len(os.sched_getaffinity(0)))
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(root / "bench" / "e2e"), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(build_dir), "--target", "bidec_bench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / "bidec_bench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path(__file__).resolve().parents[2]
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"no sources under {root / 'src'}; run from a full checkout")
    build_dir = root / ".bench_build" / "e2e"
    binary = build(root, build_dir)
    work_dir = root / ".bench_build" / "runs" / f"{args.workload}-seed{args.seed}"

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit_id(root), "--work-dir", str(work_dir)]
    sys.stdout.flush()
    # Own process group, so a timeout also stops the server child.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
