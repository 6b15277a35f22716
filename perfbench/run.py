#!/usr/bin/env python3
"""The repository benchmark: build acornd and the harness, run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/CMakeLists.txt (the acorn libraries, the shipped acornd
binary and the acorn_perf harness) into $CARGO_TARGET_DIR, default
.bench_build; later runs rebuild only what changed. The harness prints
stamps, digests and sample counts, then one JSON line with the result;
this script passes its output and exit status through.

Extra modes:
    --self-test        build and run the harness arithmetic tests
    --determinism      run the workload twice at the same seed and fail
                       unless both runs print the same digests

Workloads: serial_rt, epoch_dense and gap_sweep, which BENCHMARK.json
names, and fleet_durable, which runs on request only (perfbench/README.md
says what each one measures and why).
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("serial_rt", "fleet_durable", "epoch_dense", "gap_sweep")
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def repo_root():
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(root, build_dir, target):
    """Configure (once) and build `target`."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no acorn sources next to perfbench/ (expected src/CMakeLists.txt)")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", BUILD_JOBS,
                  "--target", target])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed: " + " ".join(cmd))


def source_id(root):
    """Commit id when the tree is a git checkout, plus a digest of the
    sources, so a result can be traced to its code either way."""
    commit = "nogit"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "--short=12",
                              "HEAD"], capture_output=True, text=True,
                             timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            commit = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return commit + "+src." + h.hexdigest()[:12]


def run_harness(build_dir, args, commit):
    """Run acorn_perf in a fresh working directory under the build dir;
    returns (exit status, stdout lines). The harness and the acornd it
    starts share one process group, which is killed on timeout."""
    work = os.path.join(build_dir, "run", "%s-%d" % (args.workload,
                                                     os.getpid()))
    results = os.path.join(build_dir, "results")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(results, exist_ok=True)
    record = os.path.join(results, "%s-seed%d-trace%d.json" % (
        args.workload, args.seed, args.trace))
    cmd = [os.path.join(build_dir, "acorn_perf"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--acornd", os.path.join(build_dir, "acorn", "service", "acornd"),
           "--record", record, "--commit", commit]
    proc = subprocess.Popen(cmd, cwd=work, stdout=subprocess.PIPE,
                            text=True, preexec_fn=os.setpgrp)
    lines = []
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        out, _ = proc.communicate(timeout=max(1, deadline - time.monotonic()))
        lines = out.splitlines()
        status = proc.returncode
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 3)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # any stray acornd
        except ProcessLookupError:
            pass
        shutil.rmtree(work, ignore_errors=True)
    return status, lines


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--determinism", action="store_true")
    args = p.parse_args()

    root = repo_root()
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    # Compiler and harness temporaries stay inside the build directory.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    if args.self_test:
        build(root, build_dir, "perfbench_measure_test")
        sys.exit(subprocess.call([os.path.join(build_dir,
                                               "perfbench_measure_test")]))
    if args.workload is None:
        fail("--workload is required")
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    build(root, build_dir, "acorn_perf")
    commit = source_id(root)

    runs = 2 if args.determinism else 1
    digests = []
    status = 0
    for _ in range(runs):
        status, lines = run_harness(build_dir, args, commit)
        for line in lines:
            print(line)
        sys.stdout.flush()
        digests.append([l for l in lines if l.startswith("digest:")])
        if status != 0:
            sys.exit(status)
    if args.determinism:
        if digests[0] != digests[1] or not digests[0]:
            fail("determinism: digests differ between two runs at seed %d: "
                 "%s vs %s" % (args.seed, digests[0], digests[1]), 1)
        print("determinism: both runs printed %s" % digests[0][0],
              file=sys.stderr)
    sys.exit(status)


if __name__ == "__main__":
    main()
