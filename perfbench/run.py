#!/usr/bin/env python3
"""Build dsmr_perfbench from this source tree and run one workload.

    python3 perfbench/run.py --workload threads-private --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The benchmark package (perfbench/CMakeLists.txt) builds the repository's
`dsmr` library from ../src and links the driver against it. Build outputs go
to .bench_build/perfbench at the repository root; a rebuild is incremental.
The driver's last line of standard output is the result JSON (see
perfbench/README.md). The exit code is the driver's, or non-zero when the
build fails or the run overruns its time limit.
"""
import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "dsmr_perfbench")
WORKLOADS = ("threads-private", "threads-shared", "sim-apps")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


_running = []  # the child process group in flight, if any


def _stop_children(signum, _frame):
    """SIGTERM/SIGINT: take the child's whole process group down too."""
    for child in _running:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
    sys.exit(128 + signum)


def run_group(command, timeout, **kwargs):
    """Runs `command` in its own process group and returns its exit code.
    On timeout the whole group (compilers under cmake included) is killed
    and reaped before TimeoutExpired propagates."""
    child = subprocess.Popen(command, start_new_session=True, **kwargs)
    _running.append(child)
    try:
        return child.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise
    finally:
        _running.remove(child)


def build():
    """Configure and build in BUILD; exits non-zero on failure."""
    os.makedirs(BUILD, exist_ok=True)
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", jobs]]
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code = run_group(step, BUILD_TIMEOUT_S, cwd=ROOT, env=env, stdout=log,
                                 stderr=subprocess.STDOUT)
            except (OSError, subprocess.TimeoutExpired) as error:
                sys.exit("perfbench: build step %s failed: %s" % (step[:2], error))
            if code != 0:
                log.flush()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.exit("perfbench: build failed (%s)" % " ".join(step[:2]))


def main():
    signal.signal(signal.SIGTERM, _stop_children)
    signal.signal(signal.SIGINT, _stop_children)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the negative cases of every output check")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    build()
    if args.self_test:
        command = [BINARY, "--self-test"]
    else:
        command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        code = run_group(command, RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code if code >= 0 else 1)


if __name__ == "__main__":
    main()
