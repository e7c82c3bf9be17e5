#!/usr/bin/env python3
"""Build and run one workload of the checker's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository. The benchmark is
built with dune from the checkout's sources, and the last line of
standard output is the run's JSON result. A run reads and writes only
inside its checkout: every file it writes lives in a fresh
`.perfbench-<pid>-*` directory there, removed afterwards; a directory
left by a run that was killed is removed by the next run. The run exits
1 if the build or the workload fails, or if the workload does not finish
within its time limit; a run whose output checks fail prints its result
line first. Its children are killed when it dies.
"""

import argparse
import ctypes
import glob
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

WORKLOADS = ["thm31-sweep", "amutex-m5-n3-canon", "serve-mix", "amutex-m3-n3-disk"]
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def die_with_parent(parent):
    """In a child before exec: ask the kernel for SIGKILL when parent dies."""
    PR_SET_PDEATHSIG = 1
    ctypes.CDLL(None).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:
        os._exit(1)


def run_child(cmd, timeout, what):
    """Run cmd with its stdout captured; kill it if it outlives timeout."""
    parent = os.getpid()
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        stderr=sys.stderr,
        text=True,
        preexec_fn=lambda: die_with_parent(parent),
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{what}: no result within {timeout} s")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc.returncode, out


def remove_stale_dirs(root):
    """Remove the directories of earlier runs whose process is gone."""
    for d in glob.glob(os.path.join(root, ".perfbench-*")):
        try:
            pid = int(os.path.basename(d).split("-")[1])
            os.kill(pid, 0)
        except ProcessLookupError:
            shutil.rmtree(d, ignore_errors=True)
        except (ValueError, IndexError, PermissionError):
            pass


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    # a terminated run still stops its child and removes its directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    if shutil.which("dune") is None:
        fail("dune is not on PATH")
    code, out = run_child(
        ["dune", "build", "--root", root, "--display", "quiet", "./perfbench/main.exe"],
        BUILD_TIMEOUT_S,
        "build",
    )
    sys.stderr.write(out)
    if code != 0:
        fail(f"{args.workload}: build failed (dune exit {code})")

    remove_stale_dirs(root)
    tmp = tempfile.mkdtemp(prefix=f".perfbench-{os.getpid()}-", dir=root)
    try:
        code, out = run_child(
            [
                os.path.join(root, EXE),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--tmp", tmp,
            ],
            RUN_TIMEOUT_S,
            args.workload,
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = out.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        fail(f"{args.workload}: workload failed (exit {code})")
    result = json.loads(lines[-1])
    print(json.dumps(result))
    if not result["correct"] or result["failed"] != 0:
        fail(f"{args.workload}: output checks failed")


if __name__ == "__main__":
    main()
