#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/perfbench.exe from source
with dune (release profile, build directory .bench_build, dune cache off,
so nothing is written outside the checkout), then runs it with the given
arguments plus the commit and a digest of the sources it was built from.
The benchmark's stdout passes through unchanged; its last line is the
JSON result. Exits non-zero without a result when the sources are
missing, the build fails, or the run overruns its time limit.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/perfbench.exe"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
SOURCE_DIRS = ["lib", "perfbench"]


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_digest():
    h = hashlib.sha256()
    for top in SOURCE_DIRS + ["dune-project"]:
        paths = []
        if os.path.isfile(top):
            paths = [top]
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)
                      if f.endswith((".ml", ".mli", "dune", "dune-project"))]
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(".git"):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def run_bounded(cmd, timeout, env, stdout=None):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, env=env, stdout=stdout, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=36)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    for needed in ["dune-project", "lib", "perfbench/dune"]:
        if not os.path.exists(needed):
            fail("missing %s: run from the root of a full checkout" % needed)

    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"
    # Compiler and dune temporaries stay inside the checkout too.
    tmp = os.path.abspath(os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    # Pool sizes are part of each workload's definition, never inherited.
    env.pop("ATOM_DOMAINS", None)
    build = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release",
             "--cache", "disabled", TARGET]
    rc = run_bounded(build, BUILD_TIMEOUT_S, env, stdout=sys.stderr)
    if rc != 0:
        fail("build failed" if rc is not None else "build timed out")

    exe = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit(), "--source-digest", source_digest()]
    sys.stdout.flush()
    rc = run_bounded(cmd, RUN_TIMEOUT_S, env)
    if rc is None:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, code=3)
    sys.exit(rc)


if __name__ == "__main__":
    main()
