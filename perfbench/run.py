#!/usr/bin/env python3
"""End-to-end serving benchmark for the DeepST serving stack.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload mini_hot --seed 1 --seconds 20 --trace 0

Builds perfbench_e2e from ../src into .bench_build/, prepares the inputs
(worlds and trained weights once per checkout, the request stream once per
seed) into .bench_cache/, runs one workload and prints one JSON result line
as the last line of stdout. Run records, spans and per-layer tables land in
.bench_out/. Exits nonzero when an output check fails or the program cannot
be built. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
CACHE_DIR = os.path.join(ROOT, ".bench_cache")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "perfbench_e2e")
WORLDS = {"mini_hot": "mini", "full_cold": "full", "mini_live": "mini"}
JOBS = str(max(1, min(4, os.cpu_count() or 1)))
# The worlds depend on the program's generators and trainer (src/) and on
# the benchmark's world definitions; a stream also on its own definitions.
WORLD_INPUTS = ["src", "perfbench/world.cc", "perfbench/common.h",
                "perfbench/CMakeLists.txt"]
STREAM_INPUTS = ["perfbench/stream.cc"]


def log(msg):
    print("[perfbench] " + msg, file=sys.stderr, flush=True)


def sha256_of_paths(paths):
    h = hashlib.sha256()
    for rel in paths:
        full = os.path.join(ROOT, rel)
        files = [full]
        if os.path.isdir(full):
            files = sorted(os.path.join(d, f) for d, _, fs in os.walk(full)
                           for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def run_checked(cmd, timeout):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError("command failed (%d): %s" % (proc.returncode,
                                                        " ".join(cmd)))


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_checked(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"], 300)
    run_checked(["cmake", "--build", BUILD_DIR, "--target", "perfbench_e2e",
                 "-j", JOBS], 850)


def prepare_world(name, key):
    final = os.path.join(CACHE_DIR, "world-%s-%s" % (name, key[:16]))
    if os.path.exists(os.path.join(final, "DONE")):
        return final
    for entry in os.listdir(CACHE_DIR):
        if entry.startswith("world-%s-" % name):
            shutil.rmtree(os.path.join(CACHE_DIR, entry))
    tmp = final + ".tmp"
    os.makedirs(tmp)
    log("preparing world %s (generate + train), once per checkout" % name)
    run_checked([BINARY, "prepare-world", "--world", name, "--out", tmp,
                 "--threads", JOBS], 850)
    open(os.path.join(tmp, "DONE"), "w").close()
    os.rename(tmp, final)
    return final


def prepare_stream(workload, seed, seconds, world_dir, world_key):
    key = hashlib.sha256(("%s|%s|%s|%d|%r" % (
        world_key, sha256_of_paths(STREAM_INPUTS), workload, seed,
        seconds)).encode()).hexdigest()
    path = os.path.join(CACHE_DIR, "stream-%s-s%d-%s.bin" % (workload, seed,
                                                            key[:16]))
    if not os.path.exists(path):
        run_checked([BINARY, "prepare-stream", "--workload", workload,
                     "--seed", str(seed), "--seconds", repr(seconds),
                     "--world-dir", world_dir, "--out", path + ".tmp"], 170)
        os.rename(path + ".tmp", path)
    return path


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    p.add_argument("--workload", required=True, choices=sorted(WORLDS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    # Self-test only (perfbench/selftest.py): corrupt what the checks see.
    p.add_argument("--inject", default="", help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no program sources next to %s: nothing to build" % BENCH_DIR)
        return 2

    for d in (CACHE_DIR, OUT_DIR, os.path.dirname(BUILD_DIR)):
        os.makedirs(d, exist_ok=True)
    try:
        with open(os.path.join(CACHE_DIR, "lock"), "w") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            build()
            # Both worlds on the first run of a checkout, so no later run
            # pays for generation or training.
            world_key = sha256_of_paths(WORLD_INPUTS)
            world_dir = {name: prepare_world(name, world_key)
                         for name in sorted(set(WORLDS.values()))}
            world = WORLDS[args.workload]
            stream = prepare_stream(args.workload, args.seed, args.seconds,
                                    world_dir[world], world_key)
            with open(BINARY, "rb") as fh:
                binary_key = hashlib.sha256(fh.read()).hexdigest()[:16]
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log("build/prepare failed: %s" % e)
        return 2

    # The digest checks the routes served for one prepared stream, so it is
    # keyed by that stream (workload, seed, --seconds, world) and the binary.
    digest = os.path.join(CACHE_DIR, "digest-%s-%s.txt" % (
        os.path.splitext(os.path.basename(stream))[0], binary_key))
    wal = os.path.join(OUT_DIR, "wal-%d.bin" % os.getpid())
    cmd = [BINARY, "run", "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", repr(args.seconds), "--trace",
           str(args.trace), "--world-dir", world_dir[world], "--stream",
           stream, "--wal", wal, "--digest", digest, "--out-dir", OUT_DIR,
           "--git-sha", git_sha()]
    if args.inject:
        cmd += ["--inject", args.inject]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=175)
    except subprocess.TimeoutExpired:
        log("run exceeded its time limit")
        return 2
    finally:
        if os.path.exists(wal):
            os.remove(wal)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if result is None:
        log("run printed no result (exit %d)" % proc.returncode)
        return proc.returncode or 2
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
