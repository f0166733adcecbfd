#!/usr/bin/env python3
"""Builds and runs the AeroDiffusion serve benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload bulk_augment --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

It configures and builds perfbench/ (which compiles the repository's own
libraries with the repository's own flags) into .bench_build/perfbench,
pins every AERO_* knob the program reads to its default, prints the
provenance of the build, then runs the benchmark binary. The last line of
standard output is the binary's JSON result. Any build or run failure
exits non-zero without printing a result.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "aerobench")
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170

# Every environment knob the program reads, at its default value. Unset
# knobs with no default value (AERO_THREADS: hardware concurrency) are
# left unset. Everything else starting with AERO_ is removed.
PINNED_ENV = {
    "AERO_BATCH": "1",
    "AERO_OVERLOAD": "1",
    "AERO_ARENA": "1",
    "AERO_ARENA_MAX_MB": "256",
    "AERO_COND_CACHE": "1",
    "AERO_COND_CACHE_CAP": "128",
    "AERO_COND_CACHE_MB": "64",
    "AERO_OBS": "1",
    "AERO_OBS_DUMP": "0",
    "AERO_OBS_DUMP_MS": "0",
    "AERO_RATE_QPS": "0",
    "AERO_RATE_BURST": "0",
    "AERO_BENCH_SCALE": "1",
    "AERO_TRAIN_IMAGES": "128",
    "AERO_TEST_IMAGES": "48",
    "AERO_AE_STEPS": "180",
    "AERO_CLIP_STEPS": "180",
    "AERO_DETECTOR_STEPS": "220",
    "AERO_DIFFUSION_STEPS": "650",
    "AERO_SCHEDULE_STEPS": "64",
    "AERO_DDIM_STEPS": "10",
    "AERO_GUIDANCE": "2.0",
    "AERO_EVAL_SAMPLES": "48",
    "AERO_LOCK_ORDER": "0",
    "AERO_LOG_LEVEL": "1",
}


def pinned_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("AERO_")}
    env.update(PINNED_ENV)
    return env


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def run_logged(cmd, log_path):
    with open(log_path, "w") as out:
        return subprocess.run(cmd, cwd=ROOT, stdout=out,
                              stderr=subprocess.STDOUT).returncode


def tail(path, lines=30):
    try:
        with open(path) as f:
            return "".join(f.readlines()[-lines:])
    except OSError:
        return ""


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    configure = ["cmake", "-S", HERE, "-B", BUILD,
                 f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if run_logged(configure, log_path) != 0:
            log("configure failed:\n" + tail(log_path))
            return False
    jobs = str(os.cpu_count() or 1)
    if run_logged(["cmake", "--build", BUILD, "-j", jobs], log_path) != 0:
        log("build failed:\n" + tail(log_path))
        return False
    return True


def source_digest():
    """sha256 over the repository's sources and build files (docs are
    left out, so editing them does not change the digest)."""
    digest = hashlib.sha256()
    roots = [os.path.join(ROOT, "src"), HERE]
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for root in roots:
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            files += [os.path.join(dirpath, f) for f in sorted(filenames)
                      if not f.endswith(".md")]
    for path in files:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    """HEAD of the checkout, or "none" when it is not a git work tree of
    its own (an enclosing repository does not count)."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "none"
    return lines[1]


def library_flags():
    """Compile flags the build used for the tensor library."""
    ninja = os.path.join(BUILD, "build.ninja")
    make = os.path.join(BUILD, "repo", "src", "CMakeFiles", "aero_tensor.dir",
                        "flags.make")
    if os.path.exists(ninja):
        seen = False
        with open(ninja) as f:
            for line in f:
                if line.startswith("build ") and "aero_tensor.dir" in line:
                    seen = True
                elif seen and line.strip().startswith("FLAGS ="):
                    return line.split("=", 1)[1].strip()
    if os.path.exists(make):
        with open(make) as f:
            for line in f:
                if line.startswith("CXX_FLAGS"):
                    return line.split("=", 1)[1].strip()
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    if not build():
        return 1
    print("provenance: git_sha=%s source_sha256=%s nproc=%d build_type=%s "
          "flags=%r" % (git_sha(), source_digest(), os.cpu_count() or 0,
                        BUILD_TYPE, library_flags()), flush=True)

    if args.selftest:
        cmd = [BINARY, "--selftest"]
    else:
        cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=pinned_env(),
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        log(f"benchmark exited with code {proc.returncode}")
        return proc.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main())
