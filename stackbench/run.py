#!/usr/bin/env python3
"""Build the stack bench from this checkout and run one workload.

    python3 stackbench/run.py --workload oltp --seed 1 --seconds 30 --trace 0
    python3 stackbench/run.py --self-test

The bench is built (incrementally) under $CARGO_TARGET_DIR, or .bench_build
when that is unset, relative to the checkout root.  Build output goes to
stderr; stdout carries only the bench's record line and its result line.
--self-test builds the bench's unit tests and runs them plus a short smoke
run of every workload through ctest.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "stackbench")


def source_id():
    """A hash of the sources the bench was built from (the checkout need not
    be a git repository)."""
    digest = hashlib.sha256()
    for top in ("src", "stackbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("stackbench: no PRINS sources next to the bench", file=sys.stderr)
        return False
    out = build_dir()
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(out, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", out, "--target", target, "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr, env=env).returncode == 0


def self_test():
    if not build("stack_bench") or not build("stackbench_tests"):
        return 1
    return subprocess.run(["ctest", "--output-on-failure"], cwd=build_dir(),
                          stdout=sys.stderr).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.workload:
        parser.error("--workload is required")
    if not build("stack_bench"):
        return 1
    cmd = [os.path.join(build_dir(), "stack_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--commit", source_id(), "--build-type", BUILD_TYPE]
    try:
        result = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("stackbench: run timed out", file=sys.stderr)
        return 1
    sys.stdout.write(result.stdout)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
