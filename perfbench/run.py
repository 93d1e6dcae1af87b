#!/usr/bin/env python3
"""Build and run one workload of the repository's host-time benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <sweep|fleet|edge|load> \
        --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds perfbench/ (the benchmark program and
the simulator libraries from src/) in Release mode under the directory
named by CARGO_TARGET_DIR, default .bench_build; later runs rebuild only
what changed. The program's last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics: the
end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
metrics with --trace 1. A traced run also writes its spans as a Chrome
trace-event file (open it in ui.perfetto.dev) into the build directory.

Seeds: --seed drives every generated input. Seed 7919 is held out: a
change that claims a gain validates the claim on it but is never tuned
against it.

    python3 perfbench/run.py --self-test   # the benchmark's own statistics
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A workload run takes --seconds plus set-up; anything near this limit
# is a hang. subprocess.run kills and reaps the program when it expires.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(target), "perfbench")


def build(out):
    """Configure (once) and build the program; returns its path."""
    os.makedirs(out, exist_ok=True)
    # Keep compiler temporaries inside the checkout too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    log_path = os.path.join(out, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    cache = os.path.join(out, "CMakeCache.txt")
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    compile_ = ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]
    with open(log_path, "w") as log:
        for cmd in ([] if os.path.exists(cache) else [configure]) + [compile_]:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              env=env).returncode != 0:
                if cmd is configure and os.path.exists(cache):
                    os.remove(cache)  # never reuse a failed configure
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed; see " + log_path)
    return os.path.join(out, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and None in (args.workload, args.seed,
                                       args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    out = build_dir()
    exe = build(out)
    cmd = [exe, "--self-test"]
    if not args.self_test:
        cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            cmd += ["--trace-out", os.path.join(
                out, f"trace-{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("workload timed out")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        fail(f"perfbench exited with {proc.returncode}")
    if args.self_test:
        sys.stdout.write(proc.stdout)
        return

    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}, "
             f"units {[k for k in want if k in got and got[k] != want[k]]}")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
