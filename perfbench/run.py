#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload svc-scale --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of the repository.  The first run configures and builds
perfbench/ (its own CMake project, linking the product libraries from src/)
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs
rebuild incrementally.  The benchmark prints a host stamp, its fingerprints
and headline figures, and as its last line one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics (a layer the workload does not exercise reports 0).  A
failed correctness gate, a failed build or a missing source tree exits
nonzero and prints no result.

--selftest checks that the pinned-fingerprint gate has teeth: every workload
must pass with the committed pins and fail, printing no result, when each
pin is off by one bit.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
PINS = os.path.join(BENCH_DIR, "pins.txt")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_group(cmd, timeout, **kwargs):
    """subprocess.run in its own process group, all of it killed on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"timed out after {timeout} s: {' '.join(cmd)}")
    return proc.returncode, out, err


def build():
    """Configure (once) and build perfbench; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no product sources (src/CMakeLists.txt) next to perfbench/")
    out_dir = build_dir()
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    log_path = os.path.join(out_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs,
                  "--target", "perfbench"])
    with open(log_path, "w") as log:
        for cmd in steps:
            code, _, _ = run_group(cmd, BUILD_TIMEOUT_S, stdout=log,
                                   stderr=subprocess.STDOUT, env=env)
            if code != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(f"build failed ({' '.join(cmd)}); log in {log_path}")
    return os.path.join(out_dir, "perfbench")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_result(result, spec, trace):
    """Validates the result line against BENCHMARK.json; fills the per-layer
    metrics a workload does not exercise with 0."""
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"malformed result keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1:
        fail("result is not correct or attempted nothing")
    declared = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    metrics = result["metrics"]
    for name, m in metrics.items():
        if name not in units:
            fail(f"metric {name} is not declared in BENCHMARK.json")
        if m["unit"] != units[name]:
            fail(f"metric {name} has unit {m['unit']}, declared {units[name]}")
    for name, unit in units.items():
        if name not in metrics:
            if not trace:
                fail(f"end-to-end metric {name} is missing")
            metrics[name] = {"value": 0, "unit": unit}
    result["metrics"] = {m["name"]: metrics[m["name"]] for m in declared}


def run(binary, workload, seed, seconds, trace, pins=PINS):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--pins", pins]
    if trace:
        cmd += ["--trace-out", os.path.join(
            build_dir(), f"spans-{workload}-{seed}.json")]
    return run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                     stderr=subprocess.PIPE, text=True, cwd=ROOT)


def selftest(binary, spec):
    bad_pins = os.path.join(build_dir(), "pins-off-by-one-bit.txt")
    with open(PINS) as f, open(bad_pins, "w") as out:
        for line in f:
            fields = line.split()
            if len(fields) == 2 and fields[1].startswith("0x"):
                line = f"{fields[0]} 0x{int(fields[1], 16) ^ 1:016x}\n"
            out.write(line)
    ok = True
    for w in spec["workloads"]:
        name = w["name"]
        code, out, _ = run(binary, name, 1, 1, False)
        good = code == 0 and out.strip().splitlines()[-1].startswith("{")
        code, out, err = run(binary, name, 1, 1, False, pins=bad_pins)
        caught = (code != 0 and "GATE FAILED" in err and
                  not any(l.startswith("{") for l in out.splitlines()))
        print(f"selftest {name}: committed pins "
              f"{'pass' if good else 'FAIL'}, wrong pin "
              f"{'rejected' if caught else 'NOT REJECTED'}")
        ok = ok and good and caught
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    binary = build()
    spec = load_spec()
    if args.selftest:
        return selftest(binary, spec)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    if args.seed < 0:
        fail("--seed must be a non-negative integer")

    code, out, err = run(binary, args.workload, args.seed, args.seconds,
                         args.trace == 1)
    sys.stderr.write(err)
    lines = out.rstrip("\n").splitlines()
    if code != 0 or not lines:
        sys.stdout.write(out)
        fail(f"benchmark exited with code {code}", code or 1)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(out)
        fail("last line of the benchmark's output is not JSON", 1)
    for line in lines[:-1]:
        print(line)
    check_result(result, spec, args.trace == 1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
