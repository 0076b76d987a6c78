#!/usr/bin/env python3
"""secview serving benchmark (see perfbench/README.md).

One run:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds the benchmark (perfbench/CMakeLists.txt, which compiles the
library from src/) into .bench_build/ when needed, generates the
workload's inputs from the seed, serves them and prints the result; the
last line of standard output is the JSON result object.

Steadiness report:
    python3 perfbench/run.py --steadiness [--runs 10] [--seconds S]

runs every workload --runs times, interleaved, on seeds 1..runs (one
seed per round), and prints each end-to-end metric's median, quartiles,
min and max next to the bound in BENCHMARK.json; a spread above its bound
fails the report. It then runs each workload's traced pass
twice on seed 1 and checks that the exact work counters repeat.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["hospital-wards", "adex-adhoc", "auction-concurrent"]
RUN_TIMEOUT_S = 170
# The exact counters do not depend on run length; the steadiness report's
# two traced runs per workload stay short.
TRACE_CHECK_SECONDS = 5
BUILD_TIMEOUT_S = 840


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    # The benchmark's build tree lives in the checkout; an explicit
    # CARGO_TARGET_DIR (relative to the checkout) overrides the default.
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = Path(target)
    return path if path.is_absolute() else ROOT / path


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no secview sources next to perfbench/ (expected src/CMakeLists.txt)")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(step), 1)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(step), 1)
    binary = out / "perfbench"
    if not binary.is_file():
        fail("build produced no perfbench binary", 1)
    return binary


def run_binary(args):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    try:
        done = subprocess.run(args, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(str(a) for a in args), 1)
    return done.returncode, done.stdout.splitlines()


def one_run(binary, workload, seed, seconds, trace):
    """prepare + run for one workload and seed; returns (code, lines)."""
    out = build_dir()
    inputs = out / "inputs" / ("%s-%d-%d" % (workload, seed, os.getpid()))
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    try:
        code, lines = run_binary([str(binary), "prepare", "--workload",
                                  workload, "--seed", str(seed), "--out",
                                  str(inputs)])
        if code != 0:
            return code, lines
        args = [str(binary), "run", "--inputs", str(inputs), "--seconds",
                str(seconds), "--trace", str(trace)]
        if trace:
            traces = out / "traces"
            traces.mkdir(exist_ok=True)
            args += ["--trace-out",
                     str(traces / ("%s-seed%d.json" % (workload, seed)))]
        code, run_lines = run_binary(args)
        return code, lines + run_lines
    finally:
        shutil.rmtree(inputs, ignore_errors=True)


def result_of(lines):
    for line in reversed(lines):
        if line.startswith("{"):
            return json.loads(line)
    return None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steadiness(binary, args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    values = {w: {} for w in WORKLOADS}
    ok = True
    for round_index in range(args.runs):
        seed = 1 + round_index
        # Rotate the order each round so no workload always runs first.
        shift = round_index % len(WORKLOADS)
        for workload in WORKLOADS[shift:] + WORKLOADS[:shift]:
            code, lines = one_run(binary, workload, seed, seconds, 0)
            result = result_of(lines)
            if code != 0 or result is None or not result["correct"]:
                ok = False
                print("FAIL %s seed %d (exit %d)" % (workload, seed, code))
                print("\n".join(lines[-12:]))
                continue
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print("round %d %-15s seed %-3d %s" % (
                round_index + 1, workload, seed, " ".join(
                    "%s=%.6g" % (k, v["value"])
                    for k, v in result["metrics"].items())), flush=True)

    print("\n# steadiness: %d interleaved run(s) per workload, %s s each"
          % (args.runs, seconds))
    print("%-15s %-15s %12s %12s %12s %12s %12s %8s %6s  %s" % (
        "workload", "metric", "median", "q1", "q3", "min", "max", "spread",
        "bound", "verdict"))
    for workload in WORKLOADS:
        for name, series in values[workload].items():
            q1, median, q3 = quartiles(series)
            spread = (q3 - q1) / median if median else float("inf")
            bound = bounds.get(name, {}).get("bound")
            if bound is None:
                verdict = "no bound"
            elif spread <= bound / 3:
                verdict = "ok (< bound/3)"
            elif spread <= bound:
                verdict = "ok (< bound)"
            else:
                verdict = "TOO NOISY"
                ok = False
            print("%-15s %-15s %12.6g %12.6g %12.6g %12.6g %12.6g %7.2f%% %6s  %s"
                  % (workload, name, median, q1, q3, min(series),
                     max(series), 100 * spread,
                     "-" if bound is None else "%.2f" % bound, verdict))

    # Exact work counters: two traced runs of the same seed must agree.
    print("\n# exact counters (traced pass, seed 1, two runs)")
    for workload in WORKLOADS:
        seen = []
        for _ in range(2):
            code, lines = one_run(binary, workload, 1, TRACE_CHECK_SECONDS, 1)
            exact = [l for l in lines if l.startswith("# exact:")]
            traced = [l for l in lines if l.startswith("# traced engine")]
            if code != 0 or not exact:
                ok = False
                print("FAIL traced %s (exit %d)" % (workload, code))
                print("\n".join(lines[-12:]))
                break
            seen.append(exact[0])
        if len(seen) == 2:
            same = seen[0] == seen[1]
            ok = ok and same
            print("%-15s %s %s" % (workload, "identical" if same else
                                   "DIFFER", seen[0][len("# exact: "):]))
            if not same:
                print("%-15s second run: %s" % ("", seen[1]))
            if traced:
                print("%-15s %s" % ("", traced[0][2:]))
            median_p50 = statistics.median(
                values[workload].get("request_p50_us", [0]) or [0])
            print("%-15s untraced request_p50_us median over the runs above: "
                  "%.3f us" % ("", median_p50))
    print("\nsteadiness: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()

    if args.steadiness:
        sys.exit(steadiness(build(), args))
    if args.workload is None or args.seed is None or args.seconds is None:
        fail("needs --workload, --seed and --seconds (or --steadiness)")
    binary = build()
    code, lines = one_run(binary, args.workload, args.seed, args.seconds,
                          args.trace)
    sys.stdout.write("".join(line + "\n" for line in lines))
    sys.stdout.flush()
    if code == 0 and result_of(lines) is None:
        fail("no result line", 1)
    sys.exit(code)


if __name__ == "__main__":
    main()
