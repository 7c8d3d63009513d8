#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds perfbench/perfbench.exe and bin/mechaverify.exe with dune into
$CARGO_TARGET_DIR (default .bench_build), runs one workload, and passes the
benchmark's output through: a readable report, then one JSON result line.
Every file it writes (build, spill files, sockets, traces) stays under the
build directory.

    python3 perfbench/run.py steady --workload NAME [--runs K] [--seconds S]
                                   [--trace 0|1] [--seed0 N]

is the steadiness report: K runs on seeds N..N+K-1, then per metric the
median, the quartiles, the quartile spread as a share of the median, and the
largest gap between the medians of two halves of the runs (first/second and
odd/even), each checked against the metric's bound in BENCHMARK.json.
"""

import json
import os
import signal
import statistics
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    return code


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    """Build the two executables; returns (bench, mechaverify) paths."""
    for p in ("dune-project", "bin/dune", "lib", "perfbench/dune"):
        if not os.path.exists(p):
            raise SystemExit(fail("%s is missing: run from the root of a mechaml checkout" % p))
    bdir = build_dir()
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", bdir, "--cache=disabled",
           "./perfbench/perfbench.exe", "./bin/mechaverify.exe"]
    try:
        rc = subprocess.run(cmd, stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S).returncode
    except (OSError, subprocess.TimeoutExpired) as e:
        raise SystemExit(fail("build failed: %s" % e))
    if rc != 0:
        raise SystemExit(fail("build failed with exit code %d" % rc))
    default = os.path.join(bdir, "default")
    return (os.path.abspath(os.path.join(default, "perfbench", "perfbench.exe")),
            os.path.abspath(os.path.join(default, "bin", "mechaverify.exe")))


def run_once(args, capture=False):
    """Run the benchmark executable in its own process group, so that a
    time-out also stops the daemon and worker processes it started."""
    bench, mechaverify = build()
    bdir = build_dir()
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.abspath(tmp), MECHAVERIFY_BIN=mechaverify)
    # a relative output directory keeps worker socket paths short
    out_dir = os.path.relpath(os.path.join(bdir, "perfbench-out"))
    cmd = [bench] + args + ["--out-dir", out_dir]
    proc = subprocess.Popen(cmd, env=env, start_new_session=True,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    finally:
        # anything the benchmark left behind in its group
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, (out.decode() if capture else "")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def share(x, median):
    return x / median if median else float("inf") if x else 0.0


def steady(argv):
    opts = {"--workload": None, "--runs": "10", "--seconds": "10", "--trace": "0", "--seed0": "1"}
    it = iter(argv)
    for a in it:
        if a not in opts:
            return fail("steady: unknown option %s" % a)
        opts[a] = next(it, None)
    if not opts["--workload"]:
        return fail("steady: --workload is required")
    runs, seed0 = int(opts["--runs"]), int(opts["--seed0"])
    bounds = {}
    if os.path.exists("BENCHMARK.json"):
        with open("BENCHMARK.json") as f:
            bounds = {m["name"]: m.get("bound") for m in json.load(f).get("end_to_end", [])}
    values = {}
    for i in range(runs):
        seed = seed0 + i
        rc, out = run_once(["--workload", opts["--workload"], "--seed", str(seed),
                            "--seconds", opts["--seconds"], "--trace", opts["--trace"]],
                           capture=True)
        if rc != 0:
            return fail("steady: run on seed %d exited with %d" % (seed, rc), 1)
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            return fail("steady: run on seed %d was not correct" % seed, 1)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())), flush=True)
    print("\n%-26s %12s %12s %12s %8s %8s %8s  %s" % (
        "metric", "median", "q1", "q3", "spread", "halfgap", "bound", "verdict"))
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, q3 = quartiles(vs)
        spread = share(q3 - q1, med)
        halves = [(vs[: len(vs) // 2], vs[len(vs) // 2:]), (vs[0::2], vs[1::2])]
        gap = max(share(abs(statistics.median(a) - statistics.median(b)), med)
                  for a, b in halves if a and b) if len(vs) > 1 else 0.0
        bound = bounds.get(name)
        if bound is None:
            verdict = "-"
        elif name == "setup_s":
            verdict = "ok" if gap <= bound else "HALVES APART"
        else:
            verdict = ("ok" if spread < bound / 3 else
                       "within bound" if spread <= bound else "TOO NOISY")
        print("%-26s %12.6g %12.6g %12.6g %8.4f %8.4f %8s  %s" % (
            name, med, q1, q3, spread, gap, "-" if bound is None else "%.3f" % bound, verdict))
    return 0


def main(argv):
    if argv and argv[0] == "steady":
        return steady(argv[1:])
    rc, _ = run_once(argv)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
