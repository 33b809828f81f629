#!/usr/bin/env python3
"""MacroSS benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Builds the library and the benchmark driver from this checkout (CMake,
Release) into the build directory ($CARGO_TARGET_DIR, default
.bench_build), runs one workload, and passes the driver's output
through: every metric by name and unit, then one JSON line
{correct, attempted, failed, metrics}. Exits nonzero if the build
fails, the run times out, or any output disagreed with the bytecode VM.

--self-check runs every workload in a tiny configuration and asserts
that the printed metric names and units match BENCHMARK.json, that the
deterministic counts repeat exactly across two runs, and that in a
traced cold_compile run the layer self times of each program add up to
its wall time within the stated tolerance.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold_compile", "suite_steady", "service_open")
RUN_TIMEOUT_S = 170
# Layer self times must cover at least this share of each program's wall.
COVERAGE_TOLERANCE = 0.05
DETERMINISTIC = ("vectorizer.single_actor_applied",
                 "vectorizer.vertical_applied",
                 "vectorizer.horizontal_applied",
                 "vectorizer.permute_applied",
                 "codegen.source_kb", "native.so_kb")


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))


def build():
    """Configure once, then (re)build incrementally; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("library sources (src/) not found next to perfbench/")
    out = os.path.join(build_dir(), "perfbench-build")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(build_dir(), "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j", jobs])
        for cmd in steps:
            rc = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                                 cwd=ROOT)
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                die("build failed: " + " ".join(cmd))
    binary = os.path.join(out, "perfbench")
    if not os.access(binary, os.X_OK):
        die("build produced no perfbench binary")
    return binary


def run_driver(binary, args):
    """Run the driver in its own process group; returns (rc, stdout)."""
    run_dir = os.path.join(build_dir(), "runs", "%s-%d" % (
        args[args.index("--workload") + 1], os.getpid()))
    # The host compiler's temporaries stay inside the checkout too.
    tmp_dir = run_dir + "-tmp"
    for d in (run_dir, tmp_dir):
        shutil.rmtree(d, ignore_errors=True)
    os.makedirs(tmp_dir)
    # Relative to the checkout root (the driver's working directory):
    # the daemon's Unix socket lives there and its path must stay short.
    cmd = [binary] + args + ["--run-dir", os.path.relpath(run_dir, ROOT),
                             "--out-dir", os.path.join(build_dir(),
                                                       "results")]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            env=dict(os.environ, TMPDIR=tmp_dir),
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        out = None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        for d in (run_dir, tmp_dir):
            shutil.rmtree(d, ignore_errors=True)
    if out is None:
        die("run exceeded %d s" % RUN_TIMEOUT_S)
    return proc.returncode, out


def last_json(out):
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def self_check(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for w in WORKLOADS:
        traced = []
        for trace in (0, 1, 1):
            rc, out = run_driver(binary, [
                "--workload", w, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--smoke"])
            res = last_json(out)
            where = "%s trace=%d" % (w, trace)
            if rc != 0 or res is None or not res.get("correct"):
                problems.append("%s: run failed (exit %d)" % (where, rc))
                continue
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(k for k in got if k in expected[trace]
                               and got[k] != expected[trace][k])
                problems.append("%s: metrics differ from BENCHMARK.json "
                                "(missing %s, extra %s, wrong unit %s)"
                                % (where, missing, extra, wrong))
            if trace:
                traced.append(res["metrics"])
        if len(traced) == 2:
            for name in DETERMINISTIC:
                a, b = (t[name]["value"] for t in traced)
                if a != b:
                    problems.append("%s: %s is not deterministic (%r vs "
                                    "%r)" % (w, name, a, b))
            if w == "cold_compile":
                cov = traced[0]["trace.self_time_coverage"]["value"]
                if not 1 - COVERAGE_TOLERANCE <= cov <= 1 + 1e-9:
                    problems.append(
                        "cold_compile: layer self times cover %.3f of a "
                        "program's wall time (need >= %.2f)"
                        % (cov, 1 - COVERAGE_TOLERANCE))
        print("self-check: %s done" % w, flush=True)
    for p in problems:
        print("self-check: FAIL: " + p)
    print("self-check: %s" % ("ok" if not problems else "FAILED"))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if not args.self_check and not args.workload:
        ap.error("--workload is required")
    os.chdir(ROOT)
    binary = build()
    if args.self_check:
        return self_check(binary)
    rc, out = run_driver(binary, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace)])
    sys.stdout.write(out)
    sys.stdout.flush()
    if last_json(out) is None:
        die("the driver printed no result")
    return rc


if __name__ == "__main__":
    sys.exit(main())
