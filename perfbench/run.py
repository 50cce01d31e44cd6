#!/usr/bin/env python3
"""Runs one benchmark workload from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Builds the repository's src/ tree and the benchmark (perfbench/CMakeLists.txt)
into .bench_build/, trains any member archive missing from the benchmark's
model cache (.bench_build/pgmr_cache, first run only), then runs the
benchmark binary. The binary prints a human-readable report and, as its last
line, one JSON object; this script passes both through after checking that
the JSON carries exactly the metrics BENCHMARK.json lists for the run kind.

Exit codes: 0 success, 1 a correctness check failed, 2 bad arguments or no
source tree, 3 the run could not start, 4 build or prewarm failed, 5 the
metrics disagree with BENCHMARK.json, 6 the run timed out.
"""

import argparse
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_BUILD = os.path.join(BUILD, "cmake")
BIN = os.path.join(CMAKE_BUILD, "bin")
CACHE = os.path.join(BUILD, "pgmr_cache")
TMP = os.path.join(BUILD, "tmp")
RUN_TIMEOUT_S = 170


def fail(code, message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def env():
    e = dict(os.environ)
    e["PGMR_CACHE_DIR"] = CACHE
    e["TMPDIR"] = TMP
    return e


def run_logged(cmd, log_name):
    """Runs a build step with its output in .bench_build/<log_name>."""
    log_path = os.path.join(BUILD, log_name)
    with open(log_path, "w") as log:
        code = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT, env=env())
    if code != 0:
        with open(log_path) as log:
            sys.stderr.write("".join(log.readlines()[-40:]))
        fail(4, "%s failed (log: %s)" % (" ".join(cmd[:3]), log_path))


def build(targets):
    for d in (BUILD, CACHE, TMP):
        os.makedirs(d, exist_ok=True)
    if not os.path.exists(os.path.join(CMAKE_BUILD, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", CMAKE_BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"], "configure.log")
    jobs = str(os.cpu_count() or 1)
    run_logged(["cmake", "--build", CMAKE_BUILD, "-j", jobs, "--target"] + targets,
               "build.log")


def prewarm():
    """Trains missing archives, several at a time (first run only)."""
    stamp = os.path.join(BUILD, "prewarm.done")
    if os.path.exists(stamp):
        with open(stamp) as f:
            if all(os.path.exists(p) for p in f.read().split("\n") if p):
                return
    listed = subprocess.run([os.path.join(BIN, "perfbench"), "--list-archives"],
                            capture_output=True, text=True, check=True).stdout
    archives = [tuple(line.split(" ", 1)) for line in listed.strip().split("\n")]
    print("perfbench: prewarming %d member archives" % len(archives), file=sys.stderr)

    def warm(archive):
        out = subprocess.run([os.path.join(BIN, "perfbench-prewarm")] + list(archive),
                             capture_output=True, text=True, env=env())
        if out.returncode != 0:
            return None, out.stderr
        return out.stdout.strip(), ""

    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        results = list(pool.map(warm, archives))
    for (path, err), archive in zip(results, archives):
        if path is None:
            fail(4, "prewarm %s %s failed: %s" % (archive[0], archive[1], err))
    with open(stamp, "w") as f:
        f.write("\n".join(path for path, _ in results) + "\n")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_benchmark(args):
    cmd = [os.path.join(BIN, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env(), text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, 9)
        proc.wait()
        fail(6, "run exceeded %d s" % RUN_TIMEOUT_S)
    lines = stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1):  # no result line to pass on
        sys.stdout.write(stdout)
        sys.stdout.flush()
        fail(3 if proc.returncode == 3 else 1,
             "benchmark exited with %d" % proc.returncode)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.flush()
    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(args.trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail(5, "metrics disagree with BENCHMARK.json: missing %s, unlisted %s"
             % (missing, extra))
    print(lines[-1])
    return proc.returncode


def selftest():
    """The C++ self-tests, then BENCHMARK.json and metrics.json against the
    per-layer metrics the binary reports."""
    build(["perfbench", "perfbench-selftest"])
    code = subprocess.call([os.path.join(BIN, "perfbench-selftest")], env=env())
    listed = subprocess.run([os.path.join(BIN, "perfbench"), "--list-metrics"],
                            capture_output=True, text=True, check=True).stdout
    reported = dict(line.split(" ", 1) for line in listed.strip().split("\n"))
    with open(os.path.join(HERE, "metrics.json")) as f:
        documented = json.load(f)
    checks = [
        ("BENCHMARK.json per_layer", expected_metrics(1), reported),
        ("metrics.json per_layer", {m["name"] for m in documented["per_layer"]},
         set(reported)),
        ("metrics.json end_to_end", {m["name"] for m in documented["end_to_end"]},
         set(expected_metrics(0))),
    ]
    for what, got, want in checks:
        if got != want:
            print("perfbench: %s disagrees with the binary: %s"
                  % (what, sorted(set(got) ^ set(want)) or "units differ"),
                  file=sys.stderr)
            code = code or 1
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    for needed in ("src/CMakeLists.txt", "tools/shard_worker.cpp", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(2, "no source tree: %s is missing under %s" % (needed, ROOT))

    if args.selftest:
        sys.exit(selftest())
    if not args.workload:
        parser.error("--workload is required")

    build(["perfbench", "perfbench-prewarm", "pgmr-shard-worker"])
    prewarm()
    sys.exit(run_benchmark(args))


if __name__ == "__main__":
    main()
