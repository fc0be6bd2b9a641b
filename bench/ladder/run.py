#!/usr/bin/env python3
"""Wall-clock ladder benchmark: build, run, summarise, compare.

Run from the repository root:

  python3 bench/ladder/run.py --workload W --seed N --seconds S --trace 0|1
      One run of one workload. The last stdout line is one JSON object with
      the keys correct, attempted, failed and metrics: the end-to-end
      metrics of BENCHMARK.json untraced, its per-layer metrics traced.
      setup_s is the median of three cold processes.

  python3 bench/ladder/run.py [--runs R] [--seconds S] [--seed N]
                              [--trace 0|1] [--out FILE]
      A set: every workload R times (default 5) in rotating order, run r
      with seed N + r. Prints the median and IQR of every metric and saves
      the runs to FILE (default build-ladder/set-<time>.json).

  python3 bench/ladder/run.py --compare PARENT[,...] CHANGE[,...]
      Applies the bounds of BENCHMARK.json to saved sets of two commits.
      Several files per side are joined in order, so sets run alternately
      on the two commits pair up run by run.

  python3 bench/ladder/run.py --smoke
      Every workload once on shrunken inputs, traced (all gates run); a
      quick CI check whose numbers compare with nothing.

The benchmark is built from source into build-ladder/ by CMake
(bench/ladder/CMakeLists.txt). Exit status: 0 on success, 1 when a run
or a correctness gate fails, 2 when the benchmark cannot be built.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build-ladder"
BINARY = BUILD / "ladder"
RUN_TIMEOUT_S = 170  # one run, all its processes, after the build
BUILD_TIMEOUT_S = 700
SETUP_PROCESSES = 3


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configure once, then build the ladder target (a no-op when fresh)."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit("ladder: no library sources at %s; nothing to build" % ROOT)
    BUILD.mkdir(exist_ok=True)
    log_path = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "ladder",
                  "-j", str(os.cpu_count() or 1)])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code = subprocess.run(
                    step, stdout=log, stderr=subprocess.STDOUT,
                    timeout=max(1, deadline - time.monotonic())).returncode
            except subprocess.TimeoutExpired:
                code = "timeout"
            if code != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                print("ladder: build step failed (%s): %s"
                      % (code, " ".join(step)), file=sys.stderr)
                sys.exit(2)


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def invoke(args, echo, deadline):
    """Runs the benchmark binary; returns (exit code, its JSON line)."""
    env = dict(os.environ, LADDER_GIT_SHA=git_sha())
    try:
        proc = subprocess.run([str(BINARY)] + args, capture_output=True,
                              text=True, env=env, cwd=str(ROOT),
                              timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print("ladder: %s timed out" % " ".join(args), file=sys.stderr)
        return 1, None
    lines = proc.stdout.splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    sys.stderr.write(proc.stderr)
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        return proc.returncode or 1, None


def run_once(workload, seed, seconds, trace, smoke=False, echo=True):
    """One run; untraced, setup_s is the median of cold processes.
    Returns (ok, the binary's JSON result or None)."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", "1" if trace else "0"]
    if smoke:
        args.append("--smoke")
    deadline = time.monotonic() + RUN_TIMEOUT_S
    code, result = invoke(args, echo, deadline)
    if result is None:
        return False, None
    if not trace and not smoke:
        setups = [result["end_to_end"]["setup_s"]["value"]]
        for _ in range(SETUP_PROCESSES - 1):
            setup_code, setup = invoke(args + ["--setup-only"], False,
                                       deadline)
            if setup is None or setup_code != 0:
                return False, result
            setups.append(setup["end_to_end"]["setup_s"]["value"])
        result["end_to_end"]["setup_s"]["value"] = statistics.median(setups)
        if echo:
            print("setup_s samples (cold processes): %s"
                  % ", ".join("%.4f" % s for s in setups))
    return code == 0 and result["correct"], result


def result_line(result, trace, benchmark):
    """The one-run result object: every metric of this mode, as measured."""
    key = "per_layer" if trace else "end_to_end"
    measured = result[key]
    metrics = {}
    for spec in benchmark[key]:
        value = measured.get(spec["name"])
        if value is None or value["unit"] != spec["unit"]:
            sys.exit("ladder: metric %s missing or in the wrong unit"
                     % spec["name"])
        metrics[spec["name"]] = value
    return {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "metrics": metrics}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def spread(values):
    """IQR as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def run_set(args, benchmark):
    workloads = [w["name"] for w in benchmark["workloads"]]
    key = "per_layer" if args.trace else "end_to_end"
    runs = {w: {} for w in workloads}
    counts = {w: {"attempted": 0, "failed": 0, "correct": True}
              for w in workloads}
    host = None
    ok = True
    for r in range(args.runs):
        # Rotate the order so no workload always runs first or last.
        for k in range(len(workloads)):
            workload = workloads[(r + k) % len(workloads)]
            seed = args.seed + r
            print("== %s seed %d (run %d/%d)"
                  % (workload, seed, r + 1, args.runs), flush=True)
            run_ok, result = run_once(workload, seed, args.seconds,
                                      args.trace, echo=False)
            ok = ok and run_ok
            if result is None:
                continue
            host = result["host"]
            counts[workload]["attempted"] += result["attempted"]
            counts[workload]["failed"] += result["failed"]
            counts[workload]["correct"] &= bool(result["correct"])
            for name, metric in result[key].items():
                runs[workload].setdefault(name, []).append(metric["value"])
    print("\nhost: %s" % json.dumps(host))
    units = {m["name"]: m["unit"] for m in benchmark[key]}
    for workload in workloads:
        c = counts[workload]
        print("\n%s: %d attempted, %d failed, gates %s"
              % (workload, c["attempted"], c["failed"],
                 "ok" if c["correct"] else "FAILED"))
        print("  %-34s %14s %14s %14s %8s"
              % ("metric", "median", "q1", "q3", "IQR/med"))
        for name, values in runs[workload].items():
            q1, q2, q3 = quartiles(values)
            print("  %-34s %14.6g %14.6g %14.6g %8.4f %s"
                  % (name, q2, q1, q3, spread(values), units.get(name, "")))
    out = args.out or str(
        BUILD / ("set-%s.json" % time.strftime("%Y%m%d-%H%M%S")))
    with open(out, "w") as f:
        json.dump({"trace": bool(args.trace), "seconds": args.seconds,
                   "first_seed": args.seed, "host": host, "counts": counts,
                   "runs": runs}, f, indent=1)
    print("\nsaved %s" % out)
    return ok


def load_sets(paths):
    """Saved sets joined in order: runs appended, counts summed."""
    joined = {"runs": {}, "counts": {}}
    for path in paths.split(","):
        with open(path) as f:
            data = json.load(f)
        for workload, metrics in data["runs"].items():
            for name, values in metrics.items():
                joined["runs"].setdefault(workload, {}).setdefault(
                    name, []).extend(values)
        for workload, c in data["counts"].items():
            total = joined["counts"].setdefault(
                workload, {"attempted": 0, "failed": 0, "correct": True})
            total["attempted"] += c["attempted"]
            total["failed"] += c["failed"]
            total["correct"] &= c["correct"]
    return joined


def compare(parent_paths, change_paths, benchmark):
    """Per workload and end-to-end metric: the change's median against the
    parent's, within the metric's bound, and the rule for a gain."""
    parent, change = load_sets(parent_paths), load_sets(change_paths)
    ok = True
    for workload in (w["name"] for w in benchmark["workloads"]):
        print("\n%s" % workload)
        print("  %-18s %12s %12s %8s %6s %7s  %s" % (
            "metric", "parent", "change", "better", "bound", "spread",
            "verdict"))
        for spec in benchmark["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            a = parent["runs"].get(workload, {}).get(name)
            b = change["runs"].get(workload, {}).get(name)
            if not a or not b:
                print("  %-18s missing" % name)
                ok = False
                continue
            sign = 1 if spec["better"] == "higher" else -1
            ma, mb = statistics.median(a), statistics.median(b)
            better = sign * (mb - ma) / abs(ma) if ma else 0.0
            noise = max(spread(a), spread(b))
            all_better = all(sign * (y - x) > 0 for x in a for y in b)
            pairs = list(zip(a, b))
            wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
            q1, _, q3 = quartiles(a)
            if better < -bound:
                verdict = "REGRESSION"
                ok = False
            elif noise > bound and not all_better:
                verdict = "unresolved (spread > bound)"
            elif (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
                  and abs(mb - ma) > q3 - q1 and better > 0):
                verdict = "gain (%d/%d pairs won)" % (wins, len(pairs))
            else:
                verdict = "no change beyond noise"
            print("  %-18s %12.6g %12.6g %+7.2f%% %5.0f%% %6.2f%%  %s" % (
                name, ma, mb, 100 * better, 100 * bound, 100 * noise,
                verdict))
        for side, data in (("parent", parent), ("change", change)):
            c = data["counts"].get(workload)
            if c:
                print("  %s: %d attempted, %d failed, gates %s"
                      % (side, c["attempted"], c["failed"],
                         "ok" if c["correct"] else "FAILED"))
    return ok


def smoke(benchmark):
    start = time.monotonic()
    ok = True
    for workload in (w["name"] for w in benchmark["workloads"]):
        run_ok, result = run_once(workload, 1, 0.5, True, smoke=True,
                                  echo=False)
        ok = ok and run_ok
        counts = "" if result is None else " (%d attempted, %d failed)" % (
            result["attempted"], result["failed"])
        print("%-14s %s%s" % (workload, "ok" if run_ok else "FAILED",
                              counts))
    print("smoke: %s in %.1f s"
          % ("ok" if ok else "FAILED", time.monotonic() - start))
    return ok


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    benchmark = load_benchmark()
    if args.compare:
        return 0 if compare(args.compare[0], args.compare[1],
                            benchmark) else 1
    build()
    if args.smoke:
        return 0 if smoke(benchmark) else 1
    if args.seconds is None:
        args.seconds = benchmark["run_seconds"]
    if args.workload is None:
        return 0 if run_set(args, benchmark) else 1

    ok, result = run_once(args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        return 1
    print(json.dumps(result_line(result, args.trace, benchmark)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
