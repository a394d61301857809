#!/usr/bin/env python3
"""End-to-end benchmark of the AQL system (see perfbench/WORKLOADS.md).

Run from the repository root:

    python3 perfbench/run.py --workload served_mix --seed 1 --seconds 12 --trace 0

Builds perfbench/ (which compiles ../src) as a Release CMake project under
$CARGO_TARGET_DIR (default .bench_build), runs the workload in its own
process, and prints every metric with its unit, then one JSON result as
the last line of stdout. --trace 0 reports the end-to-end metrics of
BENCHMARK.json; --trace 1 runs the workload untraced and then traced (the
same stack with src's obs::Tracer on) and reports the per-layer metrics
plus the tracing overhead. --out FILE
appends the full record (metrics, tally and provenance) to a JSON-lines
file that perfbench/compare.py reads.

Exits non-zero without a result line when the build fails or is not a
Release build, and non-zero after the result line when an operation
failed, a result disagreed with the tree-walking evaluator, or a run was
too short to put ten samples beyond p99 or to reach the op count at
which peak RSS is read.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("served_mix", "set_groupby", "tiled_scan")
# Per process; a whole run (build check included) must end within 180 s.
PROCESS_TIMEOUT_S = 120
# Extra set-up-only processes per run, half before and half after the
# measured run: setup_s and io.readval_ms are the median over these and
# the measured run's own set-up. A set-up takes a few milliseconds, most
# of it page faults and thread starts, whose cost on a shared virtual
# host varies by half from one process to the next; many samples spread
# over the run keep the median steady.
SETUP_REPEATS = 24
# On a shared virtual host the hypervisor at times takes a large share of
# the CPU for a minute or more, and every latency with it: served_mix
# serves about 15% fewer ops/s in a run where it took 4-7% than in one
# where it took under 1%. A measured run during which it took more than
# this share is made once more, and the run with less taken is reported.
# Both shares go into the record.
MAX_STEAL_SHARE = 0.02


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures once, then lets the build tool decide what is stale."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no AQL sources at %s/src; run from a checkout of the repository" % ROOT)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log = os.path.join(out, "build.log")
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", out, "--target", "aql_perfbench", "-j", "4"])
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode != 0:
                f.flush()
                with open(log) as g:
                    sys.stderr.write(g.read()[-4000:])
                fail("build failed (log: %s)" % log)
    return os.path.join(out, "aql_perfbench")


def run_binary(binary, workload, seed, seconds, mode):
    data = os.path.join(build_dir(), "data", workload)
    shutil.rmtree(data, ignore_errors=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--mode", mode, "--data-dir", data]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                           timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s %s run timed out" % (workload, mode))
    sys.stderr.write(p.stderr)
    lines = [l for l in p.stdout.splitlines() if l.strip()]
    if not lines:
        fail("%s %s run printed no record (exit %d)" % (workload, mode, p.returncode))
    rec = json.loads(lines[-1])
    if rec.get("build_type") != "Release":
        fail("refusing to report from a %r build" % rec.get("build_type"), 3)
    if mode == "setup" and p.returncode != 0:
        fail("%s set-up failed (exit %d)" % (workload, p.returncode))
    rec["exit_code"] = p.returncode
    return rec


def source_digest():
    """sha256 over src/ and perfbench/ sources: provenance without git."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".h", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "unknown"
    p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True)
    return p.stdout.strip() if p.returncode == 0 else "unknown"


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def layer_value(name, plain, traced):
    """Per-layer metrics: counts from the untraced run, times from the traced one."""
    if name.startswith("trace.overhead."):
        key = name[len("trace.overhead."):]
        return traced["e2e"][key] - plain["e2e"][key]
    for rec in (traced, plain):
        if name in rec["layers"]:
            return rec["layers"][name]
    raise KeyError(name)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the full record to this JSON-lines file")
    ap.add_argument("--run-index", type=int, default=0, help="recorded as provenance")
    args = ap.parse_args()

    bench = spec()
    binary = build()
    def setups(n):
        return [run_binary(binary, args.workload, args.seed, args.seconds, "setup")
                for _ in range(n)]

    before = setups(SETUP_REPEATS // 2)
    plain = run_binary(binary, args.workload, args.seed, args.seconds, "plain")
    steal = [plain["tally"]["cpu_steal_share"]]
    if steal[0] > MAX_STEAL_SHARE:
        again = run_binary(binary, args.workload, args.seed, args.seconds, "plain")
        steal.append(again["tally"]["cpu_steal_share"])
        if steal[1] < steal[0]:
            plain = again
    setups = before + setups(SETUP_REPEATS - SETUP_REPEATS // 2)
    plain["e2e"]["setup_s"] = statistics.median(
        [s["setup_s"] for s in setups] + [plain["e2e"]["setup_s"]])
    plain["layers"]["io.readval_ms"] = statistics.median(
        [s["readval_ms"] for s in setups] + [plain["layers"]["io.readval_ms"]])
    runs = [plain]
    if args.trace:
        # The same window and parts as the untraced run, so the overhead
        # compares like with like.
        traced = run_binary(binary, args.workload, args.seed, args.seconds, "traced")
        runs.append(traced)
        wanted = bench["per_layer"]
        values = {m["name"]: layer_value(m["name"], plain, traced) for m in wanted}
    else:
        wanted = bench["end_to_end"]
        values = {m["name"]: plain["e2e"][m["name"]] for m in wanted}

    attempted = sum(int(r["tally"]["attempted"]) for r in runs)
    failed = sum(int(r["tally"]["failed"] + r["tally"]["refused"] + r["tally"]["wrong"])
                 for r in runs)
    mismatches = sum(int(r["info"]["oracle_mismatched_instances"]) for r in runs)
    wrong = sum(int(r["tally"]["wrong"]) for r in runs)
    short = ["%s run too short: fewer than ten samples beyond p99" % r["mode"]
             for r in runs if r["tally"]["samples_beyond_p99"] < 10]
    if not plain["tally"]["rss_checkpoint_reached"]:
        short.append("plain run too short: peak_rss_mb not read at its fixed op count")
    correct = mismatches == 0 and wrong == 0

    units = {m["name"]: m["unit"] for m in wanted}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in values}
    e2e_units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    e2e_units.setdefault("error_rate", "ratio")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "run_index": args.run_index,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": {
            "build_type": plain["build_type"],
            "compiler": plain["compiler"],
            "git_sha": git_sha(),
            "source_digest": source_digest(),
            "nproc": os.cpu_count(),
            "cpu_steal_shares": steal,
        },
        "metrics": metrics,
        "e2e": {k: {"value": v, "unit": e2e_units.get(k, "")} for k, v in plain["e2e"].items()
                if k in e2e_units},
        "tally": {r["mode"]: r["tally"] for r in runs},
        "info": {r["mode"]: r["info"] for r in runs},
    }
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")

    print("%s seed %d (%s, %s)" % (args.workload, args.seed, plain["compiler"],
                                   record["provenance"]["source_digest"]))
    for k, v in record["e2e"].items():
        print("  e2e   %-34s %14.6g %s" % (k, v["value"], v["unit"]))
    if args.trace:
        for k, v in metrics.items():
            print("  layer %-34s %14.6g %s" % (k, v["value"], v["unit"]))
    print("  ops attempted %d, failed %d (oracle mismatches %d)" % (attempted, failed, mismatches))
    for why in short:
        print("  " + why)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    bad_exit = any(r["exit_code"] != 0 for r in runs)
    sys.exit(0 if correct and failed == 0 and not short and not bad_exit else 1)


if __name__ == "__main__":
    main()
