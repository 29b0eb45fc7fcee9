#!/usr/bin/env python3
"""End-to-end benchmark of the SDC engine (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

--workload all runs the BENCHMARK.json workloads plus sweep_k8_10m (EXTRA_WORKLOADS).
Run from the repository root. Builds the engine and the benchmark from source into
.bench_build/perfbench (Release), runs one workload (or every workload, one after the
other), prints every metric by name with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {value, unit}}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer
ones (plus a Chrome/Perfetto trace under .bench_build/perfbench/out). Each run's full
record, with its host fingerprint, is appended to .bench_build/perfbench/ledger.jsonl;
compare records with perfbench/compare.py. Exits 0 only when every output checked out.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(".bench_build", "perfbench", "out")  # relative: short socket paths
LEDGER = os.path.join(BUILD_DIR, "ledger.jsonl")
BINARY = os.path.join(BUILD_DIR, "perfbench")
SDCD = os.path.join(BUILD_DIR, "perfbench_sdcd")
RUN_TIMEOUT_S = 170
# Runnable and gated like the declared workloads, but not in BENCHMARK.json: on the
# shared re-anchor host its run-to-run spread reached the 25% bound (README.md).
EXTRA_WORKLOADS = ["sweep_k8_10m"]
# Sources the benchmark builds; their digest names the revision when there is no git.
SOURCE_ROOTS = ("src", os.path.join("tools", "sdcd.cc"), "perfbench")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(3)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    for needed in ("src/CMakeLists.txt", "tools/sdcd.cc", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"missing {needed}: run from the root of a full source checkout")
    os.makedirs(BUILD_DIR, exist_ok=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1),
                  "--target", "perfbench", "perfbench_sdcd"])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the benchmark's output.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def source_rev():
    """git rev when the checkout is a git work tree, else a digest of the built sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True).stdout.strip()
            dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain", "--"]
                                   + list(SOURCE_ROOTS), capture_output=True, text=True,
                                   check=True).stdout.strip()
            return rev + ("-dirty" if dirty else "")
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for root in SOURCE_ROOTS:
        path = os.path.join(ROOT, root)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def run_workload(workload, seed, seconds, trace, extra_args=()):
    """Runs one workload; returns (record or None, exit status)."""
    command = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds",
               str(seconds), "--trace", str(trace), "--out-dir", OUT_DIR, "--sdcd", SDCD]
    command += list(extra_args)
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        stdout, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return None, 1
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), process.returncode
    except (IndexError, ValueError):
        print(f"perfbench: {workload} printed no record (status {process.returncode})",
              file=sys.stderr)
        return None, process.returncode or 1


def declared_metrics(record, wanted, trace):
    """The record's metrics in BENCHMARK.json order, and whether they match it. A traced
    run reads 0 for a layer its workload does not run (the scrub layers on a screen
    pass); any other missing, undeclared or re-united metric is an error."""
    got = record["metrics"]
    ok = set(got) <= {m["name"] for m in wanted}
    metrics = {}
    for m in wanted:
        if m["name"] in got:
            ok = ok and got[m["name"]]["unit"] == m["unit"]
            metrics[m["name"]] = got[m["name"]]
        else:
            ok = ok and trace == 1
            metrics[m["name"]] = {"value": 0.0, "unit": m["unit"]}
    return metrics, ok


def layer_shares(record):
    """Each fleet layer's share of the traced pass wall: lane-time layers divide by
    lanes x wall, the serial merge by the wall alone. Empty when the run had no pass."""
    wall = float(record["notes"].get("fleet.pass_wall_s", 0))
    if wall <= 0:
        return {}
    m = {name: metric["value"] for name, metric in record["metrics"].items()}
    lane_time = record["fingerprint"]["lanes"] * wall
    return {"fleet.generate": m["fleet.generate_busy_s"] / lane_time,
            "fleet.screen": m["fleet.screen_busy_s"] / lane_time,
            "fleet.lane_idle": m["fleet.lane_idle_s"] / lane_time,
            "fleet.merge": m["fleet.merge_s"] / wall}


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]] + EXTRA_WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes: every code path on small inputs")
    parser.add_argument("--corrupt-digest", action="store_true",
                        help="self-test: perturb one measured digest; the run must fail")
    args = parser.parse_args()

    build()
    rev = source_rev()
    extra = (["--tiny"] if args.tiny else []) + (["--corrupt-digest"]
                                                  if args.corrupt_digest else [])
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    workloads = names if args.workload == "all" else [args.workload]

    correct = True
    attempted = failed = 0
    metrics = {}
    for workload in workloads:
        record, status = run_workload(workload, args.seed, args.seconds, args.trace, extra)
        if record is None:
            correct = False
            failed += 1
            attempted += 1
            continue
        record["fingerprint"]["rev"] = rev
        with open(LEDGER, "a") as ledger:
            ledger.write(json.dumps(record, sort_keys=True) + "\n")
        declared, names_ok = declared_metrics(record, wanted, args.trace)
        correct = correct and status == 0 and record["failed"] == 0 and names_ok
        attempted += record["attempted"]
        failed += record["failed"]
        print(f"# {workload} seed={args.seed} trace={args.trace} "
              f"attempted={record['attempted']} failed={record['failed']} "
              f"failed_ratio={record['failed'] / max(1, record['attempted']):.6g} "
              f"rev={rev}")
        for failure in record["failures"]:
            print(f"#   FAILED: {failure}")
        for name, metric in declared.items():
            print(f"{workload} {name} = {metric['value']:.9g} {metric['unit']}")
            key = name if len(workloads) == 1 else f"{workload}/{name}"
            metrics[key] = {"value": metric["value"], "unit": metric["unit"]}
        if args.trace:
            for name, share in layer_shares(record).items():
                print(f"{workload} share[{name}] = {share:.4f} of the traced pass wall")
            for name, seconds in sorted(record["self_s"].items()):
                print(f"{workload} self[{name}] = {seconds:.9g} s")
            print(f"{workload} trace file: {record['notes'].get('trace_file', '-')}")
        print(json.dumps(record, sort_keys=True))

    print(json.dumps({"correct": correct, "attempted": max(1, attempted), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
