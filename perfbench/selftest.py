#!/usr/bin/env python3
"""Self-tests of the benchmark itself, on tiny inputs (perfbench/README.md).

    python3 perfbench/selftest.py

Run from the repository root; takes a few minutes. Checks that:
  1. every workload prints every BENCHMARK.json metric by name with its unit, in both the
     end-to-end (--trace 0) and the per-layer (--trace 1) run, and passes its gates;
  2. the traced run's trace file loads as Chrome/Perfetto trace-event JSON with
     well-formed span parents, and on every fleet pass generate + screen + lane idle
     (per lane) + merge reconstruct the pass wall time;
  3. a deliberately wrong digest makes each workload's correctness gate fail;
  4. the daemon loop shuts every sdcd it started down cleanly;
  5. compare.py refuses records whose host fingerprints differ;
  6. in a directory holding only BENCHMARK.json and perfbench/, the benchmark exits
     non-zero without printing a result.
"""

import glob
import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]
COMPARE = [sys.executable, os.path.join(ROOT, "perfbench", "compare.py")]
SCRATCH = os.path.join(ROOT, ".bench_build", "selftest")
LANE_SPANS = ("fleet.generate", "fleet.screen", "fleet.lane_idle")


def run(args, cwd=ROOT):
    return subprocess.run(RUN + args, capture_output=True, text=True, cwd=cwd, timeout=900)


def last_json(process):
    return json.loads(process.stdout.strip().splitlines()[-1])


def record_of(process, workload):
    for line in process.stdout.splitlines():
        if line.startswith("{") and json.loads(line).get("workload") == workload:
            return json.loads(line)
    raise AssertionError(f"no record for {workload}")


def check_trace_file(path):
    with open(path) as f:
        doc = json.load(f)
    assert doc["displayTimeUnit"] == "ms" and doc["hostEventsIncluded"] is True, path
    events = doc["traceEvents"]
    assert events, path
    for event in events:
        assert event["ph"] in ("M", "X", "i"), event
        assert isinstance(event["name"], str) and event["name"], event
        assert isinstance(event["pid"], int) and isinstance(event["tid"], int), event
        if event["ph"] == "X":
            assert isinstance(event["ts"], (int, float)) and event["dur"] >= 0, event
    spans = [e for e in events if e["ph"] == "X"]
    ids = {e["args"]["id"] for e in spans}
    children = {}
    for span in spans:
        parent = span["args"]["parent"]
        assert parent == 0 or parent in ids, span
        children.setdefault(parent, []).append(span)
    passes = [s for s in spans if s["name"] in ("fleet.pass", "fleet.pass_1lane")]
    assert passes, f"{path}: no fleet pass spans"
    for span in passes:
        parts = children.get(span["args"]["id"], [])
        lanes = len({p["tid"] for p in parts if p["name"] in LANE_SPANS})
        busy = sum(p["dur"] for p in parts if p["name"] in LANE_SPANS)
        merge = sum(p["dur"] for p in parts if p["name"] == "fleet.merge")
        rebuilt = busy / lanes + merge
        assert abs(rebuilt - span["dur"]) <= 0.05 * span["dur"] + 1000.0, (
            f"{path}: layers rebuild {rebuilt:.0f} us of a {span['dur']:.0f} us pass")
    return len(spans)


def test_metrics_and_traces(spec):
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            process = run(["--workload", workload, "--tiny", "--seconds", "0.3",
                           "--trace", str(trace)])
            assert process.returncode == 0, (workload, trace, process.stdout[-2000:],
                                             process.stderr[-2000:])
            final = last_json(process)
            assert set(final) == {"correct", "attempted", "failed", "metrics"}, final
            assert final["correct"] is True and final["failed"] == 0, final
            wanted = {m["name"]: m["unit"] for m in spec[kind]}
            assert {n: m["unit"] for n, m in final["metrics"].items()} == wanted, final
            lines = process.stdout.splitlines()
            for name, unit in wanted.items():
                assert any(line.startswith(f"{workload} {name} = ") and
                           line.endswith(" " + unit) for line in lines), (workload, name)
            if trace:
                path = record_of(process, workload)["notes"]["trace_file"]
                spans = check_trace_file(os.path.join(ROOT, path))
                print(f"ok   {workload}: {len(wanted)} per-layer metrics, {spans} spans")
            else:
                print(f"ok   {workload}: {len(wanted)} end-to-end metrics")


def test_wrong_digest_fails(spec):
    for workload in [w["name"] for w in spec["workloads"]]:
        process = run(["--workload", workload, "--tiny", "--seconds", "0.3",
                       "--corrupt-digest"])
        final = last_json(process)
        assert process.returncode != 0, workload
        assert final["correct"] is False and final["failed"] >= 1, (workload, final)
        print(f"ok   {workload}: a wrong digest fails the gate ({final['failed']} failed)")


def test_daemon_shuts_down_cleanly():
    process = run(["--workload", "daemon_1m", "--tiny", "--seconds", "0.3"])
    assert process.returncode == 0, process.stderr[-2000:]
    samples = record_of(process, "daemon_1m")["samples"]
    assert samples["sdcd_started"] >= 2, samples
    assert samples["sdcd_clean_exits"] == samples["sdcd_started"], samples
    leftover = glob.glob(os.path.join(ROOT, ".bench_build", "perfbench", "out", "*.sock"))
    assert not leftover, leftover
    for cmdline in glob.glob("/proc/[0-9]*/cmdline"):
        try:
            with open(cmdline, "rb") as f:
                assert b"perfbench_sdcd" not in f.read().split(b"\0")[0], cmdline
        except OSError:
            pass  # the process ended while we looked
    print(f"ok   daemon_1m: {samples['sdcd_clean_exits']} sdcd instances shut down cleanly")


def test_compare_refuses_other_hosts():
    os.makedirs(SCRATCH, exist_ok=True)
    base = {"workload": "screen_100m", "trace": False, "metrics":
            {"wall_s": {"value": 2.0, "unit": "s"}},
            "fingerprint": {"nproc": 4, "simd": "avx2", "compiler": "gcc 12",
                            "build_type": "Release", "lanes": 4, "rev": "a"}}
    other = json.loads(json.dumps(base))
    other["fingerprint"]["rev"] = "b"
    paths = {}
    for name, record in (("base", base), ("same-host", other)):
        paths[name] = os.path.join(SCRATCH, name + ".json")
        with open(paths[name], "w") as f:
            json.dump(record, f)
    same = subprocess.run(COMPARE + [paths["base"], paths["same-host"]],
                          capture_output=True, text=True)
    assert same.returncode == 0, same.stdout + same.stderr
    other["fingerprint"]["simd"] = "sse2"
    with open(paths["same-host"], "w") as f:
        json.dump(other, f)
    refused = subprocess.run(COMPARE + [paths["base"], paths["same-host"]],
                             capture_output=True, text=True)
    assert refused.returncode == 2, refused.stdout + refused.stderr
    print("ok   compare.py refuses records from different host fingerprints")


def test_bare_directory_fails():
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"))
    process = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "screen_100m", "--seed", "1",
         "--seconds", "1", "--trace", "0"], capture_output=True, text=True, cwd=bare,
        timeout=180)
    assert process.returncode != 0, process.stdout
    assert '"correct"' not in process.stdout, process.stdout
    shutil.rmtree(bare)
    print("ok   a directory without the sources fails without a result")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    sys.dont_write_bytecode = True
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import run  # pylint: disable=import-outside-toplevel
    spec["workloads"] += [{"name": name} for name in run.EXTRA_WORKLOADS]
    test_metrics_and_traces(spec)
    test_wrong_digest_fails(spec)
    test_daemon_shuts_down_cleanly()
    test_compare_refuses_other_hosts()
    test_bare_directory_fails()
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
