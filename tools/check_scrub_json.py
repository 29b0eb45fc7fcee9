#!/usr/bin/env python3
"""Acceptance check for `sdcctl scrub` (docs/scrubbing.md).

Four properties, end to end through the CLI:

1. Schema: the report is one JSON document with the documented fleet / budget /
   outcomes / timeline / detections / capacity sections, internally consistent
   (timeline sums match the ledger totals, coverage matches detections/sessions,
   every detection carries scheduler provenance).
2. Budget discipline: total spend never exceeds the configured budget, and at the
   default budget -- which is below the fleet's one-round-per-part demand, so the
   run is budget-limited -- utilization is within 1% of full.
3. Determinism: the report bytes are identical at 1, 2, and 8 worker threads.
4. Scaling: doubling --budget doubles the dispensed budget exactly and the run
   stays budget-disciplined.

Usage: check_scrub_json.py <sdcctl-binary> [fleet] [hours]
Defaults: 50,000 processors over a 4,383-hour (~6-month) horizon. CI's release job
runs the same script at 1M processors.
"""

import json
import math
import os
import subprocess
import sys

# SDC_THREADS overrides --threads; drop it so the lane counts compared are the ones asked.
PINNED_ENV = {k: v for k, v in os.environ.items() if k != "SDC_THREADS"}


def run_scrub(binary, args):
    result = subprocess.run([binary] + args, capture_output=True, text=True, env=PINNED_ENV)
    assert result.returncode == 0, (
        f"sdcctl {' '.join(args)} failed ({result.returncode}):\n{result.stderr}")
    return result.stdout


def check_schema(report, fleet, hours):
    for section in ("fleet", "budget", "outcomes", "timeline", "detections", "capacity"):
        assert section in report, f"missing section '{section}'"
    f, b, o = report["fleet"], report["budget"], report["outcomes"]
    assert f["processors"] == fleet, f
    assert f["faulty"] == f["pre_production_detections"] + f["sessions"], f
    assert f["undetectable_sessions"] <= f["sessions"], f

    # The ledger: per-epoch rows must sum to the totals, and the horizon must cover
    # the requested hours (730.56 h per 30.44-day month).
    months = hours / 730.56
    assert abs(b["horizon_months"] - months) < 1e-9 * max(1.0, months), b
    assert len(report["timeline"]) == math.ceil(b["horizon_months"] / b["epoch_months"] -
                                                1e-9), report["timeline"]
    for key, total in (("session_seconds", b["session_seconds"]),
                       ("sweep_seconds", b["sweep_seconds"]),
                       ("budget_seconds", b["total_budget_seconds"])):
        summed = sum(point[key] for point in report["timeline"])
        assert abs(summed - total) <= 1e-6 * max(1.0, abs(total)), (
            f"timeline {key} sums to {summed}, ledger says {total}")
    assert abs(b["spent_seconds"] - (b["session_seconds"] + b["sweep_seconds"])) <= 1e-6, b

    # Outcomes: coverage is detections over tracked sessions; every detection is
    # attributable to the grant that funded it.
    assert o["detections"] == len(report["detections"]), o
    if f["sessions"] > 0:
        assert abs(o["coverage"] - o["detections"] / f["sessions"]) < 1e-12, o
    for detection in report["detections"]:
        assert detection["month"] <= b["horizon_months"] + 1e-9, detection
        provenance = detection["provenance"]
        assert provenance["granted_seconds"] > 0.0, detection
        assert provenance["epoch"] < len(report["timeline"]), detection


def check_budget_discipline(report):
    b = report["budget"]
    assert b["spent_seconds"] <= b["total_budget_seconds"] * (1 + 1e-9), (
        f"overspent: {b['spent_seconds']} of {b['total_budget_seconds']}")
    assert b["utilization"] >= 0.99, (
        f"budget-limited run left {1 - b['utilization']:.2%} unspent")


def main() -> int:
    if len(sys.argv) < 2:
        print(f"usage: {sys.argv[0]} <sdcctl-binary> [fleet] [hours]", file=sys.stderr)
        return 2
    binary = sys.argv[1]
    fleet = int(sys.argv[2]) if len(sys.argv) > 2 else 50_000
    hours = int(sys.argv[3]) if len(sys.argv) > 3 else 4383

    base = ["scrub", "--fleet", str(fleet), "--hours", str(hours)]

    # 1 + 2. Schema and budget discipline at one thread.
    golden = run_scrub(binary, base + ["--threads", "1"])
    report = json.loads(golden)
    check_schema(report, fleet, hours)
    check_budget_discipline(report)

    # 3. Byte-identical report at every thread count.
    for threads in (2, 8):
        other = run_scrub(binary, base + ["--threads", str(threads)])
        assert other == golden, f"report diverged at {threads} threads"

    # 4. Doubling the budget doubles the dispensed seconds exactly and stays
    # disciplined (the default budget fraction is 1e-5).
    doubled = json.loads(run_scrub(binary, base + ["--budget", "2e-5"]))
    check_budget_discipline(doubled)
    ratio = (doubled["budget"]["total_budget_seconds"] /
             report["budget"]["total_budget_seconds"])
    assert abs(ratio - 2.0) < 1e-9, f"budget did not scale linearly: {ratio}"

    # Flag discipline: missing or malformed scrub operands are usage errors (2).
    for bad in (["scrub", "--budget"], ["scrub", "--hours", "-3"], ["scrub", "--bogus"]):
        rc = subprocess.run([binary] + bad, capture_output=True).returncode
        assert rc == 2, f"sdcctl {' '.join(bad)} exited {rc}, want 2"

    b = report["budget"]
    print(f"ok: scrub report at {fleet} processors / {hours} h is byte-identical at "
          f"1/2/8 threads; spent {b['utilization']:.4%} of budget "
          f"({report['outcomes']['detections']} detections, "
          f"{report['fleet']['sessions']} sessions)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
