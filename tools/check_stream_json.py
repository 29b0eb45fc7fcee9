#!/usr/bin/env python3
"""Acceptance check for sdcctl's fused streaming fleet pass (docs/streaming.md).

Three properties, end to end through the CLI:

1. Lane invariance: `sdcctl metrics` emits identical deterministic metric sections
   (counters / gauges / histograms) at 1 and 4 threads. Timers are wall-clock and
   excluded by design.
2. Same for the human-readable `screen` table: byte-identical stdout at 1 and 4 threads.
3. Memory bound: a large run completes under an address-space cap (`ulimit -v`
   semantics via RLIMIT_AS) that holds the binary plus its lanes' shard scratch, not a
   fleet; its counters still report the full fleet.

`--stream` is accepted and ignored, so there is no second mode to compare against; the
stream-vs-materialized identity lives in the tier-1 suites (StreamEquivalenceTest,
StreamBatchTest and the batch.* / sweep.* rows of FleetDigestManifest).

Usage: check_stream_json.py <sdcctl-binary> [big_processors] [cap_mb]
Defaults: 10,000,000 processors under a 96 MiB cap (the binary plus one lane of shard
scratch fits in ~70 MiB).
"""

import json
import os
import resource
import subprocess
import sys

EQUIV_PROCESSORS = 50000
EQUIV_SEED = 123
DETERMINISTIC_SECTIONS = ("counters", "gauges", "histograms")
# SDC_THREADS overrides --threads; drop it so the lane counts compared are the ones asked.
PINNED_ENV = {k: v for k, v in os.environ.items() if k != "SDC_THREADS"}


def run_metrics(binary, args, cap_mb=None):
    """Runs `sdcctl ... metrics ...` and returns (returncode, parsed snapshot or None)."""
    preexec = None
    if cap_mb is not None:
        def preexec():
            cap = cap_mb * 1024 * 1024
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    result = subprocess.run(
        [binary] + args,
        capture_output=True,
        text=True,
        preexec_fn=preexec,
        env=PINNED_ENV,
    )
    if result.returncode != 0:
        return result.returncode, None
    return 0, json.loads(result.stdout)  # stdout must be exactly one JSON document


def deterministic_sections(snapshot):
    return {key: snapshot.get(key) for key in DETERMINISTIC_SECTIONS}


def main() -> int:
    argv = sys.argv[1:]
    if not argv or len(argv) > 3:
        print(f"usage: {sys.argv[0]} <sdcctl-binary> [big_processors] [cap_mb]",
              file=sys.stderr)
        return 2
    binary = argv[0]
    big = int(argv[1]) if len(argv) > 1 else 10_000_000
    cap_mb = int(argv[2]) if len(argv) > 2 else 96

    # 1. Metric sections are the same at 1 and 4 lanes.
    base = ["metrics", str(EQUIV_PROCESSORS), "--seed", str(EQUIV_SEED)]
    rc, golden = run_metrics(binary, base + ["--threads", "1"])
    assert rc == 0, f"1-thread metrics run failed ({rc})"
    golden_sections = deterministic_sections(golden)
    assert golden["counters"]["fleet.generate.processors"] == EQUIV_PROCESSORS
    assert golden["counters"]["screening.tested"] == EQUIV_PROCESSORS
    rc, snapshot = run_metrics(binary, base + ["--threads", "4"])
    assert rc == 0, f"4-thread metrics run failed ({rc})"
    sections = deterministic_sections(snapshot)
    assert sections == golden_sections, (
        f"4 threads diverged from 1 thread:\n"
        f"  got      {sections}\n  expected {golden_sections}")

    # 2. The screen table is byte-identical too.
    screen = ["screen", str(EQUIV_PROCESSORS), "--seed", str(EQUIV_SEED)]
    one_lane = subprocess.run([binary, "--threads", "1"] + screen, capture_output=True,
                              check=True, env=PINNED_ENV)
    four_lanes = subprocess.run([binary, "--threads", "4"] + screen, capture_output=True,
                                check=True, env=PINNED_ENV)
    assert four_lanes.stdout == one_lane.stdout, "screen table diverged across lanes"

    # 3. The big run completes under the cap and covers the whole fleet.
    big_args = ["--threads", "2", "metrics", str(big)]
    rc, snapshot = run_metrics(binary, big_args, cap_mb=cap_mb)
    assert rc == 0, (
        f"streaming run of {big} processors died under the {cap_mb} MiB cap ({rc})")
    assert snapshot["counters"]["fleet.generate.processors"] == big, snapshot["counters"]
    assert snapshot["counters"]["screening.tested"] == big, snapshot["counters"]

    print(f"ok: 1 thread == 4 threads (counters/gauges/histograms, screen table); "
          f"{big} processors completed under {cap_mb} MiB RLIMIT_AS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
