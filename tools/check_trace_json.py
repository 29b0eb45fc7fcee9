#!/usr/bin/env python3
"""Acceptance check for sdcctl's --trace-out export (docs/observability.md).

Five properties, end to end through the CLI:

1. Schema: `sdcctl screen N --trace-out -` puts exactly one Chrome/Perfetto trace-event
   JSON document on stdout -- a traceEvents array whose entries all carry ph/name/pid/tid,
   with complete spans ('X') carrying ts+dur and instants ('i') carrying scope 's', plus
   the metadata preamble naming both clock-domain processes and every track.
2. Sim-timeline shape: pid-1 (simulated clock) events have non-decreasing timestamps per
   track, and the generate.shard spans tile the serial axis [0, N) exactly once.
3. Lane invariance: a 4-thread run emits a byte-for-byte identical sim timeline to the
   1-thread run (host spans are wall-clock and excluded by design).
4. Provenance cross-check: the number of detection instants equals the
   screening.detected and screening.provenance.records counters a metrics run reports
   for the same fleet.
5. Sweep lane invariance: `--sweep seeds:3 screen N` emits the same sim timeline at 1
   and 4 threads (shard by shard, scenario after scenario within each shard). Per-track
   timestamps are not checked here: every scenario's screen.subshard spans restart at
   its shard's first serial.

Usage: check_trace_json.py <sdcctl-binary> [processors]
"""

import json
import os
import subprocess
import sys

DEFAULT_PROCESSORS = 50000
VALID_PHASES = {"M", "X", "i"}
SIM_PID = 1
HOST_PID = 2
GENERATE_TRACK = 1
# SDC_THREADS overrides --threads; drop it so the lane counts compared are the ones asked.
PINNED_ENV = {k: v for k, v in os.environ.items() if k != "SDC_THREADS"}


def run_json(binary, args):
    result = subprocess.run(
        [binary] + args, capture_output=True, text=True, check=True, env=PINNED_ENV)
    return json.loads(result.stdout)  # must be a single valid document


def check_schema(doc):
    assert doc["displayTimeUnit"] == "ms", doc.get("displayTimeUnit")
    assert doc["hostEventsIncluded"] is True, doc.get("hostEventsIncluded")
    events = doc["traceEvents"]
    assert isinstance(events, list) and events, "traceEvents missing or empty"
    for event in events:
        assert event["ph"] in VALID_PHASES, event
        assert isinstance(event["name"], str) and event["name"], event
        assert isinstance(event["pid"], int), event
        assert isinstance(event["tid"], int), event
        if event["ph"] == "X":
            assert isinstance(event["ts"], (int, float)), event
            assert event["dur"] >= 0, event
        elif event["ph"] == "i":
            assert event["s"] == "t", event
    names = {e["name"] for e in events if e["ph"] == "M"}
    assert {"process_name", "thread_name"} <= names, names
    return events


def sim_events(events):
    return [e for e in events if e["pid"] == SIM_PID and e["ph"] != "M"]


def check_sim_timeline(events, processors):
    per_track = {}
    generate_cursor = 0
    detections = 0
    for event in sim_events(events):
        track = event["tid"]
        assert event["ts"] >= per_track.get(track, 0), (
            "sim timestamps regress on track", track, event)
        per_track[track] = event["ts"]
        if event["name"] == "generate.shard":
            assert event["ts"] == generate_cursor, (event["ts"], generate_cursor)
            assert event["tid"] == GENERATE_TRACK, event
            generate_cursor += event["dur"]
        elif event["name"] == "detection":
            assert event["ph"] == "i", event
            args = event["args"]
            assert args["defect"] and args["stage"], args
            assert args["rng_stream"] == args["sub_shard"], args
            detections += 1
    assert generate_cursor == processors, (generate_cursor, processors)
    return detections


def main() -> int:
    if len(sys.argv) < 2 or len(sys.argv) > 3:
        print(f"usage: {sys.argv[0]} <sdcctl-binary> [processors]", file=sys.stderr)
        return 2
    binary = sys.argv[1]
    processors = int(sys.argv[2]) if len(sys.argv) == 3 else DEFAULT_PROCESSORS

    doc = run_json(binary, ["--threads", "1", "screen", str(processors), "--trace-out", "-"])
    events = check_schema(doc)
    detections = check_sim_timeline(events, processors)
    assert detections > 0, "expected at least one detection instant"
    assert any(e["pid"] == HOST_PID for e in events), "host spans missing"

    four_lanes = run_json(
        binary, ["--threads", "4", "screen", str(processors), "--trace-out", "-"])
    assert sim_events(four_lanes["traceEvents"]) == sim_events(events), \
        "4-thread sim timeline diverges from 1 thread"

    sweep = ["--sweep", "seeds:3", "screen", str(processors), "--trace-out", "-"]
    sweep_events = check_schema(run_json(binary, ["--threads", "1"] + sweep))
    sweep_four = check_schema(run_json(binary, ["--threads", "4"] + sweep))
    assert sim_events(sweep_four) == sim_events(sweep_events), \
        "4-thread sweep sim timeline diverges from 1 thread"

    metrics = run_json(binary, ["screen", str(processors), "--metrics-out", "-"])
    counters = metrics["counters"]
    assert counters["screening.detected"] == detections, \
        (counters["screening.detected"], detections)
    assert counters["screening.provenance.records"] == detections, \
        (counters["screening.provenance.records"], detections)

    print(f"ok: trace JSON validates; {detections} detection instants match "
          "screening.detected and screening.provenance.records; sweep timelines match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
