#!/usr/bin/env python3
"""Acceptance check for the sdcd campaign daemon (docs/daemon.md).

End to end through the real socket:

1. Byte-identity across interleaving: two campaigns submitted together (they overlap on
   the daemon's lane budget) return exactly the bytes the same specs return when run
   serially in the same daemon -- stats, metrics, and trace documents per scenario.
2. Byte-identity against one-shot mode: a daemon campaign's screening stats, metrics
   (minus wall-clock timers), and sim trace (minus host spans) equal an independent
   `sdcctl --stream ... export screening` run of the same fleet spec.
3. Cancellation: a cancelled campaign reaches a terminal state and serves no result.
4. Exit-status discipline: malformed specs and protocol misuse exit 2 through the
   client, runtime conditions (unknown id, not-done) exit 1 -- the same contract as the
   local CLI's strict operand parsing.
5. Observability: the id-less `status` daemon health line, the extended campaign status
   line (progress/detections/host timestamps), the `stats` live-series document (its
   screening.tested trajectory must end at the fleet size), and one `sdcctl top` poll
   showing every campaign.

Usage: check_daemon.py <sdcd-binary> <sdcctl-binary> [processors]
Default fleet size is 100,000; CI's release job runs 1,000,000.
"""

import json
import os
import socket as socketlib
import subprocess
import sys
import tempfile

from sdcd_harness import running_daemon

FLEET_SEED_A = 7
FLEET_SEED_B = 9
LANES_PER_CAMPAIGN = 2
DAEMON_LANES = 4


def client(ctl, socket, *args, expect=0):
    result = subprocess.run([ctl, "--socket", socket, *args],
                            capture_output=True, text=True)
    assert result.returncode == expect, (
        f"sdcctl {' '.join(args)}: exit {result.returncode}, expected {expect}\n"
        f"stderr: {result.stderr}")
    return result.stdout


def submit(ctl, socket, spec_tokens):
    out = client(ctl, socket, "submit", *spec_tokens).strip()
    assert out.startswith("ok id="), out
    return out[len("ok id="):]


def raw_request(socket_path, line):
    """One protocol request over a raw socket -- no fork, sub-millisecond round trip."""
    with socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM) as conn:
        conn.connect(socket_path)
        conn.sendall(line.encode() + b"\n")
        reply = b""
        while not reply.endswith(b"\n"):
            chunk = conn.recv(4096)
            assert chunk, f"connection closed mid-reply to {line!r}"
            reply += chunk
    return reply.decode().strip()


def fetch_outputs(ctl, socket, campaign_id, scenarios):
    """Waits for a campaign and returns its deterministic documents."""
    state = client(ctl, socket, "wait", campaign_id).strip()
    assert state == "ok state=done", f"campaign {campaign_id}: {state}"
    stats = [client(ctl, socket, "result", campaign_id, str(k))
             for k in range(scenarios)]
    metrics = client(ctl, socket, "metrics", campaign_id)
    trace = client(ctl, socket, "trace", campaign_id)
    return {"stats": stats, "metrics": metrics, "trace": trace}


def strip_host_events(trace_doc):
    """Drops host-pid (2) events: wall-clock spans, nondeterministic by contract."""
    doc = dict(trace_doc)
    doc["traceEvents"] = [e for e in trace_doc["traceEvents"] if e.get("pid") != 2]
    doc["hostEventsIncluded"] = False  # what remains is the include_host=false document
    return doc


def main() -> int:
    if len(sys.argv) < 3:
        print(f"usage: {sys.argv[0]} <sdcd-binary> <sdcctl-binary> [processors]",
              file=sys.stderr)
        return 2
    sdcd, ctl = sys.argv[1], sys.argv[2]
    processors = int(sys.argv[3]) if len(sys.argv) > 3 else 100_000

    workdir = tempfile.mkdtemp(prefix="sdcd-")
    with running_daemon(sdcd, ctl, workdir, DAEMON_LANES) as (daemon, socket):
        spec_a = [f"name=a", f"processors={processors}", f"seed={FLEET_SEED_A}",
                  f"lanes={LANES_PER_CAMPAIGN}"]
        spec_b = [f"name=b", f"processors={processors}", f"seed={FLEET_SEED_B}",
                  f"lanes={LANES_PER_CAMPAIGN}", "sweep=seeds:2"]

        # 1. Submit both campaigns back to back: the 2+2 lane grants fit the budget of 4,
        # so they run concurrently. Then run the identical specs serially and require
        # every deterministic document to match byte for byte.
        id_a = submit(ctl, socket, spec_a)
        id_b = submit(ctl, socket, spec_b)
        overlapped_a = fetch_outputs(ctl, socket, id_a, 1)
        overlapped_b = fetch_outputs(ctl, socket, id_b, 2)
        serial_a = fetch_outputs(ctl, socket, submit(ctl, socket, spec_a), 1)
        serial_b = fetch_outputs(ctl, socket, submit(ctl, socket, spec_b), 2)
        assert overlapped_a == serial_a, "campaign a: overlapped != serial"
        assert overlapped_b == serial_b, "campaign b: overlapped != serial"

        # 2. Campaign a against the one-shot streaming CLI: same fleet spec, no daemon.
        one_shot = subprocess.run(
            [ctl, "--stream", "--threads", str(LANES_PER_CAMPAIGN),
             "--processors", str(processors), "--seed", str(FLEET_SEED_A),
             "--metrics-out", os.path.join(workdir, "m.json"),
             "--trace-out", os.path.join(workdir, "t.json"),
             "export", "screening"],
            capture_output=True, text=True, check=True)
        assert json.loads(one_shot.stdout) == json.loads(overlapped_a["stats"][0]), (
            "daemon stats != one-shot stats")
        with open(os.path.join(workdir, "m.json")) as f:
            one_shot_metrics = json.load(f)
        one_shot_metrics.pop("timers", None)  # wall clock, excluded by design
        daemon_metrics = json.loads(overlapped_a["metrics"])
        assert daemon_metrics == one_shot_metrics, (
            f"daemon metrics != one-shot metrics\n  daemon:   {daemon_metrics}\n"
            f"  one-shot: {one_shot_metrics}")
        with open(os.path.join(workdir, "t.json")) as f:
            one_shot_trace = strip_host_events(json.load(f))
        daemon_trace = json.loads(overlapped_a["trace"])
        assert daemon_trace == one_shot_trace, "daemon trace != one-shot sim trace"

        # 3. Cancellation: saturate the budget, cancel a queued campaign, and require a
        # terminal state with no result served. The submit/submit/cancel triple goes over
        # raw sockets: forked-client latency must not give the blocker (a sweep, several
        # fleet-scan passes of headroom) time to finish and let the victim run to done.
        blocker_spec = f"processors={processors} lanes=4 sweep=seeds:8"
        blocker_reply = raw_request(socket, f"submit {blocker_spec}")
        assert blocker_reply.startswith("ok id="), blocker_reply
        blocker = blocker_reply[len("ok id="):]
        victim_reply = raw_request(socket, f"submit processors={processors} lanes=4")
        assert victim_reply.startswith("ok id="), victim_reply
        victim = victim_reply[len("ok id="):]
        cancel_reply = raw_request(socket, f"cancel {victim}")
        assert cancel_reply == f"ok cancelled id={victim}", cancel_reply
        state = client(ctl, socket, "wait", victim).strip()
        assert state == "ok state=cancelled", state
        client(ctl, socket, "result", victim, expect=1)       # err not-done
        client(ctl, socket, "wait", blocker)

        # 4. Exit statuses through the client: usage errors 2, runtime errors 1.
        client(ctl, socket, "submit", expect=2)               # empty spec
        client(ctl, socket, "submit", "processors=10x", expect=2)
        client(ctl, socket, "frobnicate", expect=2)           # unknown verb
        client(ctl, socket, "status", "99999", expect=1)      # unknown id
        client(ctl, socket, "stats", expect=2)                # stats needs an id

        # 5. Observability surfaces. Id-less status is the daemon health line; a
        # campaign's status line carries progress/detections/timestamps; `stats` returns
        # the live series document; `top` renders one table per poll without a tty.
        health = client(ctl, socket, "status").strip()
        assert health.startswith("ok lanes="), health
        for token in ("queued=", "campaigns=", "events=", "dropped="):
            assert f" {token}" in health, health
        status_line = client(ctl, socket, "status", id_a).strip()
        for token in (" progress=1.0000", " detections=", " submitted=", " started=",
                      " finished="):
            assert token in status_line, status_line
        series_doc = json.loads(client(ctl, socket, "stats", id_a))
        assert "screening.tested" in series_doc["sim"], sorted(series_doc["sim"])
        assert "fleet.generate.faulty" in series_doc["sim"], sorted(series_doc["sim"])
        points = series_doc["sim"]["screening.tested"]["points"]
        assert points and points[-1][1] == processors, points[-1:]
        top = client(ctl, socket, "top", "--iterations", "1", "--interval-ms", "50")
        top_lines = top.splitlines()
        assert top_lines[0].startswith("sdcd "), top_lines[:1]
        assert top_lines[1].split()[:3] == ["id", "name", "state"], top_lines[1]
        done_rows = [line for line in top_lines if " done " in line]
        cancelled_rows = [line for line in top_lines if " cancelled " in line]
        assert len(done_rows) == 5, top       # overlapped+serial pairs and the blocker
        assert len(cancelled_rows) == 1, top  # the cancel victim

        client(ctl, socket, "shutdown")
        assert daemon.wait(timeout=10) == 0, "sdcd exited non-zero after shutdown"
        campaigns = 2 + 2 + 2  # overlapped pair, serial pair, cancel pair
        print(f"ok: {campaigns} campaigns over {socket}; overlapped == serial == "
              f"one-shot at {processors} processors; cancel + exit statuses verified")
        return 0


if __name__ == "__main__":
    sys.exit(main())
