#!/usr/bin/env python3
"""Acceptance check for the Prometheus exposition surfaces (docs/observability.md).

Two passes:

1. Exposition lint, applied both to `sdcctl --prom-out -` (one-shot run) and to the
   daemon's `prom` verb: every line is either `# TYPE <name> <kind>` or a sample;
   metric and label names match the exposition charset; every sample belongs to a
   previously TYPE-declared family (histogram samples via the _bucket/_count suffixes,
   summary samples via _sum/_count); no family is TYPE-declared twice; every value
   parses; counters carry the _total suffix; histogram le-buckets are cumulative and
   end with the +Inf bucket equal to _count.

2. Counter monotonicity over a live daemon: poll `prom` twice around a campaign's
   lifetime and require every counter-typed sample -- and the per-campaign
   sdc_campaign_shards_done/sdc_campaign_detections gauges, monotonic per label set by
   design -- to never decrease between polls, with sdc_daemon_events_recorded_total and
   sdc_daemon_campaigns_total strictly increasing across the second submit.

Usage: check_prom.py <sdcd-binary> <sdcctl-binary> [processors]
Default fleet size is 100,000.
"""

import re
import subprocess
import sys
import tempfile

from sdcd_harness import running_daemon

METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
TYPE_LINE = re.compile(r"^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary)$")
SAMPLE_LINE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"          # metric name
    r"(\{(?:[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\",?)*\})?"  # optional label set
    r" (-?(?:\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?))$")
KNOWN_MONOTONIC_GAUGES = ("sdc_campaign_shards_done", "sdc_campaign_detections",
                          "sdc_campaign_shards_total")


def base_family(name, families):
    """Maps a sample name back to its TYPE-declared family."""
    if name in families:
        return name
    for suffix in ("_bucket", "_count", "_sum"):
        if name.endswith(suffix) and name[: -len(suffix)] in families:
            return name[: -len(suffix)]
    return None


def lint(text, source):
    """Lints one exposition document; returns {(name, labels): value} samples."""
    families = {}
    samples = {}
    histogram_state = {}  # family -> (last cumulative bucket, saw +Inf)
    for raw in text.splitlines():
        line = raw.rstrip("\n")
        if not line:
            continue
        if line.startswith("#"):
            match = TYPE_LINE.match(line)
            assert match, f"{source}: malformed comment line: {line!r}"
            name, kind = match.groups()
            assert name not in families, f"{source}: duplicate TYPE for {name}"
            families[name] = kind
            continue
        match = SAMPLE_LINE.match(line)
        assert match, f"{source}: malformed sample line: {line!r}"
        name, labels, value_text = match.groups()
        labels = labels or ""
        value = float(value_text)
        family = base_family(name, families)
        assert family is not None, f"{source}: sample {name} has no TYPE declaration"
        kind = families[family]
        if kind == "counter":
            assert family.endswith("_total"), (
                f"{source}: counter {family} lacks the _total suffix")
            assert value >= 0.0, f"{source}: negative counter {line!r}"
        if kind == "histogram" and name.endswith("_bucket"):
            last, saw_inf = histogram_state.get(family, (None, False))
            assert not saw_inf, f"{source}: {family} bucket after +Inf"
            if last is not None:
                assert value >= last, (
                    f"{source}: {family} le-buckets not cumulative: {value} < {last}")
            is_inf = 'le="+Inf"' in labels
            histogram_state[family] = (value, is_inf)
        if kind == "histogram" and name.endswith("_count"):
            last, saw_inf = histogram_state.get(family, (None, False))
            assert saw_inf, f"{source}: {family}_count before the +Inf bucket"
            assert value == last, (
                f"{source}: {family}_count {value} != +Inf bucket {last}")
            histogram_state.pop(family)
        key = (name, labels)
        assert key not in samples, f"{source}: duplicate sample {key}"
        samples[key] = (families[family], value)
    assert families, f"{source}: empty exposition"
    assert not histogram_state, (
        f"{source}: histograms missing _count: {sorted(histogram_state)}")
    return samples


def assert_monotonic(before, after, source):
    regressions = []
    for key, (kind, value) in before.items():
        if key not in after:
            continue  # a family can disappear only if the daemon restarted -- it didn't
        later = after[key][1]
        name = key[0]
        if kind == "counter" or name.startswith(KNOWN_MONOTONIC_GAUGES):
            if later < value:
                regressions.append((key, value, later))
    assert not regressions, f"{source}: counters went backwards: {regressions}"


def client(ctl, socket, *args):
    result = subprocess.run([ctl, "--socket", socket, *args],
                            capture_output=True, text=True)
    assert result.returncode == 0, (
        f"sdcctl {' '.join(args)}: exit {result.returncode}\nstderr: {result.stderr}")
    return result.stdout


def main() -> int:
    if len(sys.argv) < 3:
        print(f"usage: {sys.argv[0]} <sdcd-binary> <sdcctl-binary> [processors]",
              file=sys.stderr)
        return 2
    sdcd, ctl = sys.argv[1], sys.argv[2]
    processors = int(sys.argv[3]) if len(sys.argv) > 3 else 100_000

    # Pass 1a: the one-shot CLI exposition.
    one_shot = subprocess.run(
        [ctl, "--stream", "--processors", str(processors), "--prom-out", "-",
         "screen", str(processors)],
        capture_output=True, text=True, check=True)
    cli_samples = lint(one_shot.stdout, "sdcctl --prom-out")
    assert ("sdc_screening_tested_total", "") in cli_samples, sorted(cli_samples)[:5]
    tested = cli_samples[("sdc_screening_tested_total", "")][1]
    assert tested == processors, f"tested {tested} != fleet {processors}"

    # Pass 1b + 2: the live daemon, polled twice around a campaign boundary.
    workdir = tempfile.mkdtemp(prefix="sdcd-prom-")
    with running_daemon(sdcd, ctl, workdir, 2) as (daemon, socket):
        first_id = client(ctl, socket, "submit", "name=p1",
                          f"processors={processors}").strip()[len("ok id="):]
        client(ctl, socket, "wait", first_id)
        poll_1 = lint(client(ctl, socket, "prom"), "prom poll 1")
        assert ("sdc_daemon_campaigns_total", "") in poll_1, sorted(poll_1)[:5]
        assert ("sdc_campaign_progress", '{id="1",name="p1"}') in poll_1, (
            sorted(k for k in poll_1 if k[0].startswith("sdc_campaign"))[:8])
        second_id = client(ctl, socket, "submit", "name=p2",
                           f"processors={processors}").strip()[len("ok id="):]
        client(ctl, socket, "wait", second_id)
        poll_2 = lint(client(ctl, socket, "prom"), "prom poll 2")
        assert_monotonic(poll_1, poll_2, "prom polls")
        for strictly in ("sdc_daemon_campaigns_total", "sdc_daemon_events_recorded_total"):
            assert poll_2[(strictly, "")][1] > poll_1[(strictly, "")][1], (
                f"{strictly} did not advance across the second campaign")
        # The aggregated engine counters doubled: two identical campaigns merged.
        assert poll_2[("sdc_screening_tested_total", "")][1] == 2 * processors, poll_2[
            ("sdc_screening_tested_total", "")]
        client(ctl, socket, "shutdown")
        assert daemon.wait(timeout=10) == 0, "sdcd exited non-zero after shutdown"
        print(f"ok: exposition lint on {len(cli_samples)} CLI samples and "
              f"{len(poll_2)} daemon samples; counters monotonic across polls at "
              f"{processors} processors")
        return 0


if __name__ == "__main__":
    sys.exit(main())
