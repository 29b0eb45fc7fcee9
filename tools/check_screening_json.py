#!/usr/bin/env python3
"""Acceptance check for `bench/micro_screening` (docs/performance.md).

Runs the bench at a small fleet size and asserts:
  * every non-comment stdout line is a valid JSON object;
  * the leading "env" line reports the resolved SIMD level, the forced-scalar build
    flag, and the host's hardware thread count;
  * all expected (bench, model, threads) rows -- including the generate
    cached/reference pair, the "generate_scalar" rows, and the batched "screen_batch"
    K x threads matrix -- are present exactly once, in order, with positive
    throughput numbers;
  * the closing summary line reports a deterministic run (the binary itself exits
    non-zero when any path diverges bitwise -- this script double-checks the flag), a
    cached-vs-reference screening speedup > 1, a batch amortization at K=8 of at least
    MIN_BATCH_AMORTIZATION (the relative acceptance bound: one batched pass must beat
    8 independent passes by >= 2x; it holds in scalar builds too, because the shared
    work the batch amortizes -- the clean-path scan and the MatchingTestcases memo --
    exists at every dispatch level), and a blocked-vs-reference generate speedup of at
    least MIN_GENERATE_SPEEDUP (relative for the same flaky-host reason; the blocked
    generator's win -- bulk uniform fill, branchless classify, no per-draw weight
    re-summing -- also survives scalar dispatch, so one bound covers both CI legs).

Optionally, `--max-batch-ns X` also enforces the absolute bound: every K=8 batched row
must come in at or under X ns per processor-scenario. CI smoke runs skip it (shared
runners make absolute timings flaky); the checked-in bench/BENCH_screening.json matrix
records the real-host numbers against the ~1.2 ns target.

`--processors N` overrides the fleet size (default 50000). The summary's
series_overhead -- attached-SeriesRecorder screen wall over plain screen wall at one
thread -- is bounded at 1.02 (the <= 2% acceptance tax) when N >= 1M, where per-shard
sampling cost is amortized over real work; smoke sizes get a loose 1.25 bound because a
single scheduler tick moves a sub-millisecond ratio.
"""

import json
import subprocess
import sys

PROCESSOR_COUNT = 50000
REPEATS = 2
THREADS = (1, 2, 8)
BATCH_KS = (1, 2, 4, 8)
MIN_BATCH_AMORTIZATION = 2.0
# The blocked generator replaced a ~28.8 ns/processor loop with a ~8.7 ns one (3.2x on
# the reference host, bench/BENCH_screening.json); 2.5x leaves headroom for CI noise
# while still failing on any regression that would give back the win.
MIN_GENERATE_SPEEDUP = 2.5
# Live-telemetry tax: series sampling happens only at shard boundaries in the serial
# fold, so at fleet scale it must be in the noise.
MAX_SERIES_OVERHEAD_FLEET = 1.02
MAX_SERIES_OVERHEAD_SMOKE = 1.25
FLEET_SCALE = 1_000_000
REQUIRED_KEYS = {
    "bench", "model", "threads", "processors", "wall_seconds",
    "ns_per_processor", "fleets_per_second",
}
BATCH_KEYS = {
    "bench", "model", "threads", "k", "processors", "wall_seconds",
    "ns_per_processor_scenario",
}
ENV_KEYS = {"bench", "simd", "forced_scalar", "hardware_threads"}
SIMD_LEVELS = {"scalar", "avx2", "neon"}


def expected_combinations():
    for threads in THREADS:
        yield ("generate", "cached", threads)
        yield ("generate", "reference", threads)
        yield ("generate_scalar", "cached", threads)
        for model in ("cached", "reference"):
            yield ("screen", model, threads)
            yield ("generate_screen", model, threads)
        yield ("screen_series", "cached", threads)
        for k in BATCH_KS:
            yield ("screen_batch", "cached", threads, k)


def main() -> int:
    args = sys.argv[1:]
    max_batch_ns = None
    if "--max-batch-ns" in args:
        flag = args.index("--max-batch-ns")
        max_batch_ns = float(args[flag + 1])
        del args[flag:flag + 2]
    processors = PROCESSOR_COUNT
    if "--processors" in args:
        flag = args.index("--processors")
        processors = int(args[flag + 1])
        del args[flag:flag + 2]
    if len(args) != 1:
        print(f"usage: {sys.argv[0]} <micro_screening-binary> [--max-batch-ns X] "
              f"[--processors N]",
              file=sys.stderr)
        return 2
    result = subprocess.run(
        [args[0], str(processors), str(REPEATS)],
        capture_output=True,
        text=True,
        check=True,  # the binary exits non-zero on any bitwise divergence
    )

    rows = []
    env = None
    summary = None
    batch_k8_ns = []
    for line in result.stdout.splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        record = json.loads(line)  # every data line must parse on its own
        if record["bench"] == "env":
            assert env is None, "duplicate env line"
            assert not rows and summary is None, "env line must come first"
            assert set(record) == ENV_KEYS, sorted(set(record) ^ ENV_KEYS)
            assert record["simd"] in SIMD_LEVELS, record
            assert isinstance(record["forced_scalar"], bool), record
            assert record["hardware_threads"] >= 1, record
            env = record
            continue
        if record["bench"] == "summary":
            assert summary is None, "duplicate summary line"
            summary = record
            continue
        if record["bench"] == "screen_batch":
            assert set(record) == BATCH_KEYS, sorted(set(record) ^ BATCH_KEYS)
            assert record["processors"] == processors, record
            assert record["wall_seconds"] > 0.0, record
            assert record["ns_per_processor_scenario"] > 0.0, record
            if record["k"] == 8:
                batch_k8_ns.append(record["ns_per_processor_scenario"])
            rows.append((record["bench"], record["model"], record["threads"],
                         record["k"]))
            continue
        assert set(record) == REQUIRED_KEYS, sorted(set(record) ^ REQUIRED_KEYS)
        assert record["processors"] == processors, record
        assert record["wall_seconds"] > 0.0, record
        assert record["ns_per_processor"] > 0.0, record
        assert record["fleets_per_second"] > 0.0, record
        rows.append((record["bench"], record["model"], record["threads"]))

    assert env is not None, "missing env line"
    expected = list(expected_combinations())
    assert rows == expected, (
        f"combination mismatch:\n  got      {rows}\n  expected {expected}")

    assert summary is not None, "missing summary line"
    assert summary["deterministic"] is True, summary
    assert summary["screen_speedup_cached_vs_reference"] > 1.0, summary
    assert summary["batch_amortization_k8"] >= MIN_BATCH_AMORTIZATION, (
        f"batched pass amortizes only "
        f"{summary['batch_amortization_k8']:.2f}x over 8 independent runs "
        f"(acceptance bound: >= {MIN_BATCH_AMORTIZATION}x)")
    assert summary["generate_speedup_blocked_vs_reference"] >= MIN_GENERATE_SPEEDUP, (
        f"blocked generator is only "
        f"{summary['generate_speedup_blocked_vs_reference']:.2f}x the reference loop "
        f"(acceptance bound: >= {MIN_GENERATE_SPEEDUP}x)")
    max_series_overhead = (MAX_SERIES_OVERHEAD_FLEET if processors >= FLEET_SCALE
                          else MAX_SERIES_OVERHEAD_SMOKE)
    assert summary["series_overhead"] > 0.0, summary
    assert summary["series_overhead"] <= max_series_overhead, (
        f"attached SeriesRecorder costs {summary['series_overhead']:.4f}x the plain "
        f"screen at {processors} processors "
        f"(acceptance bound: <= {max_series_overhead}x)")
    if max_batch_ns is not None:
        assert batch_k8_ns, "no K=8 batched rows"
        worst = max(batch_k8_ns)
        assert worst <= max_batch_ns, (
            f"K=8 batched clean path at {worst:.2f} ns/processor-scenario "
            f"exceeds the {max_batch_ns} ns acceptance bound")
    print(f"ok: {len(rows)} bench rows on {env['simd']} "
          f"(forced_scalar={env['forced_scalar']}), deterministic, cached screen "
          f"{summary['screen_speedup_cached_vs_reference']:.2f}x the reference model, "
          f"blocked generate "
          f"{summary['generate_speedup_blocked_vs_reference']:.2f}x the reference loop, "
          f"K=8 batch {summary['batch_amortization_k8']:.2f}x over independent runs, "
          f"series tax {summary['series_overhead']:.4f}x "
          f"(bound {max_series_overhead}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
