#!/usr/bin/env python3
"""Compares benchmark records (perfbench/README.md).

    python3 perfbench/compare.py BASE NEW

BASE and NEW are JSON files holding one record, a list of records, or one record per
line (.bench_build/perfbench/ledger.jsonl, perfbench/baseline.json). Records pair up
by (workload, trace); for each pair every metric is printed side by side with its
relative change. One record against one record gives no verdict: whether a change is a
regression is decided on the medians of repeated runs against the BENCHMARK.json bounds.

Numbers from different machines or builds do not compare, so the pair's host
fingerprints (cores, SIMD level, compiler, build type, lanes) must be equal: otherwise
the comparison is refused with exit status 2. The revision is what a comparison is for,
so it may differ.
"""

import json
import sys

HOST_KEYS = ("nproc", "simd", "compiler", "build_type", "lanes")


def load(path):
    with open(path) as f:
        text = f.read().strip()
    try:
        data = json.loads(text)
        records = data if isinstance(data, list) else [data]
    except ValueError:
        records = [json.loads(line) for line in text.splitlines() if line.strip()]
    # The last record of each (workload, trace) wins: ledgers append.
    return {(r["workload"], bool(r["trace"])): r for r in records}


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, new = load(sys.argv[1]), load(sys.argv[2])

    pairs = sorted(set(base) & set(new))
    if not pairs:
        print("compare: no (workload, trace) pair in common", file=sys.stderr)
        return 2
    for key in pairs:
        a, b = base[key]["fingerprint"], new[key]["fingerprint"]
        differing = [k for k in HOST_KEYS if a.get(k) != b.get(k)]
        if differing:
            print(f"compare: refused: {key[0]} records come from different hosts "
                  f"({', '.join(f'{k}: {a.get(k)} vs {b.get(k)}' for k in differing)})",
                  file=sys.stderr)
            return 2

    for workload, trace in pairs:
        a, b = base[(workload, trace)], new[(workload, trace)]
        print(f"# {workload} ({'per-layer' if trace else 'end-to-end'}) "
              f"{a['fingerprint'].get('rev')} -> {b['fingerprint'].get('rev')}")
        for name, old in a["metrics"].items():
            if name not in b["metrics"]:
                continue
            now = b["metrics"][name]["value"]
            change = (now - old["value"]) / old["value"] if old["value"] else 0.0
            print(f"  {name:28s} {old['value']:14.6g} -> {now:14.6g} {old['unit']:6s} "
                  f"{change:+8.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
