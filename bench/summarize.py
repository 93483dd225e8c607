"""Median, quartiles and quartile spread of end-to-end metrics over runs.

    python3 bench/summarize.py bench/results/*-run.json [--json OUT]

Groups untraced results files by workload.  For each metric, the bounded
ones of the result line and the unbounded extras of the results file, the
spread is (Q3 - Q1) / median with quartiles from
`statistics.quantiles(values, n=4)`, the figure each metric's bound in
BENCHMARK.json is compared with.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def summarize(paths) -> dict:
    values = defaultdict(lambda: defaultdict(list))
    seeds = defaultdict(list)
    provenance = None
    for path in paths:
        rec = json.loads(Path(path).read_text(encoding="utf-8"))
        if rec["trace"]:
            continue
        provenance = provenance or rec["provenance"]
        seeds[rec["workload"]].append(rec["seed"])
        shown = {**rec["result"]["metrics"], **rec.get("extra_metrics", {})}
        for name, m in shown.items():
            values[rec["workload"]][(name, m["unit"])].append(m["value"])
    out = {"provenance": provenance, "workloads": {}}
    for workload, metrics in values.items():
        rows = {}
        for (name, unit), vals in metrics.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            rows[name] = {"unit": unit, "runs": len(vals), "median": med,
                          "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}
        out["workloads"][workload] = {"seeds": sorted(seeds[workload]),
                                      "metrics": rows}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("results", nargs="+", help="results files (*-run.json)")
    ap.add_argument("--json", type=Path, help="also write the summary here")
    args = ap.parse_args(argv)
    summary = summarize(args.results)
    for workload, block in summary["workloads"].items():
        for name, row in block["metrics"].items():
            spread = "-" if row["spread"] is None else f"{row['spread']:.3f}"
            print(f"{workload:14s} {name:12s} n={row['runs']:2d} "
                  f"median={row['median']:.6g} {row['unit']} spread={spread}")
    if args.json:
        args.json.write_text(json.dumps(summary, indent=1) + "\n",
                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
