"""One benchmark workload in a fresh interpreter; started by run.py.

    python3 bench/worker.py {setup,run,trace} --workload NAME --seed N
        --seconds S --results DIR

`setup` only imports and builds the inputs, `run` adds the untraced timed
phase, and `trace` alternates an untraced and a traced copy of each pass.
The last line of standard output is one JSON object.
"""

import time

T0 = time.perf_counter()   # setup_s counts the imports below

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# Layer groups reported by self time and call count.
SELF_GROUPS = ("expr.compile", "fields.symbolic", "structure.rank",
               "structure.torsion", "structure.frames",
               "structure.involutivity", "flows.integrate", "flows.transport",
               "flows.bracket")
# Groups reported by total (inclusive) time.
TOTAL_GROUPS = ("charts.validate", "charts.hk.k0", "charts.hk.k1",
                "charts.hk.k2", "charts.verify", "charts.coords",
                "charts.forward")
COUNTERS = ("expr.evals", "flows.rk4_steps", "flows.transport_steps",
            "flows.computed.values", "flows.computed.misses")
ANSWERS = ("verify.max_deviation", "verify.max_bracket", "coords.roundtrip_max")


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "1" if name in ANSWERS else "count"


def with_units(values: dict) -> dict:
    return {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}


def input_labels() -> list:
    """Every per-input op label, on every workload (0 where not run)."""
    checks = [*workloads.corpus.CORPUS,
              *(f"docs-{stem}" for stem in workloads.DOC_EXPECTED)]
    runs = [n for names in workloads.JORDANIZE_INPUTS.values() for n in names]
    return [f"check.{n}" for n in checks] + [f"jordanize.{n}" for n in runs]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def speed_probe() -> float:
    """Best of three timings of a fixed pure-Python loop, in seconds."""
    best = math.inf
    for _ in range(3):
        t = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t)
    return best


# The reference computation timed next to every operation of an untraced
# run: small-matrix numpy calls driven from Python, the kind of work the
# library's inner loops do.  It follows the machine's speed shifts more
# closely than a pure-Python loop (see README.md).
_REF_MATRIX = np.arange(25.0).reshape(5, 5) / 7 + np.eye(5)


def reference_time() -> float:
    """Best of three timings of the reference computation, in seconds."""
    best = math.inf
    for _ in range(3):
        t = time.perf_counter()
        for i in range(20):
            b = _REF_MATRIX @ _REF_MATRIX.T + i
            np.linalg.solve(b, _REF_MATRIX[0])
            float(np.abs(b).max())
        best = min(best, time.perf_counter() - t)
    return best


class Tally:
    """Latencies, costs, failures and answer maxima of the operations run.

    With `reference`, the reference computation is timed before the first
    operation of a pass and after every operation.  An operation's cost is
    its latency over the mean of the reference timings on either side of
    it; `pass_costs` holds each input's mean cost in each pass.
    """

    def __init__(self, reference: bool = False):
        self.reference = reference
        self.latencies = []          # (label, seconds)
        self.starts = []             # perf_counter() at each op's start
        self.costs = []              # latency / reference time
        self.pass_costs = defaultdict(list)   # label -> mean cost per pass
        self.ref_s = []              # reference timings
        self.failures = []
        self.answers = defaultdict(float)

    def run_pass(self, workload, inputs, seed: int, index: int,
                 tracer=None) -> list:
        """Runs pass `index` and returns its labels, in order."""
        ops = workload.make_pass(inputs, seed, index)
        before = reference_time() if self.reference else None
        costs = defaultdict(list)
        for op in ops:
            t = time.perf_counter()
            try:
                got = op.run() if tracer is None else tracer.span(op.label, op.run)
            except Exception as err:  # a failed operation is counted, not fatal
                self.failures.append(f"{op.label}: {type(err).__name__}: {err}")
                got = {}
            latency = time.perf_counter() - t
            self.starts.append(t)
            self.latencies.append((op.label, latency))
            if self.reference:
                after = reference_time()
                self.costs.append(latency / (0.5 * (before + after)))
                costs[op.label].append(self.costs[-1])
                self.ref_s.append(after)
                before = after
            for key, value in got.items():
                self.answers[key] = max(self.answers[key], value)
        # The pass's objects (a chart and its caches) hold reference cycles;
        # free them now, so peak memory does not depend on the pass count.
        gc.collect()
        for label, c in costs.items():
            self.pass_costs[label].append(statistics.fmean(c))
        return [op.label for op in ops]

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def by_label(self) -> dict:
        """Latencies in seconds per operation label, in run order."""
        out = defaultdict(list)
        for label, s in self.latencies:
            out[label].append(s)
        return out


def outcome(*tallies) -> dict:
    failures = [f for t in tallies for f in t.failures]
    return {"attempted": sum(t.attempted for t in tallies),
            "failed": len(failures), "failures": failures[:20]}


def layer_metrics(tracer: Tracer) -> dict:
    self_s, total_s, calls = tracer.self_times()
    counts = tracer.counts
    out = {}
    for g in SELF_GROUPS:
        out[f"{g}.calls"] = calls[g]
        out[f"{g}.self_s"] = self_s.get(g, 0.0)
    for g in TOTAL_GROUPS:
        out[f"{g}.total_s"] = total_s.get(g, 0.0)
    for g in ("charts.coords", "charts.forward"):
        out[f"{g}.calls"] = calls[g]
    out["corpus.build.self_s"] = self_s.get("corpus.build", 0.0)
    for c in COUNTERS:
        out[c] = counts[c]
    values = counts["flows.computed.values"]
    out["flows.computed.hit_ratio"] = (
        1.0 - counts["flows.computed.misses"] / values if values else 0.0)
    return out


def write_spans(tracer: Tracer, path: Path):
    """Spans as JSON lines [id, parent, name, start_s, end_s]."""
    t0 = tracer.spans[0][2] if tracer.spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        for i, (name, parent, start, end) in enumerate(tracer.spans):
            fh.write(json.dumps([i, parent, name, round(start - t0, 9),
                                 round(end - t0, 9)]) + "\n")


def timed_run(workload, inputs, seed: int, seconds: float) -> dict:
    """Passes until `seconds` have elapsed, then the end-to-end metrics.

    The machine's speed shifts on its own by half or more for seconds at a
    time (see README.md), so the bounded metrics are costs: each operation's
    latency in units of the reference computation timed on either side of
    it.  An input's cost is the median over passes of its mean cost in a
    pass; every pass draws new seeds, so that median covers many seeds.
    Wall-clock throughput and percentiles are kept as unbounded extras.
    """
    tally = Tally(reference=True)
    probe_start = speed_probe()
    start = time.perf_counter()
    passes = 0
    while True:
        labels = tally.run_pass(workload, inputs, seed, passes)
        passes += 1
        if time.perf_counter() - start >= seconds:
            break
    elapsed = time.perf_counter() - start
    cost = {label: statistics.median(c) for label, c in tally.pass_costs.items()}
    lat_ms = [1e3 * s for _, s in tally.latencies]
    completed = tally.attempted - len(tally.failures)
    extra = {
        # the elapsed time includes the reference timings, about 1 ms per op
        "ops_per_s": {"value": completed / elapsed, "unit": "1/s"},
        "op_p50_ms": {"value": float(np.percentile(lat_ms, 50)), "unit": "ms"},
        # 0 on a healthy run; failures also show as `failed` on the result line
        "fail_ratio": {"value": len(tally.failures) / tally.attempted,
                       "unit": "ratio"},
        "ref_ms": {"value": 1e3 * statistics.median(tally.ref_s),
                   "unit": "ms"},
    }
    if tally.attempted >= 100:
        extra["op_p90_ms"] = {"value": float(np.percentile(lat_ms, 90)),
                              "unit": "ms"}
    return {
        **outcome(tally), "passes": passes, "elapsed_s": elapsed,
        "ops": [[label, round(t - start, 6), round(s, 6), round(c, 3)]
                for (label, s), t, c in zip(tally.latencies, tally.starts,
                                            tally.costs)],
        "input_cost_ref": cost,
        "speed_probe_s": [probe_start, speed_probe()],
        "metrics": {
            "op_cost": {"value": math.exp(statistics.fmean(
                math.log(c) for c in cost.values())), "unit": "ref"},
            "pass_cost": {"value": math.fsum(cost[lb] for lb in labels),
                          "unit": "ref"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        },
        "extra_metrics": extra,
    }


def traced_run(workload, inputs, seed: int, seconds: float,
               spans_path: Path) -> dict:
    """Pairs of one untraced and one traced copy of the same pass.

    The traced copy builds its inputs again under the tracer, which is
    where `corpus.build` is measured.  Counts come from the first traced
    pass; times are medians over the pairs.
    """
    untraced, traced = Tally(), Tally()
    pairs = []
    probe_start = speed_probe()
    start = time.perf_counter()
    index = 0
    while True:
        t = time.perf_counter()
        untraced.run_pass(workload, inputs, seed, index)
        untraced_s = time.perf_counter() - t
        tracer = Tracer()
        tracer.install()
        try:
            traced_inputs = tracer.span("setup", workload.setup)
            t = time.perf_counter()
            traced.run_pass(workload, traced_inputs, seed, index, tracer)
            traced_s = time.perf_counter() - t
        finally:
            tracer.uninstall()
        if index == 0:
            write_spans(tracer, spans_path)
            spans_written = len(tracer.spans)
            counts = layer_metrics(tracer)
        pairs.append((untraced_s, traced_s, layer_metrics(tracer)))
        index += 1
        if time.perf_counter() - start >= seconds:
            break
    metrics = {}
    for key, first in counts.items():
        if key.endswith("_s"):
            metrics[key] = statistics.median(p[2][key] for p in pairs)
        else:
            metrics[key] = first
    for key in ANSWERS:
        metrics[key] = max(untraced.answers[key], traced.answers[key])
    by_label = untraced.by_label()
    for label in input_labels():
        lat = by_label.get(label)
        metrics[f"{label}.p50_ms"] = 1e3 * statistics.median(lat) if lat else 0.0
    metrics["trace.untraced_pass_s"] = statistics.median(p[0] for p in pairs)
    metrics["trace.traced_pass_s"] = statistics.median(p[1] for p in pairs)
    metrics["trace.overhead_ratio"] = statistics.median(
        p[1] / p[0] - 1.0 for p in pairs)
    return {**outcome(untraced, traced), "passes": index,
            "spans_file": str(spans_path), "spans": spans_written,
            "elapsed_s": time.perf_counter() - start,
            "speed_probe_s": [probe_start, speed_probe()],
            "metrics": with_units(metrics)}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "run", "trace"))
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--results", type=Path, required=True)
    args = ap.parse_args()
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.setup()
    out = {"setup_s": time.perf_counter() - T0}
    if args.mode != "setup":
        if args.mode == "run":
            res = timed_run(workload, inputs, args.seed, args.seconds)
        else:
            spans = args.results / f"{args.workload}-seed{args.seed}-spans.jsonl"
            res = traced_run(workload, inputs, args.seed, args.seconds, spans)
        out.update(res)
    out["python"] = platform.python_version()
    out["numpy"] = np.__version__
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
