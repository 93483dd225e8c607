"""endochart benchmark runner.

    python3 bench/run.py --workload check-corpus --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all

Runs each workload in a fresh interpreter (bench/worker.py) with BLAS and
OpenMP pinned to one thread, checks every answer, writes a results file
with the run's provenance under --results, and prints one JSON object as
the last line: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.  `--workload all` runs every workload in turn, untraced and
traced, and prints every metric with its unit.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("check-corpus", "jordanize-n2", "jordanize-n3", "chart-coords")

# Setup is repeated in this many extra interpreters, half of them before and
# half after the measuring one, so the samples span the run; setup_s is the
# median of all of them.
SETUP_REPEATS = 8


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def worker(mode: str, args) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--results", str(args.results)]
    try:
        proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=4 * args.seconds + 300)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{mode} worker timed out after {err.timeout} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except ValueError as err:
        raise BenchError(f"{mode} worker printed no result: {err}")


def provenance(child: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], text=True,
                capture_output=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    lines = {}
    for path in sorted((SRC / "endochart").glob("*.py")):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines[path.stem] = data.count(b"\n")
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": child["python"], "numpy": child["numpy"],
            "commit": commit, "src_sha256": digest.hexdigest(),
            "src_lines": lines, "src_lines_total": sum(lines.values())}


def run_workload(args) -> tuple[dict, dict]:
    """Returns (result line, results file content)."""
    args.results.mkdir(parents=True, exist_ok=True)
    trace = args.trace == 1
    setups = [] if trace else [worker("setup", args)["setup_s"]
                               for _ in range(SETUP_REPEATS // 2)]
    main = worker("trace" if trace else "run", args)
    metrics = main.pop("metrics")
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "provenance": provenance(main), **main}
    if not trace:
        setups.append(main["setup_s"])
        setups += [worker("setup", args)["setup_s"]
                   for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2)]
        record["setup_samples_s"] = setups
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
                   **metrics}
    line = {"correct": main["failed"] == 0, "attempted": main["attempted"],
            "failed": main["failed"], "metrics": metrics}
    record["result"] = line
    name = f"{args.workload}-seed{args.seed}-{'trace' if trace else 'run'}.json"
    (args.results / name).write_text(json.dumps(record, indent=1) + "\n",
                                     encoding="utf-8")
    return line, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", type=Path, default=BENCH / "results",
                    help="directory for results and span files")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "endochart" / "__init__.py").is_file():
        print(f"error: endochart sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload != "all":
        try:
            line, _ = run_workload(args)
        except BenchError as err:
            print(f"error: {args.workload}: {err}", file=sys.stderr)
            return 1
        print(json.dumps(line))
        return 0
    for name in WORKLOADS:
        args.workload = name
        for args.trace in (0, 1):
            try:
                line, record = run_workload(args)
            except BenchError as err:
                print(f"error: {name}: {err}", file=sys.stderr)
                return 1
            shown = {**line["metrics"], **record.get("extra_metrics", {})}
            for key, m in shown.items():
                print(f"{name:14s} {key:36s} {m['value']:.6g} {m['unit']}")
            mode = "traced" if args.trace else "untraced"
            print(f"{name:14s} {mode + ' attempted/failed':36s} "
                  f"{line['attempted']}/{line['failed']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
