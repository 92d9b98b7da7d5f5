"""Steadiness report: do two sets of runs of the same code agree?

Runs ``repobench/run.py --trace 0`` for every workload over ``--seeds``
seeds, twice, and prints for each end-to-end metric the median, the
quartiles, the spread (interquartile distance over the median) of each
set, and how far the second set's median is from the first's, against
the bound in ``BENCHMARK.json``. Raw and probe-normalized ``pkts_per_s``
are shown side by side: the data behind ``run.py`` timing every
workload in probe-normalized seconds. Run from the repository root::

    python3 repobench/steadiness.py --seeds 10 --save runs.jsonl
    python3 repobench/steadiness.py --load runs.jsonl   # report only

The exit code is 1 when a spread or the distance between the two
medians exceeds its bound, in either direction. The spread of
``setup_s`` is shown but not judged: a run's ``setup_s`` is already the
median of several fresh interpreters, and the benchmark's acceptance
rule bounds set-up time by the shift of its median alone.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETS = 2
# Judged by median shift only (see the module docstring).
SPREAD_NOT_JUDGED = ("setup_s",)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse *second* is than *first*, as a share of *first*
    (negative when it is better)."""
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    record = json.loads(lines[-2].removeprefix("record "))
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values["pkts_per_s.raw"] = record["pkts_per_s_raw"]
    values["pkts_per_s.norm"] = record["pkts_per_s_norm"]
    values["host_probe_ms"] = record["host_probe_ms"]
    return {"workload": workload, "seed": seed, "values": values}


def report(rows: list[dict], bench: dict) -> bool:
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    for workload in [w["name"] for w in bench["workloads"]]:
        sets = {}
        for row in rows:
            if row["workload"] == workload:
                sets.setdefault(row["set"], []).append(row["values"])
        if not sets:
            continue
        counts = ", ".join(f"set {s}: {len(v)} runs"
                           for s, v in sorted(sets.items()))
        print(f"\n== {workload}: {counts}")
        print(f"{'metric':22s} {'set':>3s} {'median':>11s} {'q1':>11s} "
              f"{'q3':>11s} {'spread':>7s} {'bound':>6s} {'verdict':s}")
        names = list(metrics) + ["pkts_per_s.raw", "pkts_per_s.norm",
                                 "host_probe_ms"]
        for name in names:
            meta = metrics.get(name)
            medians = []
            for s, values in sorted(sets.items()):
                series = [v[name] for v in values if name in v]
                if len(series) < 2:
                    continue
                q1, median, q3 = quartiles(series)
                medians.append(median)
                sp = spread(series)
                verdict = ""
                if meta is not None and name in SPREAD_NOT_JUDGED:
                    verdict = "(spread not judged)"
                elif meta is not None:
                    limit = meta["bound"]
                    if sp > limit:
                        verdict, ok = "SPREAD > bound", False
                    elif sp > limit / 3:
                        verdict = "spread > bound/3"
                print(f"{name:22s} {s:>3d} {median:11.5g} {q1:11.5g} "
                      f"{q3:11.5g} {sp:7.3f} "
                      f"{(meta['bound'] if meta else float('nan')):6.2f} "
                      f"{verdict}")
            if meta is not None and len(medians) == SETS:
                shift = worse_by(medians[0], medians[1], meta["better"])
                agree = abs(shift) <= meta["bound"]
                ok = ok and agree
                print(f"{'':22s} second set worse by {shift:+.3f} "
                      f"(bound +-{meta['bound']:.2f}): "
                      f"{'ok' if agree else 'APART > bound'}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--save", help="append every run to this JSONL file")
    parser.add_argument("--load", nargs="*", default=[],
                        help="report on runs saved earlier instead")
    args = parser.parse_args(argv)
    bench = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    rows = []
    for path in args.load:
        rows.extend(json.loads(line) for line in Path(path).read_text()
                    .splitlines() if line.strip())
    if not args.load:
        for s in range(1, SETS + 1):
            for workload in workloads:
                for seed in range(args.seeds):
                    row = run_once(workload, seed, bench["run_seconds"])
                    row["set"] = s
                    rows.append(row)
                    print(f"set {s} {workload} seed {seed}: "
                          + json.dumps(row["values"]), flush=True)
                    if args.save:
                        with open(args.save, "a") as fh:
                            fh.write(json.dumps(row) + "\n")
    return 0 if report(rows, bench) else 1


if __name__ == "__main__":
    sys.exit(main())
