"""The repository benchmark: one run of one workload.

Run from the repository root::

    python3 repobench/run.py --workload city_block --seed 0 --seconds 15 --trace 0

Each run starts fresh interpreters (``repobench/worker.py``) with BLAS
and OpenMP limited to one thread and ``src`` on the import path:

- ``--trace 0``: three set-up interpreters (their median is
  ``setup_s``), then one untraced pass that repeats whole passes until
  ``--seconds`` were measured. Prints every end-to-end metric.
- ``--trace 1``: one untraced and one traced pass of the same work, each
  in its own interpreter, so untraced figures carry no wrapper cost.
  Prints every per-layer metric, with the tracing overhead.

Before the result, one ``record`` line gives the host and environment,
the raw and probe-normalized pass seconds and the median host probe. The last
line is the JSON result. The exit code is 1 when a self-check failed,
2 when the run could not be made at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("city_block", "coupled_block", "ber_sweep")
SETUP_RUNS = 3
# The traced pass's wall time may hold at most this share that no named
# layer span accounts for (see worker.py, ``ledger.coverage``).
LEDGER_TOLERANCE = 0.05
# Every run must end within 180 s; leave room for the launcher itself.
RUN_DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s", "pkts_per_s": "1/s", "peak_rss_mb": "MB",
    "completed_share": "share", "delivered_zigzag": "packets",
    "zigzag_vs_80211": "ratio", "ber_zigzag": "BER", "ber_vs_free": "ratio",
}


class BenchError(RuntimeError):
    """The run cannot be made (missing program, a worker crashed)."""


def worker_env() -> dict:
    """Environment of every worker: one BLAS/OpenMP thread (this build's
    OpenBLAS would otherwise start a thread per core), and the program's
    ``src`` first on the import path."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    src = str(Path.cwd() / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args: list[str], timeout: float) -> dict:
    """Run one worker interpreter to completion; its last line is JSON."""
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            capture_output=True, text=True, env=worker_env(),
            timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` (no git process)."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment(run: dict) -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": run["numpy"], "machine": platform.machine(),
            "commit": git_commit(Path.cwd())}


def end_to_end(setups: list[dict], run: dict) -> dict:
    # Pass time is probe-normalized on every workload; README.md, "Raw or
    # normalized", gives the data behind that choice.
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "pkts_per_s": run["offered"] / run["norm_s"],
        "peak_rss_mb": run["peak_rss_mb"],
        "completed_share": (run["attempted"] - run["failed"])
        / run["attempted"],
        **run["quality"],
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items() if name in values}


def per_layer(untraced: dict, traced: dict) -> dict:
    values = dict(traced["layers"])
    values.update({
        "bench.trace_overhead": traced["norm_s"] / untraced["norm_s"] - 1.0,
        "bench.host_probe_ms": untraced["probe_ms"],
        "bench.raw_pass_s": untraced["raw_s"],
        "bench.norm_pass_s": untraced["norm_s"],
        "testbed.deployment.generate_s": traced["generate_s"],
        "import.repro_s": traced["import_s"],
    })
    return {name: {"value": value, "unit": layer_unit(name)}
            for name, value in values.items()}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(".calls") or name in (
            "link.segmenter.bursts", "link.multicell.windows",
            "link.multicell.injections"):
        return "count"
    return "share" if name != "phy.sync.acquire_per_burst" else "ratio"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one workload of the repository benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (Path.cwd() / "src" / "repro" / "__init__.py").is_file():
        print("repobench: run from the repository root "
              "(no src/repro here)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    def remaining() -> float:
        return deadline - time.monotonic()

    try:
        if args.trace:
            untraced = run_worker(["pass", *common], remaining())
            traced = run_worker(["pass", *common, "--trace"], remaining())
            runs = [untraced, traced]
            metrics = per_layer(untraced, traced)
        else:
            setups = [run_worker(["setup", *common], remaining())
                      for _ in range(SETUP_RUNS)]
            run = run_worker(["pass", *common, "--seconds",
                              str(args.seconds)], remaining())
            runs, metrics = [run], end_to_end(setups, run)
    except BenchError as exc:
        print(f"repobench: {exc}", file=sys.stderr)
        return 2
    problems = [p for r in runs for p in r["problems"]]
    if args.trace:
        coverage = metrics["ledger.coverage"]["value"]
        if coverage < 1.0 - LEDGER_TOLERANCE:
            problems.append(f"layer spans cover {coverage:.3f} of the traced "
                            f"pass, less than {1.0 - LEDGER_TOLERANCE:.2f}")
    correct = not problems
    record = {"workload": args.workload, "seed": args.seed,
              **environment(runs[0]),
              "raw_pass_s": runs[0]["raw_s"],
              "norm_pass_s": runs[0]["norm_s"],
              "host_probe_ms": runs[0]["probe_ms"],
              "passes": runs[0]["passes"],
              "pkts_per_s_raw": runs[0]["offered"] / runs[0]["raw_s"],
              "pkts_per_s_norm": runs[0]["offered"] / runs[0]["norm_s"],
              "problems": problems}
    print("record " + json.dumps(record))
    print(json.dumps({"correct": correct,
                      "attempted": runs[0]["attempted"],
                      "failed": runs[0]["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
