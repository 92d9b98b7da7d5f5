"""One benchmark interpreter, started by ``run.py`` (never imported).

``setup`` times a fresh interpreter from before ``import repro`` until
the workload's inputs are built and the shared caches are warm.
``pass`` builds the same inputs, then times each call of the workload
while sampling host speed, checks every result, compares each call's
digest with its first run (the first call also runs once untimed before
the pass), and prints one JSON line. With
``--trace`` the calls run under the per-layer ledger.

Run by hand (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 repobench/worker.py pass --workload city_block --seed 0
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def _setup(args) -> dict:
    started = time.perf_counter()
    import repro  # noqa: F401
    import_s = time.perf_counter() - started
    import workloads
    inputs = workloads.build(args.workload, args.seed)
    return {"setup_s": time.perf_counter() - _STARTED,
            "import_s": import_s, "generate_s": inputs.generate_s}


def _pass(args) -> dict:
    started = time.perf_counter()
    import repro  # noqa: F401
    import_s = time.perf_counter() - started
    import hostprobe
    import tracing
    import workloads
    from ledger import Ledger

    ledger = undo = wrap = None
    if args.trace:
        ledger = Ledger()
        undo = tracing.install_tracing(ledger)
        wrap = lambda fn: ledger.wrap("runner.trial", fn)  # noqa: E731
    try:
        inputs = workloads.build(args.workload, args.seed, wrap)
        # Warm-up: the first call once, untimed, so lazily filled caches
        # are not charged to it; every timed run of it must match.
        first = workloads.digest(inputs.calls[0].run())
        if ledger is not None:
            ledger.reset()
        out = _measure(args, inputs, workloads, hostprobe, first)
        if ledger is not None:
            out["layers"] = tracing.layer_metrics(ledger)
            out["layers"]["ledger.coverage"] = tracing.coverage(
                ledger, out["wall_s"])
            if out["workers"] > 1:
                out["problems"].append(
                    f"cells ran in {out['workers']} worker processes, "
                    "whose layer spans the traced pass does not see")
    finally:
        if undo is not None:
            undo()
    import numpy
    out.update(import_s=import_s, generate_s=inputs.generate_s,
               numpy=numpy.__version__,
               peak_rss_mb=resource.getrusage(
                   resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return out


def _measure(args, inputs, workloads, hostprobe, first: str) -> dict:
    calls = inputs.calls
    raw = [[] for _ in calls]
    norm = [[] for _ in calls]
    results = [None] * len(calls)
    digests = [None] * len(calls)
    failed = set()
    problems = []
    passes = 0
    with hostprobe.Sampler() as sampler:
        measure_started = time.perf_counter()
        while True:
            for i, call in enumerate(calls):
                mark = len(sampler.samples)
                started = time.perf_counter()
                try:
                    result = call.run()
                except Exception:
                    result = None
                    problems.append(f"{call.label}: "
                                    f"{traceback.format_exc()}")
                elapsed = time.perf_counter() - started
                raw[i].append(elapsed)
                norm[i].append(sampler.normalized(elapsed, mark))
                if result is None:
                    failed.add(i)
                    continue
                digest = workloads.digest(result)
                if passes == 0:
                    results[i], digests[i] = result, digest
                    issues = workloads.check(args.workload, call, result)
                    problems.extend(f"{call.label}: {p}" for p in issues)
                    if issues:
                        failed.add(i)
                if digest != (first if i == 0 else digests[i]):
                    problems.append(f"{call.label}: pass {passes + 1} "
                                    "differs from its first run")
            passes += 1
            wall_s = time.perf_counter() - measure_started
            if wall_s >= args.seconds:
                break
    quality = {}
    if not failed:
        quality = workloads.quality(args.workload, calls, results)
    return {
        "attempted": len(calls), "failed": len(failed),
        "problems": problems, "passes": passes,
        "offered": sum(call.offered for call in calls),
        "raw_s": sum(statistics.median(t) for t in raw),
        "norm_s": sum(statistics.median(t) for t in norm),
        "wall_s": wall_s,
        "workers": max((workloads.cell_workers(args.workload, r)
                        for r in results if r is not None), default=1),
        "probe_ms": statistics.median(sampler.samples) * 1e3,
        "quality": quality,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "pass"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep repeating whole passes until this many "
                             "seconds were measured (at least one pass)")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    out = _setup(args) if args.mode == "setup" else _pass(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
