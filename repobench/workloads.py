"""The benchmark's three workloads, built from the workload seed.

Each workload is a fixed list of timed calls into the program's public
entry points, one call per cell session (``city_block``), per design of
a coupled block (``coupled_block``) or per half of an SNR sweep point
(``ber_sweep``), so each timing is short and its host-speed samples are
its own. Part of the calls are fixed reference inputs, the rest are
drawn from the workload seed. A workload also knows how to check a
call's result, how to digest it for the repeat checks, and how to turn
the reference calls' results into the user-visible quality metrics.

Why these workloads:

- ``city_block`` is the city-scale traffic the program exists to serve:
  the geometry-derived 10-AP block, cell by cell, both AP designs on the
  same seeded air. Most of its time goes to the link layer (air
  synthesis, segmentation, the event engine) and packet acquisition; the
  ZigZag decoder is a small share. It also keeps the known defect
  visible: ZigZag delivers fewer packets than 802.11 here.
- ``coupled_block`` is the same geometry through the multi-cell
  coordinator with real inter-cell waveform exchange. It is the only
  workload that injects into the air, and real cross-cell interference
  makes more collisions, so the ZigZag decoder carries more of the time.
- ``ber_sweep`` is the Fig 5-3 micro-benchmark through the inline
  Monte-Carlo runner. It skips the link layer entirely and spends most
  of its time in the ZigZag pair decoder, so a link-layer gain must not
  move it and a decoder gain shows most here.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.runner.builders import get_deployment
from repro.runner.cache import cached_preamble, cached_shaper
from repro.runner.runner import MonteCarloRunner
from repro.runner.scenarios import TrialContext, get_scenario
from repro.runner.spec import ScenarioSpec
from repro.testbed.metrics import BER_DELIVERY_THRESHOLD

# The block of ROADMAP's city-scale soak: 10 APs, 110 clients, light
# Poisson load with one client in five saturated.
CITY_BLOCK = {"n_aps": 10, "n_clients": 110, "area_m": 120.0,
              "offered_load": 0.25, "saturated_fraction": 0.2}
# Every run holds a fixed reference part and a part drawn from the
# workload seed. The quality metrics come from the reference part alone,
# so they compare exactly between runs whatever the seed; the drawn part
# varies the timed work with the seed. Link workloads: reference
# deployment seeds, then this many more per workload seed, numbered on
# from the last reference one (city_block seed n adds deployment 13 + n).
CITY_REFERENCE = (11, 12)
CITY_DRAWN = 1
COUPLED_REFERENCE = (11, 12, 13)
COUPLED_DRAWN = 2
CITY_PACKETS = 4
COUPLED_PACKETS = 2
PAYLOAD_BITS = 96
DESIGNS = ("zigzag", "802.11")

BER_SNRS_DB = (4.0, 6.0, 8.0, 10.0, 12.0, 14.0)
BER_TRIALS = 40          # collision pairs per timed call
BER_PAYLOAD_BITS = 480
# Per SNR point: one reference call and one call drawn from the seed.


@dataclass
class Call:
    """One timed call: ``run()`` returns the program's result object."""

    label: str
    run: Callable[[], Any]
    offered: int          # offered packets the call simulates
    design: str = ""
    reference: bool = False   # part of the fixed reference inputs


@dataclass
class Inputs:
    """A workload's built inputs plus what building them cost."""

    calls: list[Call]
    generate_s: float = 0.0


def deployment_seeds(seed: int, reference: tuple[int, ...],
                     drawn: int) -> list[tuple[int, bool]]:
    """``(deployment seed, is reference)`` for workload seed *seed*."""
    first = max(reference) + 1 + drawn * seed
    return ([(d, True) for d in reference]
            + [(first + k, False) for k in range(drawn)])


def _block_spec(kind: str, dseed: int, n_packets: int,
                **scenario) -> ScenarioSpec:
    return ScenarioSpec.from_dict({
        "scenario": {"kind": kind, "n_packets": n_packets,
                     "payload_bits": PAYLOAD_BITS, "seed": dseed,
                     **scenario},
        "deployment": {**CITY_BLOCK, "seed": dseed},
    })


def _deployments(specs: list[ScenarioSpec]) -> tuple[list, float]:
    started = time.perf_counter()
    deployments = [get_deployment(spec) for spec in specs]
    return deployments, time.perf_counter() - started


def _trial_call(fn, spec, index, label, offered, design="",
                reference=False):
    def run():
        return fn(spec, TrialContext.for_trial(spec.seed, index))
    return Call(label, run, offered, design, reference)


def build_city(seed: int, wrap: Callable) -> Inputs:
    fn = wrap(get_scenario("city_scale"))
    picked = deployment_seeds(seed, CITY_REFERENCE, CITY_DRAWN)
    specs = [_block_spec("city_scale", d, CITY_PACKETS) for d, _ in picked]
    deployments, generate_s = _deployments(specs)
    calls = []
    for spec, dep, (_, reference) in zip(specs, deployments, picked):
        for i, plan in enumerate(dep.cells()):
            calls.append(_trial_call(
                fn, spec, i, f"d{spec.seed}/ap{plan.ap}",
                plan.n_clients * CITY_PACKETS * len(DESIGNS),
                reference=reference))
    return Inputs(calls, generate_s)


def build_coupled(seed: int, wrap: Callable) -> Inputs:
    fn = wrap(get_scenario("city_multicell"))
    picked = [(d, reference, design) for d, reference in deployment_seeds(
        seed, COUPLED_REFERENCE, COUPLED_DRAWN) for design in DESIGNS]
    specs = [_block_spec("city_multicell", d, COUPLED_PACKETS, design=design)
             for d, _, design in picked]
    deployments, generate_s = _deployments(specs)
    calls = []
    for spec, dep, (_, reference, _) in zip(specs, deployments, picked):
        offered = sum(p.n_clients for p in dep.cells()) * COUPLED_PACKETS
        calls.append(_trial_call(fn, spec, 0, f"d{spec.seed}/{spec.design}",
                                 offered, spec.design, reference))
    return Inputs(calls, generate_s)


def _ber_root_seed(seed: int | None, point: int) -> int:
    """Root seed of an SNR point's reference call (*seed* None) or of
    its call drawn from workload seed *seed*."""
    if seed is None:
        sequence = np.random.SeedSequence(point, spawn_key=(0,))
    else:
        sequence = np.random.SeedSequence([seed, point], spawn_key=(1,))
    return int(sequence.generate_state(1)[0])


def build_ber(seed: int, wrap: Callable) -> Inputs:
    # The runner looks its trial function up itself; the traced pass
    # wraps that lookup instead of *wrap*.
    runner = MonteCarloRunner(n_workers=1)
    calls = []
    for p, snr in enumerate(BER_SNRS_DB):
        for root in (None, seed):
            spec = ScenarioSpec.from_dict({
                "scenario": {"kind": "zigzag_ber", "n_trials": BER_TRIALS,
                             "payload_bits": BER_PAYLOAD_BITS,
                             "seed": _ber_root_seed(root, p)},
                "params": {"snr_db": snr},
            })
            calls.append(Call(f"snr{snr:g}/{spec.seed}",
                              lambda spec=spec: runner.run(spec),
                              2 * BER_TRIALS, reference=root is None))
    return Inputs(calls)


BUILDERS = {"city_block": build_city, "coupled_block": build_coupled,
            "ber_sweep": build_ber}
WORKLOADS = tuple(BUILDERS)


def build(workload: str, seed: int, wrap: Callable | None = None) -> Inputs:
    """The workload's inputs with the shared caches warm. *wrap*, when
    given, is applied to the scenario trial function the calls invoke."""
    if seed < 0:
        raise ValueError("seed must be >= 0")
    inputs = BUILDERS[workload](seed, wrap or (lambda fn: fn))
    # Every workload runs at the spec's default preamble and shaper.
    cached_preamble(ScenarioSpec.from_dict(
        {"scenario": {"kind": "zigzag_ber"}}).preamble_length)
    cached_shaper()
    return inputs


# ----------------------------------------------------------------------
# Results: checks, digests, quality metrics
# ----------------------------------------------------------------------
def _flow_key(stats) -> tuple:
    return (stats.sent, stats.delivered, repr(stats.airtime_slots),
            tuple(repr(b) for b in stats.bers))


def digest(result) -> str:
    """Digest of everything a call produced: every metric, and for link
    workloads every flow's full counters and per-packet BERs."""
    if hasattr(result, "trials"):          # RunResult (ber_sweep)
        parts = [(t.index, sorted((k, repr(v)) for k, v in t.metrics.items()))
                 for t in result.trials]
        parts.append(("failures", len(result.failures)))
    else:                                  # TrialResult (link workloads)
        parts = [sorted((k, repr(v)) for k, v in result.metrics.items()),
                 sorted((k, _flow_key(s)) for k, s in result.flows.items())]
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _check_flows(result, n_packets: int) -> list[str]:
    """Per-flow conservation: each offered packet is either delivered or
    dropped, exactly once."""
    problems = []
    for name, s in result.flows.items():
        delivered = sum(1 for b in s.bers if b < BER_DELIVERY_THRESHOLD)
        if not (s.sent == n_packets == len(s.bers)
                and s.delivered == delivered):
            problems.append(
                f"flow {name}: offered {n_packets}, sent {s.sent}, "
                f"records {len(s.bers)}, delivered {s.delivered} "
                f"(by BER {delivered})")
    return problems


def check(workload: str, call: Call, result) -> list[str]:
    """Why *result* is wrong or degraded; empty when it is fine."""
    if workload == "ber_sweep":
        problems = [f"trial {f.index} failed: {f.error_class}"
                    for f in result.failures]
        if len(result.trials) != BER_TRIALS:
            problems.append(f"{len(result.trials)} of {BER_TRIALS} trials")
        return problems
    m = result.metrics
    if workload == "city_block":
        problems = _check_flows(result, CITY_PACKETS)
        if m["timed_out_zigzag"] or m["timed_out_80211"]:
            problems.append("a cell session timed out")
        return problems
    problems = _check_flows(result, COUPLED_PACKETS)
    if m["timed_out_cells"]:
        problems.append(f"{m['timed_out_cells']:g} cells timed out")
    if m["coupled_workers"] > 1 and m["coupled_degraded"]:
        problems.append("coupled block degraded to sequential")
    return problems


def cell_workers(workload: str, result) -> int:
    """Worker processes a coupled block stepped its cells in (1: inline)."""
    if workload != "coupled_block":
        return 1
    return int(result.metrics["coupled_workers"])


def quality(workload: str, calls: list[Call], results: list) -> dict:
    """User-visible quality metrics over the results of the reference
    calls among *calls*.

    Link workloads compare the ZigZag AP with the 802.11 AP on the same
    air; ``ber_vs_free`` there is the ZigZag AP's mean per-packet BER
    over the 802.11 AP's. ``ber_sweep`` compares ZigZag with the
    collision-free scheduler, and counts a pair as delivered when both
    packets decode without a bit error.
    """
    pairs = [(c, r) for c, r in zip(calls, results) if c.reference]
    if workload == "ber_sweep":
        trials = [t.metrics for _, r in pairs for t in r.trials]
        zz = [t["ber_both"] for t in trials]
        free = [t["ber_free"] for t in trials]
        clean_zz = sum(1 for b in zz if b == 0)
        clean_free = sum(1 for b in free if b == 0)
        return {"delivered_zigzag": 2 * clean_zz,
                "zigzag_vs_80211": clean_zz / clean_free,
                "ber_zigzag": float(np.mean(zz)),
                "ber_vs_free": float(np.mean(zz) / np.mean(free))}
    delivered = {d: 0 for d in DESIGNS}
    bers = {d: [] for d in DESIGNS}
    for call, result in pairs:
        for key, stats in result.flows.items():
            if workload == "city_block":
                design = "zigzag" if key.startswith("zigzag_") else "802.11"
            else:
                design = call.design
            delivered[design] += stats.delivered
            bers[design].extend(stats.bers)
    return {"delivered_zigzag": delivered["zigzag"],
            "zigzag_vs_80211": delivered["zigzag"] / delivered["802.11"],
            "ber_zigzag": float(np.mean(bers["zigzag"])),
            "ber_vs_free": float(np.mean(bers["zigzag"])
                                 / np.mean(bers["802.11"]))}
