"""Where the traced pass puts its spans, and the per-layer metrics.

Every span wraps a public call at a layer boundary of the program; the
span names are the layer names the per-layer metrics use. Ratios are
counts taken from the program's own return values and reports.
"""

from __future__ import annotations

from ledger import Ledger, install


def _count_ok(name: str, ok):
    def observe(ledger: Ledger, result) -> None:
        ledger.count(name, 1 if ok(result) else 0)
    return observe


def _count_bursts(ledger: Ledger, bursts) -> None:
    ledger.count("link.segmenter.bursts", len(bursts))


def _session_counters(ledger: Ledger, report) -> None:
    ledger.count("link.air.samples_emitted",
                 report.counters["samples_emitted"])
    ledger.count("link.air.samples_skipped",
                 report.counters["samples_skipped"])


def _multicell_counters(ledger: Ledger, report) -> None:
    ledger.count("link.multicell.windows", report.counters["windows"])
    ledger.count("link.multicell.injections", report.counters["injections"])
    for cell in report.cells.values():
        _session_counters(ledger, cell)


# (target, span name, observer) — see ledger.install for the format. A
# function a module imported by name is wrapped where that module calls it.
TARGETS = [
    ("repro.runner.runner:MonteCarloRunner.run", "runner.run", None),
    ("repro.runner.scenarios:build_cell_session",
     "runner.builders.build", None),
    ("repro.runner.scenarios:build_city_session",
     "runner.builders.build", None),
    ("repro.runner.scenarios:hidden_pair_scenario",
     "runner.builders.build", None),
    ("repro.link.session:LinkSession.run", "link.session.run",
     _session_counters),
    ("repro.link.multicell:MultiCellSession.run", "link.multicell.run",
     _multicell_counters),
    ("repro.link.events:EventEngine.step_until", "link.engine.step_until",
     None),
    ("repro.link.air:ContinuousAir.schedule", "link.air.schedule", None),
    ("repro.link.air:ContinuousAir.emit", "link.air.emit", None),
    ("repro.link.air:ContinuousAir.inject", "link.air.inject", None),
    ("repro.link.segmenter:BurstSegmenter.push", "link.segmenter.push",
     _count_bursts),
    ("repro.link.segmenter:BurstSegmenter.flush", "link.segmenter.push",
     _count_bursts),
    ("repro.link.aps:StandardAp.receive", "link.ap.80211", None),
    ("repro.core.api:ZigZagReceiver.receive", "core.receive", None),
    ("repro.core.api:match_score", "zigzag.match.score", None),
    ("repro.zigzag.detect:CollisionDetector.inspect",
     "zigzag.detect.inspect", None),
    ("repro.zigzag.decoder:ZigZagMultiDecoder.decode", "zigzag.decode",
     _count_ok("zigzag.decode.ok", lambda outcome: outcome.all_decoded)),
    ("repro.zigzag.sic:SicDecoder.decode", "zigzag.sic.decode", None),
    ("repro.receiver.decoder:StandardDecoder.decode",
     "receiver.standard.decode",
     _count_ok("receiver.standard.ok", lambda result: result.success)),
    ("repro.receiver.frontend:SymbolStreamDecoder.decode_chunk",
     "receiver.stream.decode_chunk", None),
    ("repro.phy.sync:Synchronizer.acquire", "phy.sync.acquire", None),
    ("repro.runner.scenarios:synthesize", "phy.medium.synthesize", None),
    ("repro.runner.builders:synthesize", "phy.medium.synthesize", None),
    ("repro.runner.scenarios:extract_bits", "zigzag.extract_bits", None),
]
# Spans that only mark where a timed call enters the program. Their self
# time is whatever no layer span below them claims, so it is not covered.
ENTRY_SPANS = ("runner.trial", "runner.run")


def install_tracing(ledger: Ledger):
    """Wrap every target, plus the runner's trial-function lookup so the
    runner's own trials time as ``runner.trial``; return the undo."""
    import repro.runner.runner as runner_module

    undo_targets = install(ledger, TARGETS)
    lookup = runner_module.get_scenario
    runner_module.get_scenario = (
        lambda name: ledger.wrap("runner.trial", lookup(name)))

    def undo() -> None:
        runner_module.get_scenario = lookup
        undo_targets()
    return undo


def coverage(ledger: Ledger, wall_s: float) -> float:
    """Share of the traced pass's wall time that layer spans account for:
    every span's self time except the entry spans'. Harness work between
    calls and time in unwrapped code lower it."""
    return sum(span.self_s for name, span in ledger.spans.items()
               if name not in ENTRY_SPANS) / wall_s


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(ledger: Ledger) -> dict[str, float]:
    """The per-layer metrics one traced pass yields (spans not entered
    on this workload read 0)."""
    spans, counts = ledger.spans, ledger.counts

    def self_s(name):
        return spans[name].self_s if name in spans else 0.0

    def calls(name):
        return spans[name].calls if name in spans else 0

    out = {}
    for name in ("phy.sync.acquire", "zigzag.decode", "zigzag.detect.inspect",
                 "zigzag.sic.decode", "receiver.standard.decode",
                 "receiver.stream.decode_chunk", "core.receive",
                 "link.ap.80211", "link.air.schedule", "link.air.emit",
                 "link.segmenter.push", "link.engine.step_until",
                 "link.session.run", "link.multicell.run", "runner.run",
                 "runner.trial", "runner.builders.build",
                 "phy.medium.synthesize", "zigzag.extract_bits"):
        out[f"{name}.self_s"] = self_s(name)
    for name in ("phy.sync.acquire", "zigzag.decode", "zigzag.match.score",
                 "receiver.standard.decode", "link.air.inject"):
        out[f"{name}.calls"] = calls(name)
    bursts = counts.get("link.segmenter.bursts", 0)
    emitted = counts.get("link.air.samples_emitted", 0)
    skipped = counts.get("link.air.samples_skipped", 0)
    out.update({
        "phy.sync.acquire_per_burst": _share(calls("phy.sync.acquire"),
                                             bursts),
        "zigzag.decode.success_share": _share(
            counts.get("zigzag.decode.ok", 0), calls("zigzag.decode")),
        "receiver.standard.ok_share": _share(
            counts.get("receiver.standard.ok", 0),
            calls("receiver.standard.decode")),
        "link.air.skip_share": _share(skipped, emitted + skipped),
        "link.segmenter.bursts": bursts,
        "link.multicell.windows": counts.get("link.multicell.windows", 0),
        "link.multicell.injections": counts.get("link.multicell.injections",
                                                0),
    })
    return out
