"""BENCHMARK.json's names and units, and what the runs report."""

import json
import re
import subprocess
import sys
from pathlib import Path

import run
import tracing
from ledger import Ledger

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_shape():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert BENCH["command"] == ["python3", "repobench/run.py"]
    assert BENCH["paths"] == ["repobench"]
    assert 1 <= BENCH["run_seconds"] <= 60
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    for w in BENCH["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer")
             for m in BENCH[group]]
    assert all(NAME.match(n) for n in names)
    assert len(set(names)) == len(names)
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and UNIT.match(m["unit"])
    for m in BENCH["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def test_end_to_end_names_and_units_match_the_launcher():
    declared = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert declared == run.END_TO_END_UNITS


def test_per_layer_names_and_units_match_a_traced_run():
    ledger = Ledger()
    layers = tracing.layer_metrics(ledger)
    layers["ledger.coverage"] = 1.0
    fake = {"raw_s": 2.0, "norm_s": 2.0, "probe_ms": 1.0,
            "generate_s": 0.01, "import_s": 1.0, "layers": layers}
    reported = run.per_layer(dict(fake, norm_s=1.9), fake)
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert declared == {n: m["unit"] for n, m in reported.items()}


def test_end_to_end_report_has_every_metric():
    setups = [{"setup_s": s} for s in (2.0, 1.0, 3.0)]
    quality = {"delivered_zigzag": 10, "zigzag_vs_80211": 0.9,
               "ber_zigzag": 0.1, "ber_vs_free": 1.1}
    out = run.end_to_end(setups, {
        "raw_s": 4.0, "norm_s": 5.0, "offered": 100, "peak_rss_mb": 90.0,
        "attempted": 10, "failed": 1, "quality": quality})
    assert set(out) == set(run.END_TO_END_UNITS)
    assert out["setup_s"]["value"] == 2.0
    assert out["completed_share"]["value"] == 0.9
    assert out["pkts_per_s"]["value"] == 100 / 5.0


def test_run_refuses_a_directory_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "repobench" / "run.py"),
         "--workload", "ber_sweep", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
