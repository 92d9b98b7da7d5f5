"""Self-time arithmetic and wrapper install/restore of the ledger."""

import types

import pytest

import tracing
from ledger import Ledger, install


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_a_nested_call_tree():
    # root (10 s) -> a (4 s) -> b (1 s), and root -> a again (2 s), and
    # root -> c (3 s); everything else is root's own time.
    clock = FakeClock()
    ledger = Ledger(clock)

    def work(seconds, *children):
        def run():
            clock.now += seconds
            for child in children:
                child()
        return run

    b = ledger.wrap("b", work(1.0))
    a_outer = ledger.wrap("a", work(3.0, b))
    a_inner = ledger.wrap("a", work(2.0))
    c = ledger.wrap("c", work(3.0))
    root = ledger.wrap("root", work(0.0, a_outer, a_inner, c,
                                    lambda: setattr(clock, "now",
                                                    clock.now + 1.0)))
    root()
    spans = ledger.spans
    assert spans["root"].total_s == pytest.approx(10.0)
    assert spans["root"].self_s == pytest.approx(1.0)
    assert spans["a"].calls == 2
    assert spans["a"].total_s == pytest.approx(6.0)
    assert spans["a"].self_s == pytest.approx(5.0)
    assert spans["b"].self_s == pytest.approx(1.0)
    assert spans["c"].self_s == pytest.approx(3.0)
    # Self times add up to the outermost span's wall time.
    assert sum(s.self_s for s in spans.values()) == pytest.approx(
        spans["root"].total_s)


def test_recursion_and_exceptions_keep_the_books():
    clock = FakeClock()
    ledger = Ledger(clock)

    def recurse(n):
        clock.now += 1.0
        if n:
            wrapped(n - 1)
        else:
            raise ValueError("bottom")

    wrapped = ledger.wrap("r", recurse)
    with pytest.raises(ValueError):
        wrapped(2)
    span = ledger.spans["r"]
    assert span.calls == 3
    assert span.self_s == pytest.approx(3.0)
    assert span.total_s == pytest.approx(6.0)
    assert ledger._open == []


def test_observer_sees_results_and_counts():
    ledger = Ledger()
    wrapped = ledger.wrap("f", lambda x: [x] * x,
                          observe=lambda led, r: led.count("items", len(r)))
    wrapped(2)
    wrapped(3)
    assert ledger.counts["items"] == 5
    assert ledger.spans["f"].calls == 2


def test_install_wraps_methods_and_functions_and_restores(monkeypatch):
    module = types.ModuleType("fake_program")

    class Thing:
        def method(self, x):
            return x + 1

    def helper(x):
        return x * 2

    module.Thing = Thing
    module.helper = helper
    method = Thing.__dict__["method"]
    monkeypatch.setitem(__import__("sys").modules, "fake_program", module)
    ledger = Ledger()
    undo = install(ledger, [("fake_program:Thing.method", "m", None),
                            ("fake_program:helper", "h", None)])
    assert Thing().method(1) == 2 and module.helper(2) == 4
    assert ledger.spans["m"].calls == 1 and ledger.spans["h"].calls == 1
    undo()
    assert Thing.__dict__["method"] is method
    assert module.helper is helper
    Thing().method(1)
    assert ledger.spans["m"].calls == 1


def test_install_undoes_partial_work_on_a_bad_target(monkeypatch):
    module = types.ModuleType("fake_program2")
    module.helper = lambda: 1
    original = module.helper
    monkeypatch.setitem(__import__("sys").modules, "fake_program2", module)
    with pytest.raises(AttributeError):
        install(Ledger(), [("fake_program2:helper", "h", None),
                           ("fake_program2:missing", "x", None)])
    assert module.helper is original


def test_coverage_leaves_out_entry_spans_and_unwrapped_time():
    # A 10 s pass: 1 s of harness work, then a 9 s runner trial whose
    # layer spans claim 6 s; the trial's own 3 s is not covered.
    clock = FakeClock()
    ledger = Ledger(clock)

    def advance(seconds):
        return lambda: setattr(clock, "now", clock.now + seconds)

    layer = ledger.wrap("phy.sync.acquire", advance(6.0))
    trial = ledger.wrap("runner.trial",
                        lambda: (advance(3.0)(), layer()))
    clock.now += 1.0
    trial()
    assert tracing.coverage(ledger, 10.0) == pytest.approx(0.6)
