"""Per-layer time ledger: timing spans wrapped around public program calls.

A :class:`Ledger` records, per span name, how often it was entered, its
total time and its *self* time: the span's duration minus the time of
the spans nested inside it. Self times of all spans therefore add up to
the time spent inside the outermost spans.

:func:`install` replaces attributes of the program's classes and modules
with timing wrappers and returns a function that puts the originals
back. The benchmark installs them only in the traced pass, which runs in
its own interpreter, so untraced timings never carry wrapper cost.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass
from typing import Callable


@dataclass
class Span:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Ledger:
    """Span statistics and plain counters from one traced pass."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: dict[str, Span] = {}
        self.counts: dict[str, float] = {}
        # Child time accumulated by each open span, innermost last.
        self._open: list[float] = []

    def wrap(self, name: str, fn: Callable,
             observe: Callable | None = None) -> Callable:
        """*fn* timed as span *name*; ``observe(ledger, result)`` runs on
        every return value, outside the span's time."""
        span = self.spans.setdefault(name, Span())

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            self._open.append(0.0)
            started = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = self.clock() - started
                children = self._open.pop()
                span.calls += 1
                span.total_s += elapsed
                span.self_s += elapsed - children
                if self._open:
                    self._open[-1] += elapsed
            if observe is not None:
                observe(self, result)
            return result

        return timed

    def reset(self) -> None:
        """Zero every span and counter (wrappers keep their spans)."""
        for span in self.spans.values():
            span.calls, span.total_s, span.self_s = 0, 0.0, 0.0
        self.counts.clear()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n


def _resolve(target: str):
    """``"pkg.mod:Class.attr"`` -> (owner object, attribute name)."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


def install(ledger: Ledger,
            targets: list[tuple[str, str, Callable | None]]
            ) -> Callable[[], None]:
    """Wrap each ``(target, span name, observer)``; return the undo.

    A target names a module-level function or a method as
    ``"module:Name"`` or ``"module:Class.method"``. Methods are taken
    from the class's own ``__dict__`` so a wrapper sits exactly where the
    original was defined.
    """
    originals = []
    try:
        for target, name, observe in targets:
            owner, attr = _resolve(target)
            original = (owner.__dict__[attr] if isinstance(owner, type)
                        else getattr(owner, attr))
            originals.append((owner, attr, original))
            setattr(owner, attr, ledger.wrap(name, original, observe))
    except BaseException:
        _restore(originals)
        raise
    return functools.partial(_restore, originals)


def _restore(originals) -> None:
    for owner, attr, original in reversed(originals):
        setattr(owner, attr, original)
