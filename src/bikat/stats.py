"""Phase timings, charged from inside the package.

`with phase("rows"): ...` charges the exclusive time of its body to the phase
"rows": its duration less that of the phases nested in it, so each second is
counted once.  Unless `collect()` has installed a collector, `phase` returns
a shared no-op and charges nothing.  The package runs in one thread, so the
collector is one module-level slot.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from time import perf_counter

_NOOP = nullcontext()


class Stats:
    """The seconds charged to each phase while this collector was installed."""

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self._nested: list[float] = []  # per open phase, its nested phases' seconds

    @contextmanager
    def phase(self, name: str):
        self._nested.append(0.0)
        start = perf_counter()
        try:
            yield
        finally:
            took = perf_counter() - start
            nested = self._nested.pop()
            if self._nested:
                self._nested[-1] += took
            self.seconds[name] = self.seconds.get(name, 0.0) + took - nested


_collector: Stats | None = None


def phase(name: str):
    """A context manager that charges its body's exclusive time to `name`."""
    return _NOOP if _collector is None else _collector.phase(name)


@contextmanager
def collect():
    """Install a fresh collector for the body and yield it; the collector
    installed before is restored on exit."""
    global _collector
    outer, _collector = _collector, Stats()
    try:
        yield _collector
    finally:
        _collector = outer
