"""Phase timings charged from inside the package (`bikat.stats`): exclusive
time per phase, nothing charged while no collector is installed; and the
arguments of `tools/phases.py`, which reads them."""

import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

from bikat import stats
from bikat.stats import collect, phase

from test_record import problem_at

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def clock(monkeypatch):
    """The phases' clock, stepped by hand: `clock.now = t`."""
    class Clock:
        now = 0.0

        def __call__(self):
            return self.now
    fake = Clock()
    monkeypatch.setattr(stats, "perf_counter", fake)
    return fake


def test_nested_phases_are_exclusive(clock):
    with collect() as got:
        with phase("check"):
            clock.now = 1.0
            with phase("rows"):
                clock.now = 3.0
                with phase("walks"):
                    clock.now = 7.0
                clock.now = 8.0
            with phase("check"):  # the same phase nested: counted once
                clock.now = 10.0
            clock.now = 16.0
    assert got.seconds == {"walks": 4.0, "rows": 3.0, "check": 9.0}


def test_a_phase_outside_a_collector_is_the_shared_no_op(clock):
    outside = phase("rows")
    assert outside is phase("walks")
    with outside:
        clock.now = 1.0
        with collect() as got:
            with phase("walks"):
                clock.now = 3.0
        clock.now = 7.0
    assert got.seconds == {"walks": 2.0}


def test_nested_collectors_restore_the_outer_one(clock):
    with collect() as outer:
        with phase("check"):
            clock.now = 1.0
            with collect() as inner:
                with phase("rows"):
                    clock.now = 3.0
            with phase("walks"):  # charged to the outer collector again
                clock.now = 4.0
    assert inner.seconds == {"rows": 2.0}
    assert outer.seconds == {"walks": 1.0, "check": 3.0}
    assert phase("tables") is phase("rows")


def test_an_exception_closes_its_phase_and_collector(clock):
    with collect() as got:
        with pytest.raises(KeyError), phase("check"):
            with phase("rows"):
                clock.now = 2.0
                raise KeyError("x")
        clock.now = 3.0
        with phase("walks"):  # not nested in the phases left by the raise
            clock.now = 7.0
    assert got.seconds == {"rows": 2.0, "check": 0.0, "walks": 4.0}
    with pytest.raises(KeyError), collect():
        raise KeyError("x")
    assert phase("tables") is phase("rows")


def test_a_corpus_check_charges_every_phase_within_its_wall_time():
    prob = problem_at("double-square")  # loaded outside: its tables not yet built
    began = perf_counter()
    with collect() as got:
        for run in prob.checks().values():
            run()
    wall = perf_counter() - began
    inside = [got.seconds.get(p, 0.0) for p in ("tables", "rows", "walks")]
    assert all(inside), got.seconds
    assert sum(got.seconds.values()) <= wall


@pytest.mark.parametrize("args, error", [
    (["--workload", "refute", "--passes", "0"], "0 is not a positive number of passes"),
    (["--workload", "nope"], "invalid choice: 'nope'")])
def test_the_phase_tool_rejects_bad_arguments_with_a_usage_message(args, error):
    done = subprocess.run([sys.executable, "tools/phases.py", *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stderr.startswith("usage: ") and error in done.stderr, done.stderr
