"""The benchmark's mutants: every expected verdict of `perfbench/workloads.py`
`MUTANTS` holds on the mutated corpus file.  Their refutations are the
checks that stop at a first counterexample."""

import importlib.util
import sys
from pathlib import Path

import pytest

from bikat.problem import load_problem

from test_corpus import CORPUS, verdict

ROOT = Path(__file__).resolve().parent.parent


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()


@pytest.mark.parametrize("mutant", WORKLOADS.MUTANTS, ids=lambda m: m.source)
def test_mutant_verdicts(mutant):
    text = WORKLOADS.apply_mutant((CORPUS / f"{mutant.source}.prob").read_text(),
                                  mutant)
    prob = load_problem(text, f"{mutant.source}~mutant")
    for check in mutant.checks:
        got = verdict(check.kind, prob, CORPUS / f"{mutant.source}.proof")
        assert got == check.expected, (mutant.source, check.kind, check.reason)
