"""The benchmark's mutants and the corpus in the kept verdict records: every
check of the mutants' table finds its expected verdict at declared width, and
the counterexamples that the records pin are replayed from the semantics,
apart from the oracles that found them (`test_judgments.assert_refutes`)."""

import pytest

from test_judgments import assert_refutes
from test_record import DECLARED, RECORDER, TEXTS, assert_expects_hold, kept, problem_at, record

MUTANTS = [n.removesuffix("~mutant") for n in TEXTS if n.endswith("~mutant")]


@pytest.mark.parametrize("source", MUTANTS)
def test_mutant_verdicts(source):
    assert_expects_hold(f"{source}~mutant")


@pytest.mark.parametrize("source", MUTANTS)
def test_mutant_allall_counterexamples_are_pinned(source):
    # at declared width, where loop-tiling has 32768 states a side
    name = f"{source}~mutant"
    rec = record(DECLARED, name, "allall")
    assert rec["routes"] == {"pointwise": False, "equational": False}
    assert_refutes(problem_at(name), *rec["counterexample"][:2])


@pytest.mark.parametrize("name", TEXTS)
def test_counterexamples_and_failing_proof_nodes_are_pinned(name):
    # at width 2: the routes agree with the verdict, a proof is accepted iff
    # none of its nodes fails, and each ∀∀, fsim and adequacy counterexample
    # refutes its check
    prob = problem_at(name, 2)
    for rec in kept(RECORDER.RECORD):
        if rec["problem"] != name:
            continue
        if "routes" in rec:
            assert set(rec["routes"].values()) <= {rec["holds"]}, rec["check"]
        if "reports" in rec:
            assert rec["accepted"] == all(ok for _, _, _, ok, _ in rec["reports"])
        if rec["check"] in ("allall", "fsim", "adequate") and rec.get("counterexample"):
            assert_refutes(prob, *rec["counterexample"][:2])
