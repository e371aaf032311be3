"""Corpus regression: every `expect` line of every corpus problem holds at
the problem's declared width."""

import functools
from pathlib import Path

import pytest

from bikat.bi.script import check_script
from bikat.judge.oracles import check_adequacy, dispatch
from bikat.judge.witness import check_bvalid, check_fvalid
from bikat.problem import Cur, load_problem, parse_expr
from bikat.rhl.parse import parse_proof
from bikat.rhl.proof import check_proof

CORPUS = Path(__file__).resolve().parent.parent / "src" / "bikat" / "corpus"
PROBLEMS = sorted(CORPUS.glob("*.prob"))


@functools.lru_cache(maxsize=None)
def corpus_problem(name: str):
    """A corpus problem at its declared width, loaded once per test run, so
    that the tests that read one large space share its compiled tables."""
    return load_problem((CORPUS / f"{name}.prob").read_text(), name)


def verdict(kind: str, prob, proof_path: Path) -> bool:
    if kind == "holds":
        return dispatch(prob.bm, prob.judgment()).holds
    if kind == "script_accepted":
        return check_script(prob.script(), prob.script_context()).accepted
    if kind == "adequate":
        j = prob.judgment()
        return check_adequacy(prob.bm, j.spec.pre, j.left, j.right,
                              prob.script_goal).holds
    if kind in ("witness_fvalid", "witness_bvalid"):
        check = check_fvalid if kind == "witness_fvalid" else check_bvalid
        return check(prob.bm, prob.witness, prob.judgment()).valid
    if kind == "proof_accepted":
        tree = parse_proof(proof_path.read_text(), prob.parser.bitest,
                           lambda s: parse_expr(Cur(s)))
        return check_proof(prob.rhl_context(), tree, prob.rhl_judgment()).accepted
    raise AssertionError(f"unknown expect line {kind!r}")


def test_corpus_is_present():
    assert len(PROBLEMS) >= 5


@pytest.mark.parametrize("path", PROBLEMS, ids=lambda p: p.stem)
def test_expect_lines_hold(path):
    prob = corpus_problem(path.stem)
    assert prob.expects, f"{path.name} has no expect lines"
    for kind in prob.expects:
        assert verdict(kind, prob, path.with_suffix(".proof")), (path.name, kind)


def test_conditional_alignment_reports_its_proviso():
    # count-cond's script ends with the conditional alignment law, which
    # holds in *-continuous models; the replay names that assumption
    prob = corpus_problem("count-cond")
    res = check_script(prob.script(), prob.script_context())
    assert res.accepted, res.error
    assert res.provisos == [
        "step 5 uses expand-cond, valid in *-continuous models only"]
