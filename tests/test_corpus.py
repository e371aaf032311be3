"""Corpus regression: every `expect` line of every corpus problem holds at
the problem's declared width."""

import functools
from pathlib import Path

import pytest

from bikat.bi.script import check_script
from bikat.problem import Cur, load_problem, parse_expr, passed
from bikat.rhl.parse import parse_proof

CORPUS = Path(__file__).resolve().parent.parent / "src" / "bikat" / "corpus"
PROBLEMS = sorted(CORPUS.glob("*.prob"))


@functools.lru_cache(maxsize=None)
def corpus_problem(name: str):
    """A corpus problem at its declared width, loaded once per test run, so
    that the tests that read one large space share its compiled tables."""
    return load_problem((CORPUS / f"{name}.prob").read_text(), name)


def proof_tree(prob, path: Path | None):
    """The proof at `path` parsed for `prob`; None if there is no such file."""
    if path is None or not path.is_file():
        return None
    return parse_proof(path.read_text(), prob.parser.bitest, lambda s: parse_expr(Cur(s)))


def verdict(kind: str, prob, proof_path: Path | None) -> bool:
    """Whether the check that the expect line `kind` names passes."""
    tree = proof_tree(prob, proof_path) if kind == "proof_accepted" else None
    return passed(prob.checks(tree)[prob.check_of(kind)]())


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
