"""Loaders of the corpus files that the tests share, and the corpus `expect`
lines, each checked in the declared-width verdict record (`test_record`)."""

import functools
from pathlib import Path

import pytest

from bikat.problem import Cur, load_problem, parse_expr
from bikat.rhl.parse import parse_proof

from test_record import assert_expects_hold

CORPUS = Path(__file__).resolve().parent.parent / "src" / "bikat" / "corpus"
PROBLEMS = sorted(CORPUS.glob("*.prob"))
NAMES = [p.stem for p in PROBLEMS]  # the corpus problems, in name order


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


@pytest.mark.parametrize("name", NAMES)
def test_expect_lines_hold(name):
    assert_expects_hold(name)
