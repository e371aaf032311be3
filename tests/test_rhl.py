"""Side conditions of the RHL proof checker on spaces of thousands of states."""

import signal
from contextlib import contextmanager

import pytest

from bikat.judge import EnumRefused
from bikat.problem import Cur, load_problem, parse_expr, parse_stmts_text
from bikat.rhl.proof import SideCondition, check_implication, discharge_side_condition

# 4096 states a side; x has offset 0, so state 64 is x=0, y=1
SPACE = "width 6; vars x y;"
# the refusal of a relation whose every pair is a candidate
REFUSED = r"pair enumeration of ~16777216 pairs exceeds the cap 4000000"


@contextmanager
def deadline(seconds: int):
    """Fail, rather than hang, when the body takes longer than `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"no verdict within {seconds} s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def totality(prob, post: str) -> SideCondition:
    """The side condition of the nondeterministic assignment rules, with x
    havocked on the right."""
    return SideCondition("domain-totality", "relation is total in the right-hand x",
                         payload=(prob.parser.bitest(post), "x"))


@pytest.fixture(scope="module")
def prob():
    return load_problem(SPACE)


def test_domain_totality_reads_the_relation_by_rows(prob):
    ctx = prob.rhl_context()
    assert prob.bm.space.size == 4096
    with deadline(30):
        assert discharge_side_condition(ctx, totality(prob, "[x == x]")) == (
            True, "by oracle")
        assert discharge_side_condition(ctx, totality(prob, "[x == x] & [y == y]")) == (
            False, "relation is total in the right-hand x: no witnessing value of x "
                   "for left={x=0, y=0} right={x=0, y=1}")
        # a disjunction reading both sides filters every right state of
        # every left state: the estimate of 4096 * 4096 candidates is above
        # PAIR_ENUM_CAP, so it is refused before any row, as in the leaf oracles
        with pytest.raises(EnumRefused, match=REFUSED):
            discharge_side_condition(ctx, totality(prob, "[x == x] | [y == y]"))


@pytest.mark.parametrize("body, variant, verdict", [
    ("y := y - 1;", "y", (True, "by oracle")),
    ("y := y - 1;", "x", (False, "right iterations decrease x under the invariant: "
                                 "no decreasing right iteration from "
                                 "left={x=0, y=0} right={x=0, y=1}")),
])
def test_variant_decrease_reads_the_relation_by_rows(prob, body, variant, verdict):
    # the right loop of the right-variant rule: while (y > 0) { body }
    sc = SideCondition(
        "variant-decrease", f"right iterations decrease {variant} under the invariant",
        payload=(prob.parser.bitest("[x == x]"), prob.parser.bitest("R[y > 0]"),
                 parse_stmts_text(body), parse_expr(Cur(variant))))
    with deadline(30):
        assert discharge_side_condition(prob.rhl_context(), sc) == verdict


def test_implication_streams_the_rows(prob, monkeypatch):
    # the pairs of the lhs are read a row at a time and the first failing
    # pair ends the enumeration; no list of pairs is built
    from bikat.judge import PairSpec
    ctx, bitest = prob.rhl_context(), prob.parser.bitest
    rows_of = PairSpec.rows
    reached = []

    def counted(spec):
        for row in rows_of(spec):
            reached.append(row[0])
            yield row

    def no_pairs(spec):
        raise AssertionError("the pair list was built")
    monkeypatch.setattr(PairSpec, "rows", counted)
    monkeypatch.setattr(PairSpec, "pairs", no_pairs)
    assert check_implication(ctx, bitest("[x == x]"), bitest("[y == y]")) == (0, 64)
    assert reached == [0]
    reached.clear()
    assert check_implication(ctx, bitest("[x == x] & [y == y]"), bitest("[x == x]")) is None
    assert len(reached) == prob.bm.space.size
    monkeypatch.setattr(PairSpec, "rows", rows_of)
    # a relation over the cap is refused, not truncated
    with pytest.raises(EnumRefused, match=REFUSED):
        check_implication(ctx, bitest("[x == x] | [y == y]"), bitest("true"))
