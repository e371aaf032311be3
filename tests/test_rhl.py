"""Side conditions of the RHL proof checker on spaces of thousands of states,
and self-composition against the judgment oracles."""

import signal
from contextlib import contextmanager

import pytest

from bikat.judge import EnumRefused
from bikat.judge.oracles import dispatch
from bikat.models.space import SIZE_CAP, SpaceError
from bikat.problem import Cur, load_problem, parse_expr, parse_stmts_text
from bikat.rhl import check_selfcomp
from bikat.rhl.parse import parse_proof
from bikat.rhl.proof import (RULES, SideCondition, check_implication, check_proof,
                             discharge_side_condition)

from test_judgments import assert_refutes
from test_record import problem_at
from test_rules import inventory

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


# --- self-composition --------------------------------------------------------

@pytest.mark.parametrize("stem, mutated", [
    ("count-cond", False), ("double-square", False), ("factorial-ni", False),
    ("simple-sum", False),
    ("double-square", True), ("factorial-ni", True), ("simple-sum", True),
])
def test_selfcomp_agrees_with_dispatch(stem, mutated):
    prob = problem_at(stem + "~mutant" * mutated, 2)
    res = check_selfcomp(prob.rhl_context(), prob.rhl_judgment())
    assert res.holds == dispatch(prob.bm, prob.judgment()).holds == (not mutated)
    if mutated:
        # the counterexample is a pair of runs from pre-related states whose
        # ends fail the post
        assert_refutes(prob, "allall", res.counterexample.states)


@pytest.mark.parametrize("mutated", [False, True])
def test_selfcomp_proof_leaf(mutated):
    prob = problem_at("factorial-ni" + "~mutant" * mutated, 2)
    tree = parse_proof("(selfcomp)", prob.parser.bitest, lambda s: parse_expr(Cur(s)))
    res = check_proof(prob.rhl_context(), tree, prob.rhl_judgment())
    assert res.accepted is not mutated
    (leaf,) = res.reports
    assert (leaf.rule, leaf.ok) == ("selfcomp", not mutated)
    if mutated:
        assert res.root_oracle is None
        assert leaf.message.startswith(
            "oracle refutes the leaf judgment: doubled-state run violates the post: ")
    else:
        assert res.root_oracle.holds


def test_selfcomp_applies_to_forall_forall_only():
    prob = problem_at("guess-count", 2)  # a forward simulation
    res = check_selfcomp(prob.rhl_context(), prob.rhl_judgment())
    assert not res.holds and res.counterexample is None
    assert res.notes == ["self-composition applies to forall-forall only"]
    tree = parse_proof("(selfcomp)", prob.parser.bitest, lambda s: parse_expr(Cur(s)))
    got = check_proof(prob.rhl_context(), tree, prob.rhl_judgment())
    assert not got.accepted
    assert got.reports[0].message == (
        "schema: selfcomp applies to allall judgments, not fsim")


@pytest.mark.parametrize("stem", ["array-insert", "loop-tiling"])
def test_selfcomp_refuses_a_doubled_space_over_the_cap(stem):
    # the doubled state has twice the bits of one side, over SIZE_CAP
    prob = problem_at(stem, 2)
    with pytest.raises(SpaceError, match=f"states, cap is {SIZE_CAP}$"):
        check_selfcomp(prob.rhl_context(), prob.rhl_judgment())


def test_rule_inventory_is_the_rule_table():
    # a rule added to the schema table without a line in the proof module's
    # docstring fails here, and test_rules asks each documented rule for an
    # accepted and a rejected instance
    assert sorted(inventory()) == sorted(RULES)
