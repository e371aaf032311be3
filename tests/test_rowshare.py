"""Rows built once per template: the left states of one template share one
row list, one partner set and one right union; a residual atom still
filters each state's row into a list of its own; and no check or proof
changes a shared row."""

import pytest

from bikat.judge import oracles
from bikat.judge.core import EnumRefused, Judgment, PairSpec, pair_spec
from bikat.judge.oracles import ORACLES, dispatch
from bikat.models.bmodel import bitest_holds
from bikat.problem import load_problem

from test_corpus import PROBLEMS, verdict

# x is forced from the left state, y and z are free: a row per value of x
FREE = "width 2; vars x y z;\npre { [x == x] & R[z != 3] }"


def state(space, **values):
    s = 0
    for name, v in values.items():
        s = space.set(s, name, v)
    return s


def test_left_states_of_one_template_share_their_row():
    prob = load_problem(FREE)
    bm, sp = prob.bm, prob.bm.space
    spec = PairSpec(bm, prob.pre)
    a, b, c = state(sp, x=1), state(sp, x=1, y=2, z=3), state(sp, x=2, y=2)
    row = spec.partners_left(a)
    assert row == [t for t in range(sp.size) if bitest_holds(bm, prob.pre, a, t)]
    assert len(row) == 12  # y free, z != 3
    assert spec.partners_left(b) is row
    assert spec.partners_left(c) is not row and spec.partners_left(c) != row
    rows = dict(spec.rows())
    assert rows[a] is row and rows[b] is row
    assert len({id(r) for r in rows.values()}) == 4  # one row per value of x


def test_partner_sets_are_made_once_per_distinct_row():
    prob = load_problem(FREE)
    sp = prob.bm.space
    spec = PairSpec(prob.bm, prob.pre)
    partners = spec.partner_sets()
    a, b, c = state(sp, x=3), state(sp, x=3, y=1, z=2), state(sp, x=0)
    assert partners(a) is partners(b)
    assert partners(a) == frozenset(spec.partners_left(a))
    assert partners(c) != partners(a)


def test_a_residual_atom_filters_each_state_into_its_own_row():
    # [x < y] reads the left state, so states of one template (same x)
    # differ in their rows only by the residual filter; z is free
    prob = load_problem("width 2; vars x y z;\npre { [x == x] & [x < y] }")
    bm, n = prob.bm, prob.bm.space.size
    spec = PairSpec(bm, prob.pre)
    related = {a: [t for t in range(n) if bitest_holds(bm, prob.pre, a, t)]
               for a in range(n)}
    for a in range(n):
        assert spec.partners_left(a) == related[a], a
    assert spec.pairs() == [(a, t) for a in range(n) for t in related[a]]
    sp = bm.space
    a, b = state(sp, x=1), state(sp, x=1, y=3)
    assert spec.partners_left(a) == spec.partners_left(b)
    assert spec.partners_left(a) is not spec.partners_left(b)
    assert spec.pairs() == PairSpec(bm, prob.pre).pairs()


def test_allall_takes_one_union_per_distinct_row(monkeypatch):
    prob = load_problem(
        "width 2; vars x y z;\nleft { y := 0; } right { z := 1; }\n"
        "kind allall;\npre { [x == x] }\npost { [x == x] }")
    rows = []
    union = oracles._union

    def counted(images, row, known):
        if id(row) not in known:
            rows.append(row)
        return union(images, row, known)
    monkeypatch.setattr(oracles, "_union", counted)
    res = dispatch(prob.bm, prob.judgment())
    assert res.holds and res.routes == {"pointwise": True, "equational": True}
    # 64 left states of 4 templates (x), each row 16 partners: chunks of
    # 64, 128, 256, 512 and 64 pairs, each with the 4 distinct rows, take 20
    # unions for 64 rows
    assert len(rows) == 5 * 4 and all(len(r) == 16 for r in rows)


def run_everything(prob, path):
    """Every expect line and proof of a corpus problem, then every judgment
    kind; a check that is false at this width is run all the same."""
    for kind in prob.expects:
        verdict(kind, prob, path.with_suffix(".proof"))
    j = prob.judgment()
    for kind in ORACLES:
        dispatch(prob.bm, Judgment(kind, j.left, j.right, j.spec))


def pairs_or_refusal(spec):
    try:
        return spec.pairs()
    except EnumRefused as e:
        return str(e)


@pytest.mark.parametrize("path", PROBLEMS, ids=lambda p: p.stem)
def test_no_check_changes_a_shared_row(path):
    prob = load_problem(path.read_text(), path.stem, width_override=2)
    run_everything(prob, path)
    cache = prob.bm._pairspec_cache
    assert cache
    for term, spec in cache.items():
        assert pairs_or_refusal(spec) == pairs_or_refusal(PairSpec(prob.bm, term)), str(term)
        assert spec is pair_spec(prob.bm, term)
