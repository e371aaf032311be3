"""Rows built once per template: the left states of one template share one
row list, one partner set and one right union; a residual atom still
filters each state's row into a list of its own; and no check or proof
changes a shared row."""

import pytest

from bikat.judge import oracles
from bikat.judge.core import EnumRefused, Judgment, PairPred, PairSpec, pair_spec
from bikat.judge.oracles import check_adequacy, dispatch
from bikat.models.bmodel import bitest_holds
from bikat.problem import load_problem
from bikat.rhl.proof import check_implication

from test_corpus import PROBLEMS, proof_tree

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
    union = oracles._PreRows.union

    def counted(self, row):
        if id(row) not in self.unions:
            rows.append(row)
        return union(self, row)
    monkeypatch.setattr(oracles._PreRows, "union", counted)
    res = dispatch(prob.bm, prob.judgment())
    assert res.holds and res.routes == {"pointwise": True, "equational": True}
    # 64 left states of 4 templates (x), each row 16 partners, in chunks of
    # 64, 128, 256, 512 and 64 pairs: one union per distinct row for the
    # whole check
    assert len(rows) == 4 and all(len(r) == 16 for r in rows)
    assert len({id(r) for r in rows}) == 4


def test_allall_decides_each_class_of_a_shared_row_once(monkeypatch):
    # the left program ends every state in one of 4 states (x kept, y and z
    # cleared): 64 left states with runs, 4 classes (cpost[a], D)
    text = ("width 2; vars x y z;\nleft { y := 0; z := 0; } right { z := 1; }\n"
            "kind allall;\npre { [x == x] }\npost { %s }")
    lefts, keys, tests = [], [], []
    escape, right_key, keyed_by = oracles._escape, PairPred.right_key, PairPred.keyed_by

    def counted(post, a, *args):
        lefts.append(a)
        return escape(post, a, *args)

    def keyed(pred, ds):
        keys.append(ds)
        return right_key(pred, ds)

    def tested(pred, cs, key):
        tests.append(cs)
        return keyed_by(pred, cs, key)
    monkeypatch.setattr(oracles, "_escape", counted)
    monkeypatch.setattr(PairPred, "right_key", keyed)
    monkeypatch.setattr(PairPred, "keyed_by", tested)
    for post, holds in (("[x == x]", True), ("[x == x] & [y == y]", False)):
        lefts.clear(), keys.clear(), tests.clear()
        prob = load_problem(text % post)
        res = dispatch(prob.bm, prob.judgment())
        assert res.holds == holds
        assert res.routes == {"pointwise": holds, "equational": holds}
        # each class is tested once against the one post key of its row's
        # D, made once per row (here each row has one class), and a holding
        # class calls no _escape; a failing check escapes at its first class
        # and left state, the state of the counterexample
        if holds:
            assert len(tests) == 4 == len(keys) == len(set(map(id, keys)))
        assert lefts == ([] if holds else [0]), post
        if not holds:
            a, b, a2, b2 = res.counterexample.states
            assert a == 0 and not bitest_holds(prob.bm, prob.post, a2, b2)


def test_implication_tests_each_left_key_and_row_once(monkeypatch):
    prob = load_problem("width 2; vars x y z;")
    ctx, bitest, n = prob.rhl_context(), prob.parser.bitest, prob.bm.space.size
    tested = []
    escape = PairPred.escape

    def counted(pred, cs, ds):
        tested.append((pred.lk[next(iter(cs))], id(ds)))
        return escape(pred, cs, ds)
    monkeypatch.setattr(PairPred, "escape", counted)
    for lhs, rhs, tests in (
            # 16 rows, one per (x, y), each of one key under the rhs, x
            ("[x == x] & [y == y]", "[x == x]", 16),
            # 4 rows, one per x; the first left state with z = 2 fails
            ("[x == x]", "[x == x] & L[z != 2]", 5),
            # a residual atom makes a row per left state, each tested
            ("[x == x] & [y < y]", "[x == x]", 48)):
        tested.clear()
        lt, rt = bitest(lhs), bitest(rhs)
        holds = PairSpec(prob.bm, rt).holds
        want = next(((a, b) for a in range(n) for b in range(n)
                     if bitest_holds(prob.bm, lt, a, b) and not holds(a, b)), None)
        assert check_implication(ctx, lt, rt) == want, lhs
        assert len(tested) == tests, lhs
        if pair_spec(prob.bm, lt).shares_rows:
            assert len(set(tested)) == tests, lhs


@pytest.mark.parametrize("pre, kept", [
    ("[x == x]", 4),  # shared rows, one per value of x
    ("[x == x] & [y == y] & [z == z]", 0),  # one partner per left state
    ("[x == x] & [y < z]", 0)])  # a residual atom filters each row
def test_only_shared_rows_are_kept_for_the_check(monkeypatch, pre, kept):
    readers = []
    init = oracles._PreRows.__init__

    def made(self, *args):
        init(self, *args)
        readers.append(self)
    monkeypatch.setattr(oracles._PreRows, "__init__", made)
    prob = load_problem("width 2; vars x y z;\nleft { y := y + 1; } right { z := 0; }\n"
                        "kind allall;\npre { %s }\npost { [x == x] }" % pre)
    j = prob.judgment()
    for kind in ("allall", "fsim", "bsim"):
        dispatch(prob.bm, Judgment(kind, j.left, j.right, j.spec))
    goal = prob.parser.bikat("<y := y + 1] ; [z := 0>")
    assert check_adequacy(prob.bm, j.spec.pre, j.left, j.right, goal).holds
    assert len(readers) == 4
    # bsim reads the rows of the post, [x == x]: shared, one per value of x
    assert [reader.r.term for reader in readers] == [j.spec.pre, j.spec.pre,
                                                     j.spec.post, j.spec.pre]
    for reader in readers:
        memos = (reader.filled, reader.unions, reader.classes)
        want = 4 if reader.r.term == j.spec.post else kept
        if want:
            assert len(reader.filled) == want
            assert set(reader.unions) <= reader.filled and set(reader.classes) <= reader.filled
        else:
            assert memos == (None, None, None)


def run_everything(prob, path):
    """Every check of a corpus problem, its proof's among them; a check that
    is false at this width is run all the same."""
    for run in prob.checks(proof_tree(prob, path.with_suffix(".proof"))).values():
        run()


def pairs_or_refusal(spec):
    try:
        return spec.pairs()
    except EnumRefused as e:
        return str(e)


@pytest.mark.parametrize("path", PROBLEMS, ids=lambda p: p.stem)
def test_no_check_changes_a_shared_row(path):
    prob = load_problem(path.read_text(), path.stem, width_override=2)
    run_everything(prob, path)
    specs = {key[1]: spec for key, spec in vars(prob.bm)["_compiled"].items()
             if key[0] is PairSpec}
    assert specs
    for term, spec in specs.items():
        assert pairs_or_refusal(spec) == pairs_or_refusal(PairSpec(prob.bm, term)), str(term)
        assert spec is pair_spec(prob.bm, term)
