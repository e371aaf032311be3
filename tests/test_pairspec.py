"""`PairSpec`'s enumerations against a reference that tests every pair.

The reference gives each left state a the states b with `pred.holds(a, b)`,
in state order, where `pred` is the spec's compiled predicate
(`compile_pred`), which knows nothing of templates, free patterns or
columns.  The keyed atoms hold only where `lk[a] == rk[b]`, so the reference
tests the states with a's key, which are the pairs a test of all n x n
finds; on spaces of at most 64 states the predicate itself is checked
against `bitest_holds` on every pair.  Against it: `rows`, `pairs`,
`partners_left`, `one_partner` and `partner_sets`, for every corpus pre and
post at width 2, and for seeded conjunctions of `==`, `L[..]` and `R[..]`
atoms whose right tests read free fields only, forced fields only, or
both."""

import random

import pytest

from bikat.judge.core import PAIR_ENUM_CAP, EnumRefused, PairSpec
from bikat.kat import Alphabet
from bikat.models import random_bimodel
from bikat.models.bmodel import bitest_holds
from bikat.problem import load_problem

from gen import random_bitest
from test_record import RECORDER, problem_at

SMALL = 64  # spaces whose predicate is checked against bitest_holds
PAIRS_LIST = 1 << 17  # pairs() is compared where it has at most this many


def reference(bm, t, lefts=None) -> list[list[int]]:
    """The partners of each left state (of each of `lefts`, if given): every
    b with pred.holds(a, b)."""
    pred, n = PairSpec(bm, t).pred, bm.space.size
    lefts = range(n) if lefts is None else lefts
    if n <= SMALL:
        for a in range(n):
            for b in range(n):
                assert pred.holds(a, b) == bitest_holds(bm, t, a, b), (str(t), a, b)
    if pred.lk is None:
        return [[b for b in range(n) if pred.holds(a, b)] for a in lefts]
    keyed: dict[int, list[int]] = {}
    for b, key in enumerate(pred.rk):
        keyed.setdefault(key, []).append(b)
    return [[b for b in keyed.get(pred.lk[a], ()) if pred.holds(a, b)]
            for a in lefts]


def check(bm, t):
    """Every enumeration of a fresh spec of `t` equals the reference; or,
    above the cap, `pairs` refuses and `rows` gives the reference's rows
    until the next would pass the cap, and then refuses.  The one-partner
    columns, or None, or "refused"."""
    try:
        PairSpec(bm, t).check_enumerable()
    except EnumRefused:
        return over_the_cap(bm, t)
    rows = list(PairSpec(bm, t).rows())
    want = reference(bm, t)
    assert rows == [(a, row) for a, row in enumerate(want) if row], str(t)
    count = sum(map(len, want))
    if count <= PAIRS_LIST:
        assert PairSpec(bm, t).pairs() == [(a, b) for a, row in enumerate(want)
                                           for b in row], str(t)
    cols = PairSpec(bm, t).one_partner()
    if cols is not None:
        assert all(len(row) <= 1 for row in want), str(t)
        assert [(a, [b]) for a, b in zip(*cols)] == rows, str(t)
    spec = PairSpec(bm, t)
    partners = spec.partner_sets()
    assert partners is not None, str(t)  # enumerable: nothing refuses
    for a, row in enumerate(want):
        assert spec.partners_left(a) == row, (str(t), a)
        assert partners(a) == frozenset(row), (str(t), a)
    return cols


def over_the_cap(bm, t):
    """`check` of a relation above the cap: `pairs` refuses; where residual
    atoms filter the rows, so do `rows` and `partner_sets`, before any row,
    and otherwise `rows` gives as many rows, in state order, as the cap
    holds of their candidates, the first and last equal to the reference."""
    with pytest.raises(EnumRefused):
        PairSpec(bm, t).pairs()
    spec = PairSpec(bm, t)
    rows = []
    with pytest.raises(EnumRefused):
        for row in spec.rows():
            rows.append(row)
    if spec._get_layout().preds:
        assert rows == [] and spec.partner_sets() is None, str(t)
        return "refused"
    each = len(spec._get_layout().patterns)
    assert len(rows) == PAIR_ENUM_CAP // each, str(t)
    assert [a for a, _ in rows] == sorted(a for a, _ in rows)
    sample = rows[:8] + rows[-1:]
    assert [r for _, r in sample] == reference(bm, t, [a for a, _ in sample]), str(t)
    assert spec.one_partner() is None and spec.partner_sets() is not None
    return "refused"


@pytest.mark.parametrize("problem", list(RECORDER.problems()), ids=lambda p: p[0])
def test_corpus_pres_and_posts_equal_the_reference(problem):
    name, text, *_ = problem
    prob = load_problem(text, name, width_override=2)
    got = [check(prob.bm, t) for t in (prob.pre, prob.post)]
    if name.startswith("loop-tiling"):
        n = prob.bm.space.size
        assert got == [(range(n), range(n)), "refused"]  # the identity pre


def test_the_identity_pre_reads_as_ranges():
    prob = problem_at("loop-tiling")
    spec, n = PairSpec(prob.bm, prob.pre), prob.bm.space.size
    assert spec._columns() == (range(n), None)
    assert spec.one_partner() == (range(n), range(n))
    assert spec.partners_left(5) == [5] and not spec.shares_rows


DECL = "width 2; vars x y z; array a[2]:1;\n"
FIELDS = ["x", "y", "z", "a[0]", "a[1]"]
WIDE = {"x", "y", "z"}


def _cond(rng, fields: list[str]) -> str:
    """A condition reading `fields` (one or two of them)."""
    f = rng.choice(fields)
    rest = [g for g in fields if g != f]
    if rest and rng.random() < 0.5:
        return f"{f} {rng.choice(['<', '!=', '<='])} {rng.choice(rest)} + {rng.randrange(2)}"
    top = 3 if f in WIDE else 1
    return f"{f} {rng.choice(['==', '!=', '<=', '>='])} {rng.randint(0, top)}"


def random_conjunction(rng, sides: str) -> str:
    """Some fields forced by an `==` (the same field, another, an expression
    or a constant on the left), right tests on the free fields ("free"), on
    the forced fields ("forced") or on both ("both"), and sometimes a left
    test and a residual comparison.  Only "forced" may force every field."""
    forced = rng.sample(FIELDS, rng.randint(1, len(FIELDS) - (sides != "forced")))
    free = [f for f in FIELDS if f not in forced]
    atoms = []
    for f in forced:
        left = rng.choice([f, f, rng.choice(FIELDS), f"{rng.choice(FIELDS)} + 1",
                           str(rng.randint(0, 1))])
        atoms.append(f"[{left} == {f}]")
    tests = {"free": [free], "forced": [forced], "both": [free, forced, FIELDS]}[sides]
    atoms += [f"R[{_cond(rng, fields)}]" for fields in tests]
    if rng.random() < 0.4:
        atoms.append(f"L[{_cond(rng, FIELDS)}]")
    if rng.random() < 0.3:
        atoms.append(f"[{rng.choice(FIELDS)} <= {rng.choice(FIELDS)}]")
    rng.shuffle(atoms)
    return " & ".join(atoms)


@pytest.mark.parametrize("sides", ["free", "forced", "both"])
def test_random_conjunctions_equal_the_reference(sides):
    rng, kinds = random.Random(f"pairspec-{sides}"), set()
    for _ in range(60):
        pre = random_conjunction(rng, sides)
        prob = load_problem(f"{DECL}left {{ skip; }} right {{ skip; }}\n"
                            f"kind allall; pre {{ {pre} }} post {{ [x == x] }}")
        cols = check(prob.bm, prob.pre)
        kinds.add(cols is None)
    # column relations are met beside row ones: every field forced, or the
    # right tests leave one free pattern, 0
    assert kinds == {True, False}


@pytest.mark.parametrize("pre, columns", [
    # every field forced, each by itself: the identity, two ranges
    ("[x == x] & [y == y] & [z == z] & [a[0] == a[0]] & [a[1] == a[1]]", range),
    # right tests on the free fields leave one pattern, 0: one partner each
    ("[x == x] & [a[0] == a[0]] & [a[1] == a[1]] & R[y == 0] & R[z == 0]", "array"),
    # a right test on a forced field folds into the open bytes
    ("[x == x] & [y == y] & [z == z] & [a[0] == a[0]] & [a[1] == a[1]] & R[x != 2]", "lazy"),
    # one free pattern that is not 0: rows of one partner, not columns
    ("[x == x] & [y == y] & [a[0] == a[0]] & [a[1] == a[1]] & R[z == 1]", None),
])
def test_one_partner_columns(pre, columns):
    prob = load_problem(f"{DECL}left {{ skip; }} right {{ skip; }}\n"
                        f"kind allall; pre {{ {pre} }} post {{ [x == x] }}")
    cols = check(prob.bm, prob.pre)
    kind = (None if cols is None else range if isinstance(cols[1], range)
            else "array" if isinstance(cols[0], range) else "lazy")
    assert kind == columns


def test_abstract_models_equal_the_reference():
    # spaces without fields: every right test filters the free patterns,
    # which are the states themselves
    alph = Alphabet.make(["p", "q"], ["a"])
    rng, seen = random.Random(7), 0
    for seed in range(60):
        bm = random_bimodel(seed, rng.randint(1, 5), alph, ("P", "Q"), density=0.4)
        for t in (random_bitest(rng, alph.tests, ("P", "Q")) for _ in range(3)):
            seen += check(bm, t) is not None
    assert seen > 0
