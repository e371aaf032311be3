"""Sidedness: which side of the pair a bitest or BiKAT term reads, and the
KAT test or term that a one-sided factor embeds."""

import random
import signal
from contextlib import contextmanager

import pytest

from bikat.bi import (BiAlphabet, bitest_side, parse_biterm, side_test, term_side,
                     unembed)
from bikat.bi.script import ScriptContext, ScriptError, Step, apply_step
from bikat.bi.terms import BEmbL, BEmbLTest, BEmbR, BEmbRTest, BPrim, BTest
from bikat.judge import EnumRefused, dispatch
from bikat.judge.core import Judgment
from bikat.kat import Alphabet
from bikat.kat.terms import children, kact, ktest, tnot, tor, tprim
from bikat.problem import load_problem

from gen import random_bikat
from test_judgments import assert_refutes

ALPH = Alphabet.make(["p", "q"], ["a", "b", "c"])
BALPH = BiAlphabet(ALPH, ("P", "Q"))
p, q = tprim("p"), tprim("q")


# term, its side, its one-sided test (a term that is a test), its factor form
TABLE = [
    ("<a]", "L", None, ("L", kact("a"))),
    ("[b>", "R", None, ("R", kact("b"))),
    ("L[p]", "L", ("L", p), ("L", ktest(p))),
    ("!L[p]", "L", ("L", tnot(p)), ("L", ktest(tnot(p)))),
    ("L[p] | L[q]", "L", ("L", tor(p, q)), ("L", ktest(tor(p, q)))),
    ("L[p] & R[q]", "B", None, None),
    ("[P]", "B", None, None),
    ("1", "N", None, None),
    ("1 + <a]", "L", None, None),
    ("<a]*", "L", None, None),
    ("<a] ; [b>", "B", None, None),
]


@pytest.mark.parametrize("src,side,test,factor", TABLE, ids=[row[0] for row in TABLE])
def test_sidedness_table(src, side, test, factor):
    t = parse_biterm(src, BALPH)
    assert term_side(t) == side
    if isinstance(t, BTest):
        assert bitest_side(t.test) == side
        assert side_test(t.test) == test
    else:
        assert test is None
    assert unembed(t) == factor


@pytest.mark.parametrize("law,src,got", [
    ("hom-seq", "L[p] ; !L[q] ; <b]", "<p ; !q ; b]"),
    ("hom-plus", "L[p] + <a]", "<p + a]"),
    ("hom-star", "L[p]*", "<p*]"),
    ("hom-seq", "<a]* ; <b]", None),
    ("hom-plus", "1 + <a]", None),
    ("hom-star", "(<a] ; <b])*", None),
    ("hom-plus", "(L[p] & R[q]) + <a]", None),
])
def test_hom_rev_folds_factor_forms_only(law, src, got):
    """The operands of a hom law's reverse must each have a factor form:
    a one-sided composite or a constant is refused, as in adequacy's
    one-sided prefix."""
    t = parse_biterm(src, BALPH)
    step = Step(law, (), {"dir": "rev", **({"count": "3"} if src.count(";") == 2 else {})})
    if got is None:
        with pytest.raises(ScriptError, match="whose operands all embed from one side"):
            apply_step(t, step, ScriptContext())
    else:
        assert str(apply_step(t, step, ScriptContext())[0]) == got


def reference_side(t) -> str:
    """An embedding reads its side, an abstract bitest both, a constant
    neither, an operator what its operands read."""
    if isinstance(t, (BEmbL, BEmbLTest)):
        return "L"
    if isinstance(t, (BEmbR, BEmbRTest)):
        return "R"
    if isinstance(t, BPrim):
        return "B"
    read = {reference_side(u) for u in children(t)} - {"N"}
    return read.pop() if len(read) == 1 else "B" if read else "N"


def test_term_side_matches_the_reference_on_random_terms():
    seen = set()
    for seed in range(300):
        t = random_bikat(random.Random(seed), ALPH, ("P", "Q"), 3)
        side = reference_side(t)
        assert term_side(t) == side, (seed, str(t))
        seen.add(side)
        if isinstance(t, BTest):
            assert (side_test(t.test) is not None) == (side in "LR"), (seed, str(t))
    assert seen == {"L", "R", "B", "N"}


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


LOOP = "y := 0; z := 2 * x; while (z > 0) { z := z - 1; y := y + x; }"
KEYED = "[x == x] & [y == y] & [z == z]"


def above_cap(pre: str, post: str, width: int = 4):
    """The loop on both sides, 4096 states a side (32768 at width 5).  `<=`
    is no key, so a relation `[x <= x]` has every right state as a
    candidate partner of every left state: about 1.7e7 pairs, above
    PAIR_ENUM_CAP."""
    return load_problem(f"width {width};\nvars x y z;\nleft {{ {LOOP} }}\n"
                        f"right {{ {LOOP} }}\nkind bsim;\npre {{ {pre} }}\n"
                        f"post {{ {post} }}\n", "above-cap")


@pytest.mark.parametrize("kind", ["fsim", "existsforall"])
def test_simulations_refuse_a_pre_above_the_cap(kind):
    # forward simulation reads the pre's rows, which a residual atom filters
    prob = above_cap("[x <= x]", KEYED)
    base = prob.judgment()
    with deadline(5), pytest.raises(EnumRefused):
        dispatch(prob.bm, Judgment(kind, base.left, base.right, base.spec))


@pytest.mark.parametrize("kind", ["bsim", "incorrectness"])
@pytest.mark.parametrize("pre, holds", [("[x <= x]", True), ("[x < x]", False)])
def test_backward_simulations_decide_on_a_pre_above_the_cap(pre, holds, kind):
    # backward simulation is forward simulation of the converse: it reads
    # the post's rows and the pre through its predicate, so only its
    # point-free route, which reads the pre's partners, is dropped.  Each
    # left run a -> t matches the right run from a itself when a is pre-
    # related to a, and none when the pre relates x only to a larger x
    prob = above_cap(pre, KEYED)
    base = prob.judgment()
    with deadline(5):
        res = dispatch(prob.bm, Judgment(kind, base.left, base.right, base.spec))
    assert res.holds == holds and res.routes == {"pointwise": holds}
    if not holds:
        assert_refutes(prob, "bsim", res.counterexample.states)


@pytest.mark.parametrize("kind", ["bsim", "incorrectness"])
def test_backward_simulations_refuse_a_post_above_the_cap(kind):
    # bsim reads the post's rows, which a residual atom filters: refused
    # before any row (fsim keeps its pointwise route, which reads the
    # post's keys)
    prob = above_cap(KEYED, "[x <= x]")
    base = prob.judgment()
    with deadline(5), pytest.raises(EnumRefused):
        dispatch(prob.bm, Judgment(kind, base.left, base.right, base.spec))


def test_forward_simulation_fails_within_the_cap():
    # 32768 states a side; the pre `[y == y]` leaves x and z free, 1024
    # candidates a left state, above the cap, and residual atoms filter
    # none of them, so its rows are charged as they are built: the first
    # pair whose x differ fails the post, long before the cap
    prob = above_cap("[y == y]", KEYED, width=5)
    base = prob.judgment()
    with deadline(5):
        res = dispatch(prob.bm, Judgment("fsim", base.left, base.right, base.spec))
    assert not res.holds and res.routes == {"pointwise": False, "pointfree": False}
    assert_refutes(prob, "fsim", res.counterexample.states)
