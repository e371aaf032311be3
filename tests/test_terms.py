"""The term structure both algebras share: the n-ary constructors and the
normal form."""

import copy
import pickle
import random

import pytest

from bikat.bi.terms import (B0, B1, BT0, BT1, BAnd, BEmbLTest, BOr, BPlus,
                            BPrim, BSeq, band, bembl, bembr, bisimplify, bor,
                            bplus, bseq, simplify_bitest)
from bikat.kat.parse import parse_test
from bikat.kat.terms import (K0, K1, T0, T1, Alphabet, And, KPlus, KSeq, Or,
                             Plus, Seq, TAnd, TOr, kact, kplus, kseq, ktest,
                             simplify, simplify_test, subterms, tand, term_key,
                             tnot, tor, tprim)

from gen import random_bikat, random_bitest, random_kat, random_test

A3 = Alphabet.make(["p", "q", "r"], ["a", "b", "c"])
P, Q = tprim("p"), tprim("q")
A, B = kact("a"), kact("b")

# constructor, node class, unit, the sort's other constant, whether that
# constant absorbs the node, and two non-constant arguments
NARY = {
    "tor": (tor, TOr, T0, T1, True, (P, Q)),
    "tand": (tand, TAnd, T1, T0, True, (P, Q)),
    "kplus": (kplus, KPlus, K0, K1, False, (A, B)),
    "kseq": (kseq, KSeq, K1, K0, True, (A, B)),
    "bor": (bor, BOr, BT0, BT1, True, (BPrim("P"), BEmbLTest(P))),
    "band": (band, BAnd, BT1, BT0, True, (BPrim("P"), BEmbLTest(P))),
    "bplus": (bplus, BPlus, B0, B1, False, (bembl(A), bembr(B))),
    "bseq": (bseq, BSeq, B1, B0, True, (bembl(A), bembr(B))),
}


@pytest.mark.parametrize("name", NARY)
def test_nary_constructor_laws(name):
    mk, cls, unit, other, absorbs, (a, b) = NARY[name]
    assert mk() == unit
    assert mk(a) == a
    assert mk(unit, a, unit) == a
    assert mk(unit, unit) == unit
    # nested nodes are spliced in; order and repeats are kept
    assert mk(a, mk(b, a), b) == cls((a, b, a, b))
    if absorbs:
        assert mk(a, other, b) == other
        assert mk(a, mk(b, a), other) == other
    else:
        assert mk(a, other) == cls((a, other))


def _normal_cases():
    t_names = ("p", "q", "r")
    return {
        "simplify_test": (simplify_test, lambda rng: random_test(rng, t_names, 3)),
        "simplify": (simplify, lambda rng: random_kat(rng, A3, 4)),
        "simplify_bitest": (simplify_bitest,
                            lambda rng: random_bitest(rng, t_names, ("P", "Q"), 3)),
        "bisimplify": (bisimplify, lambda rng: random_bikat(rng, A3, ("P", "Q"), 4)),
    }


@pytest.mark.parametrize("name", _normal_cases())
def test_normal_form_is_flat_sorted_deduplicated_and_idempotent(name):
    normal, gen = _normal_cases()[name]
    rng = random.Random(7)
    sorted_sums = 0
    for _ in range(300):
        t = normal(gen(rng))
        assert normal(t) == t
        for u in subterms(t):
            if isinstance(u, (Plus, Seq, Or, And)):
                assert len(u.args) > 1
                assert not any(isinstance(a, type(u)) for a in u.args)
            if isinstance(u, (Plus, Or, And)):
                assert list(u.args) == sorted(set(u.args), key=term_key)
                sorted_sums += 1
    assert sorted_sums > 50


def test_printed_tests_parse_back():
    # a conjunction or disjunction under ! is printed in parentheses
    assert str(tnot(tand(P, Q))) == "!(p ; q)"
    assert str(tnot(tor(P, Q))) == "!(p + q)"
    rng = random.Random(17)
    for _ in range(400):
        t = random_test(rng, A3.tests, 3)
        assert parse_test(str(t), A3) == t, str(t)


def test_terms_keep_their_hash_out_of_copies():
    def build():
        return bplus(bseq(bembl(kseq(A, ktest(tnot(tand(P, Q))))),
                          bembr(kplus(A, B))), bembl(A))
    t, u = build(), build()
    assert t == u and t is not u
    assert hash(t) == hash(u)
    assert "_hash" in vars(t)
    for other in (pickle.loads(pickle.dumps(t)), copy.copy(t), copy.deepcopy(t)):
        assert "_hash" not in vars(other)
        assert other == t and hash(other) == hash(t)
    # the state a pickle carries is the term's fields alone
    assert t.__getstate__() == {"args": t.args}
    assert str(t) == str(u) and term_key(t) == term_key(u)


def test_program_conditions_print_in_brackets_and_identifiers_bare():
    from bikat.bi.terms import BEmbLTest, BEmbR, bnot
    from bikat.kat.terms import KAct, KSeq, KTest, TNot, TPrim, tand

    cond = TPrim("i < 3")
    assert str(KSeq((KTest(cond), KAct("i := i + 1")))) == "[i < 3] ; i := i + 1"
    assert str(BEmbR(KTest(TNot(cond)))) == "[![i < 3]>"
    assert str(bnot(BEmbLTest(cond))) == "!L[i < 3]"
    assert str(KTest(tand(TPrim("p"), TNot(TPrim("q"))))) == "(p ; !q)"
    assert str(BEmbLTest(TPrim("p"))) == "L[p]"
