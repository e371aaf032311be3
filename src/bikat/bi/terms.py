"""Terms of the two-execution algebra: embeddings, bitests, and operators.

A bitest denotes a relation on state pairs; `BEmbL`/`BEmbR` embed terms of the
underlying KAT so they act on one side of a pair and leave the other fixed.
`emb_pair(a, b)` is sugar for running a on the left and b on the right.

The operators are KAT's: each class extends the marker base of its operator
in `kat.terms` (`BOr` extends `Or`, `BPlus` extends `Plus`, ...), so the
n-ary constructor `nary`, the canonical order `term_key`, the normal-form
step `sort_dedupe` and the maps `bool_map` and `kleene_map` written there
serve both algebras.  An embedding's class carries its `side`, "L" or "R".

Sidedness is decided here once.  `sides` gives the sides of the pair that a
bitest or term reads; a factor that reads one side only is an embedded
element, so it commutes with the other side.  `side_test` reads a one-sided
bitest as a KAT test, `unembed` a one-sided factor as the KAT term it
embeds (`emb` embeds one again), and `term_side` names the sides read.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Union

from ..kat.terms import (RANK, TESTS, And, BoolOps, KatTerm, KleeneOps, KTest,
                         Not, One, Or, Plus, Seq, Star, Term, Test, TestTerm,
                         TPrim, Zero, bool_map, children, closure, complement,
                         ktest, nary, simplify as kat_simplify, simplify_test,
                         sort_dedupe, term)


# --- bitests -----------------------------------------------------------------

@term
class BZero(Zero):
    def __str__(self) -> str:
        return "false"


@term
class BOne(One):
    def __str__(self) -> str:
        return "true"


@term
class BPrim(Term):
    name: str

    def __str__(self) -> str:
        return f"[{self.name}]"


@term
class BEmbLTest(Term):
    test: TestTerm
    side = "L"

    def __str__(self) -> str:
        return f"L[{_inner(self.test)}]"


@term
class BEmbRTest(Term):
    test: TestTerm
    side = "R"

    def __str__(self) -> str:
        return f"R[{_inner(self.test)}]"


@term
class BNot(Not):
    arg: "BiTestTerm"

    def __str__(self) -> str:
        s = str(self.arg)
        return f"!({s})" if isinstance(self.arg, (BOr, BAnd)) else f"!{s}"


@term
class BOr(Or):
    args: tuple["BiTestTerm", ...]

    def __str__(self) -> str:
        return " | ".join(
            f"({a})" if isinstance(a, BOr) else str(a) for a in self.args)


@term
class BAnd(And):
    args: tuple["BiTestTerm", ...]

    def __str__(self) -> str:
        return " & ".join(
            f"({a})" if isinstance(a, (BOr, BAnd)) else str(a) for a in self.args)


BiTestTerm = Union[BZero, BOne, BPrim, BEmbLTest, BEmbRTest, BNot, BOr, BAnd]


def _inner(t: TestTerm) -> str:
    """An embedded test inside the brackets of `L[..]` or `R[..]`: a
    primitive by its name, with no brackets of its own."""
    return t.name if isinstance(t, TPrim) else str(t)

BT0 = BZero()
BT1 = BOne()


def bnot(t: BiTestTerm) -> BiTestTerm:
    return complement(BNot, t, BT0, BT1)


def bor(*ts: BiTestTerm) -> BiTestTerm:
    return nary(BOr, BT0, ts)


def band(*ts: BiTestTerm) -> BiTestTerm:
    return nary(BAnd, BT1, ts)


BITESTS = BoolOps(BT0, BT1, bnot, bor, band)
_EMB_TEST = {"L": BEmbLTest, "R": BEmbRTest}


def emb_test(side: str, t: TestTerm) -> BiTestTerm:
    """One-sided embedding of a test, pushed through the boolean operators."""
    return bool_map(t, _EMB_TEST[side], BITESTS)


def _simplify_atom(t: BiTestTerm) -> BiTestTerm:
    if isinstance(t, BPrim):
        return t
    inner = simplify_test(t.test)
    if isinstance(inner, TPrim):
        return type(t)(inner)
    return simplify_bitest(emb_test(t.side, inner))


_NORMAL_BITESTS = BoolOps(BT0, BT1, bnot, lambda *ts: sort_dedupe(bor(*ts)),
                          lambda *ts: sort_dedupe(band(*ts)))


def simplify_bitest(t: BiTestTerm) -> BiTestTerm:
    """Boolean units, double negation, flat sorted deduped & and |, and
    embedded tests pushed onto their primitive tests."""
    return bool_map(t, _simplify_atom, _NORMAL_BITESTS)


# --- terms -------------------------------------------------------------------

@term
class BTest(Test):
    test: BiTestTerm


@term
class BEmbL(Term):
    arg: KatTerm
    side = "L"

    def __str__(self) -> str:
        return f"<{self.arg}]"


@term
class BEmbR(Term):
    arg: KatTerm
    side = "R"

    def __str__(self) -> str:
        return f"[{self.arg}>"


@term
class BPlus(Plus):
    args: tuple["BiKatTerm", ...]


@term
class BSeq(Seq):
    args: tuple["BiKatTerm", ...]


@term
class BStar(Star):
    arg: "BiKatTerm"


BiKatTerm = Union[BTest, BEmbL, BEmbR, BPlus, BSeq, BStar]

B0 = BTest(BT0)
B1 = BTest(BT1)

RANK.update({BPrim: 2, BEmbLTest: 3, BEmbRTest: 4, BEmbL: 1, BEmbR: 2})


def btest(t: BiTestTerm) -> BiKatTerm:
    return BTest(t)


def emb(side: str, k: KatTerm) -> BiKatTerm:
    """k embedded on `side`: <k] for "L", [k> for "R"."""
    # embedded tests are kept in bitest form, so the two spellings of one
    # one-sided condition compare equal
    k = kat_simplify(k)
    if isinstance(k, KTest):
        return BTest(emb_test(side, k.test))
    return (BEmbL if side == "L" else BEmbR)(k)


bembl = partial(emb, "L")
bembr = partial(emb, "R")


def bplus(*ts: BiKatTerm) -> BiKatTerm:
    return nary(BPlus, B0, ts)


def bseq(*ts: BiKatTerm) -> BiKatTerm:
    return nary(BSeq, B1, ts)


def bstar(t: BiKatTerm) -> BiKatTerm:
    return closure(BStar, t, B1)


BIKAT = KleeneOps(bplus, bseq, bstar)


def emb_pair(a: KatTerm, b: KatTerm) -> BiKatTerm:
    """The two-argument embedding <a|b> = <a];[b>."""
    return bseq(bembl(a), bembr(b))


@lru_cache(maxsize=100_000)
def bisimplify(t: BiKatTerm) -> BiKatTerm:
    """Units, flattening, sorted deduped sums; embedded KAT arguments are
    canonicalized too.  Semantics preserved in every model."""
    if isinstance(t, BTest):
        return btest(simplify_bitest(t.test))
    if isinstance(t, BEmbL):
        return bembl(t.arg)
    if isinstance(t, BEmbR):
        return bembr(t.arg)
    if isinstance(t, BStar):
        return bstar(bisimplify(t.arg))
    if isinstance(t, BSeq):
        return bseq(*map(bisimplify, t.args))
    return sort_dedupe(bplus(*map(bisimplify, t.args)))


def seq_chain(t: BiKatTerm) -> tuple[BiKatTerm, ...]:
    return t.args if isinstance(t, BSeq) else (t,)


# --- sidedness -----------------------------------------------------------------

_BOTH = frozenset("LR")


def sides(t: Term) -> frozenset[str]:
    """The sides of the pair that a bitest or BiKAT term reads: its own side
    for an embedding, both for an abstract bitest, none for a constant, and
    for an operator the sides its arguments read."""
    if isinstance(t, BPrim):
        return _BOTH
    side = getattr(t, "side", None)
    if side is not None:
        return frozenset(side)
    return frozenset().union(*map(sides, children(t)))


def term_side(t: Term) -> str:
    """"L" or "R" for a bitest or term that reads one side only, "N" for one
    that reads neither (a constant), "B" for one that reads both."""
    read = sides(t)
    return "B" if len(read) > 1 else next(iter(read), "N")


bitest_side = term_side  # the same reader, by the name bitest callers use


def side_test(t: BiTestTerm) -> tuple[str, TestTerm] | None:
    """(side, k) when the bitest t reads one side only: t is the KAT test k
    embedded on that side (`emb_test`); else None."""
    read = sides(t)
    if len(read) != 1:
        return None
    return next(iter(read)), bool_map(t, lambda a: a.test, TESTS)


def unembed(t: BiKatTerm) -> tuple[str, KatTerm] | None:
    """(side, k) when the factor t is k embedded on one side, `emb(side, k)`:
    an embedded term <k] or [k>, or a one-sided test; None for a constant, a
    composite term or a test that reads both sides."""
    if isinstance(t, (BEmbL, BEmbR)):
        return t.side, t.arg
    got = side_test(t.test) if isinstance(t, BTest) else None
    return None if got is None else (got[0], ktest(got[1]))
