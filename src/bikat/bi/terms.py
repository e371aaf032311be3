"""Terms of the two-execution algebra: embeddings, bitests, and operators.

A bitest denotes a relation on state pairs; `BEmbL`/`BEmbR` embed terms of the
underlying KAT so they act on one side of a pair and leave the other fixed.
`emb_pair(a, b)` is sugar for running a on the left and b on the right.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Union

from ..kat.terms import (KatTerm, KTest, TAnd, TestTerm, TNot, TOne, TOr,
                         TPrim, TZero, simplify as kat_simplify,
                         simplify_test, term_key)


# --- bitests -----------------------------------------------------------------

@dataclass(frozen=True)
class BZero:
    def __str__(self) -> str:
        return "false"


@dataclass(frozen=True)
class BOne:
    def __str__(self) -> str:
        return "true"


@dataclass(frozen=True)
class BPrim:
    name: str

    def __str__(self) -> str:
        return f"[{self.name}]"


@dataclass(frozen=True)
class BEmbLTest:
    test: TestTerm

    def __str__(self) -> str:
        return f"L[{self.test}]"


@dataclass(frozen=True)
class BEmbRTest:
    test: TestTerm

    def __str__(self) -> str:
        return f"R[{self.test}]"


@dataclass(frozen=True)
class BNot:
    arg: "BiTestTerm"

    def __str__(self) -> str:
        s = str(self.arg)
        return f"!({s})" if isinstance(self.arg, (BOr, BAnd)) else f"!{s}"


@dataclass(frozen=True)
class BOr:
    args: tuple["BiTestTerm", ...]

    def __str__(self) -> str:
        return " | ".join(
            f"({a})" if isinstance(a, BOr) else str(a) for a in self.args)


@dataclass(frozen=True)
class BAnd:
    args: tuple["BiTestTerm", ...]

    def __str__(self) -> str:
        return " & ".join(
            f"({a})" if isinstance(a, (BOr, BAnd)) else str(a) for a in self.args)


BiTestTerm = Union[BZero, BOne, BPrim, BEmbLTest, BEmbRTest, BNot, BOr, BAnd]

BT0 = BZero()
BT1 = BOne()


def bnot(t: BiTestTerm) -> BiTestTerm:
    if isinstance(t, BZero):
        return BT1
    if isinstance(t, BOne):
        return BT0
    if isinstance(t, BNot):
        return t.arg
    return BNot(t)


def bor(*ts: BiTestTerm) -> BiTestTerm:
    flat: list[BiTestTerm] = []
    for t in ts:
        if isinstance(t, BOr):
            flat.extend(t.args)
        elif isinstance(t, BOne):
            return BT1
        elif not isinstance(t, BZero):
            flat.append(t)
    if not flat:
        return BT0
    return flat[0] if len(flat) == 1 else BOr(tuple(flat))


def band(*ts: BiTestTerm) -> BiTestTerm:
    flat: list[BiTestTerm] = []
    for t in ts:
        if isinstance(t, BAnd):
            flat.extend(t.args)
        elif isinstance(t, BZero):
            return BT0
        elif not isinstance(t, BOne):
            flat.append(t)
    if not flat:
        return BT1
    return flat[0] if len(flat) == 1 else BAnd(tuple(flat))


_BT_RANK = {BZero: 0, BOne: 1, BPrim: 2, BEmbLTest: 3, BEmbRTest: 4,
            BNot: 5, BAnd: 6, BOr: 7}


def bitest_key(t: BiTestTerm):
    r = _BT_RANK[type(t)]
    if isinstance(t, BPrim):
        return (r, t.name)
    if isinstance(t, (BEmbLTest, BEmbRTest)):
        return (r, str(t.test))
    if isinstance(t, BNot):
        return (r, bitest_key(t.arg))
    if isinstance(t, (BOr, BAnd)):
        return (r, tuple(bitest_key(a) for a in t.args))
    return (r,)


def simplify_bitest(t: BiTestTerm) -> BiTestTerm:
    if isinstance(t, (BZero, BOne, BPrim)):
        return t
    if isinstance(t, BEmbLTest):
        inner = simplify_test(t.test)
        if isinstance(inner, TPrim):
            return BEmbLTest(inner)
        return simplify_bitest(emb_test("L", inner))
    if isinstance(t, BEmbRTest):
        inner = simplify_test(t.test)
        if isinstance(inner, TPrim):
            return BEmbRTest(inner)
        return simplify_bitest(emb_test("R", inner))
    if isinstance(t, BNot):
        return bnot(simplify_bitest(t.arg))
    args = [simplify_bitest(a) for a in t.args]
    flat = (bor if isinstance(t, BOr) else band)(*args)
    if not isinstance(flat, (BOr, BAnd)):
        return flat
    uniq = sorted(set(flat.args), key=bitest_key)
    return type(flat)(tuple(uniq)) if len(uniq) > 1 else uniq[0]


# --- terms -------------------------------------------------------------------

@dataclass(frozen=True)
class BTest:
    test: BiTestTerm

    def __str__(self) -> str:
        s = str(self.test)
        return f"({s})" if isinstance(self.test, (BOr, BAnd)) else s


@dataclass(frozen=True)
class BEmbL:
    arg: KatTerm

    def __str__(self) -> str:
        return f"<{self.arg}]"


@dataclass(frozen=True)
class BEmbR:
    arg: KatTerm

    def __str__(self) -> str:
        return f"[{self.arg}>"


@dataclass(frozen=True)
class BPlus:
    args: tuple["BiKatTerm", ...]

    def __str__(self) -> str:
        return " + ".join(_paren(a, 0) for a in self.args)


@dataclass(frozen=True)
class BSeq:
    args: tuple["BiKatTerm", ...]

    def __str__(self) -> str:
        return " ; ".join(_paren(a, 1) for a in self.args)


@dataclass(frozen=True)
class BStar:
    arg: "BiKatTerm"

    def __str__(self) -> str:
        return f"{_paren(self.arg, 2)}*"


BiKatTerm = Union[BTest, BEmbL, BEmbR, BPlus, BSeq, BStar]

B0 = BTest(BT0)
B1 = BTest(BT1)


def _paren(t: BiKatTerm, level: int) -> str:
    mine = 0 if isinstance(t, BPlus) else 1 if isinstance(t, BSeq) else 2
    s = str(t)
    need = mine < max(level, 1) or (level == 2 and mine < 2)
    return f"({s})" if need else s


def btest(t: BiTestTerm) -> BiKatTerm:
    return BTest(t)


def emb_test(side: str, t: TestTerm) -> BiTestTerm:
    """One-sided embedding of a test, pushed through the boolean operators."""
    if isinstance(t, TZero):
        return BT0
    if isinstance(t, TOne):
        return BT1
    if isinstance(t, TPrim):
        return BEmbLTest(t) if side == "L" else BEmbRTest(t)
    if isinstance(t, TNot):
        return bnot(emb_test(side, t.arg))
    if isinstance(t, TOr):
        return bor(*[emb_test(side, a) for a in t.args])
    return band(*[emb_test(side, a) for a in t.args])


def bembl(k: KatTerm) -> BiKatTerm:
    # embedded tests are kept in bitest form, so the two spellings of one
    # one-sided condition compare equal
    k = kat_simplify(k)
    if isinstance(k, KTest):
        return BTest(emb_test("L", k.test))
    return BEmbL(k)


def bembr(k: KatTerm) -> BiKatTerm:
    k = kat_simplify(k)
    if isinstance(k, KTest):
        return BTest(emb_test("R", k.test))
    return BEmbR(k)


def bis_zero(t: BiKatTerm) -> bool:
    return isinstance(t, BTest) and isinstance(t.test, BZero)


def bis_one(t: BiKatTerm) -> bool:
    return isinstance(t, BTest) and isinstance(t.test, BOne)


def bplus(*ts: BiKatTerm) -> BiKatTerm:
    flat: list[BiKatTerm] = []
    for t in ts:
        if isinstance(t, BPlus):
            flat.extend(t.args)
        elif not bis_zero(t):
            flat.append(t)
    if not flat:
        return B0
    return flat[0] if len(flat) == 1 else BPlus(tuple(flat))


def bseq(*ts: BiKatTerm) -> BiKatTerm:
    flat: list[BiKatTerm] = []
    for t in ts:
        if isinstance(t, BSeq):
            flat.extend(t.args)
        elif bis_zero(t):
            return B0
        elif not bis_one(t):
            flat.append(t)
    if not flat:
        return B1
    return flat[0] if len(flat) == 1 else BSeq(tuple(flat))


def bstar(t: BiKatTerm) -> BiKatTerm:
    if bis_zero(t) or bis_one(t):
        return B1
    if isinstance(t, BStar):
        return t
    return BStar(t)


def emb_pair(a: KatTerm, b: KatTerm) -> BiKatTerm:
    """The two-argument embedding <a|b> = <a];[b>."""
    return bseq(bembl(a), bembr(b))


_B_RANK = {BTest: 0, BEmbL: 1, BEmbR: 2, BStar: 3, BSeq: 4, BPlus: 5}


def biterm_key(t: BiKatTerm):
    r = _B_RANK[type(t)]
    if isinstance(t, BTest):
        return (r, bitest_key(t.test))
    if isinstance(t, (BEmbL, BEmbR)):
        return (r, term_key(t.arg))
    if isinstance(t, BStar):
        return (r, biterm_key(t.arg))
    return (r, tuple(biterm_key(a) for a in t.args))


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
        return bseq(*[bisimplify(a) for a in t.args])
    flat = bplus(*[bisimplify(a) for a in t.args])
    if not isinstance(flat, BPlus):
        return flat
    uniq = sorted(set(flat.args), key=biterm_key)
    return BPlus(tuple(uniq)) if len(uniq) > 1 else uniq[0]


def seq_chain(t: BiKatTerm) -> tuple[BiKatTerm, ...]:
    return t.args if isinstance(t, BSeq) else (t,)


def bitest_prims(t: BiTestTerm) -> set[str]:
    if isinstance(t, BPrim):
        return {t.name}
    if isinstance(t, BNot):
        return bitest_prims(t.arg)
    if isinstance(t, (BOr, BAnd)):
        out: set[str] = set()
        for a in t.args:
            out |= bitest_prims(a)
        return out
    return set()
