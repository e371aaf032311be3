"""Two-execution models: a base model plus bitest interpretations.

Embedded interpretations are always derived from the base model, never
stored.  `check_projection_axioms` verifies the projection structure and its
consequences (unit, separation, injectivity and their order variants) on a
given model, reporting each item pass/fail.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from ..bi.terms import (BEmbL, BEmbLTest, BEmbR, BEmbRTest, BiKatTerm,
                        BiTestTerm, BNot, BOne, BOr, BPlus, BPrim, BSeq, BTest,
                        BZero)
from ..kat.terms import Alphabet
from .birel import BiRel, lift_left, lift_right, pack, proj_left, proj_right
from .kmodel import KatModel, ModelError, interp_kat, random_kat_model, test_holds
from .rel import Rel
from .space import StateSpace


class BitestSem:
    """A relation on state pairs, with lazy membership or explicit pair set."""

    def __init__(self, space: StateSpace, pred: Callable[[int, int], bool] | None = None,
                 pairs: frozenset[tuple[int, int]] | None = None):
        self.space = space
        self._pred = pred
        self._pairs = pairs

    def holds(self, s: int, s2: int) -> bool:
        if self._pairs is not None:
            return (s, s2) in self._pairs
        return self._pred(s, s2)

    def pairs(self) -> frozenset[tuple[int, int]]:
        if self._pairs is None:
            n = self.space.size
            self._pairs = frozenset(
                (a, b) for a in range(n) for b in range(n) if self._pred(a, b))
        return self._pairs


@dataclass
class BiModel:
    base: KatModel
    bitests: dict[str, BitestSem] = field(default_factory=dict)
    # compiled pair-state walkers of witness terms (see judge.witness)
    _walkers: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    @property
    def space(self) -> StateSpace:
        return self.base.space

    def bitest(self, name: str) -> BitestSem:
        try:
            return self.bitests[name]
        except KeyError:
            raise ModelError(f"undeclared bitest {name!r}") from None


def bitest_holds(bm: BiModel, t: BiTestTerm, s: int, s2: int) -> bool:
    if isinstance(t, BZero):
        return False
    if isinstance(t, BOne):
        return True
    if isinstance(t, BPrim):
        return bm.bitest(t.name).holds(s, s2)
    if isinstance(t, BEmbLTest):
        return test_holds(bm.base, t.test, s)
    if isinstance(t, BEmbRTest):
        return test_holds(bm.base, t.test, s2)
    if isinstance(t, BNot):
        return not bitest_holds(bm, t.arg, s, s2)
    if isinstance(t, BOr):
        return any(bitest_holds(bm, a, s, s2) for a in t.args)
    return all(bitest_holds(bm, a, s, s2) for a in t.args)


def bitest_pairs(bm: BiModel, t: BiTestTerm) -> frozenset[tuple[int, int]]:
    n = bm.space.size
    return frozenset((a, b) for a in range(n) for b in range(n)
                     if bitest_holds(bm, t, a, b))


def bitest_subid(bm: BiModel, t: BiTestTerm) -> BiRel:
    n = bm.space.size
    return BiRel.subid(n, (pack(n, a, b) for a, b in bitest_pairs(bm, t)))


def interp_bikat(bm: BiModel, t: BiKatTerm) -> BiRel:
    """Compositional pair-relation semantics; star is exact closure."""
    n = bm.space.size
    if isinstance(t, BTest):
        return bitest_subid(bm, t.test)
    if isinstance(t, BEmbL):
        return lift_left(interp_kat(bm.base, t.arg))
    if isinstance(t, BEmbR):
        return lift_right(interp_kat(bm.base, t.arg))
    if isinstance(t, BPlus):
        out = BiRel.empty(n)
        for a in t.args:
            out = out.union(interp_bikat(bm, a))
        return out
    if isinstance(t, BSeq):
        out = BiRel.identity(n)
        for a in t.args:
            out = out.compose(interp_bikat(bm, a))
        return out
    return interp_bikat(bm, t.arg).star()


def random_bimodel(
    seed: int, size: int, alphabet: Alphabet, bitest_names: tuple[str, ...] = (),
    density: float = 0.3,
) -> BiModel:
    base = random_kat_model(seed, size, alphabet, density)
    rng = random.Random(seed ^ 0x5BD1E995)
    bitests: dict[str, BitestSem] = {}
    for name in bitest_names:
        pairs = frozenset((a, b) for a in range(size) for b in range(size)
                          if rng.random() < 0.5)
        bitests[name] = BitestSem(base.space, pairs=pairs)
    return BiModel(base, bitests)


@dataclass
class AxiomReport:
    name: str
    passed: bool
    note: str = ""


def check_projection_axioms(bm: BiModel, seed: int = 0) -> list[AxiomReport]:
    """Projection structure on a relational model, plus its consequences.

    Checks Inversion, Disjointness and Disjunctivity of the two projections,
    then Unit, Separation, Order-Separation, Injectivity and Order-Injectivity
    on the model's actions and eight relations sampled by `seed`.
    """
    n = bm.space.size
    rng = random.Random(seed)
    rels: list[Rel] = [a.rel() for a in bm.base.acts.values()]
    for _ in range(8):
        rels.append(Rel.of_pairs(n, [(rng.randrange(n), rng.randrange(n))
                                     for _ in range(rng.randrange(1, n * n + 1))]))
    rels += [Rel.empty(n), Rel.identity(n), Rel.full(n)]
    birels = [lift_left(r) for r in rels[:4]] + [lift_right(r) for r in rels[:4]]
    for sem in bm.bitests.values():
        birels.append(BiRel.subid(n, (pack(n, a, b) for a, b in sem.pairs())))

    out: list[AxiomReport] = []

    def add(name: str, ok: bool, note: str = ""):
        out.append(AxiomReport(name, ok, note))

    add("inversion-left", all(proj_left(lift_left(r)) == r for r in rels))
    add("inversion-right", all(proj_right(lift_right(r)) == r for r in rels))
    idrel = Rel.identity(n)
    add("disjointness-left",
        all(proj_left(lift_right(r)) == idrel for r in rels if not r.is_empty()),
        "guard a != 0 required: the empty relation projects to empty")
    add("disjointness-right",
        all(proj_right(lift_left(r)) == idrel for r in rels if not r.is_empty()))
    add("disjunctivity-left",
        all(proj_left(a.union(b)) == proj_left(a).union(proj_left(b))
            for a in birels for b in birels))
    add("disjunctivity-right",
        all(proj_right(a.union(b)) == proj_right(a).union(proj_right(b))
            for a in birels for b in birels))
    add("unit", proj_left(BiRel.identity(n)) == idrel
        and proj_right(BiRel.identity(n)) == idrel)

    sep = True
    for a in rels:
        for b in rels:
            if lift_left(a) == lift_right(b) and (not a.is_empty() or not b.is_empty()):
                sep = sep and a == b == idrel
    add("separation", sep)

    osep = True
    for a in rels:
        for b in rels:
            if a.is_empty() or b.is_empty():
                continue
            if lift_right(b).leq(lift_left(a)):
                osep = osep and idrel.leq(a) and b.leq(idrel)
    add("order-separation", osep)

    add("injectivity-left",
        all((lift_left(a) == lift_left(b)) == (a == b) for a in rels for b in rels))
    add("injectivity-right",
        all((lift_right(a) == lift_right(b)) == (a == b) for a in rels for b in rels))
    add("order-injectivity-left",
        all(lift_left(a).leq(lift_left(b)) == a.leq(b) for a in rels for b in rels))
    add("order-injectivity-right",
        all(lift_right(a).leq(lift_right(b)) == a.leq(b) for a in rels for b in rels))
    return out
