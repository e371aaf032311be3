"""Relations on state pairs: the dense carrier of the two-execution model.

A pair (s, s') is packed as the index s*n + s', and a pair relation is a
dense bitmask matrix (`Rel`) over the n*n pair states.  Such matrices grow
quadratically in the state count, so a side has at most DENSE_SIDE_CAP states
(4096 pair states); larger models are refused with `CapExceeded`.

`BiRel` is the reference semantics of BiKAT terms (`interp_bikat`), read by
tests, by the random models of `bikat_equiv` and by TriKAT.  No judgment
oracle builds one: the oracles read pair relations as rows of partners
(`judge.core.PairSpec`) and programs through their compiled per-state images
(`judge.core.PostMap`), at every size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from ..kat.terms import CapExceeded
from .rel import Rel

DENSE_SIDE_CAP = 64


def pack(n: int, s: int, s2: int) -> int:
    return s * n + s2


def unpack(n: int, p: int) -> tuple[int, int]:
    return divmod(p, n)


def _check_side(n: int) -> None:
    """Refuse a side too large for a pair matrix, before allocating one."""
    if n > DENSE_SIDE_CAP:
        raise CapExceeded(f"a pair relation over {n} states a side exceeds "
                          f"DENSE_SIDE_CAP = {DENSE_SIDE_CAP}")


@dataclass(frozen=True)
class BiRel:
    n: int  # states per side; pair space has n*n points
    rel: Rel

    def __post_init__(self):
        _check_side(self.n)
        if self.rel.n != self.n * self.n:
            raise ValueError("pair matrix has wrong dimension")

    # --- construction ---------------------------------------------------

    @staticmethod
    def empty(n: int) -> "BiRel":
        _check_side(n)
        return BiRel(n, Rel.empty(n * n))

    @staticmethod
    def identity(n: int) -> "BiRel":
        _check_side(n)
        return BiRel(n, Rel.identity(n * n))

    @staticmethod
    def of_pairs(n: int, pairs: Iterable[tuple[int, int]]) -> "BiRel":
        """Pairs of packed pair-indices (source, target)."""
        _check_side(n)
        return BiRel(n, Rel.of_pairs(n * n, pairs))

    @staticmethod
    def subid(n: int, members: Iterable[int]) -> "BiRel":
        """Diagonal on the given pair-indices: the test for a pair relation."""
        return BiRel.of_pairs(n, ((p, p) for p in members))

    # --- queries ----------------------------------------------------------

    def has(self, src: int, tgt: int) -> bool:
        return self.rel.has(src, tgt)

    def targets(self, src: int) -> frozenset[int]:
        return frozenset(self.rel.succ(src))

    def items(self) -> Iterator[tuple[int, int]]:
        return self.rel.pairs()

    def count(self) -> int:
        return self.rel.count()

    def is_empty(self) -> bool:
        return self.count() == 0

    # --- algebra ----------------------------------------------------------

    def union(self, other: "BiRel") -> "BiRel":
        return BiRel(self.n, self.rel.union(other.rel))

    def compose(self, other: "BiRel") -> "BiRel":
        return BiRel(self.n, self.rel.compose(other.rel))

    def star(self) -> "BiRel":
        return BiRel(self.n, self.rel.star())

    def converse(self) -> "BiRel":
        return BiRel(self.n, self.rel.converse())

    def leq(self, other: "BiRel") -> bool:
        return self.rel.leq(other.rel)


# --- structure maps between the two levels ------------------------------

def tensor(r: Rel, s: Rel) -> BiRel:
    """(a,a') related to (b,b') iff a r b and a' s b'."""
    if r.n != s.n:
        raise ValueError(f"dimension mismatch: {r.n} vs {s.n}")
    n = r.n
    _check_side(n)
    rows = [0] * (n * n)
    for a in range(n):
        ra = r.rows[a]
        if not ra:
            continue
        for a2 in range(n):
            row = 0
            sa2 = s.rows[a2]
            if sa2:
                t = ra
                while t:
                    low = t & -t
                    row |= sa2 << ((low.bit_length() - 1) * n)
                    t ^= low
            rows[pack(n, a, a2)] = row
    return BiRel(n, Rel(n * n, tuple(rows)))


def lift_left(r: Rel) -> BiRel:
    return tensor(r, Rel.identity(r.n))


def lift_right(r: Rel) -> BiRel:
    return tensor(Rel.identity(r.n), r)


def proj_left(b: BiRel) -> Rel:
    """Existential image onto the left components of source and target."""
    pairs = set()
    for src, tgt in b.items():
        pairs.add((src // b.n, tgt // b.n))
    return Rel.of_pairs(b.n, pairs)


def proj_right(b: BiRel) -> Rel:
    pairs = set()
    for src, tgt in b.items():
        pairs.add((src % b.n, tgt % b.n))
    return Rel.of_pairs(b.n, pairs)
