"""Binary relations on a finite state space, as bitmask row vectors.

Row i is an int whose bit j is set iff i relates to j.  Star is exact
reflexive-transitive closure (the space is finite), computed by repeated
squaring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


@dataclass(frozen=True)
class Rel:
    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if len(self.rows) != self.n:
            raise ValueError(f"expected {self.n} rows, got {len(self.rows)}")

    # construction -------------------------------------------------------

    @staticmethod
    def empty(n: int) -> "Rel":
        return Rel(n, (0,) * n)

    @staticmethod
    def identity(n: int) -> "Rel":
        return Rel(n, tuple(1 << i for i in range(n)))

    @staticmethod
    def full(n: int) -> "Rel":
        m = (1 << n) - 1
        return Rel(n, (m,) * n)

    @staticmethod
    def of_pairs(n: int, pairs: Iterable[tuple[int, int]]) -> "Rel":
        rows = [0] * n
        for i, j in pairs:
            rows[i] |= 1 << j
        return Rel(n, tuple(rows))

    @staticmethod
    def diag(n: int, mask: int) -> "Rel":
        """Sub-identity on the states in `mask`."""
        return Rel(n, tuple((1 << i) if mask >> i & 1 else 0 for i in range(n)))

    # queries -------------------------------------------------------------

    def has(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def succ(self, i: int) -> Iterator[int]:
        row = self.rows[i]
        while row:
            low = row & -row
            yield low.bit_length() - 1
            row ^= low

    def pairs(self) -> Iterator[tuple[int, int]]:
        for i in range(self.n):
            for j in self.succ(i):
                yield (i, j)

    def count(self) -> int:
        return sum(r.bit_count() for r in self.rows)

    def is_empty(self) -> bool:
        return all(r == 0 for r in self.rows)

    # algebra -------------------------------------------------------------

    def union(self, other: "Rel") -> "Rel":
        self._check(other)
        return Rel(self.n, tuple(a | b for a, b in zip(self.rows, other.rows)))

    def compose(self, other: "Rel") -> "Rel":
        self._check(other)
        out = []
        orows = other.rows
        for row in self.rows:
            acc = 0
            r = row
            while r:
                low = r & -r
                acc |= orows[low.bit_length() - 1]
                r ^= low
            out.append(acc)
        return Rel(self.n, tuple(out))

    def star(self) -> "Rel":
        t = self.union(Rel.identity(self.n))
        while True:
            nxt = t.compose(t)
            if nxt == t:
                return t
            t = nxt

    def converse(self) -> "Rel":
        rows = [0] * self.n
        for i in range(self.n):
            r = self.rows[i]
            while r:
                low = r & -r
                rows[low.bit_length() - 1] |= 1 << i
                r ^= low
        return Rel(self.n, tuple(rows))

    def leq(self, other: "Rel") -> bool:
        self._check(other)
        return all(a & ~b == 0 for a, b in zip(self.rows, other.rows))

    def _check(self, other: "Rel") -> None:
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
