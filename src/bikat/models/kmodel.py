"""Finite relational interpretations of KAT terms.

Action interpretations are either explicit relation matrices (random models,
small spaces) or successor functions (compiled programs on larger structured
spaces).  `interp_kat` is the matrix route.  The image route never
materializes a matrix: each action gets a successor table and each test a
table with one byte per state, both built on first use, and a term is
compiled once per model into nested closures over those tables.  One walk
then carries a whole batch of sources, each state tagged with the bitmask of
the sources that reach it, so sources that meet share the rest of the walk.
`image` returns per-source images; `kat_post`/`kat_pre` are the image and
preimage of a state set.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, field
from typing import Callable, Iterable

from ..kat.terms import (Alphabet, KAct, KatTerm, KPlus, KSeq, KStar, KTest,
                         TAnd, TestTerm, TNot, TOne, TOr, TPrim, TZero)
from .rel import Rel
from .space import StateSpace

REL_MATRIX_CAP = 8192


class ModelError(Exception):
    pass


def state_array(size: int, states: Iterable[int]) -> array:
    """A flat array of states (or -1) over a space of `size` states, two
    bytes an entry when the states fit."""
    return array("h" if size <= 1 << 15 else "i", states)


class ActionSem:
    """Interpretation of one primitive action on `size` states.

    `succ_table` is built on first use: a flat `state_array` with -1 for "no
    successor" when every state has at most one successor, otherwise one
    tuple of successors per state.  `pred_table` is its converse, one tuple
    per state, built by one sweep over the successor table."""

    def __init__(self, size: int):
        self.size = size
        self._succ: array | list[tuple[int, ...]] | None = None
        self._preds: list[tuple[int, ...]] | None = None

    def succ(self, state: int) -> Iterable[int]:
        raise NotImplementedError

    def rel(self) -> Rel:
        raise NotImplementedError

    def succ_table(self) -> array | list[tuple[int, ...]]:
        if self._succ is None:
            rows = [tuple(self.succ(s)) for s in range(self.size)]
            if all(len(r) <= 1 for r in rows):
                self._succ = state_array(self.size, [r[0] if r else -1 for r in rows])
            else:
                self._succ = rows
        return self._succ

    def pred_table(self) -> list[tuple[int, ...]]:
        if self._preds is None:
            preds: list[list[int]] = [[] for _ in range(self.size)]
            table = self.succ_table()
            if isinstance(table, array):
                for s, t in enumerate(table):
                    if t >= 0:
                        preds[t].append(s)
            else:
                for s, ts in enumerate(table):
                    for t in ts:
                        preds[t].append(s)
            self._preds = [tuple(p) for p in preds]
        return self._preds

    def pred(self, state: int) -> Iterable[int]:
        return self.pred_table()[state]


class RelAction(ActionSem):
    def __init__(self, r: Rel):
        super().__init__(r.n)
        self._rel = r

    def succ(self, state: int):
        return self._rel.succ(state)

    def rel(self) -> Rel:
        return self._rel


class FnAction(ActionSem):
    """Successor-function action.  `fn` maps a state to an iterable of
    successors, or with `det` to its one successor."""

    def __init__(self, space: StateSpace, fn: Callable, det: bool = False):
        super().__init__(space.size)
        self.space = space
        self.fn = fn
        self.det = det
        self._rel: Rel | None = None

    def succ(self, state: int):
        return (self.fn(state),) if self.det else self.fn(state)

    def succ_table(self):
        if self._succ is None and self.det:
            self._succ = state_array(self.size, map(self.fn, range(self.size)))
        return super().succ_table()

    def rel(self) -> Rel:
        if self._rel is None:
            n = self.size
            if n > REL_MATRIX_CAP:
                raise ModelError(
                    f"relation matrix over {n} states exceeds cap {REL_MATRIX_CAP}")
            table = self.succ_table()
            if isinstance(table, array):
                rows = tuple(1 << t if t >= 0 else 0 for t in table)
            else:
                rows = tuple(sum(1 << t for t in ts) for ts in table)
            self._rel = Rel(n, rows)
        return self._rel


_BYTE_BITS = bytes.maketrans(b"\x00\x01", b"01")
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")
_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def table_mask(table: bytes) -> int:
    """The bitmask (bit s for state s) of a one-byte-per-state table."""
    return int(table[::-1].translate(_BYTE_BITS) or b"0", 2)


class TestSem:
    """Interpretation of one primitive test: a subset of the state space,
    given by a predicate or a bitmask.  `table` holds one byte (0 or 1) per
    state and is built on first use."""

    def __init__(self, space: StateSpace, pred: Callable[[int], bool] | None = None,
                 mask: int | None = None):
        self.space = space
        self._pred = pred
        self._mask = mask
        self._table: bytes | None = None

    def table(self) -> bytes:
        if self._table is None:
            n = self.space.size
            if self._mask is not None:
                bits = bin(self._mask)[2:].zfill(n)[::-1][:n]
                self._table = bits.encode().translate(_BIT_BYTES)
            else:
                self._table = bytes(map(self._pred, range(n)))
        return self._table

    def holds(self, state: int) -> bool:
        return self.table()[state] == 1

    def mask(self) -> int:
        if self._mask is None:
            self._mask = table_mask(self.table())
        return self._mask


@dataclass
class KatModel:
    space: StateSpace
    acts: dict[str, ActionSem]
    tests: dict[str, TestSem]
    meta: dict = field(default_factory=dict)
    _walkers: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def act(self, name: str) -> ActionSem:
        try:
            return self.acts[name]
        except KeyError:
            raise ModelError(f"undeclared action {name!r}") from None

    def test(self, name: str) -> TestSem:
        try:
            return self.tests[name]
        except KeyError:
            raise ModelError(f"undeclared test {name!r}") from None


def havoc(space: StateSpace) -> Rel:
    """The full relation: top of the full relational model."""
    return Rel.full(space.size)


def test_table(m: KatModel, t: TestTerm) -> bytes:
    """One byte (0 or 1) per state: where the test holds."""
    n = m.space.size
    if isinstance(t, TZero):
        return bytes(n)
    if isinstance(t, TOne):
        return b"\x01" * n
    if isinstance(t, TPrim):
        return m.test(t.name).table()
    if isinstance(t, TNot):
        return test_table(m, t.arg).translate(_FLIP)
    # bytes are 0 or 1, so bitwise and/or of whole tables works bytewise
    vals = [int.from_bytes(test_table(m, a), "little") for a in t.args]
    acc = vals[0]
    for v in vals[1:]:
        acc = acc | v if isinstance(t, TOr) else acc & v
    return acc.to_bytes(n, "little")


def test_mask(m: KatModel, t: TestTerm) -> int:
    return table_mask(test_table(m, t))


def test_holds(m: KatModel, t: TestTerm, state: int) -> bool:
    if isinstance(t, TZero):
        return False
    if isinstance(t, TOne):
        return True
    if isinstance(t, TPrim):
        return m.test(t.name).holds(state)
    if isinstance(t, TNot):
        return not test_holds(m, t.arg, state)
    if isinstance(t, TOr):
        return any(test_holds(m, a, state) for a in t.args)
    return all(test_holds(m, a, state) for a in t.args)


def interp_kat(m: KatModel, t: KatTerm) -> Rel:
    """Compositional matrix interpretation; star is exact closure."""
    n = m.space.size
    if n > REL_MATRIX_CAP:
        raise ModelError(f"matrix interpretation over {n} states exceeds cap")
    if isinstance(t, KTest):
        return Rel.diag(n, test_mask(m, t.test))
    if isinstance(t, KAct):
        return m.act(t.name).rel()
    if isinstance(t, KPlus):
        out = Rel.empty(n)
        for a in t.args:
            out = out.union(interp_kat(m, a))
        return out
    if isinstance(t, KSeq):
        out = Rel.identity(n)
        for a in t.args:
            out = out.compose(interp_kat(m, a))
        return out
    return interp_kat(m, t.arg).star()


# A walk maps each reached state to the bitmask of the sources reaching it.
Tagged = dict[int, int]

# sources per walk: bounds the size of the tag integers
WALK_SOURCES = 1024


def _compile(m: KatModel, t: KatTerm, backward: bool) -> Callable[[Tagged], Tagged]:
    if isinstance(t, KTest):
        table = test_table(m, t.test)
        return lambda cur: {s: g for s, g in cur.items() if table[s]}
    if isinstance(t, KAct):
        sem = m.act(t.name)
        succ = sem.pred_table() if backward else sem.succ_table()
        if isinstance(succ, array):
            def det(cur: Tagged) -> Tagged:
                out: Tagged = {}
                get = out.get
                for s, g in cur.items():
                    s2 = succ[s]
                    if s2 >= 0:
                        out[s2] = get(s2, 0) | g
                return out
            return det

        def rel(cur: Tagged) -> Tagged:
            out: Tagged = {}
            get = out.get
            for s, g in cur.items():
                for s2 in succ[s]:
                    out[s2] = get(s2, 0) | g
            return out
        return rel
    if isinstance(t, KPlus):
        parts = [_compile(m, a, backward) for a in t.args]

        def plus(cur: Tagged) -> Tagged:
            out: Tagged = {}
            get = out.get
            for f in parts:
                for s, g in f(cur).items():
                    out[s] = get(s, 0) | g
            return out
        return plus
    if isinstance(t, KSeq):
        parts = [_compile(m, a, backward)
                 for a in (reversed(t.args) if backward else t.args)]

        def seq(cur: Tagged) -> Tagged:
            for f in parts:
                cur = f(cur)
                if not cur:
                    break
            return cur
        return seq
    body = _compile(m, t.arg, backward)

    def star(cur: Tagged) -> Tagged:
        seen = dict(cur)
        frontier = cur
        while frontier:
            nxt: Tagged = {}
            for s, g in body(frontier).items():
                old = seen.get(s, 0)
                new = g & ~old
                if new:
                    seen[s] = old | new
                    nxt[s] = new
            frontier = nxt
        return seen
    return star


def _walker(m: KatModel, t: KatTerm, backward: bool = False) -> Callable[[Tagged], Tagged]:
    """The term compiled over the model's tables, once per model."""
    key = (t, backward)
    got = m._walkers.get(key)
    if got is None:
        got = m._walkers[key] = _compile(m, t, backward)
    return got


def image(m: KatModel, t: KatTerm, sources: Iterable[int],
          backward: bool = False) -> dict[int, frozenset[int]]:
    """Per-source images (preimages if `backward`) of distinct sources, from
    one walk of the term per WALK_SOURCES sources."""
    walk = _walker(m, t, backward)
    sources = list(sources)
    out: dict[int, frozenset[int]] = {}
    singles: dict[int, frozenset[int]] = {}  # shared one-state images
    for k in range(0, len(sources), WALK_SOURCES):
        batch = sources[k:k + WALK_SOURCES]
        found: list[list[int]] = [[] for _ in batch]
        for s2, tags in walk({s: 1 << i for i, s in enumerate(batch)}).items():
            if not tags & (tags - 1):
                found[tags.bit_length() - 1].append(s2)
                continue
            bits = bin(tags)[:1:-1]  # bit i at position i
            i = bits.find("1")
            while i >= 0:
                found[i].append(s2)
                i = bits.find("1", i + 1)
        for s, f in zip(batch, found):
            if len(f) == 1:
                img = singles.get(f[0])
                if img is None:
                    img = singles[f[0]] = frozenset(f)
                out[s] = img
            else:
                out[s] = frozenset(f)
    return out


def kat_post(m: KatModel, t: KatTerm, states: Iterable[int]) -> frozenset[int]:
    """Image of a state set under a term."""
    return frozenset(_walker(m, t)(dict.fromkeys(states, 1)))


def kat_pre(m: KatModel, t: KatTerm, states: Iterable[int]) -> frozenset[int]:
    """Preimage of a state set under a term (image under the converse)."""
    return frozenset(_walker(m, t, True)(dict.fromkeys(states, 1)))


def random_kat_model(
    seed: int, size: int, alphabet: Alphabet, density: float = 0.3
) -> KatModel:
    """Reproducible pseudo-random interpretations at the given edge density."""
    rng = random.Random(seed)
    space = StateSpace.plain(size)
    acts: dict[str, ActionSem] = {}
    for a in alphabet.actions:
        pairs = [(i, j) for i in range(size) for j in range(size)
                 if rng.random() < density]
        acts[a] = RelAction(Rel.of_pairs(size, pairs))
    tests: dict[str, TestSem] = {}
    for p in alphabet.tests:
        mask = 0
        for i in range(size):
            if rng.random() < 0.5:
                mask |= 1 << i
        tests[p] = TestSem(space, mask=mask)
    return KatModel(space, acts, tests)
