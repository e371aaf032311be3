"""Finite relational interpretations of KAT terms.

Action interpretations are either explicit relation matrices (random models)
or successor functions (compiled programs on structured spaces).  A program
has one representation that every judgment oracle reads: each action gets a
successor table (and, for preimages, its converse) and each test a table with
one byte per state, both built on first use, and a term is compiled once per
model into nested closures over those tables.  What a model compiles (these
walkers, the pair-state walkers of witness terms, `judge.core`'s image maps
and pair specs, footprint bits) is kept in one store per model, read
through `compiled`.  A program's deterministic
actions and its tests carry their footprints, and their tables are lifted
from one evaluation per footprint value (`StateSpace.lift`); other actions
fill their tables state by state.  One walk then carries a whole
batch of sources, each state tagged with the bitmask of the sources that
reach it, so sources that meet share the rest of the walk.  A term is
compiled by `kleene_map` into the combinators `WALKS` and driven a batch of
sources at a time by `walk_sources`.  `kleene_walks(merge, minus)` builds
the combinators for any frontier that maps keys to values: the union merges
the values that meet at a key, `walk_seq` runs the parts in order, and the
closure walks again only what is new at a key.  `WALKS` merges state tags by
OR; the pair-state walker of BiKAT witness terms builds its `ROWS` from the
same function over rows, and shares the batches and the decoding of tags
(`walk_sources`).  `image`
returns per-source images or preimages; `kat_post`/`kat_pre` are the image
and preimage of a state set.

The frame lift: a term reads and writes only the fields its primitives do,
so the image of a state s is the image of its footprint projection
r = s & mask shifted by s - r, the bits the term never touches; so is its
preimage, since the converse is framed too.  `frame_mask` gives that mask
(None when a primitive has no footprint or the footprint is the whole
state), and `judge.core.PostMap` walks only the distinct projections of the
states it is asked for.  A deterministic action's successor table and a
framed term's end column are one construction, `StateSpace.moved`: the
column s -> s + e(r) - r, lifted from the end e(r) of every projection r
and added to the frame bits s - r as packed columns, at C speed.

`interp_kat` is the dense `Rel` semantics, refused above REL_MATRIX_CAP
states.  No oracle builds it: it is the reference that tests, the random
models of `bikat_equiv`, `interp_bikat` and TriKAT read.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from operator import or_
from typing import Callable, Iterable, Iterator

from ..kat.terms import (Alphabet, KAct, KatTerm, KleeneOps, KPlus, KSeq, KTest,
                         TestTerm, TNot, TOne, TOr, TPrim, TZero, kleene_map, subterms)
from .rel import Rel
from .space import StateSpace, state_code

REL_MATRIX_CAP = 8192


class ModelError(Exception):
    pass


def state_array(size: int, states: Iterable[int]) -> array:
    """A flat array of states (or -1) over a space of `size` states."""
    return array(state_code(size), states)


class ActionSem:
    """Interpretation of one primitive action on `size` states.

    `succ_table` is built on first use: a flat `state_array` with -1 for "no
    successor" when every state has at most one successor, otherwise one
    tuple of successors per state.  `pred_table` is its converse, one tuple
    per state, built by one sweep over the successor table.  `footprint`,
    when not None, gives the fields the action reads and writes."""

    footprint: Callable[[], Iterable] | None = None

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
    successors, or with `det` to its one successor.  The action reads and
    writes only the fields that `footprint()` gives (no footprint: the whole
    state), so a deterministic action's table is lifted from one call of
    `fn` per footprint value; other actions keep one tuple per state."""

    def __init__(self, space: StateSpace, fn: Callable, det: bool = False,
                 footprint: Callable[[], Iterable] | None = None):
        super().__init__(space.size)
        self.space = space
        self.fn = fn
        self.det = det
        self.footprint = footprint
        self._rel: Rel | None = None

    def succ(self, state: int):
        return (self.fn(state),) if self.det else self.fn(state)

    def succ_table(self):
        if self._succ is None and self.det:
            # succ(s) = s + fn(r) - r, r the footprint bits of s
            sp = self.space
            self._succ = sp.moved(sp.bits(_fields(self.footprint)), self.fn)
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


def _fields(footprint: Callable[[], Iterable] | None) -> Iterable | None:
    return None if footprint is None else footprint()


_BYTE_BITS = bytes.maketrans(b"\x00\x01", b"01")
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")
_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def table_mask(table: bytes) -> int:
    """The bitmask (bit s for state s) of a one-byte-per-state table."""
    return int(table[::-1].translate(_BYTE_BITS) or b"0", 2)


class TestSem:
    """Interpretation of one primitive test: a subset of the state space,
    given by a bitmask or by a predicate that reads only the fields that
    `footprint()` gives (no footprint: the whole state).  `table` holds one
    byte (0 or 1) per state and is built on first use, from the predicate
    lifted by `StateSpace.lift`."""

    def __init__(self, space: StateSpace, pred: Callable[[int], bool] | None = None,
                 mask: int | None = None,
                 footprint: Callable[[], Iterable] | None = None):
        self.space = space
        self._pred = pred
        self._mask = mask
        self.footprint = footprint
        self._table: bytes | None = None

    def table(self) -> bytes:
        if self._table is None:
            n = self.space.size
            if self._mask is not None:
                bits = bin(self._mask)[2:].zfill(n)[::-1][:n]
                self._table = bits.encode().translate(_BIT_BYTES)
            else:
                self._table = self.space.lift(_fields(self.footprint), self._pred, bytes)
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


def compiled(model, make: Callable, *args):
    """`make(model, *args)`, built once per model and kept: the one store of
    what a model compiles (term walkers, image maps, pair specs, footprint
    bits), a dict on the model keyed by `make` and `args`."""
    store = vars(model).setdefault("_compiled", {})
    key = (make, *args)
    if key not in store:
        store[key] = make(model, *args)
    return store[key]


def frame_mask(m: KatModel, t: KatTerm) -> int | None:
    """The bits of the fields that the primitives of `t` read and write, the
    union of their footprints; None when a primitive has none (a relation
    action, a mask test) or the footprint is the whole state."""
    mask = 0
    for u in subterms(t):
        if isinstance(u, (KAct, TPrim)):
            bits = compiled(m, _footprint_bits, u)
            if bits is None:
                return None
            mask |= bits
    return None if mask == m.space.size - 1 else mask


def _footprint_bits(m: KatModel, u: KAct | TPrim) -> int | None:
    sem = m.act(u.name) if isinstance(u, KAct) else m.test(u.name)
    return m.space.bits(_fields(sem.footprint))


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
Walk = Callable[[Tagged], Tagged]

# sources per walk: bounds the size of the tag integers
WALK_SOURCES = 1024


def walk_seq(*parts: Walk) -> Walk:
    """The walks in order, stopping once nothing is reached."""
    def seq(cur: Tagged) -> Tagged:
        for f in parts:
            cur = f(cur)
            if not cur:
                break
        return cur
    return seq


def kleene_walks(merge: Callable, minus: Callable) -> KleeneOps:
    """The walk combinators over frontiers that map keys to values: a union
    that joins the values meeting at a key with `merge(old, new)`, `walk_seq`,
    and a closure that walks again only `minus(value, old)`, the part of a
    value not yet seen at its key (falsy when nothing is new).  A frontier
    holds no falsy value, and no walk changes a value it is given."""
    def plus(*parts: Callable) -> Callable:
        def union(cur: dict) -> dict:
            out = dict(parts[0](cur))
            get = out.get
            for f in parts[1:]:
                for k, v in f(cur).items():
                    old = get(k)
                    out[k] = v if old is None else merge(old, v)
            return out
        return union

    def star(body: Callable) -> Callable:
        def closure(cur: dict) -> dict:
            seen = dict(cur)
            get = seen.get
            frontier = cur
            while frontier:
                nxt = {}
                for k, v in body(frontier).items():
                    old = get(k)
                    if old is None:
                        seen[k] = nxt[k] = v
                    elif new := minus(v, old):
                        seen[k] = merge(old, new)
                        nxt[k] = new
                frontier = nxt
            return seen
        return closure
    return KleeneOps(plus, walk_seq, star)


# tags ORed where states meet; the closure walks the bits new at a state
WALKS = kleene_walks(or_, lambda g, old: g & ~old)


def _compile(m: KatModel, t: KatTerm, backward: bool) -> Walk:
    """The term compiled over the model's tables (kept by `compiled`)."""
    def leaf(u: KatTerm) -> Walk:
        if isinstance(u, KTest):
            table = test_table(m, u.test)
            return lambda cur: {s: g for s, g in cur.items() if table[s]}
        sem = m.act(u.name)
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
    return kleene_map(t, leaf, WALKS, reverse=backward)


def walk_sources(walk: Walk, sources: list) -> Iterator[tuple]:
    """(source, the states the walk reaches from it) for each of `sources`,
    in order, from one tagged walk per WALK_SOURCES sources: a reached state
    goes to the source of each bit of its tag."""
    for k in range(0, len(sources), WALK_SOURCES):
        batch = sources[k:k + WALK_SOURCES]
        found: list[list] = [[] for _ in batch]
        for s2, tags in walk({s: 1 << i for i, s in enumerate(batch)}).items():
            if not tags & (tags - 1):
                found[tags.bit_length() - 1].append(s2)
                continue
            bits = bin(tags)[:1:-1]  # bit i at position i
            i = bits.find("1")
            while i >= 0:
                found[i].append(s2)
                i = bits.find("1", i + 1)
        yield from zip(batch, found)


def image(m: KatModel, t: KatTerm, sources: Iterable[int],
          backward: bool = False) -> dict[int, frozenset[int]]:
    """Per-source images (preimages if `backward`) of distinct sources."""
    out: dict[int, frozenset[int]] = {}
    singles: dict[int, frozenset[int]] = {}  # shared one-state images
    for s, f in walk_sources(compiled(m, _compile, t, backward), list(sources)):
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
    return frozenset(compiled(m, _compile, t, False)(dict.fromkeys(states, 1)))


def kat_pre(m: KatModel, t: KatTerm, states: Iterable[int]) -> frozenset[int]:
    """Preimage of a state set under a term (image under the converse)."""
    return frozenset(compiled(m, _compile, t, True)(dict.fromkeys(states, 1)))


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
