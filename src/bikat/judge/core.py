"""Judgment data, compiled pair predicates and enumerable views of pair
relations.

Both readers of a bitest split its conjunction once, with `_split`: the
tests of each side, the `==` expression bitests and the remaining atoms,
the other expression comparisons among them.  Which side an atom reads, and
the KAT test a one-sided atom embeds, is `bi.terms.side_test`, where
sidedness is defined once.

`compile_pred` compiles a bitest to a `PairPred`.  The `==` bitests and the
tests of each side become two key columns over states: `lk[a]` packs the
left expressions' values into one int (-1 where a left test fails), `rk[b]`
the right ones (-2 where a right test fails), each lifted from the
footprint of its expressions.  The keyed atoms hold at (a, b) exactly when
`lk[a] == rk[b]`; the remaining atoms are a residual closure tested after
the keys.  So a row of pairs is decided with C-level set operations on keys,
not one closure call per pair.  `PairSpec.pred` holds the predicate of its
bitest, built on first use and memoized with the spec by `pair_spec`.

`PairSpec` turns a bitest into rows the oracles can iterate: each left state
with its list of right partners (`rows`, in state order, streamed: a row is
built when it is reached).  `pairs` flattens the rows, and `partners_left`
builds one row the same way and keeps it.  A row is built once per template
and kept, one list shared by the left states with that template; residual
atoms filter it per state into a new list.  No reader changes a row.  From
the split it computes a field layout once per spec: byte tables for the
tests of each side, the fields that an `==` bitest forces to a left-state
value (the first `==` per right field whose right side is that field), one
ascending list of bit patterns for the other fields (one pattern per state
on a space without fields) and residual filters for every other atom.  The
forced fields of the right partners of every left state are built at once,
as a template column lifted from the footprints of the left expressions.  A
right candidate is a template ORed with a pattern, so a row is in state
order.  Enumeration is refused before it starts, never truncated, when an
estimate of its candidates exceeds the one cap `PAIR_ENUM_CAP`.

`PostMap` memoizes per-state images of a program term in `images`; `fill`
computes the missing images of a whole batch of states in one walk of the
compiled term.  A framed term (`kmodel.frame_mask`) is walked only from the
distinct footprint projections r = s & mask of the batch not walked before,
and each state gets the image of its projection shifted by s - r; its
preimages are lifted the same way.  `ends` gives each state's end: its one
end state, NO_RUN or SEVERAL.  A framed term computes them from its
projections at C level, with no image per state; any other term decodes
them from `images` once into an end column, a state array (two bytes a
state up to 32768 states) with UNKNOWN where not computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from operator import add, and_
from typing import Iterator

from ..bi.terms import (BAnd, BiTestTerm, BNot, BOne, BOr, BPrim, BZero,
                        side_test)
from ..kat.terms import KatTerm, TestTerm, tand
from ..models.bmodel import BiModel, BitestSem
from ..models.imp import CMP_OPS, ImpEnv
# PostMap computes no image through them; perfbench's tracer wraps
# `core.kat_post` and `core.kat_pre` by name
from ..models.kmodel import (frame_mask, image, kat_post, kat_pre,  # noqa: F401
                             state_array, test_table)

PAIR_ENUM_CAP = 4_000_000


class EnumRefused(Exception):
    pass


class ExprBitest(BitestSem):
    """Bitest comparing a left-state expression with a right-state one.
    The per-state value lists of both sides are filled on first use, so a
    membership test costs two list lookups."""

    def __init__(self, env: ImpEnv, lexpr, op: str, rexpr):
        super().__init__(env.space, pred=self._holds)
        self.env = env
        self.lexpr = lexpr
        self.op = op
        self.rexpr = rexpr
        self.cmp = CMP_OPS[op]
        self._lvals: list[int] | None = None
        self._rvals: list[int] | None = None

    def lvals(self) -> list[int]:
        if self._lvals is None:
            self._lvals = self.env.values(self.lexpr)
        return self._lvals

    def rvals(self) -> list[int]:
        if self._rvals is None:
            self._rvals = self.env.values(self.rexpr)
        return self._rvals

    def _holds(self, s: int, s2: int) -> bool:
        return self.cmp(self.lvals()[s], self.rvals()[s2])


class PairPred:
    """A bitest compiled to a test on state pairs (see `compile_pred`): key
    columns `lk` and `rk` (None if no atom is keyed) and the residual
    conjunction `rest` (None if every atom is keyed).  `holds(a, b)` is
    `lk[a] == rk[b]`, then `rest(a, b)`; `keyed` is true when the keys alone
    decide."""

    def __init__(self, lk: list[int] | None, rk: list[int] | None, rest):
        self.lk, self.rk, self.rest = lk, rk, rest
        self.keyed = lk is not None and rest is None
        if lk is None:
            self.holds = rest or (lambda a, b: True)
        elif rest is None:
            self.holds = lambda a, b: lk[a] == rk[b]
        else:
            self.holds = lambda a, b: lk[a] == rk[b] and rest(a, b)

    def escape(self, cs, ds) -> tuple[int, int] | None:
        """The first pair of cs x ds, in iteration order, that fails the
        predicate; None if every pair holds.  When the keys decide, one pair
        compares its two keys and a larger product holds when the keys of
        ds and of cs are one and the same key; otherwise, or when that test
        fails, the pairs are tested one by one."""
        if self.keyed:
            lk, rk = self.lk, self.rk
            if len(cs) == 1 == len(ds):
                (a,), (b,) = cs, ds
                if lk[a] == rk[b]:
                    return None
            else:
                keys = set(map(rk.__getitem__, ds))
                if len(keys) == 1 and keys == set(map(lk.__getitem__, cs)):
                    return None
        holds = self.holds
        for a in cs:
            for b in ds:
                if not holds(a, b):
                    return a, b
        return None

    def some(self, a: int, bs) -> bool:
        """Whether the predicate relates `a` to some state of `bs`."""
        if self.keyed:
            return self.lk[a] in map(self.rk.__getitem__, bs)
        holds = self.holds
        return any(holds(a, b) for b in bs)


def _split(bm: BiModel, t: BiTestTerm):
    """The atoms of the conjunction `t`, split once for every reader: the
    tests of the left side and of the right side (`side_test`: `L[..]`,
    `R[..]` and Boolean combinations of one side's tests, as KAT tests), the
    `==` expression bitests and the remaining atoms, other comparisons
    among them; `1` is dropped.  None if an atom is `0`."""
    tests: dict[str, list[TestTerm]] = {"L": [], "R": []}
    eqs: list[ExprBitest] = []
    rest: list[BiTestTerm] = []
    for a in t.args if isinstance(t, BAnd) else (t,):
        if isinstance(a, BZero):
            return None
        if isinstance(a, BOne):
            continue
        side = side_test(a)
        if side is not None:
            tests[side[0]].append(side[1])
            continue
        sem = bm.bitest(a.name) if isinstance(a, BPrim) else None
        if isinstance(sem, ExprBitest) and sem.op == "==":
            eqs.append(sem)
        else:
            rest.append(a)
    return tests["L"], tests["R"], eqs, rest


def compile_pred(bm: BiModel, t: BiTestTerm) -> PairPred:
    """Compile a bitest to a pair predicate keyed by two state columns.

    Of the atoms of the conjunction (`_split`), the `==` expression bitests
    and the tests of one side are keyed: the left column `lk[a]` packs the
    values of the left expressions into one int, or is -1 where a left test
    fails; the right column `rk[b]` packs the right expressions the same
    way, or is -2 where a right test fails.  So the keyed atoms hold at
    (a, b) exactly when `lk[a] == rk[b]`.  Each column is lifted from the
    union footprint of its expressions.  The other comparisons and the
    remaining atoms (a negation or disjunction reading both sides, an
    abstract bitest) are residual closures, tested after the keys."""
    split = _split(bm, t)
    if split is None:
        return PairPred(None, None, lambda a, b: False)
    left, right, eqs, rest = split
    subs = [_closure(bm, a) for a in rest]
    residual = (subs[0] if len(subs) == 1 else _all_of(subs)) if subs else None
    if not (eqs or left or right):
        return PairPred(None, None, residual)
    env = eqs[0].env if eqs else None
    return PairPred(_key_column(bm, env, [s.lexpr for s in eqs], left, -1),
                    _key_column(bm, env, [s.rexpr for s in eqs], right, -2),
                    residual)


def _key_column(bm: BiModel, env: ImpEnv | None, exprs: list,
                tests: list[TestTerm], fail: int) -> list[int]:
    """One key per state: the values of `exprs` packed into one int, each in
    a slot as wide as the widest value any expression can take (the
    arithmetic width or the widest field), or `fail` where a test of `tests`
    fails.  The packed values are lifted from the expressions' union
    footprint."""
    space = bm.space
    if exprs:
        fs = [env.compile_expr(e) for e in exprs]
        shift = max([env.width] + [space.field(k)[1] for k in space.fields()])

        def pack(s: int) -> int:
            key = 0
            for f in fs:
                key = key << shift | f(s)
            return key
        col = space.lift(env.reads(*exprs), pack)
    else:
        col = [0] * space.size
    table = _table(bm, tests)
    if table is None:
        return col
    return [k if ok else fail for k, ok in zip(col, table)]


def _closure(bm: BiModel, t: BiTestTerm):
    """A bitest as a closure on pairs, atom by atom: the residual atoms of
    `compile_pred` and the residual filters of `PairSpec`."""
    if isinstance(t, BZero):
        return lambda a, b: False
    if isinstance(t, BOne):
        return lambda a, b: True
    if isinstance(t, BPrim):
        sem = bm.bitest(t.name)
        return _compare(sem) if isinstance(sem, ExprBitest) else sem.holds
    side = side_test(t)
    if side is not None:
        table, left = test_table(bm.base, side[1]), side[0] == "L"
        return lambda a, b: table[a if left else b] == 1
    if isinstance(t, BNot):
        inner = _closure(bm, t.arg)
        return lambda a, b: not inner(a, b)
    subs = [_closure(bm, x) for x in t.args]
    if isinstance(t, BOr):
        return lambda a, b: any(p(a, b) for p in subs)
    return _all_of(subs)


def _compare(sem: ExprBitest):
    lv, rv, cmp = sem.lvals(), sem.rvals(), sem.cmp
    return lambda a, b: cmp(lv[a], rv[b])


def _all_of(subs: list):
    def conj(a: int, b: int) -> bool:
        for p in subs:
            if not p(a, b):
                return False
        return True
    return conj


@dataclass(frozen=True)
class RelSpec:
    pre: BiTestTerm
    post: BiTestTerm


@dataclass(frozen=True)
class Judgment:
    kind: str  # allall | fsim | bsim, or a derived kind of `oracles.DUALS`
    left: KatTerm
    right: KatTerm
    spec: RelSpec


@dataclass(frozen=True)
class Counterexample:
    condition: str
    states: tuple[int, ...]
    rendered: str = ""


# values of `PostMap.ends` that are not an end state; UNKNOWN: not computed
NO_RUN, SEVERAL, UNKNOWN = -1, -2, -3


class PostMap:
    """Per-state images of a term, computed on demand and memoized in
    `images` (state -> image, for the states computed so far).  A framed
    term keeps, for each footprint projection r it walked, the shift e - r
    when r has one end e, and otherwise r's image; any other term keeps the
    end column that `ends` reads."""

    def __init__(self, model, term: KatTerm, backward: bool = False):
        self.model = model
        self.term = term
        self.backward = backward
        self.images: dict[int, frozenset[int]] = {}
        self._mask = frame_mask(model, term)  # None: not framed
        self._shift: dict[int, int] = {}  # projection with one end -> shift
        self._proj: dict[int, frozenset[int]] = {}  # other projections
        self._ends = None  # the end column, made on first use

    def __getitem__(self, state: int) -> frozenset[int]:
        return self.fill((state,))[state]

    def fill(self, states) -> dict[int, frozenset[int]]:
        """Compute the missing images of a batch of states together; the
        returned `images` then holds the image of each of `states`."""
        cache = self.images
        missing = [s for s in dict.fromkeys(states) if s not in cache]
        if missing:
            if self._mask is None:
                cache.update(image(self.model, self.term, missing, self.backward))
            else:
                self._lift(missing)
        return cache

    def _lift(self, states: list[int]) -> None:
        """The images of `states`, none known yet, shifted from the images of
        their footprint projections."""
        ends = self._framed_ends(states)
        distinct = set(ends)
        # one image per distinct end state, shared as `image` shares them
        one = dict(zip(distinct, map(frozenset, zip(distinct))))
        images = self.images
        if min(distinct) >= 0:
            images.update(zip(states, map(one.__getitem__, ends)))
            return
        proj, mask = self._proj, self._mask
        for s, e in zip(states, ends):
            if e >= 0:
                images[s] = one[e]
            else:
                r = s & mask
                images[s] = frozenset([t + s - r for t in proj[r]])

    def _framed_ends(self, states: list[int]) -> list[int]:
        """The ends of `states` under a framed term: each projection r not
        walked before is walked once, and a state s whose projection has
        one end e ends in s + (e - r), computed at C level."""
        rs = list(map(and_, states, repeat(self._mask)))
        distinct = set(rs)
        proj, shift = self._proj, self._shift
        new = distinct - shift.keys() - proj.keys()
        if new:
            for r, img in image(self.model, self.term, sorted(new), self.backward).items():
                if len(img) == 1:
                    shift[r] = next(iter(img)) - r
                else:
                    proj[r] = img
        if shift.keys() >= distinct:
            return list(map(add, states, map(shift.__getitem__, rs)))
        return [s + shift[r] if r in shift else SEVERAL if proj[r] else NO_RUN
                for s, r in zip(states, rs)]

    def ends(self, states: list[int]) -> list[int]:
        """The end of each of `states`: its one end state, NO_RUN or SEVERAL.
        A framed term computes them from its projections, with no image per
        state; any other term reads them from the end column, a state array
        with UNKNOWN where not computed, whose missing entries are decoded
        from `images` (filled first) and kept."""
        if self._mask is not None:
            return self._framed_ends(states)
        if self._ends is None:
            n = self.model.space.size
            self._ends = state_array(n, [UNKNOWN]) * n
        col = self._ends
        got = list(map(col.__getitem__, states))
        if UNKNOWN in got:
            images = self.fill(states)
            for i, e in enumerate(got):
                if e == UNKNOWN:
                    img = images[states[i]]
                    got[i] = col[states[i]] = (
                        next(iter(img)) if len(img) == 1 else SEVERAL if img else NO_RUN)
        return got


def post_map(model, term: KatTerm, backward: bool = False) -> PostMap:
    """Memoized per-state image maps, shared across oracle invocations."""
    cache = getattr(model, "_postmap_cache", None)
    if cache is None:
        cache = {}
        model._postmap_cache = cache
    key = (term, backward)
    got = cache.get(key)
    if got is None:
        got = PostMap(model, term, backward)
        cache[key] = got
    return got


@dataclass
class _Layout:
    """How to enumerate the right partners of a left state."""

    left: bytes | None  # one-sided left conditions, or None for none
    right: bytes | None  # one-sided right conditions, or None for none
    forced: list[tuple[int, int, ExprBitest]]  # (offset, width, equality)
    patterns: list[int]  # every value of the free fields, as bits, ascending
    preds: list  # residual pair predicates


class PairSpec:
    """Enumerable view of a bitest's pair relation in a model: the layout of
    its conjunction, its template column and the rows built from them."""

    def __init__(self, bm: BiModel, term: BiTestTerm):
        self.bm = bm
        self.term = term
        self.n = bm.space.size
        self._atoms = _split(bm, term)  # None: the relation is empty
        self._layout: _Layout | None = None
        self._cols: tuple | None = None
        self._rows: dict[int, list[int]] = {}  # rows built by partners_left
        self._shared: dict[int, list[int]] = {}  # template -> its unfiltered row
        self._pred: PairPred | None = None

    @property
    def pred(self) -> PairPred:
        """The compiled pair predicate, built on first use."""
        if self._pred is None:
            self._pred = compile_pred(self.bm, self.term)
        return self._pred

    def holds(self, s: int, s2: int) -> bool:
        return self.pred.holds(s, s2)

    def _get_layout(self) -> _Layout:
        """The layout of the conjunction's atoms (`_split`): the tests of
        each side as a byte table; the first `==` bitest per right field
        whose right side reads that one field forces the field; all other
        atoms filter.  Each value of the fields not forced is a free
        pattern; a space without fields has one free pattern per state."""
        if self._layout is None:
            bm, space = self.bm, self.bm.space
            left, right, eqs, rest = self._atoms
            forced: dict = {}
            preds = [_closure(bm, a) for a in rest]
            for sem in eqs:
                key = sem.env.field_of(sem.rexpr)
                if key is None or key in forced:
                    preds.append(_compare(sem))
                else:
                    forced[key] = sem
            patterns = [0] if space.fields() else list(range(self.n))
            for key in space.fields():
                if key not in forced:
                    off, width = space.field(key)
                    patterns = [p | v << off for v in range(1 << width)
                                for p in patterns]
            self._layout = _Layout(
                _table(bm, left), _table(bm, right),
                [space.field(k) + (sem,) for k, sem in forced.items()],
                sorted(patterns), preds)
        return self._layout

    def _columns(self) -> tuple:
        """(template, open) for every left state at once: the bits its right
        partners take on the forced fields, as a state array, and one byte
        per state, 1 where the left conditions hold and every forced value
        fits its field (None: at every state).  Each forced field's column
        is lifted from the footprint of its left expression, packed, and
        the disjoint fields are summed."""
        if self._cols is None:
            lay = self._get_layout()
            space = self.bm.space
            packed, opened = 0, lay.left
            for off, width, sem in lay.forced:
                f, reads = sem.env.compile_expr(sem.lexpr), sem.env.reads(sem.lexpr)
                packed += space.packed(reads, _placed(f, off, width))
                fits = space.lift(reads, _fits(f, width), bytes)
                if 0 in fits:
                    opened = fits if opened is None else _both(opened, fits)
            self._cols = (space.unpack(packed), opened)
        return self._cols

    def _row(self, s: int, tmpl: int) -> list[int]:
        """The right partners of left state `s`, whose template is `tmpl`, in
        state order: the template with every free pattern that passes the
        right tests, built once per template and shared, then filtered by
        the residual atoms into a new list."""
        lay = self._layout
        got = self._shared.get(tmpl)
        if got is None:
            got = [tmpl | p for p in lay.patterns]
            if lay.right is not None:
                got = list(compress(got, map(lay.right.__getitem__, got)))
            self._shared[tmpl] = got
        for pred in lay.preds:
            got = [c for c in got if pred(s, c)]
        return got

    def check_enumerable(self) -> None:
        """Raise EnumRefused if an estimate of the pairs to build, every
        candidate of every open left state, exceeds PAIR_ENUM_CAP.  Nothing
        is enumerated."""
        if self._atoms is None:
            return
        lay = self._get_layout()
        lefts = self.n if lay.left is None else lay.left.count(1)
        estimated = lefts * len(lay.patterns)
        if estimated > PAIR_ENUM_CAP:
            raise EnumRefused(
                f"pair enumeration of ~{estimated} pairs exceeds the cap "
                f"{PAIR_ENUM_CAP}")

    def rows(self) -> Iterator[tuple[int, list[int]]]:
        """The relation as rows, streamed: each left state with a partner, in
        order, with its right partners.  Each row is built from the template
        column when it is reached, so a reader that stops early builds few.
        Refused above the cap before any row is built."""
        self.check_enumerable()
        if self._atoms is None:
            return iter(())
        tmpl, opened = self._columns()
        lay = self._layout
        states, ts = range(self.n), tmpl
        if opened is not None:
            states, ts = compress(states, opened), compress(tmpl, opened)
        if lay.patterns == [0] and not (lay.preds or lay.right is not None):
            # every field forced, nothing to filter: the template alone
            return zip(states, map(list, zip(ts)))
        return self._built_rows(states, ts)

    def _built_rows(self, states, ts) -> Iterator[tuple[int, list[int]]]:
        for s, t in zip(states, ts):
            row = self._row(s, t)
            if row:
                yield s, row

    def pairs(self) -> list[tuple[int, int]]:
        """The rows flattened into pairs, in order."""
        return [(s, s2) for s, row in self.rows() for s2 in row]

    def partners_left(self, s: int) -> list[int]:
        """All s2 with (s, s2) in the relation: the row of `s`, built from
        the template column as `rows` builds it, so shared, and kept."""
        if self._atoms is None:
            return []
        got = self._rows.get(s)
        if got is None:
            tmpl, opened = self._columns()
            got = self._row(s, tmpl[s]) if opened is None or opened[s] else []
            self._rows[s] = got
        return got

    def partner_sets(self):
        """t -> the right states related to t, as a set memoized per t and
        made once per distinct row.  If the cap refuses the whole relation,
        None where each state's candidates pass through residual filters (a
        comparison other than a forcing `==`, or a negation or disjunction
        reading both sides, which filters every state of a space); otherwise
        the function raises EnumRefused before enumerating a state that would
        take the candidates built past PAIR_ENUM_CAP."""
        try:
            self.check_enumerable()
            each = 0
        except EnumRefused:
            if self._layout.preds:
                return None
            each = len(self._layout.patterns)
        known: dict[int, frozenset[int]] = {}
        sets: dict[int, frozenset[int]] = {}  # one per distinct row, by identity

        def partners(t: int) -> frozenset[int]:
            got = known.get(t)
            if got is None:
                if (len(known) + 1) * each > PAIR_ENUM_CAP:
                    raise EnumRefused(
                        f"enumerating the partners of {len(known) + 1} states, up to "
                        f"{each} candidates each, exceeds the cap {PAIR_ENUM_CAP}")
                row = self.partners_left(t)  # kept by the spec: its id is not reused
                if id(row) not in sets:
                    sets[id(row)] = frozenset(row)
                got = known[t] = sets[id(row)]
            return got
        return partners

    def render_pair(self, s: int, s2: int) -> str:
        sp = self.bm.space
        return f"left={sp.state_str(s)} right={sp.state_str(s2)}"


def _placed(f, off: int, width: int):
    """A forced field's bits in the template: the left value at the field's
    offset, or 0 where it does not fit (the state is then not open)."""
    return lambda s: 0 if f(s) >> width else f(s) << off


def _fits(f, width: int):
    return lambda s: not f(s) >> width


def _table(bm: BiModel, tests: list[TestTerm]) -> bytes | None:
    """The byte table of a conjunction of tests; None for no test."""
    return test_table(bm.base, tand(*tests)) if tests else None


def _both(a: bytes, b: bytes) -> bytes:
    """The bytewise and of two 0/1 byte tables."""
    return (int.from_bytes(a, "little") & int.from_bytes(b, "little")).to_bytes(
        len(a), "little")


def pair_spec(bm: BiModel, term: BiTestTerm) -> PairSpec:
    """Memoized PairSpec per model instance: premise specs recur across a
    proof tree, and enumeration work is the dominant cost."""
    cache = getattr(bm, "_pairspec_cache", None)
    if cache is None:
        cache = {}
        bm._pairspec_cache = cache
    got = cache.get(term)
    if got is None:
        got = PairSpec(bm, term)
        cache[term] = got
    return got
