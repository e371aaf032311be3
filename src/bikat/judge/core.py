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
and kept, one list shared by the left states with that template: `rows`
maps the template column through a dict whose `__missing__` builds a new
template's row (`_TemplateRows`), so Python runs per state only where
residual atoms filter a row into a new list.  No reader changes a row.  From
the split it computes a field layout once per spec: byte tables for the
tests of each side, the fields that an `==` bitest forces to a left-state
value (the first `==` per right field whose right side is that field), one
ascending list of bit patterns for the other fields (one pattern per state
on a space without fields), filtered once by the right tests that read no
forced field, and residual filters for every other atom.  The forced fields
of the right partners of every left state are built at once, as a template
column lifted from the footprints of the left expressions; the identity
relation's template column is `range(n)`, with nothing lifted.  A right
candidate is a template ORed with a pattern, so a row is in state order.
With one pattern, 0, a left state has at most one partner, its template:
`one_partner` gives such a relation as two columns, filtered by the residual
atoms, which `rows` reads too.  `shares_rows` says whether
each row `rows` yields is a kept template row, or one made for its left
state (a one-partner list, or a row filtered by residual atoms).
Enumeration is refused before it starts, never truncated, when an estimate
of its candidates exceeds the one cap `PAIR_ENUM_CAP`.

`PostMap` memoizes per-state images of a program term in `images`; `fill`
computes the missing images of a whole batch of states in one walk of the
compiled term.  `ends` gives each state's end: its one end state, NO_RUN or
SEVERAL.  A framed term (`kmodel.frame_mask`) reads and writes only its
footprint, so a state s ends where its projection r = s & mask ends, moved
by s - r; its preimages are lifted the same way.  At first its ends come
from the projections: a batch walks only the projections not walked before,
and the ends are computed at C level, with no image per state.  Once the
states asked of the map reach its projection count, and a `COLUMN_SHARE` of
the space, it walks every projection and keeps one end column,
s -> s + e(r) - r, built as a successor table is (`StateSpace.moved`);
ends are then one lookup a state, and the images `fill` makes come from
the same column.  So the column never walks more projections than states
were asked, and a check that stops early pays for no column over the whole
space.  Ends asked for a range of states are then one slice of the
column, and `keep_ends` makes the images of states whose ends are known
from those ends, so that they are not asked again.  Any other term decodes
its ends from the images `fill` returns.
`post_map` keeps one map per term and direction, and `pair_spec` one spec
per bitest, in the model's store (`kmodel.compiled`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat, tee
from operator import add, and_, itemgetter
from typing import Iterator

from ..bi.terms import (BAnd, BiTestTerm, BNot, BOne, BOr, BPrim, BZero,
                        side_test)
from ..kat.terms import KatTerm, TestTerm, tand
from ..models.bmodel import BiModel, BitestSem
from ..models.imp import CMP_OPS, ImpEnv
# PostMap computes no image through them; perfbench's tracer wraps
# `core.kat_post` and `core.kat_pre` by name
from ..models.kmodel import (compiled, frame_mask, image, kat_post,  # noqa: F401
                             kat_pre, test_table)

PAIR_ENUM_CAP = 4_000_000


class EnumRefused(Exception):
    pass


class ExprBitest(BitestSem):
    """Bitest comparing a left-state expression with a right-state one,
    both compiled when it is built, so that a name the space lacks is
    refused then, as in a program.  The per-state value lists of both sides
    are filled on first use, so a membership test costs two list lookups."""

    def __init__(self, env: ImpEnv, lexpr, op: str, rexpr):
        env.compile_expr(lexpr), env.compile_expr(rexpr)
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
        ds and of cs are one and the same key (`right_key`, `keyed_by`);
        otherwise, or when that test fails, the pairs are tested one by
        one."""
        if self.keyed:
            if len(cs) == 1 == len(ds):
                (a,), (b,) = cs, ds
                if self.lk[a] == self.rk[b]:
                    return None
            elif self.keyed_by(cs, self.right_key(ds)):
                return None
        holds = self.holds
        for a in cs:
            for b in ds:
                if not holds(a, b):
                    return a, b
        return None

    def right_key(self, ds) -> int | None:
        """The one right key of every state of `ds`, for keys that decide;
        None if they have several."""
        keys = set(map(self.rk.__getitem__, ds))
        return keys.pop() if len(keys) == 1 else None

    def keyed_by(self, cs, key: int | None) -> bool:
        """Whether every state of `cs` has the left key `key`, so that the
        predicate holds on cs x ds for any ds whose one right key it is."""
        return key is not None and all(map(key.__eq__, map(self.lk.__getitem__, cs)))

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


# A framed `PostMap` builds its end column once the states asked of it reach
# its projection count and also this share of the space.  At 32768 states
# (2 vCPU Xeon, Python 3.11) the column of a loop-tiling side, 128 or 256
# projections, took 0.4-1.1 ms to build, and asking 4032 states by their
# projections 0.6-1.2 ms: about an eighth of the space costs what the
# column does.  Built on the projection count alone, the column of
# loop-tiling~mutant's ∀∀, which stops after 128 states, raised peak RSS by
# about 1 MB over a refute run for states nobody asks.
COLUMN_SHARE = 8

# values of `PostMap.ends` that are not an end state
NO_RUN, SEVERAL = -1, -2


class PostMap:
    """Per-state images of a term, computed on demand and memoized in
    `images` (state -> image, for the states computed so far).  A framed
    term keeps, for each footprint projection r it walked, the shift e - r
    when r has one end e, and otherwise r's image; once the states asked of
    it reach its projection count and a `COLUMN_SHARE` of the space, it
    walks every projection and reads ends from its end column instead
    (`_column`)."""

    def __init__(self, model, term: KatTerm, backward: bool = False):
        self.model = model
        self.term = term
        self.backward = backward
        self.images: dict[int, frozenset[int]] = {}
        self._mask = frame_mask(model, term)  # None: not framed
        self._shift: dict[int, int] = {}  # projection with one end -> shift
        self._proj: dict[int, frozenset[int]] = {}  # other projections
        self._ends = None  # a framed term's end column, made when due
        if self._mask is not None:  # states to ask before the column is built
            self._due = max(1 << self._mask.bit_count(),
                            model.space.size // COLUMN_SHARE)

    def __getitem__(self, state: int) -> frozenset[int]:
        got = self.images.get(state)
        return self.fill((state,))[state] if got is None else got

    def fill(self, states) -> dict[int, frozenset[int]]:
        """Compute the missing images of a batch of states together; the
        returned `images` then holds the image of each of `states`."""
        cache = self.images
        missing = [s for s in dict.fromkeys(states) if s not in cache]
        if missing:
            if self._mask is None:
                cache.update(image(self.model, self.term, missing, self.backward))
            else:  # shifted from the images of their footprint projections
                self.keep_ends(missing, self._framed_ends(missing))
        return cache

    def keep_ends(self, states, ends) -> None:
        """Keep the images of `states` made from `ends`, their ends as `ends`
        gave them, so that a state whose end was asked is not asked again
        for its image: one end state is a one-state image, NO_RUN the empty
        image, and SEVERAL the image of the state's projection, which the
        ends walked, shifted.  An unframed term keeps nothing: its ends were
        decoded from images it keeps."""
        if self._mask is None:
            return
        distinct = set(ends)
        # one image per distinct end state, shared as `image` shares them
        one = dict(zip(distinct, map(frozenset, zip(distinct))))
        one[NO_RUN] = frozenset()
        images = self.images
        if SEVERAL not in distinct:
            images.update(zip(states, map(one.__getitem__, ends)))
            return
        proj, mask = self._proj, self._mask
        for s, e in zip(states, ends):
            if e != SEVERAL:
                images[s] = one[e]
            else:
                r = s & mask
                images[s] = frozenset([t + s - r for t in proj[r]])

    def _framed_ends(self, states):
        """The ends of `states` under a framed term: from their projections
        until the states asked reach the build rule of the end column
        (`COLUMN_SHARE`), then from the column, one slice for a run of
        consecutive states (a range) and else one lookup a state."""
        if self._ends is None:
            self._due -= len(states)
            if self._due > 0:
                return self._projected_ends(states)
            self._column()
        if isinstance(states, range) and states.step == 1:
            return self._ends[states.start:states.stop]
        return list(map(self._ends.__getitem__, states))

    def _projected_ends(self, states: list[int]) -> list[int]:
        """Each projection r of `states` not walked before is walked once,
        and a state s whose projection has one end e ends in s + (e - r),
        computed at C level."""
        rs = list(map(and_, states, repeat(self._mask)))
        distinct = set(rs)
        proj, shift = self._proj, self._shift
        new = distinct - shift.keys() - proj.keys()
        if new:
            self._walk(sorted(new))
        if shift.keys() >= distinct:
            return list(map(add, states, map(shift.__getitem__, rs)))
        return [s + shift[r] if r in shift else SEVERAL if proj[r] else NO_RUN
                for s, r in zip(states, rs)]

    def _walk(self, rs: list[int]) -> None:
        """Walk the projections `rs` and keep what each gives."""
        proj, shift = self._proj, self._shift
        for r, img in image(self.model, self.term, rs, self.backward).items():
            if len(img) == 1:
                shift[r] = next(iter(img)) - r
            else:
                proj[r] = img

    def _column(self) -> None:
        """Build the end column of a framed term: every projection not
        walked before is walked in one batch, and the column maps s to
        s + e(r) - r where r has one end e(r), else to NO_RUN or SEVERAL, by
        the construction of a successor table (`StateSpace.moved`)."""
        space, mask, proj, shift = self.model.space, self._mask, self._proj, self._shift
        new = [r for r in space.footprint_values(mask) if r not in shift and r not in proj]
        if new:
            self._walk(new)

        def end(r: int) -> int:
            d = shift.get(r)
            return r + d if d is not None else SEVERAL if proj[r] else NO_RUN
        self._ends = space.moved(mask, end)

    def ends(self, states):
        """The end of each of `states`, a list or a range: its one end state,
        NO_RUN or SEVERAL, as a sequence of ints.  A framed term computes
        them from its projections, with no image per state, or slices them
        from its end column; any other term decodes them from the images
        `fill` returns."""
        if self._mask is not None:
            return self._framed_ends(states)
        images = self.fill(states)
        return [next(iter(img)) if len(img) == 1 else SEVERAL if img else NO_RUN
                for img in map(images.__getitem__, states)]


def post_map(model, term: KatTerm, backward: bool = False) -> PostMap:
    """The per-state image map of a term, kept in the model's store and so
    shared across oracle invocations."""
    return compiled(model, PostMap, term, backward)


@dataclass
class _Layout:
    """How to enumerate the right partners of a left state."""

    left: bytes | None  # one-sided left conditions, or None for none
    right: bytes | None  # right conditions reading a forced field, or None
    forced: list[tuple[int, int, ExprBitest]]  # (offset, width, equality)
    patterns: list[int]  # the values of the free fields that pass the other
    # right conditions, as bits, ascending
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
        self._shared: _TemplateRows | None = None  # made with the layout
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
        """The layout of the conjunction's atoms (`_split`): the first `==`
        bitest per right field whose right side reads that one field forces
        the field; each value of the fields not forced is a free pattern (a
        space without fields has one free pattern per state).  The right
        tests whose footprint (`frame_mask`) misses every forced field filter
        the patterns once; the tests of the left side, and the right tests
        that read a forced field, are byte tables; all other atoms filter."""
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
            held = 0  # the bits of the forced fields
            for key in space.fields():
                off, width = space.field(key)
                if key in forced:
                    held |= (1 << width) - 1 << off
                else:
                    patterns = [p | v << off for v in range(1 << width)
                                for p in patterns]
            patterns.sort()
            reading: list[TestTerm] = []  # right tests that read a forced bit
            free: list[TestTerm] = []  # the others hold at tmpl | p as at p
            for t in right:
                mask = frame_mask(bm.base, t)
                (reading if held & (held if mask is None else mask) else free).append(t)
            if free:
                table = _table(bm, free)
                patterns = list(compress(patterns, map(table.__getitem__, patterns)))
            self._layout = _Layout(
                _table(bm, left), _table(bm, reading),
                [space.field(k) + (sem,) for k, sem in forced.items()],
                patterns, preds)
            self._shared = _TemplateRows(self._layout)
        return self._layout

    def _columns(self) -> tuple:
        """(template, open) for every left state at once: the bits its right
        partners take on the forced fields, as a state array, and one byte
        per state, 1 where the left conditions hold, every forced value
        fits its field and, with one free pattern, 0, the template passes the
        right tests that read a forced field (None: at every state).  Each forced field's column is
        lifted from the footprint of its left expression, packed, and the
        disjoint fields are summed.  The identity, every field forced by an
        `==` whose two sides read that field and no other atom, has the
        template column `range(n)`, with nothing lifted."""
        if self._cols is None:
            lay = self._get_layout()
            space = self.bm.space
            if self._identity(lay):
                self._cols = (range(self.n), None)
                return self._cols
            packed, opened = 0, lay.left
            for off, width, sem in lay.forced:
                f, reads = sem.env.compile_expr(sem.lexpr), sem.env.reads(sem.lexpr)
                packed += space.packed(reads, _placed(f, off, width))
                fits = space.lift(reads, _fits(f, width), bytes)
                if 0 in fits:
                    opened = fits if opened is None else _both(opened, fits)
            tmpl = space.unpack(packed)
            if lay.patterns == [0] and lay.right is not None:  # one candidate
                kept = bytes(map(lay.right.__getitem__, tmpl))
                opened = kept if opened is None else _both(opened, kept)
            self._cols = (tmpl, opened)
        return self._cols

    def _identity(self, lay: _Layout) -> bool:
        """Whether the layout relates each state to itself alone: a space
        with fields, every field forced to its own left value, and no other
        atom (a right test that reads no field may have been folded into the
        patterns, if it kept the one pattern, 0)."""
        fields = self.bm.space.fields()
        return (lay.patterns == [0] and 0 < len(fields) == len(lay.forced)
                and lay.left is None is lay.right and not lay.preds and all(
                    sem.env.field_of(sem.lexpr) == sem.env.field_of(sem.rexpr)
                    for *_, sem in lay.forced))

    def _row(self, s: int, row: list[int]) -> list[int]:
        """The right partners of left state `s`: `row`, the shared row of its
        template, filtered by the residual atoms into a new list."""
        for pred in self._layout.preds:
            row = [c for c in row if pred(s, c)]
        return row

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

    def one_partner(self) -> tuple | None:
        """(left states with a partner, that partner) as columns, when the
        one free pattern is 0, so a left state's one candidate is its
        template; else None.  The columns are a range and the template
        column where every left state is open (two ranges for the identity),
        and lazy otherwise.  Residual atoms filter the open states, one
        closure call per open state, as `_row` calls them.  Refused as
        `rows`."""
        self.check_enumerable()
        if self._atoms is None:
            return (), ()
        lay = self._get_layout()
        if lay.patterns != [0]:
            return None
        if not lay.preds:
            return self._open()
        pred = lay.preds[0] if len(lay.preds) == 1 else _all_of(lay.preds)
        keep = tee(map(pred, *self._open()))
        return tuple(map(compress, self._open(), keep))

    @property
    def shares_rows(self) -> bool:
        """Whether each row `rows` yields is its template's list, kept by the
        spec and shared by the left states of that template, so that its id
        names it while the spec lives; false where a row is made for one
        left state: the one-partner lists and rows filtered by residual
        atoms."""
        if self._atoms is None:
            return True
        lay = self._get_layout()
        return lay.patterns != [0] and not lay.preds

    def _open(self) -> tuple:
        """(the open left states, their templates), lazy, in state order."""
        tmpl, opened = self._columns()
        if opened is None:
            return range(self.n), tmpl
        return compress(range(self.n), opened), compress(tmpl, opened)

    def rows(self) -> Iterator[tuple[int, list[int]]]:
        """The relation as rows, streamed: each left state with a partner, in
        order, with its right partners.  Each row is built from the template
        column when it is reached, so a reader that stops early builds few.
        Refused above the cap before any row is built."""
        cols = self.one_partner()
        if cols is not None:
            return zip(cols[0], map(list, zip(cols[1])))
        rows = map(self._shared.__getitem__, self._open()[1])
        if self._layout.preds:
            rows = map(self._row, self._open()[0], rows)
        return filter(itemgetter(1), zip(self._open()[0], rows))

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
            got = self._row(s, self._shared[tmpl[s]]) if opened is None or opened[s] else []
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


class _TemplateRows(dict):
    """template -> its unfiltered row, built on first use and shared: the
    template ORed with each free pattern (`_Layout.patterns`), kept where
    the right tests that read a forced field pass, in state order."""

    def __init__(self, layout: _Layout):
        super().__init__()
        self.layout = layout

    def __missing__(self, tmpl: int) -> list[int]:
        lay = self.layout
        row = [tmpl | p for p in lay.patterns]
        if lay.right is not None:
            row = list(compress(row, map(lay.right.__getitem__, row)))
        self[tmpl] = row
        return row


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
    """The PairSpec of a bitest, kept in the model's store: premise specs
    recur across a proof tree, and enumeration work is the dominant cost."""
    return compiled(bm, PairSpec, term)
