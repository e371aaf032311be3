"""Judgment data and enumerable views of pair relations.

`PairSpec` turns a bitest into something the oracles can iterate.  It
analyses conjunctions of one-sided conditions and expression comparisons
whose right side reads one state field.  On a structured space it computes a
field layout once per spec: the offsets of the fields an equality pins to a
left-state value, the value lists of compared fields, one list of bit
patterns for the free fields, and byte tables for the one-sided conditions.
A right candidate is then a template ORed with a pattern; the patterns that
pass the right-side conditions are found once per template.  Anything outside
that fragment falls back to full-product filtering, which is refused above a
size cap rather than allowed to run forever.

`PostMap` memoizes per-state images of a program term; `fill` computes the
missing images of a whole batch of states in one walk of the compiled term.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..bi.terms import (BAnd, BEmbLTest, BEmbRTest, BiTestTerm, BNot, BOne,
                        BOr, BPrim, BZero)
from ..kat.terms import KatTerm, tand
from ..models.bmodel import BiModel, BitestSem
from ..models.imp import CMP_OPS, ImpEnv
from ..models.kmodel import image, kat_post, kat_pre, test_table
from ..models.rel import Rel

PAIR_ENUM_CAP = 4_000_000
FULL_PRODUCT_CAP = 1024


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

    def right_field(self):
        """The one field the right expression reads, or None."""
        return self.env.field_of(self.rexpr)


def compile_pred(bm: BiModel, t: BiTestTerm):
    """Compile a bitest to a pair predicate closure; membership tests become
    list and byte-table lookups instead of term walks."""
    if isinstance(t, BZero):
        return lambda a, b: False
    if isinstance(t, BOne):
        return lambda a, b: True
    if isinstance(t, BPrim):
        sem = bm.bitest(t.name)
        if isinstance(sem, ExprBitest):
            lv, rv, cmp = sem.lvals(), sem.rvals(), sem.cmp
            return lambda a, b: cmp(lv[a], rv[b])
        return sem.holds
    if isinstance(t, BEmbLTest):
        table = test_table(bm.base, t.test)
        return lambda a, b: table[a] == 1
    if isinstance(t, BEmbRTest):
        table = test_table(bm.base, t.test)
        return lambda a, b: table[b] == 1
    if isinstance(t, BNot):
        inner = compile_pred(bm, t.arg)
        return lambda a, b: not inner(a, b)
    subs = [compile_pred(bm, x) for x in t.args]
    if isinstance(t, BOr):
        return lambda a, b: any(p(a, b) for p in subs)

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
    kind: str  # allall | fsim | bsim | existsforall | existsexists | incorrectness
    left: KatTerm
    right: KatTerm
    spec: RelSpec


@dataclass(frozen=True)
class Counterexample:
    condition: str
    states: tuple[int, ...]
    rendered: str = ""


class PostMap:
    """Per-state images of a term, computed on demand and memoized."""

    def __init__(self, model, term: KatTerm, backward: bool = False):
        self.model = model
        self.term = term
        self.backward = backward
        self._cache: dict[int, frozenset[int]] = {}

    def __getitem__(self, state: int) -> frozenset[int]:
        got = self._cache.get(state)
        if got is None:
            f = kat_pre if self.backward else kat_post
            got = f(self.model, self.term, (state,))
            self._cache[state] = got
        return got

    def fill(self, states) -> None:
        """Compute the missing images of a batch of states together."""
        cache = self._cache
        missing = [s for s in dict.fromkeys(states) if s not in cache]
        if missing:
            cache.update(image(self.model, self.term, missing, self.backward))


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
    forced: list[tuple[int, int, list[int]]]  # (offset, width, left values)
    pinned: list[tuple[int, int, object, list[int]]]  # comparisons on forced fields
    compared: list[tuple[int, int, list]]  # (offset, width, [(cmp, left values)])
    patterns: list[int]  # every value of the free fields, as bits
    preds: list  # residual pair predicates


class PairSpec:
    """Enumerable view of a bitest's pair relation in a model."""

    def __init__(self, bm: BiModel, term: BiTestTerm):
        self.bm = bm
        self.term = term
        self.n = bm.space.size
        self._pairs: list[tuple[int, int]] | None = None
        self._left_index: dict[int, list[int]] | None = None
        self._analysis = self._analyse()
        self._layout: _Layout | None = None
        self._filtered: dict[int, list[int]] = {}
        self._pred = None

    def holds(self, s: int, s2: int) -> bool:
        if self._pred is None:
            self._pred = compile_pred(self.bm, self.term)
        return self._pred(s, s2)

    # --- conjunction analysis -------------------------------------------

    def _analyse(self):
        """Split a conjunction into left tests, right tests, residual pair
        atoms, the expression bitests that pin a right field (first `==` per
        field), and the other comparisons against one right field.  None if
        the term is not a conjunction of supported atoms over a structured
        space; `forced` is None if the relation is provably empty."""
        space = self.bm.space
        if not (space.vars or space.arrays):
            return None
        atoms = self.term.args if isinstance(self.term, BAnd) else (self.term,)
        left_f, right_f, pair_f, forced = [], [], [], {}
        compared: list[tuple] = []  # (field, ExprBitest)
        for a in atoms:
            if isinstance(a, BOne):
                continue
            if isinstance(a, BZero):
                return ([], [], [], None, [])
            if isinstance(a, BEmbLTest):
                left_f.append(a.test)
            elif isinstance(a, BEmbRTest):
                right_f.append(a.test)
            elif isinstance(a, BPrim):
                sem = self.bm.bitest(a.name)
                key = sem.right_field() if isinstance(sem, ExprBitest) else None
                if key is None:
                    pair_f.append(a)
                elif sem.op == "==" and key not in forced:
                    forced[key] = sem
                else:
                    compared.append((key, sem))
            elif isinstance(a, (BNot, BOr)):
                pair_f.append(a)
            else:
                return None
        return (left_f, right_f, pair_f, forced, compared)

    def _get_layout(self) -> _Layout:
        if self._layout is None:
            space, base = self.bm.space, self.bm.base
            left_f, right_f, pair_f, forced, compared = self._analysis

            def conj_table(tests) -> bytes | None:
                return test_table(base, tand(*tests)) if tests else None

            by_field: dict = {}
            pinned = []
            for key, sem in compared:
                off, width = space.field(key)
                if key in forced:
                    pinned.append((off, width, sem.cmp, sem.lvals()))
                else:
                    by_field.setdefault(key, (off, width, []))[2].append(
                        (sem.cmp, sem.lvals()))
            patterns = [0]
            for key in space.fields():
                if key not in forced and key not in by_field:
                    off, width = space.field(key)
                    patterns = [p | v << off for v in range(1 << width)
                                for p in patterns]
            self._layout = _Layout(
                conj_table(left_f), conj_table(right_f),
                [space.field(k) + (sem.lvals(),) for k, sem in forced.items()],
                pinned, list(by_field.values()), sorted(patterns),
                [compile_pred(self.bm, p) for p in pair_f])
        return self._layout

    def _right_candidates(self, s: int) -> list[int]:
        """Right states paired with `s`: forced fields are pinned, compared
        fields take their allowed values, the free fields every pattern."""
        lay = self._get_layout()
        if lay.left is not None and not lay.left[s]:
            return []
        tmpl = 0
        for off, width, vals in lay.forced:
            v = vals[s]
            if v >> width:
                return []
            tmpl |= v << off
        for off, width, cmp, vals in lay.pinned:
            if not cmp(vals[s], tmpl >> off & ((1 << width) - 1)):
                return []
        bases = [tmpl]
        for off, width, conds in lay.compared:
            allowed = [u for u in range(1 << width)
                       if all(cmp(vals[s], u) for cmp, vals in conds)]
            bases = [b | u << off for b in bases for u in allowed]
        if lay.right is None:
            out = [b | p for b in bases for p in lay.patterns]
        else:
            out = [b | p for b in bases for p in self._right_patterns(b)]
        for pred in lay.preds:
            out = [c for c in out if pred(s, c)]
        return out

    def _right_patterns(self, base: int) -> list[int]:
        """The free-field patterns p with base | p passing the right tests;
        many left states share a base, so each base is filtered once."""
        lay = self._layout
        if len(lay.patterns) == 1:
            return lay.patterns if lay.right[base] else []
        got = self._filtered.get(base)
        if got is None:
            right = lay.right
            got = self._filtered[base] = [p for p in lay.patterns if right[base | p]]
        return got

    def pairs(self) -> list[tuple[int, int]]:
        if self._pairs is not None:
            return self._pairs
        out: list[tuple[int, int]] = []
        n = self.n
        if self._analysis is not None:
            if self._analysis[3] is None:  # provably empty
                self._pairs = []
                return self._pairs
            lay = self._get_layout()
            lefts = n if lay.left is None else lay.left.count(1)
            estimated = lefts * len(lay.patterns)
            if estimated > PAIR_ENUM_CAP:
                raise EnumRefused(
                    f"pair enumeration of ~{estimated} pairs exceeds the cap "
                    f"{PAIR_ENUM_CAP}")
            for s in range(n):
                for s2 in self._right_candidates(s):
                    out.append((s, s2))
            self._pairs = out
            return out
        if n > FULL_PRODUCT_CAP:
            raise EnumRefused(
                f"cannot enumerate an unstructured pair relation over {n} states "
                f"(cap {FULL_PRODUCT_CAP}); express the relation as a conjunction "
                "of one-sided tests and expression equalities")
        for s in range(n):
            for s2 in range(n):
                if self.holds(s, s2):
                    out.append((s, s2))
        self._pairs = out
        return out

    def partners_left(self, s: int) -> list[int]:
        """All s2 with (s, s2) in the relation; computed per left state when
        the conjunction analysis applies, otherwise via the full pair index."""
        if self._analysis is not None:
            if self._analysis[3] is None:
                return []
            if self._left_index is None:
                self._left_index = {}
            got = self._left_index.get(s)
            if got is None:
                got = self._right_candidates(s)
                self._left_index[s] = got
            return got
        if self._left_index is None:
            idx: dict[int, list[int]] = {}
            for a, b in self.pairs():
                idx.setdefault(a, []).append(b)
            self._left_index = idx
        return self._left_index.get(s, [])

    def as_rel(self) -> Rel:
        return Rel.of_pairs(self.n, self.pairs())

    def is_empty(self) -> bool:
        return not self.pairs()

    def render_pair(self, s: int, s2: int) -> str:
        sp = self.bm.space
        return f"left={sp.state_str(s)} right={sp.state_str(s2)}"


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
