"""Semantic oracles for the relational judgment forms.

No oracle builds a relation matrix.  Each reads the programs through one
compiled representation, `PostMap` images over successor tables and test
bytes, and the pre-relation (bsim's post) as rows: a left state with all
its right partners, a chunk at a time (`_row_chunks`: 64 pairs, then 128,
...), with the left images of a chunk computed in one batch, so a check
that stops at an early counterexample computes few images.

The rows are read through one row reader per check (`_PreRows`), which does
the right-side work of each distinct row once: it fills the right images of
the row's partners, takes D, the union of those images, and for the class walk
the row's right class keys.  R;<c|d> factors through the rows of R, so a
row's work serves every left state that shares it.  The reader keeps a row
by its id for the whole check only where the id cannot be reused: the
template rows that `PairSpec` builds once and shares (`shares_rows`).  A
row made for one left state, a one-partner list or a row filtered by
residual atoms, is filled with its chunk and kept in no memo.  ∀∀ decides
each class (cpost[a], D) of a shared row once per check, at the first left
state in pre order that reaches it, so the counterexample is the one a pair
loop finds.

The pointwise routes read a pair predicate through the keys of its
`PairPred` (`PairSpec.pred`): ∀∀ tests a row's cpost[a] x D at once,
a single pair by comparing its two keys, a larger product by asking that
the keys of cpost[a] and of D be one and the same key (where the pre
shares its rows, D's one key is made once per row); fsim and bsim look a
key up among the keys of a set of ends.  Where a residual atom remains, or
a row fails, the pairs are tested one by one, so the first failing pair,
and every counterexample, is the one a pair loop finds.

∀∀, forward and backward simulation each run a second route that reads the
relations another way, and raise `RouteDisagreement` if the routes differ:

- ∀∀ (R;<c|d>;!S = 0): pointwise, cpost[a] x D through the post predicate;
  equational, D against the states S-related to all of cpost[a], read
  through the post's partner enumeration.
- fsim (R°;c <= d;S°): per pre pair (a, b) and end t of a, pointwise, an end
  of d(b) that the post predicate relates to t; point-free, an end of d(b) in
  S(t), the enumerated post partners of t.
- bsim (c;S <= R;d) is fsim of the converse, S°;c° <= d°;R°, one loop
  with fsim (`_check_sim`): per post row t, partner t2 and left start a, a
  preimage of t, pointwise, a right preimage of t2 that the pre predicate
  relates to a; point-free, a right preimage of t2 among the pre partners
  of a.  Its first counterexample is the first in that order (post row,
  then partner, then left start), told as (a, t, t2).

The ∀∀ equational and fsim point-free routes read the post through its
per-state partner sets (`PairSpec.partner_sets`), and bsim's the pre.  The
rows a check reads, and those partner sets, are refused by one rule
(`PairSpec.rows`): above the cap PAIR_ENUM_CAP, up front where residual
atoms filter every candidate, and otherwise once the candidates built would
pass it.  So a counterexample found within the cap is reported, and a check
that holds refuses after reading the cap's worth; a second route whose
enumeration is refused is dropped.

∀∀ reads a pre whose left states have at most one partner each as two
columns (`PairSpec.one_partner`; residual atoms filter them), sliced into
chunks with no row per state (`_column_chunks`); the identity pre's chunks
are two ranges, whose ends a framed `PostMap` slices from its end column.
Under a keyed post, a chunk with no image of several states is decided in
bulk on the programs' ends (`PostMap.ends`): pointwise, the keys of the left
ends against those of the right ends, as two lists; equational, each right
end among the post partners of its left end, asked once per distinct left
end.  Pairs with no run on a side hold.  A chunk that a route does not pass
in bulk becomes rows, gets its images from the ends already asked
(`PostMap.keep_ends`), so that no state is asked twice, and goes through the
row loop, as every chunk of any other pre does (`_row_chunks`), so
counterexamples do not change.

The derived kinds have no oracle of their own: `DUALS` reads each through a
base oracle on the same programs and pre, and `check_derived` negates the
post, and the base's verdict and routes, where the table says.  ∃∀ is the
negation of fsim against the negated post; ∃∃ that of ∀∀, R;<c|d>;!S != 0;
incorrectness is bsim, c;S <= R;d.  A negated base's counterexample is the
derived kind's witness, `<kind>-witness`, with the base's states and text;
∃∀'s (a, b, t) is told of its own post: a left run from a to t, to which
every right run from b ends post-related.

One class walk (`_class_walks`) serves adequacy and witness validity.  A
term split at its longest prefix of one-sided factors, which commute, is
<p|q> ; rest, so a source (a, b) is decided by its class, the `PostMap`
images (p(a), c(a), q(b), d(b)).  Per chunk, rest is walked once, as rows of
tagged pairs (`witness.term_tags`), from the start pairs p(a) x q(b) of the
classes new in the chunk, one tag bit per class.  Adequacy reads coverage of
c(a) x d(b) from the tags, and validity its conditions; a failing class
names its first source in pre order, and that its first failing pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial, reduce
from itertools import chain, compress, islice, repeat, takewhile
from operator import and_, contains, is_not, itemgetter

from ..bi.terms import BiKatTerm, bnot, bseq, seq_chain, unembed
from ..kat.terms import KatTerm, kseq
from ..models.bmodel import BiModel
# no oracle calls it; perfbench's tracer wraps `oracles.interp_kat` by name
from ..models.kmodel import WALK_SOURCES, interp_kat  # noqa: F401
from ..stats import phase
from .core import (NO_RUN, SEVERAL, Counterexample, EnumRefused, Judgment,
                   PairPred, PairSpec, PostMap, RelSpec, pair_spec, post_map)


@dataclass
class JudgeResult:
    kind: str
    holds: bool
    counterexample: Counterexample | None = None
    routes: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


class RouteDisagreement(AssertionError):
    """Two independent evaluations of one judgment disagreed: the pointwise
    and the equational or point-free route, or a valid witness and the
    simulation oracle.  Raised explicitly, so `python -O` keeps it."""


def _spec_views(bm: BiModel, j: Judgment, backward: bool = False) -> tuple[PairSpec, PairSpec]:
    """The pre and post specs of `j`; of its converse, post and pre, if `backward`."""
    r, s = pair_spec(bm, j.spec.pre), pair_spec(bm, j.spec.post)
    return (s, r) if backward else (r, s)


def _two_routes(kind: str, cex: tuple | None, render, route: str,
                verdict: bool | None) -> JudgeResult:
    """The result of a check whose pointwise route found `cex` (None if it
    holds), rendered by `render(*cex)`, and whose second route gave `verdict`
    (None if dropped)."""
    pointwise = cex is None
    result = JudgeResult(kind, pointwise, None if pointwise else
                         Counterexample(kind, cex, render(*cex)))
    result.routes["pointwise"] = pointwise
    if verdict is not None:
        result.routes[route] = verdict
        if verdict != pointwise:
            raise RouteDisagreement(f"{kind}: pointwise={pointwise} {route}={verdict}")
    return result


def _row_chunks(r: PairSpec, most: int | None = None):
    """The rows of `r` in state order, a chunk at a time.  A chunk closes
    once it holds 64 pairs, then 128, ... (at most `most` after the first),
    so that a check that stops at an early counterexample computes few
    images.  Each chunk's rows are pulled in phase "rows", which is never
    open across a yield."""
    rows, size = r.rows(), 64
    while True:
        chunk, count = [], 0
        with phase("rows"):
            for row in rows:
                chunk.append(row)
                count += len(row[1])
                if count >= size:
                    break
        if not chunk:
            return
        yield chunk
        size = size * 2 if most is None else min(size * 2, most)


class _PreRows:
    """The row reader of one check (see the module docstring): `fill` fills
    a chunk's left images under `cpost` and `fill_right` the right images,
    under `dpost` and `qpost` if given, of rows whose left state has runs;
    `union` gives a row's D and `keys` its right class keys (q(b), d(b)).
    A shared row is filled, and its D and keys made, once per check."""

    def __init__(self, r: PairSpec, cpost: PostMap, dpost: PostMap,
                 qpost: PostMap | None = None):
        self.r, self.cpost, self.dpost, self.qpost = r, cpost, dpost, qpost
        shared = r.shares_rows  # else no memo (None): rows made per left state
        self.filled: set[int] | None = set() if shared else None
        self.unions: dict[int, frozenset[int]] | None = {} if shared else None
        self.classes: dict[int, set] | None = {} if shared else None

    def fill(self, chunk: list) -> list:
        """`chunk`, with the left images of its states computed, and the
        right images of its rows whose left state has runs."""
        with phase("rows"):
            cimg = self.cpost.fill(a for a, _ in chunk)
            self.fill_right(bs for a, bs in chunk if cimg[a])
        return chunk

    def fill_right(self, rows) -> None:
        """Compute the right images of `rows` not filled before."""
        if self.filled is not None:
            rows = {id(bs): bs for bs in rows if id(bs) not in self.filled}
            self.filled.update(rows)
            rows = rows.values()
        states = list(chain.from_iterable(rows))
        self.dpost.fill(states)
        if self.qpost is not None:
            self.qpost.fill(states)

    def union(self, row: list[int]) -> frozenset[int]:
        """D, the union of the right images of `row`."""
        memo = self.unions
        got = None if memo is None else memo.get(id(row))
        if got is None:
            got = frozenset().union(*map(self.dpost.images.__getitem__, row))
            if memo is not None:
                memo[id(row)] = got
        return got

    def keys(self, row: list[int]) -> set:
        """The right class keys (q(b), d(b)) of a shared row."""
        got = self.classes.get(id(row))
        if got is None:
            qimg, dimg = self.qpost.images, self.dpost.images
            got = self.classes[id(row)] = set(zip(map(qimg.__getitem__, row),
                                                  map(dimg.__getitem__, row)))
        return got


def _run_rows(r: PairSpec, cpost: PostMap, dpost: PostMap):
    """(a, partners, cpost[a]) for each pre row whose left state a has runs,
    with the right images of its partners computed."""
    cimg = cpost.images
    for chunk in map(_PreRows(r, cpost, dpost).fill, _row_chunks(r)):
        for a, bs in chunk:
            cs = cimg[a]
            if cs:
                yield a, bs, cs


def _escape(post: PairPred, a: int, bs: list[int], cs, d, dimg) -> tuple | None:
    """The first run pair of a row that ends outside the post, as
    (a, b, a2, b2) with b the first partner whose image holds b2; or None."""
    hit = post.escape(cs, d)
    if hit is None:
        return None
    a2, b2 = hit
    return a, next(b for b in bs if b2 in dimg[b]), a2, b2


def check_allall(bm: BiModel, j: Judgment) -> JudgeResult:
    """Forall-forall: every pair of terminated runs from pre-related states
    ends post-related, i.e. R;<c|d>;!S = 0.

    Per pre row with runs, the pointwise route tests every (a2, b2) in
    cpost[a] x D with the post predicate; the equational route evaluates
    R;<c|d> factored by rows: D must lie inside the S-partners common to every
    state of cpost[a], cached per distinct left image.  Both routes read
    only cpost[a] and D, so where the pre shares its rows each class
    (cpost[a], D) is decided once per check, at its first left state; the
    one post key of D is then made once per row, and D's inclusion in the
    allowed set of cpost[a] tested once per (row, allowed set).  A
    chunk of a pre read as columns is first tried in bulk (`_single_ends`,
    `_keys_agree`, `_within`; see the module docstring)."""
    r, s = _spec_views(bm, j)
    cpost = post_map(bm.base, j.left)
    dpost = post_map(bm.base, j.right)
    post = s.pred
    partners = s.partner_sets()
    allowed = None if partners is None else _common_partners(partners)
    equational = True
    cex = None
    cimg, dimg = cpost.images, dpost.images
    rows = _PreRows(r, cpost, dpost)
    seen: set | None = set() if r.shares_rows else None  # (cpost[a], D) decided
    # per shared row, kept by id: the one post key of its D (None: several),
    # and whether D lies within an allowed set, by (row, allowed set)
    dkeys: dict[int, int | None] | None = {} if seen is not None and post.keyed else None
    inside: dict[tuple[int, int], bool] | None = {} if seen is not None else None
    cols = r.one_partner()
    for chunk in _row_chunks(r) if cols is None else _column_chunks(*cols):
        if cols is not None:
            lefts, rights = chunk
            if post.keyed:
                cends, lends, runs, dends = _single_ends(lefts, rights, cpost, dpost)
                if dends is not None and SEVERAL not in dends:
                    passed = cex is not None or _keys_agree(post, lends, dends)
                    if passed and allowed is not None and equational:
                        try:
                            passed = _within(partners, lends, dends)
                        except EnumRefused:
                            allowed = None
                    if passed:
                        continue
                # the row loop's images, made from the ends asked
                cpost.keep_ends(lefts, cends)
                if dends is not None:
                    dpost.keep_ends(runs, dends)
            chunk = list(zip(lefts, map(list, zip(rights))))
        for a, bs in rows.fill(chunk):
            cs = cimg[a]
            if not cs:
                continue
            d = rows.union(bs)
            if seen is not None:
                if (cs, d) in seen:
                    continue
                seen.add((cs, d))
            if cex is None:
                if dkeys is not None and id(bs) not in dkeys:
                    dkeys[id(bs)] = post.right_key(d)
                if dkeys is None or not post.keyed_by(cs, dkeys[id(bs)]):
                    cex = _escape(post, a, bs, cs, d, dimg)
            if allowed is not None and equational:
                try:
                    within = allowed(cs)
                except EnumRefused:
                    allowed = None
                else:
                    if inside is None:
                        equational = d <= within
                    else:
                        key = id(bs), id(within)  # allowed sets live for the check
                        if key not in inside:
                            inside[key] = d <= within
                        equational = inside[key]
            if cex is not None and (allowed is None or not equational):
                break
        else:
            continue
        break  # both routes decided
    return _two_routes(
        "allall", cex,
        lambda a, b, a2, b2: f"pre {r.render_pair(a, b)} -> post {r.render_pair(a2, b2)}",
        "equational", None if allowed is None else equational)


def _column_chunks(lefts, rights):
    """(left states, partners) sliced from the columns of
    `PairSpec.one_partner`: 64 pairs, then 128, ..., as `_row_chunks`.  Where
    every left state is open, the left column is a range and the partners a
    range or an array: each chunk is a slice of both, so the identity gives
    ranges; other columns are lazy, and each chunk is two lists, pulled in
    phase "rows"."""
    k, size = 0, 64
    if isinstance(lefts, range):
        while k < len(lefts):
            yield lefts[k:k + size], rights[k:k + size]
            k, size = k + size, size * 2
        return
    lefts, rights = iter(lefts), iter(rights)
    while True:
        with phase("rows"):
            chunk = list(islice(lefts, size)), list(islice(rights, size))
        if not chunk[0]:
            return
        yield chunk
        size *= 2


def _single_ends(lefts, rights, cpost: PostMap, dpost: PostMap):
    """The ends of a column chunk (`PostMap.ends`): (the ends of its left
    states, the ends of those with runs, their partners, the partners'
    ends).  The last three are None, and no partner is asked, when a left
    end is SEVERAL."""
    cends = cpost.ends(lefts)
    if SEVERAL in cends:
        return cends, None, None, None
    lends = cends
    if NO_RUN in cends:
        runs = list(map(NO_RUN.__ne__, cends))
        lends, rights = list(compress(cends, runs)), list(compress(rights, runs))
    return cends, lends, rights, dpost.ends(rights)


def _keys_agree(post: PairPred, cends: list[int], dends: list[int]) -> bool:
    """Whether the keyed post holds at every pair of ends with a right run."""
    if NO_RUN in dends:
        runs = list(map(NO_RUN.__ne__, dends))
        cends, dends = compress(cends, runs), compress(dends, runs)
    return list(map(post.lk.__getitem__, cends)) == list(map(post.rk.__getitem__, dends))


def _within(partners, cends: list[int], dends: list[int]) -> bool:
    """Whether each right end lies among the post partners of its left end.
    The partners are asked for once per distinct left end, in order of first
    occurrence.  If the cap refuses one, they are asked again in row order,
    also where the right side has no run: the ends before it are known, so
    this meets the first failure or the refusal that the row loop meets."""
    distinct = dict.fromkeys(cends)
    try:
        get = dict(zip(distinct, map(partners, distinct))).__getitem__
    except EnumRefused:
        get = partners
    if NO_RUN in dends:
        return all(e == NO_RUN or e in p for p, e in zip(map(get, cends), dends))
    return all(map(contains, map(get, cends), dends))


def _common_partners(partners):
    """cs -> the right states S-related to every state of cs, memoized per
    distinct cs, from `partners`, the post's `PairSpec.partner_sets`."""
    known: dict[frozenset[int], frozenset[int]] = {}

    def allowed(cs: frozenset[int]) -> frozenset[int]:
        got = known.get(cs)
        if got is None:
            # reduce keeps a one-state image's set itself, not a copy
            got = known[cs] = reduce(and_, map(partners, cs))
        return got
    return allowed


def _one_sided_prefix(b: BiKatTerm, backward: bool = False
                      ) -> tuple[KatTerm, KatTerm, BiKatTerm]:
    """(p, q, rest) with b = <p|q> ; rest: the longest prefix of b's sequence
    chain made of one-sided factors, `<c]`, `[d>` and one-sided tests, which
    commute, split into p, the sequence of its left parts, and q, of its
    right parts; rest is the remainder of the chain.  With `backward`, the
    longest such suffix: b = rest ; <p|q>."""
    step = -1 if backward else 1
    factors = seq_chain(b)[::step]
    sides = list(takewhile(partial(is_not, None), map(unembed, factors)))
    return (kseq(*(k for s, k in sides[::step] if s == "L")),
            kseq(*(k for s, k in sides[::step] if s == "R")),
            bseq(*factors[len(sides):][::step]))


def _class_walks(bm: BiModel, r: PairSpec, c: KatTerm, d: KatTerm, p: KatTerm,
                 q: KatTerm, walk, backward: bool = False, every: bool = True):
    """The class walk (see the module docstring) of the pairs of `r`, in
    chunks of 64, 128, ... up to WALK_SOURCES, keyed by the images (the
    preimages if `backward`) of p, c, q and d; a class with no run on a side
    is walked only if `every`.  Per chunk: (bits, tags, sources, more), a
    bit per new class, the rows `walk` reaches from their start pairs with
    those bits, `sources()`, the chunk's ((a, b), class) in pre order, and
    `more()`, whether pairs are left after the chunk."""
    cpost, dpost, ppost, qpost = (post_map(bm.base, t, backward) for t in (c, d, p, q))
    cimg, dimg, qimg = cpost.images, dpost.images, qpost.images
    rows = _PreRows(r, cpost, dpost, qpost)
    seen: set = set()  # the classes of earlier chunks
    chunks = _row_chunks(r, WALK_SOURCES)
    for chunk in chunks:
        with phase("rows"):
            cpost.fill(map(itemgetter(0), chunk))
            if not every:  # no class of a source with no left run is walked
                chunk = [(a, bs) for a, bs in chunk if cimg[a]]
            rows.fill_right(map(itemgetter(1), chunk))
            pimg = ppost.fill(map(itemgetter(0), chunk))
        if r.shares_rows:
            new = {(pimg[a], cimg[a]) + k for a, bs in chunk for k in rows.keys(bs)}
        else:  # a row per left state: its keys pair by pair
            new = {(pimg[a], cimg[a], qimg[b], dimg[b]) for a, bs in chunk for b in bs}
        new -= seen
        seen |= new
        bits = dict(zip(new, map((1).__lshift__, range(len(new)))))
        starts: dict[int, dict[int, int]] = {}
        for (ps, cs, qs, ds), bit in bits.items():
            for s in ps if qs and (every or cs and ds) else ():
                row = starts.setdefault(s, {})
                for s2 in qs:
                    row[s2] = row.get(s2, 0) | bit

        def sources(chunk=chunk, pimg=pimg):
            for a, bs in chunk:
                for b in bs:
                    yield (a, b), (pimg[a], cimg[a], qimg[b], dimg[b])
        yield bits, walk(starts) if starts else {}, sources, \
            lambda: next(chunks, None) is not None


def _grouped(pairs) -> dict:
    """Each key of `pairs`, (key, bit), with the OR of its bits."""
    out: dict = {}
    for k, bit in pairs:
        out[k] = out.get(k, 0) | bit
    return out


def check_adequacy(bm: BiModel, pre, c: KatTerm, d: KatTerm, b: BiKatTerm) -> JudgeResult:
    """R;<c|d> <= R;B: the aligned term covers all run pairs from the pre.
    The class walk (`_class_walks`) reads the pre pairs at the one-sided
    prefix of B, rest walked by `witness.term_tags`; a class is covered when
    every (t, t2) in c(a) x d(b) carries its bit.  The check stops at the
    first chunk with an uncovered class."""
    from . import witness  # local import: witness builds on oracles' types
    r = pair_spec(bm, pre)
    p, q, rest = _one_sided_prefix(b)
    for bits, tags, sources, _ in _class_walks(
            bm, r, c, d, p, q, lambda rows: witness.term_tags(bm, rest, rows), every=False):
        failing = 0
        for (cs, ds), mask in _grouped(((k[1], k[3]), bit) for k, bit in bits.items()).items():
            got = mask  # the classes whose bit every pair of cs x ds has
            for t in cs:
                got = reduce(and_, map(tags.get(t, {}).get, ds, repeat(0)), got)
            failing |= mask & ~got
        if failing:
            (a, b2), k = next(x for x in sources() if bits.get(x[1], 0) & failing)
            hit = next((t, t2) for t in k[1] for t2 in k[3]
                       if not tags.get(t, {}).get(t2, 0) & bits[k])
            return JudgeResult("adequacy", False, Counterexample(
                "adequacy", (a, b2) + hit, f"run pair from {r.render_pair(a, b2)} "
                f"to {r.render_pair(*hit)} not covered"))
    return JudgeResult("adequacy", True)


def _check_sim(bm: BiModel, j: Judgment, backward: bool = False) -> JudgeResult:
    """Forward simulation: each left run from a pre-related pair is matched by
    some right run ending post-related, R°;c <= d;S°.  Backward simulation,
    c;S <= R;d: each left run a -> t whose end is post-related to some t2
    is matched by a right run to t2 from a pre partner of a; it is forward
    simulation of the converse, S°;c° <= d°;R°, read with the pre and post
    swapped and the programs' preimage maps.

    Per row of the pre (of the post, if `backward`), partner b and end t in
    cpost[a] (a left start, if `backward`), the pointwise route looks in
    d(b) for an end that the post predicate relates to t; the point-free
    route tests that d(b) meets S(t), the post partners of t, memoized per
    t.  A backward counterexample (t, t2, a) is told as (a, t, t2)."""
    r, s = _spec_views(bm, j, backward)
    cpost = post_map(bm.base, j.left, backward)
    dpost = post_map(bm.base, j.right, backward)
    post = s.pred
    partners = s.partner_sets()
    pointfree = True
    cex = None
    dimg = dpost.images
    ends = ((a, b, t, dimg[b]) for a, bs, cs in _run_rows(r, cpost, dpost)
            for b in bs for t in cs)
    for a, b, t, ds in ends:
        if cex is None and not post.some(t, ds):
            cex = (a, b, t)
        if partners is not None and pointfree:
            try:
                pointfree = not ds.isdisjoint(partners(t))
            except EnumRefused:
                partners = None
        if cex is not None and (partners is None or not pointfree):
            break
    sp = bm.space
    if backward:
        kind, cex = "bsim", None if cex is None else (cex[2], *cex[:2])
        render = (lambda a, t, t2: f"left run {sp.state_str(a)} -> {sp.state_str(t)} "
                  f"with post partner {sp.state_str(t2)} has no pre-related right run")
    else:
        kind = "fsim"
        render = (lambda a, b, t: f"pre {r.render_pair(a, b)}: left run to "
                  f"{sp.state_str(t)} has no post-related right run")
    return _two_routes(kind, cex, render, "pointfree",
                       None if partners is None else pointfree)


check_fsim = partial(_check_sim, backward=False)
check_bsim = partial(_check_sim, backward=True)


# derived kind -> (base kind, negate the post?, negate the verdict?)
DUALS = {
    "existsforall": ("fsim", True, True),
    "existsexists": ("allall", False, True),
    "incorrectness": ("bsim", False, False),
}


def check_derived(kind: str, bm: BiModel, j: Judgment) -> JudgeResult:
    """A derived judgment of `kind`, read through its base oracle (`DUALS`)
    on the same programs and pre: each route of the base is reported, negated
    with the verdict.  A negated base's counterexample is the witness, told
    of the judgment's own post."""
    base, neg_post, neg_verdict = DUALS[kind]
    post = bnot(j.spec.post) if neg_post else j.spec.post
    sub = ORACLES[base](bm, Judgment(base, j.left, j.right, RelSpec(j.spec.pre, post)))
    cex = sub.counterexample
    if neg_verdict and cex is not None:
        text = cex.rendered
        if neg_post:  # fsim's text speaks of the negated post
            a, b, t = cex.states
            text = (f"pre {pair_spec(bm, j.spec.pre).render_pair(a, b)}: left run to "
                    f"{bm.space.state_str(t)}, every right run post-related to it")
        cex = Counterexample(f"{kind}-witness", cex.states, text)
    return JudgeResult(kind, sub.holds != neg_verdict, cex,
                       {route: v != neg_verdict for route, v in sub.routes.items()})


check_existsforall = partial(check_derived, "existsforall")
check_existsexists = partial(check_derived, "existsexists")
check_incorrectness = partial(check_derived, "incorrectness")

ORACLES = {
    "allall": check_allall,
    "fsim": check_fsim,
    "bsim": check_bsim,
    "existsforall": check_existsforall,
    "existsexists": check_existsexists,
    "incorrectness": check_incorrectness,
}


def dispatch(bm: BiModel, j: Judgment) -> JudgeResult:
    return ORACLES[j.kind](bm, j)
