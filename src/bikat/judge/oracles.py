"""Semantic oracles for the relational judgment forms.

No oracle builds a relation matrix.  Each reads the programs through one
compiled representation, `PostMap` images over successor tables and test
bytes, and the pre-relation as rows: a left state with all its right
partners, a chunk at a time (`_pre_chunks`: 64 pairs, then 128, ...), with
the chunk's images computed in one batch, so a check that stops at an early
counterexample computes few images.  For ∀∀ every run pair of a row is in
cpost[a] x D, D the union of its partners' right images, taken once per
distinct row of a chunk (`_union`): left states share a row (`PairSpec`),
whose right images are filled once.

The pointwise routes read a pair predicate through the keys of its
`PairPred` (`PairSpec.pred`): ∀∀ tests a row's cpost[a] x D at once,
a single pair by comparing its two keys, a larger product by asking that
the keys of cpost[a] and of D be one and the same key; fsim and the bsim
point-free route look a key up among the keys of a set of ends.  Where a
residual atom remains, or a row fails, the pairs are tested one by one, so
the first failing pair, and every counterexample, is the one a pair loop
finds.

∀∀, forward and backward simulation each run a second route that reads the
relations another way, and raise `RouteDisagreement` if the routes differ:

- ∀∀ (R;<c|d>;!S = 0): pointwise, cpost[a] x D through the post predicate;
  equational, D against the states S-related to all of cpost[a], read
  through the post's partner enumeration.
- fsim (R°;c <= d;S°): per pre pair (a, b) and end t of a, pointwise, an end
  of d(b) that the post predicate relates to t; point-free, an end of d(b) in
  S(t), the enumerated post partners of t.
- bsim (c;S <= R;d): per left run a -> t and enumerated post partner t2,
  pointwise, t2 in the D of a's pre row; point-free, a right preimage of t2
  that the pre predicate relates to a.

The ∀∀ equational and fsim point-free routes read the post through its
per-state partner sets (`PairSpec.partner_sets`); a route whose enumeration
the caps refuse, up front or once it has built PAIR_ENUM_CAP candidates, is
dropped.

∀∀ takes its rows a chunk at a time without images (`_row_chunks`).  A
chunk whose rows have one partner each, under a keyed post, with no image
of several states, is decided in bulk on the programs' ends (`PostMap.ends`),
with no image per state: pointwise, the keys of the left ends against the
keys of the right ends, compared as two lists; equational, each right end
among the post partners of its left end.  Pairs with no run on a side hold.
Any other chunk, or one that a route does not pass in bulk, gets its images
and goes through the row loop, so counterexamples do not change.

The derived kinds have no oracle of their own: `DUALS` reads each through a
base oracle on the same programs and pre, and `check_derived` negates the
post, and the base's verdict and routes, where the table says.  ∃∀ is the
negation of fsim against the negated post; ∃∃ that of ∀∀, R;<c|d>;!S != 0;
incorrectness is bsim, c;S <= R;d.  A negated base's counterexample is the
derived kind's witness, `<kind>-witness`, with the base's states and text.

Adequacy (`check_adequacy`) splits the aligned term B at the longest prefix
of its chain made of one-sided factors, which commute: B = <p|q> ; rest.  A
pre pair (a, b) with runs is decided by its class, the key (p(a), c(a), q(b),
d(b)) of the `PostMap` images of the prefix and the programs.  Per chunk of
pre pairs, rest is walked once, as rows of tagged pairs, from the start pairs
p(a) x q(b) of the classes that no earlier chunk covered, one tag bit per
class (see `witness.term_tags`); coverage is read from the tags of the rows
it reaches, and the counterexample is the first uncovered pre pair in pre
order and its first uncovered run pair in image order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial, reduce
from itertools import chain, compress, takewhile
from operator import and_, contains, is_not, itemgetter

from ..bi.terms import BiKatTerm, bnot, bseq, seq_chain, unembed
from ..kat.terms import KatTerm, kseq
from ..models.bmodel import BiModel
# no oracle calls it; perfbench's tracer wraps `oracles.interp_kat` by name
from ..models.kmodel import WALK_SOURCES, interp_kat  # noqa: F401
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


def _spec_views(bm: BiModel, j: Judgment) -> tuple[PairSpec, PairSpec]:
    return pair_spec(bm, j.spec.pre), pair_spec(bm, j.spec.post)


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


def _pre_chunks(r: PairSpec, cpost: PostMap, dpost: PostMap | None,
                most: int | None = None):
    """The chunks of `_row_chunks`, with the images under `cpost` of their
    left states and, for the rows whose left state has runs, the images
    under `dpost` of their partners computed."""
    for chunk in _row_chunks(r, most):
        _fill_rows(chunk, cpost, dpost)
        yield chunk


def _row_chunks(r: PairSpec, most: int | None = None):
    """The rows of `r` in state order, a chunk at a time.  A chunk closes
    once it holds 64 pairs, then 128, ... (at most `most` after the first),
    so that a check that stops at an early counterexample computes few
    images."""
    chunk, count, size = [], 0, 64
    for row in r.rows():
        chunk.append(row)
        count += len(row[1])
        if count >= size:
            yield chunk
            chunk, count = [], 0
            size = size * 2 if most is None else min(size * 2, most)
    if chunk:
        yield chunk


def _fill_rows(chunk, cpost: PostMap, dpost: PostMap | None):
    cimg = cpost.fill(a for a, _ in chunk)
    if dpost is not None:
        rows = {id(bs): bs for a, bs in chunk if cimg[a]}  # distinct rows
        dpost.fill(chain.from_iterable(rows.values()))


def _run_rows(r: PairSpec, cpost: PostMap, dpost: PostMap):
    """(a, partners, cpost[a]) for each pre row whose left state a has runs,
    with the right images of its partners computed."""
    cimg = cpost.images
    for chunk in _pre_chunks(r, cpost, dpost):
        for a, bs in chunk:
            cs = cimg[a]
            if cs:
                yield a, bs, cs


def _union(images: dict, row: list[int], known: dict) -> frozenset[int]:
    """The union of the images of the states of `row`, taken in one set
    operation once per distinct row: `known` maps the id of each row seen to
    its union, and its caller keeps those rows alive (a chunk's)."""
    if id(row) not in known:
        known[id(row)] = frozenset().union(*map(images.__getitem__, row))
    return known[id(row)]


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
    state of cpost[a], cached per distinct left image.  A chunk of rows
    with one partner and one end each is first tried in bulk (`_single_ends`,
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
    for chunk in _row_chunks(r):
        ends = _single_ends(chunk, cpost, dpost) if post.keyed else None
        if ends is not None:
            passed = cex is not None or _keys_agree(post, *ends)
            if passed and allowed is not None and equational:
                try:
                    passed = _within(partners, *ends)
                except EnumRefused:
                    allowed = None
            if passed:
                continue
        _fill_rows(chunk, cpost, dpost)
        known: dict = {}
        for a, bs in chunk:
            cs = cimg[a]
            if not cs:
                continue
            d = _union(dimg, bs, known)
            if cex is None:
                cex = _escape(post, a, bs, cs, d, dimg)
            if allowed is not None and equational:
                try:
                    equational = d <= allowed(cs)
                except EnumRefused:
                    allowed = None
            if cex is not None and (allowed is None or not equational):
                break
        else:
            continue
        break  # both routes decided
    return _two_routes(
        "allall", cex,
        lambda a, b, a2, b2: f"pre {r.render_pair(a, b)} -> post {r.render_pair(a2, b2)}",
        "equational", None if allowed is None else equational)


def _single_ends(chunk, cpost: PostMap, dpost: PostMap):
    """(left ends, right ends) of a chunk whose rows have one partner each
    and whose images hold at most one state each: the end of each row's left
    state that has runs and the end of its partner, which may be NO_RUN
    (`PostMap.ends`); None for any other chunk."""
    if set(map(len, map(itemgetter(1), chunk))) != {1}:
        return None
    cends = cpost.ends(list(map(itemgetter(0), chunk)))
    if SEVERAL in cends:
        return None
    rights = list(map(itemgetter(0), map(itemgetter(1), chunk)))
    if NO_RUN in cends:
        runs = list(map(NO_RUN.__ne__, cends))
        cends, rights = list(compress(cends, runs)), list(compress(rights, runs))
    dends = dpost.ends(rights)
    return None if SEVERAL in dends else (cends, dends)


def _keys_agree(post: PairPred, cends: list[int], dends: list[int]) -> bool:
    """Whether the keyed post holds at every pair of ends with a right run."""
    if NO_RUN in dends:
        runs = list(map(NO_RUN.__ne__, dends))
        cends, dends = compress(cends, runs), compress(dends, runs)
    return list(map(post.lk.__getitem__, cends)) == list(map(post.rk.__getitem__, dends))


def _within(partners, cends: list[int], dends: list[int]) -> bool:
    """Whether each right end lies among the post partners of its left end.
    The partners are asked for in row order, also where the right side has
    no run, and no further than the first failure, as the row loop asks."""
    if NO_RUN in dends:
        return all(e == NO_RUN or e in p for p, e in zip(map(partners, cends), dends))
    return all(map(contains, map(partners, cends), dends))


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


def _one_sided_prefix(b: BiKatTerm) -> tuple[KatTerm, KatTerm, BiKatTerm]:
    """(p, q, rest) with b = <p|q> ; rest: the longest prefix of b's sequence
    chain made of one-sided factors, `<c]`, `[d>` and one-sided tests, which
    commute, split into p, the sequence of its left parts, and q, of its
    right parts; rest is the remainder of the chain."""
    factors = seq_chain(b)
    sides = list(takewhile(partial(is_not, None), map(unembed, factors)))
    return (kseq(*(k for s, k in sides if s == "L")),
            kseq(*(k for s, k in sides if s == "R")), bseq(*factors[len(sides):]))


def _uncovered(tags: dict, cs, ds, bit: int) -> tuple[int, int] | None:
    """The first (t, t2) of cs x ds, in image order, whose tag lacks `bit`."""
    for t in cs:
        got = tags.get(t, {})
        for t2 in ds:
            if not got.get(t2, 0) & bit:
                return t, t2
    return None


def check_adequacy(bm: BiModel, pre, c: KatTerm, d: KatTerm, b: BiKatTerm) -> JudgeResult:
    """R;<c|d> <= R;B: the aligned term covers all run pairs from the pre.

    B is split as <p|q> ; rest at its one-sided prefix (`_one_sided_prefix`),
    so the part of B's image that a source (a, b) reaches is rest's image of
    p(a) x q(b), and whether it is covered depends only on its class, the key
    (p(a), c(a), q(b), d(b)) of images that `PostMap` shares.  The pre pairs
    are taken in chunks (64, 128, ... up to WALK_SOURCES).  The classes of a
    chunk's sources with runs that no earlier chunk covered get one bit each,
    set on their start pairs p(a) x q(b), and one pair-state walk of rest
    (`witness.term_tags`) ORs the bits of every pair state it reaches.  A
    class is covered when every (t, t2) in c(a) x d(b) carries its bit.  An
    empty prefix makes every source its own class.  The first source in pre
    order whose class is not covered, and its first uncovered run pair in
    image order, give the counterexample, so the check stops at the first
    chunk with one."""
    from . import witness  # local import: witness builds on oracles' types
    r = pair_spec(bm, pre)
    p, q, rest = _one_sided_prefix(b)
    cpost, dpost = post_map(bm.base, c), post_map(bm.base, d)
    ppost, qpost = post_map(bm.base, p), post_map(bm.base, q)
    cimg, dimg = cpost.images, dpost.images
    covered: set = set()  # the classes of earlier chunks, all covered
    for chunk in _pre_chunks(r, cpost, dpost, WALK_SOURCES):
        runs = [(a, bs) for a, bs in chunk if cimg[a]]
        pimg = ppost.fill(map(itemgetter(0), runs))
        qimg = qpost.fill(chain.from_iterable({id(bs): bs for _, bs in runs}.values()))
        new = {(pimg[a], cimg[a], qimg[b2], ds) for a, bs in runs for b2 in bs
               if (ds := dimg[b2])} - covered
        bits = dict(zip(new, map((1).__lshift__, range(len(new)))))
        starts: dict[int, dict[int, int]] = {}
        for (ps, _, qs, _), bit in bits.items():
            if not qs:  # no start pair: the class stays uncovered
                continue
            for s in ps:
                row = starts.setdefault(s, {})
                for s2 in qs:
                    row[s2] = row.get(s2, 0) | bit
        tags = witness.term_tags(bm, rest, starts) if starts else {}
        if any(_uncovered(tags, k[1], k[3], bit) for k, bit in bits.items()):
            for a, bs in runs:
                for b2 in filter(dimg.__getitem__, bs):
                    k = pimg[a], cimg[a], qimg[b2], dimg[b2]
                    hit = k in bits and _uncovered(tags, k[1], k[3], bits[k])
                    if hit:
                        return JudgeResult("adequacy", False, Counterexample(
                            "adequacy", (a, b2) + hit, f"run pair from {r.render_pair(a, b2)} "
                            f"to {r.render_pair(*hit)} not covered"))
        covered |= new
    return JudgeResult("adequacy", True)


def check_fsim(bm: BiModel, j: Judgment) -> JudgeResult:
    """Forward simulation: each left run from a pre-related pair is matched by
    some right run ending post-related, R°;c <= d;S°.

    Per pre row, partner b and end t in cpost[a], the pointwise route looks in
    d(b) for an end that the post predicate relates to t; the point-free route
    tests that d(b) meets S(t), the post partners of t, memoized per t."""
    r, s = _spec_views(bm, j)
    cpost = post_map(bm.base, j.left)
    dpost = post_map(bm.base, j.right)
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
    return _two_routes(
        "fsim", cex, lambda a, b, t: f"pre {r.render_pair(a, b)}: left run to "
        f"{bm.space.state_str(t)} has no post-related right run",
        "pointfree", None if partners is None else pointfree)


def check_bsim(bm: BiModel, j: Judgment) -> JudgeResult:
    """Backward simulation: each left run whose end is post-related to some
    right end is matched by a right run from a pre-related start, c;S <= R;d.

    Every left state is visited, not only the pre rows: a state with runs and
    no pre partner fails at its first end with a post partner.  For each run
    a -> t and post partner t2 of t, the pointwise route looks t2 up in D, the
    union of the right images of a's pre partners; the point-free route looks
    for a pre partner of a, by the compiled pre predicate, among the right
    preimages of t2."""
    r, s = _spec_views(bm, j)
    pre = r.pred
    dpre = post_map(bm.base, j.right, backward=True).images
    pointfree = True
    cex = None
    for a, t, t2, d in _post_ends(bm, j, r, s):
        if cex is None and t2 not in d:
            cex = (a, t, t2)
        if pointfree:
            pointfree = pre.some(a, dpre[t2])
        if cex is not None and not pointfree:
            break
    sp = bm.space
    return _two_routes(
        "bsim", cex, lambda a, t, t2: f"left run {sp.state_str(a)} -> {sp.state_str(t)} "
        f"with post partner {sp.state_str(t2)} has no pre-related right run",
        "pointfree", pointfree)


def _post_ends(bm: BiModel, j: Judgment, r: PairSpec, s: PairSpec):
    """(a, t, t2, D) for each left run a -> t and post partner t2 of t, in
    state order, with D the union of the right images of a's pre partners.
    The left states come in batches of 64, then 128, ... (at most
    WALK_SOURCES), so that a check that stops at an early counterexample
    computes few images; the images and right preimages a batch needs are
    computed in one walk each.  Both routes read every pair it yields, so
    it refuses as the pair enumeration does: before the first batch if the
    pre would build more than PAIR_ENUM_CAP candidates, and once the post
    partners asked for would (`PairSpec.partner_sets`)."""
    r.check_enumerable()
    partners = s.partner_sets()
    if partners is None:  # refused, with residual filters on every candidate
        s.check_enumerable()  # raises the refusal
    cpost = post_map(bm.base, j.left)
    dpost = post_map(bm.base, j.right)
    dback = post_map(bm.base, j.right, backward=True)
    cimg, dimg = cpost.images, dpost.images
    n, k, size = bm.space.size, 0, 64
    while k < n:
        batch = range(k, min(k + min(size, WALK_SOURCES), n))
        k, size = batch.stop, size * 2
        cpost.fill(batch)
        rows = [(a, cimg[a]) for a in batch if any(map(partners, cimg[a]))]
        dpost.fill(chain.from_iterable(r.partners_left(a) for a, _ in rows))
        ends = frozenset().union(*(cs for _, cs in rows))
        dback.fill(chain.from_iterable(map(partners, ends)))
        known: dict = {}  # the spec keeps the rows
        for a, cs in rows:
            d = _union(dimg, r.partners_left(a), known)
            for t in cs:
                for t2 in s.partners_left(t):
                    yield a, t, t2, d


# derived kind -> (base kind, negate the post?, negate the verdict?)
DUALS = {
    "existsforall": ("fsim", True, True),
    "existsexists": ("allall", False, True),
    "incorrectness": ("bsim", False, False),
}


def check_derived(kind: str, bm: BiModel, j: Judgment) -> JudgeResult:
    """A derived judgment of `kind`, read through its base oracle (`DUALS`)
    on the same programs and pre: each route of the base is reported, negated
    with the verdict.  A negated base's counterexample is the witness."""
    base, neg_post, neg_verdict = DUALS[kind]
    post = bnot(j.spec.post) if neg_post else j.spec.post
    sub = ORACLES[base](bm, Judgment(base, j.left, j.right, RelSpec(j.spec.pre, post)))
    cex = sub.counterexample
    if neg_verdict and cex is not None:
        cex = Counterexample(f"{kind}-witness", cex.states, cex.rendered)
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
