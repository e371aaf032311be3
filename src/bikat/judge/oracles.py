"""Semantic oracles for the relational judgment forms.

The oracles read the pre-relation as rows, a left state with all its right
partners, never the full pair space.  The rows come a chunk at a time
(`_pre_chunks`: 64 pairs, then 128, ...), with the images of the chunk's
states computed in one batch, so a check that stops at an early
counterexample computes few images.  For ∀∀ and ∃∃ one row costs one union
D of its partners' right images: every run pair of the row is a pair of
cpost[a] x D.  Forward simulation keeps its ∃ over the runs of each partner.

Where the space permits, an oracle also evaluates the equational or
point-free formulation and raises `RouteDisagreement` if the routes differ.
The ∀∀ equational route is dense up to DENSE_SIDE_CAP states a side and
factored by rows above it, reading the post through its partner enumeration
rather than through the predicate the pointwise route uses.  Counterexamples
carry the violating state tuple and replay cleanly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

from ..bi.terms import BiKatTerm, bnot, emb_pair
from ..kat.terms import KatTerm
from ..models.birel import DENSE_SIDE_CAP
from ..models.bmodel import BiModel, bitest_subid, interp_bikat
from ..models.kmodel import REL_MATRIX_CAP, WALK_SOURCES, interp_kat
from ..models.rel import Rel
from .core import (Counterexample, EnumRefused, Judgment, PairSpec,
                   PostMap, compile_pred, pair_spec, post_map)


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


def _pre_chunks(r: PairSpec, cpost: PostMap, dpost: PostMap | None,
                most: int | None = None):
    """The rows of `r` in state order, a chunk at a time, with the images
    under `cpost` of their left states and, for the rows whose left state has
    runs, the images under `dpost` of their partners computed.  A chunk
    closes once it holds 64 pairs, then 128, ... (at most `most` after the
    first), so that a check that stops at an early counterexample computes
    few images."""
    chunk, count, size = [], 0, 64
    for row in r.rows().items():
        chunk.append(row)
        count += len(row[1])
        if count >= size:
            _fill_rows(chunk, cpost, dpost)
            yield chunk
            chunk, count = [], 0
            size = size * 2 if most is None else min(size * 2, most)
    if chunk:
        _fill_rows(chunk, cpost, dpost)
        yield chunk


def _fill_rows(chunk, cpost: PostMap, dpost: PostMap | None):
    cimg = cpost.fill(a for a, _ in chunk)
    if dpost is not None:
        dpost.fill(chain.from_iterable(bs for a, bs in chunk if cimg[a]))


def _run_rows(r: PairSpec, cpost: PostMap, dpost: PostMap):
    """(a, partners, cpost[a]) for each pre row whose left state a has runs,
    with the right images of its partners computed."""
    cimg = cpost.images
    for chunk in _pre_chunks(r, cpost, dpost):
        for a, bs in chunk:
            cs = cimg[a]
            if cs:
                yield a, bs, cs


def _union(images: dict[int, frozenset[int]], states: list[int]) -> frozenset[int]:
    """The union of the images of `states`, taken in one set operation."""
    return frozenset().union(*map(images.__getitem__, states))


def _escape(holds, a: int, bs: list[int], cs, d, dimg) -> tuple | None:
    """The first run pair of a row that ends outside the post, as
    (a, b, a2, b2) with b the first partner whose image holds b2; or None."""
    for a2 in cs:
        for b2 in d:
            if not holds(a2, b2):
                return a, next(b for b in bs if b2 in dimg[b]), a2, b2
    return None


def check_allall(bm: BiModel, j: Judgment) -> JudgeResult:
    """Forall-forall: every pair of terminated runs from pre-related states
    ends post-related, i.e. R;<c|d>;!S = 0.

    Both routes take the pre-relation a row at a time: a left state a with
    runs, and D, the union of the right images of its partners.  The
    pointwise route tests every (a2, b2) in cpost[a] x D with the post
    predicate.  The equational route runs dense when the space is small;
    otherwise it evaluates R;<c|d> as a relation, factored by rows: D must lie
    inside the S-partners common to every state of cpost[a], read through
    the post's partner enumeration and cached per distinct left image."""
    r, s = _spec_views(bm, j)
    cpost = post_map(bm.base, j.left)
    dpost = post_map(bm.base, j.right)
    holds = compile_pred(bm, j.spec.post)
    dense = bm.space.size <= DENSE_SIDE_CAP
    allowed = None if dense else _common_partners(s)
    equational = True
    cex = None
    dimg = dpost.images
    for a, bs, cs in _run_rows(r, cpost, dpost):
        d = _union(dimg, bs)
        if cex is None:
            cex = _escape(holds, a, bs, cs, d, dimg)
        if allowed is not None and equational:
            try:
                equational = d <= allowed(cs)
            except EnumRefused:
                allowed = None
        if cex is not None and (allowed is None or not equational):
            break
    pointwise = cex is None
    result = JudgeResult("allall", pointwise)
    result.routes["pointwise"] = pointwise
    if cex is not None:
        a, b, a2, b2 = cex
        result.counterexample = Counterexample(
            "allall", cex, f"pre {r.render_pair(a, b)} -> post {r.render_pair(a2, b2)}")

    if dense:
        rd = bitest_subid(bm, j.spec.pre)
        sd_neg = bitest_subid(bm, bnot(j.spec.post))
        prod = interp_bikat(bm, emb_pair(j.left, j.right))
        equational = rd.compose(prod).compose(sd_neg).is_empty()
    elif allowed is None:
        return result
    result.routes["equational"] = equational
    if equational != pointwise:
        raise RouteDisagreement(f"allall: pointwise={pointwise} equational={equational}")
    return result


def _common_partners(s: PairSpec):
    """cs -> the right states S-related to every state of cs, memoized per
    distinct cs."""
    known: dict[frozenset[int], frozenset[int]] = {}

    def allowed(cs: frozenset[int]) -> frozenset[int]:
        got = known.get(cs)
        if got is None:
            got = known[cs] = frozenset.intersection(
                *(frozenset(s.partners_left(t)) for t in cs))
        return got
    return allowed


def check_adequacy(bm: BiModel, pre, c: KatTerm, d: KatTerm, b: BiKatTerm) -> JudgeResult:
    """R;<c|d> <= R;B: the aligned term covers all run pairs from the pre.

    The pre pairs are taken in chunks (64, 128, ... up to WALK_SOURCES).  For
    the pairs of a chunk from which both programs have runs, the images of
    the aligned term come from one compiled pair-state walk
    (`witness.term_image`), and the check stops at the first run pair that
    they do not cover."""
    from . import witness  # local import: witness builds on oracles' types
    r = pair_spec(bm, pre)
    cpost = post_map(bm.base, c)
    dpost = post_map(bm.base, d)
    cimg, dimg = cpost.images, dpost.images
    for chunk in _pre_chunks(r, cpost, dpost, WALK_SOURCES):
        sources = [(a, b2) for a, bs in chunk if cimg[a] for b2 in bs if dimg[b2]]
        images = witness.term_image(bm, b, sources)
        for (a, b2) in sources:
            covered = images[(a, b2)]
            for t in cimg[a]:
                for t2 in dimg[b2]:
                    if (t, t2) not in covered:
                        return JudgeResult(
                            "adequacy", False,
                            Counterexample("adequacy", (a, b2, t, t2),
                                           f"run pair from {r.render_pair(a, b2)} to "
                                           f"{r.render_pair(t, t2)} not covered"))
    return JudgeResult("adequacy", True)


def check_fsim(bm: BiModel, j: Judgment) -> JudgeResult:
    """Forward simulation: each left run from a pre-related pair is matched by
    some right run ending post-related."""
    r, s = _spec_views(bm, j)
    cpost = post_map(bm.base, j.left)
    dpost = post_map(bm.base, j.right)
    holds = compile_pred(bm, j.spec.post)
    result = JudgeResult("fsim", True)
    dimg = dpost.images
    cex = None
    for a, bs, cs in _run_rows(r, cpost, dpost):
        for b in bs:
            ds = dimg[b]
            for t in cs:
                if not any(holds(t, t2) for t2 in ds):
                    cex = Counterexample(
                        "fsim", (a, b, t),
                        f"pre {r.render_pair(a, b)}: left run to "
                        f"{bm.space.state_str(t)} has no post-related right run")
                    break
            if cex:
                break
        if cex:
            break
    pointwise = cex is None
    result.routes["pointwise"] = pointwise

    pf = _pointfree_fsim(bm, j, r, s)
    if pf is not None:
        result.routes["pointfree"] = pf
        if pf != pointwise:
            raise RouteDisagreement(f"fsim: pointwise={pointwise} pointfree={pf}")

    result.holds = pointwise
    result.counterexample = cex
    return result


def _pointfree_fsim(bm, j, r: PairSpec, s: PairSpec) -> bool | None:
    # R^o ; c  <=  d ; S^o, on plain state relations
    if bm.space.size > REL_MATRIX_CAP:
        return None
    try:
        rrel, srel = r.as_rel(), s.as_rel()
    except EnumRefused:
        return None
    c = interp_kat(bm.base, j.left)
    d = interp_kat(bm.base, j.right)
    return rrel.converse().compose(c).leq(d.compose(srel.converse()))


def check_bsim(bm: BiModel, j: Judgment) -> JudgeResult:
    """Backward simulation: each left run whose end is post-related to some
    right end is matched by a right run from a pre-related start."""
    r, s = _spec_views(bm, j)
    cpost = post_map(bm.base, j.left)
    dpost = post_map(bm.base, j.right)
    result = JudgeResult("bsim", True)
    cex = None
    n = bm.space.size
    for a in range(n):
        ts = cpost[a]
        if not ts:
            continue
        partners = None
        for t in ts:
            for t2 in s.partners_left(t):
                if partners is None:
                    partners = r.partners_left(a)
                if not any(t2 in dpost[b] for b in partners):
                    cex = Counterexample(
                        "bsim", (a, t, t2),
                        f"left run {bm.space.state_str(a)} -> {bm.space.state_str(t)} "
                        f"with post partner {bm.space.state_str(t2)} has no "
                        "pre-related right run")
                    break
            if cex:
                break
        if cex:
            break
    pointwise = cex is None
    result.routes["pointwise"] = pointwise

    pf = _pointfree_bsim(bm, j, r, s)
    if pf is not None:
        result.routes["pointfree"] = pf
        if pf != pointwise:
            raise RouteDisagreement(f"bsim: pointwise={pointwise} pointfree={pf}")

    result.holds = pointwise
    result.counterexample = cex
    return result


def _pointfree_bsim(bm, j, r: PairSpec, s: PairSpec) -> bool | None:
    # c ; S  <=  R ; d
    if bm.space.size > REL_MATRIX_CAP:
        return None
    try:
        rrel, srel = r.as_rel(), s.as_rel()
    except EnumRefused:
        return None
    c = interp_kat(bm.base, j.left)
    d = interp_kat(bm.base, j.right)
    return c.compose(srel).leq(rrel.compose(d))


def check_existsforall(bm: BiModel, j: Judgment) -> JudgeResult:
    """There exist a pre-related pair and a left run such that every right run
    ends post-related.  Evaluated as the negation of forward simulation with
    the negated post."""
    from dataclasses import replace
    from .core import RelSpec
    neg = Judgment("fsim", j.left, j.right,
                   RelSpec(j.spec.pre, bnot(j.spec.post)))
    sub = check_fsim(bm, neg)
    res = JudgeResult("existsforall", not sub.holds)
    res.routes["via_fsim_negation"] = not sub.holds
    if sub.counterexample is not None:
        # the fsim counterexample is this property's witness
        res.counterexample = Counterexample(
            "existsforall-witness", sub.counterexample.states,
            sub.counterexample.rendered)
    return res


def check_existsexists(bm: BiModel, j: Judgment) -> JudgeResult:
    """Some pre-related pair has runs ending non-post-related: nonemptiness
    of R;(c x d);!S."""
    r = pair_spec(bm, j.spec.pre)
    cpost = post_map(bm.base, j.left)
    dpost = post_map(bm.base, j.right)
    holds = compile_pred(bm, j.spec.post)
    dimg = dpost.images
    for a, bs, cs in _run_rows(r, cpost, dpost):
        hit = _escape(holds, a, bs, cs, _union(dimg, bs), dimg)
        if hit is not None:
            a, b, t, t2 = hit
            return JudgeResult("existsexists", True, Counterexample(
                "existsexists-witness", hit,
                f"pre {r.render_pair(a, b)} runs to non-post-related "
                f"{r.render_pair(t, t2)}"))
    return JudgeResult("existsexists", False)


def check_incorrectness(bm: BiModel, j: Judgment) -> JudgeResult:
    """Incorrectness, decided as backward simulation on the same programs and
    spec: for every left run a -> t and every t2 post-related to t, some
    right run ends in t2 from a state pre-related to a.  The result is
    `check_bsim`'s, with its pointwise and point-free routes; no other route
    is computed."""
    sub = check_bsim(bm, Judgment("bsim", j.left, j.right, j.spec))
    return JudgeResult("incorrectness", sub.holds, sub.counterexample, dict(sub.routes))


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
