"""Semantic oracles for the relational judgment forms.

Each oracle enumerates pointwise from the pre-relation (worklist over its
pairs, never the full pair space) and, where the space permits, additionally
evaluates the equational/point-free formulation and asserts the two routes
agree.  Counterexamples carry the violating state tuple and replay cleanly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..bi.terms import BiKatTerm, bnot, emb_pair
from ..kat.terms import KatTerm
from ..models.birel import DENSE_SIDE_CAP
from ..models.bmodel import BiModel, bitest_subid, interp_bikat
from ..models.kmodel import REL_MATRIX_CAP, WALK_SOURCES, interp_kat
from ..models.rel import Rel
from .core import (Counterexample, EnumRefused, Judgment, PairSpec,
                   PostMap, pair_spec, post_map)


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


def _pre_chunks(r: PairSpec, cpost: PostMap, dpost: PostMap,
                most: int | None = None):
    """The pre pairs in order, a chunk at a time, with the images of their
    states computed.  Chunks double from 64 pairs (up to `most`), so that a
    check that stops at an early counterexample computes few images."""
    pairs, i, size = r.pairs(), 0, 64
    while i < len(pairs):
        chunk = pairs[i:i + size]
        cpost.fill(a for a, _ in chunk)
        dpost.fill(b for a, b in chunk if cpost[a])
        yield chunk
        i += size
        size = size * 2 if most is None else min(size * 2, most)


def _pre_pairs(r: PairSpec, cpost: PostMap, dpost: PostMap):
    for chunk in _pre_chunks(r, cpost, dpost):
        yield from chunk


def check_allall(bm: BiModel, j: Judgment) -> JudgeResult:
    """Forall-forall: every pair of terminated runs from pre-related states
    ends post-related.  Pointwise route always runs; the equational form
    R;<c|d>;!S = 0 runs dense when the space is small, factored otherwise."""
    r, s = _spec_views(bm, j)
    cpost = post_map(bm.base, j.left)
    dpost = post_map(bm.base, j.right)
    result = JudgeResult("allall", True)

    cex = None
    for (a, b) in _pre_pairs(r, cpost, dpost):
        cs = cpost[a]
        if not cs:
            continue
        for b2 in dpost[b]:
            for a2 in cs:
                if not s.holds(a2, b2):
                    cex = Counterexample(
                        "allall", (a, b, a2, b2),
                        f"pre {r.render_pair(a, b)} -> post {r.render_pair(a2, b2)}")
                    break
            if cex:
                break
        if cex:
            break
    pointwise = cex is None
    result.routes["pointwise"] = pointwise

    equational = _allall_equational(bm, j, r, s, cpost, dpost)
    if equational is not None:
        result.routes["equational"] = equational
        if equational != pointwise:
            raise RouteDisagreement(
                f"allall: pointwise={pointwise} equational={equational}")

    result.holds = pointwise
    result.counterexample = cex
    return result


def _allall_equational(bm, j, r: PairSpec, s: PairSpec, cpost, dpost) -> bool | None:
    n = bm.space.size
    if n <= DENSE_SIDE_CAP:
        rd = bitest_subid(bm, j.spec.pre)
        sd_neg = bitest_subid(bm, bnot(j.spec.post))
        prod = interp_bikat(bm, emb_pair(j.left, j.right))
        return rd.compose(prod).compose(sd_neg).is_empty()
    # factored evaluation of the same equation: for each pre pair (a,b),
    # d-image of b must land inside the S-partners common to all c-images of a
    try:
        allowed_cache: dict[frozenset, frozenset] = {}
        partner_cache: dict[int, frozenset] = {}
        for (a, b) in r.pairs():
            cs = cpost[a]
            key = cs
            allowed = allowed_cache.get(key)
            if allowed is None:
                allowed, first = None, True
                for t in cs:
                    pt = partner_cache.get(t)
                    if pt is None:
                        pt = frozenset(s.partners_left(t))
                        partner_cache[t] = pt
                    allowed = pt if first else (allowed & pt)
                    first = False
                allowed = allowed if allowed is not None else None
                allowed_cache[key] = allowed
            if allowed is None:  # no c-run: vacuous
                continue
            if any(t2 not in allowed for t2 in dpost[b]):
                return False
        return True
    except EnumRefused:
        return None


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
    for chunk in _pre_chunks(r, cpost, dpost, WALK_SOURCES):
        sources = [(a, b2) for a, b2 in chunk if cpost[a] and dpost[b2]]
        images = witness.term_image(bm, b, sources)
        for (a, b2) in sources:
            covered = images[(a, b2)]
            for t in cpost[a]:
                for t2 in dpost[b2]:
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
    result = JudgeResult("fsim", True)
    cex = None
    for (a, b) in _pre_pairs(r, cpost, dpost):
        ds = None
        for t in cpost[a]:
            if ds is None:
                ds = dpost[b]
            if not any(s.holds(t, t2) for t2 in ds):
                cex = Counterexample(
                    "fsim", (a, b, t),
                    f"pre {r.render_pair(a, b)}: left run to "
                    f"{bm.space.state_str(t)} has no post-related right run")
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
    r, s = _spec_views(bm, j)
    cpost = post_map(bm.base, j.left)
    dpost = post_map(bm.base, j.right)
    for (a, b) in _pre_pairs(r, cpost, dpost):
        for t in cpost[a]:
            for t2 in dpost[b]:
                if not s.holds(t, t2):
                    res = JudgeResult("existsexists", True)
                    res.counterexample = Counterexample(
                        "existsexists-witness", (a, b, t, t2),
                        f"pre {r.render_pair(a, b)} runs to non-post-related "
                        f"{r.render_pair(t, t2)}")
                    return res
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
