"""Alignment witnesses: compiled pair-state evaluation, validity, and synthesis.

A witness is either a term (possibly with chooser bitests) or a concrete pair
relation.  A witness term is compiled once per model into closures over pair
states p = a * n + b, as `models.kmodel` compiles a KAT term over states, and
one walk carries a batch of up to WALK_SOURCES sources: each reached pair is
tagged with the bitmask of the sources that reach it.  Tests filter pairs
through `compile_pred`; an embedded action first fills its `PostMap` with the
distinct left (or right) states of the frontier, then reads one image per
pair.  Images are computed only from the pairs the validity conditions
quantify over (forward from the pre-relation, backward from the
post-relation), so structured spaces with thousands of states per side stay
tractable.  Those pairs are taken in the oracles' chunks, and a check stops
at the first chunk after which every one of its conditions has failed.

Validity conditions, with hav the full relation of the ambient full model:

  forward  (WC)  R;W <= R;W;S     (WO)  R;<c] <= W;[hav>   (WU)  R;W <= <hav|d>
  backward (WCb) W;S <= R;W;S     (WOb) <c];S <= [hav>;W   (WUb) W;S <= <hav|d>

Passing forward (backward) validity entails the forward (backward) simulation
judgment; the checker checks that entailment on every invocation and raises
`RouteDisagreement` if the oracle disagrees.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..bi.terms import BEmbL, BiKatTerm, BTest
from ..kat.terms import kleene_map
from ..models.bmodel import BiModel
from ..models.kmodel import WALK_SOURCES, WALKS, Tagged, Walk, walk_sources
from .core import Counterexample, Judgment, compile_pred, pair_spec, post_map
from .oracles import (JudgeResult, RouteDisagreement, _pre_chunks, check_bsim,
                      check_fsim)

Pair = tuple[int, int]
ImageMap = dict[Pair, frozenset[Pair]]


@dataclass
class RelWitness:
    """A concrete witness relation on state pairs (e.g. a synthesized one)."""

    forward: dict[Pair, frozenset[Pair]]
    _backward: dict[Pair, frozenset[Pair]] | None = None

    def backward(self) -> dict[Pair, frozenset[Pair]]:
        if self._backward is None:
            back: dict[Pair, set[Pair]] = {}
            for src, tgts in self.forward.items():
                for t in tgts:
                    back.setdefault(t, set()).add(src)
            self._backward = {k: frozenset(v) for k, v in back.items()}
        return self._backward

    def count(self) -> int:
        return sum(len(v) for v in self.forward.values())


Witness = BiKatTerm | RelWitness


def term_image(bm: BiModel, w: BiKatTerm, sources) -> ImageMap:
    """Per-source images of a witness term: a frozenset of pairs for each
    distinct source pair."""
    return _pair_images(bm, w, sources, backward=False)


def term_preimage(bm: BiModel, w: BiKatTerm, targets) -> ImageMap:
    """Per-target preimages (images under the converse)."""
    return _pair_images(bm, w, targets, backward=True)


def _pair_images(bm: BiModel, w: BiKatTerm, sources, backward: bool) -> ImageMap:
    n = bm.space.size
    walk = _pair_walker(bm, w, backward)
    packed = list(dict.fromkeys(a * n + b for a, b in sources))
    return {divmod(p, n): frozenset(divmod(q, n) for q in found)
            for p, found in walk_sources(walk, packed)}


def _pair_walker(bm: BiModel, w: BiKatTerm, backward: bool) -> Walk:
    """The witness term compiled over pair states, once per model."""
    key = (w, backward)
    got = bm._walkers.get(key)
    if got is None:
        got = bm._walkers[key] = _compile_pairs(bm, w, backward)
    return got


def _compile_pairs(bm: BiModel, w: BiKatTerm, backward: bool) -> Walk:
    n = bm.space.size

    def leaf(u: BiKatTerm) -> Walk:
        if isinstance(u, BTest):
            pred = compile_pred(bm, u.test)
            return lambda cur: {p: g for p, g in cur.items() if pred(*divmod(p, n))}
        step = post_map(bm.base, u.arg, backward=backward)
        if isinstance(u, BEmbL):
            def left(cur: Tagged) -> Tagged:
                post = step.fill({p // n for p in cur})
                out: Tagged = {}
                get = out.get
                for p, g in cur.items():
                    a, b = divmod(p, n)
                    for t in post[a]:
                        q = t * n + b
                        out[q] = get(q, 0) | g
                return out
            return left

        def right(cur: Tagged) -> Tagged:
            post = step.fill({p % n for p in cur})
            out: Tagged = {}
            get = out.get
            for p, g in cur.items():
                b = p % n
                row = p - b
                for t in post[b]:
                    q = row + t
                    out[q] = get(q, 0) | g
            return out
        return right
    return kleene_map(w, leaf, WALKS, reverse=backward)


def _witness_image(bm: BiModel, w: Witness, sources) -> ImageMap:
    if isinstance(w, RelWitness):
        return {s: w.forward.get(s, frozenset()) for s in sources}
    return term_image(bm, w, sources)


def _witness_preimage(bm: BiModel, w: Witness, targets) -> ImageMap:
    if isinstance(w, RelWitness):
        back = w.backward()
        return {t: back.get(t, frozenset()) for t in targets}
    return term_preimage(bm, w, targets)


def _chunk_images(chunks, images):
    """(pair, its image) for the pairs of each chunk of rows, in order; a
    chunk is imaged, by `images(pairs)`, only when it is reached."""
    for chunk in chunks:
        pairs = [(a, b) for a, bs in chunk for b in bs]
        got = images(pairs)
        for p in pairs:
            yield p, got.get(p, frozenset())


@dataclass
class WitnessReport:
    direction: str  # "forward" | "backward"
    conditions: dict[str, bool]
    counterexamples: dict[str, Counterexample] = field(default_factory=dict)
    oracle: JudgeResult | None = None

    @property
    def valid(self) -> bool:
        return all(self.conditions.values())


def check_fvalid(bm: BiModel, w: Witness, j: Judgment) -> WitnessReport:
    """Forward validity (WC, WO, WU); on success asserts the simulation holds.
    The pre pairs are imaged a chunk at a time, and the check stops once
    every condition has failed."""
    r, s = pair_spec(bm, j.spec.pre), pair_spec(bm, j.spec.post)
    cpost = post_map(bm.base, j.left)
    dpost = post_map(bm.base, j.right)
    conds = {"WC": True, "WO": True, "WU": True}
    cexs: dict[str, Counterexample] = {}

    chunks = _pre_chunks(r, cpost, dpost, WALK_SOURCES)
    for src, tgts in _chunk_images(chunks, lambda ps: _witness_image(bm, w, ps)):
        if conds["WC"]:
            for t in tgts:
                if not s.holds(*t):
                    conds["WC"] = False
                    cexs["WC"] = Counterexample("WC", src + t,
                                                f"witness run {r.render_pair(*src)} -> "
                                                f"{r.render_pair(*t)} leaves the post")
                    break
        if conds["WU"]:
            for (t, t2) in tgts:
                if t2 not in dpost[src[1]]:
                    conds["WU"] = False
                    cexs["WU"] = Counterexample("WU", src + (t, t2),
                                                "witness right component is not a "
                                                "right-program run")
                    break
        if conds["WO"]:
            lefts = {t for (t, _) in tgts}
            for t in cpost[src[0]]:
                if t not in lefts:
                    conds["WO"] = False
                    cexs["WO"] = Counterexample("WO", src + (t,),
                                                f"left run to {bm.space.state_str(t)} "
                                                "is not covered by the witness")
                    break
        if not any(conds.values()):
            break

    report = WitnessReport("forward", conds, cexs)
    if report.valid:
        oracle = check_fsim(bm, Judgment("fsim", j.left, j.right, j.spec))
        report.oracle = oracle
        if not oracle.holds:
            raise RouteDisagreement("f-valid witness but forward simulation fails")
    return report


def check_bvalid(bm: BiModel, w: Witness, j: Judgment) -> WitnessReport:
    """Backward validity (WCb, WOb, WUb), evaluated backward from the post.
    The post pairs are preimaged a chunk at a time, and the check stops once
    every condition has failed."""
    r, s = pair_spec(bm, j.spec.pre), pair_spec(bm, j.spec.post)
    cpre = post_map(bm.base, j.left, backward=True)
    dpost = post_map(bm.base, j.right)
    conds = {"WCb": True, "WOb": True, "WUb": True}
    cexs: dict[str, Counterexample] = {}

    def preimages(targets):
        back = _witness_preimage(bm, w, targets)
        dpost.fill({b for srcs in back.values() for _, b in srcs})
        return back

    chunks = _pre_chunks(s, cpre, None, WALK_SOURCES)
    for tgt, srcs in _chunk_images(chunks, preimages):
        if conds["WCb"]:
            for u in srcs:
                if not r.holds(*u):
                    conds["WCb"] = False
                    cexs["WCb"] = Counterexample(
                        "WCb", u + tgt,
                        f"witness reaches the post from non-pre pair {r.render_pair(*u)}")
                    break
        if conds["WUb"]:
            for (a, b) in srcs:
                if tgt[1] not in dpost[b]:
                    conds["WUb"] = False
                    cexs["WUb"] = Counterexample(
                        "WUb", (a, b) + tgt,
                        "witness right component is not a right-program run")
                    break
        if conds["WOb"]:
            lefts = {a for (a, _) in srcs}
            for a in cpre[tgt[0]]:
                if a not in lefts:
                    conds["WOb"] = False
                    cexs["WOb"] = Counterexample(
                        "WOb", (a,) + tgt,
                        f"left run from {bm.space.state_str(a)} to the post pair "
                        f"{r.render_pair(*tgt)} is not covered")
                    break
        if not any(conds.values()):
            break

    report = WitnessReport("backward", conds, cexs)
    if report.valid:
        oracle = check_bsim(bm, Judgment("bsim", j.left, j.right, j.spec))
        report.oracle = oracle
        if not oracle.holds:
            raise RouteDisagreement("b-valid witness but backward simulation fails")
    return report


class WitnessRefused(Exception):
    """Synthesis refused because the judgment itself fails."""

    def __init__(self, result: JudgeResult):
        super().__init__(f"judgment does not hold: {result.counterexample}")
        self.result = result


def construct_fwitness(bm: BiModel, j: Judgment) -> RelWitness:
    """The completeness construction for forward simulation: for each
    pre-related pair and left run, keep the least matching right end."""
    oracle = check_fsim(bm, Judgment("fsim", j.left, j.right, j.spec))
    if not oracle.holds:
        raise WitnessRefused(oracle)
    r, s = pair_spec(bm, j.spec.pre), pair_spec(bm, j.spec.post)
    cpost = post_map(bm.base, j.left)
    dpost = post_map(bm.base, j.right)
    fwd: dict[Pair, frozenset[Pair]] = {}
    for (a, b) in r.pairs():
        acc = set()
        for t in cpost[a]:
            t2 = min(x for x in dpost[b] if s.holds(t, x))
            acc.add((t, t2))
        if acc:
            fwd[(a, b)] = frozenset(acc)
    return RelWitness(fwd)


def construct_bwitness(bm: BiModel, j: Judgment) -> RelWitness:
    """Completeness construction for backward simulation: for each left run
    ending post-related, keep the least pre-related start with a matching
    right run."""
    oracle = check_bsim(bm, Judgment("bsim", j.left, j.right, j.spec))
    if not oracle.holds:
        raise WitnessRefused(oracle)
    r, s = pair_spec(bm, j.spec.pre), pair_spec(bm, j.spec.post)
    cpost = post_map(bm.base, j.left)
    dpost = post_map(bm.base, j.right)
    fwd: dict[Pair, set[Pair]] = {}
    for a in range(bm.space.size):
        for t in cpost[a]:
            for t2 in s.partners_left(t):
                b = min(x for x in r.partners_left(a) if t2 in dpost[x])
                fwd.setdefault((a, b), set()).add((t, t2))
    return RelWitness({k: frozenset(v) for k, v in fwd.items()})
