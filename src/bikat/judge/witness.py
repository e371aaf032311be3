"""Alignment witnesses: compiled pair-state evaluation, validity, and synthesis.

A witness is either a term (possibly with chooser bitests) or a concrete pair
relation.  A witness term is compiled once per model into closures over pair
states p = a * n + b, as `models.kmodel` compiles a KAT term over states, and
one walk carries a batch of sources: each reached pair is tagged with the
bitmask of the sources that reach it.  `term_tags` returns that tag dict as
it is, for a caller that reads coverage from the bits (adequacy);
`term_image` and `term_preimage` decode it into per-source images, at most
WALK_SOURCES sources per walk.  A bitest step keeps the pairs that pass it:
a test of one side reads its byte table at a = p // n or b = p % n, a keyed
predicate compares `lk[a]` with `rk[b]`, anything else calls the
`PairPred` closure.  An embedded action first fills its `PostMap` with the
distinct left (or right) states of the frontier, then reads one image per
pair.  Images are computed only from the pairs the validity conditions
quantify over (forward from the pre-relation, backward from the
post-relation), so structured spaces with thousands of states per side stay
tractable.  Those pairs are taken in the oracles' chunks, and a check stops
at the first chunk after which every one of its conditions has failed.

Validity conditions, with hav the full relation of the ambient full model:

  forward  (WC)  R;W <= R;W;S     (WO)  R;<c] <= W;[hav>   (WU)  R;W <= <hav|d>
  backward (WCb) W;S <= R;W;S     (WOb) <c];S <= [hav>;W   (WUb) W;S <= <hav|d>

Backward is forward on the converse.  Taking converses, with R and S
self-converse, WCb is S;W° <= S;W°;R, WOb is S;<c°] <= W°;[hav> and WUb is
S;W° <= <hav|d°>: the forward conditions of the witness W° for the programs
c° and d° with pre S and post R.  So one check and one construction serve
both directions; backward they read the post's rows, both programs'
preimage maps and the witness's preimages.

Passing forward (backward) validity entails the forward (backward) simulation
judgment; the checker checks that entailment on every invocation and raises
`RouteDisagreement` if the oracle disagrees.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..bi.terms import BEmbL, BiKatTerm, BiTestTerm, BTest
from ..kat.terms import kleene_map
from ..models.bmodel import BiModel
from ..models.kmodel import (WALK_SOURCES, WALKS, Tagged, Walk, test_table,
                             walk_sources)
from .core import Counterexample, Judgment, pair_spec, post_map, side_test
from .oracles import (JudgeResult, RouteDisagreement, _pre_chunks, _run_rows,
                      check_bsim, check_fsim)

Pair = tuple[int, int]
ImageMap = dict[Pair, frozenset[Pair]]


@dataclass
class RelWitness:
    """A concrete witness relation on state pairs (e.g. a synthesized one)."""

    forward: dict[Pair, frozenset[Pair]]
    # derived from `forward` on first use: not part of the witness's value
    _backward: dict[Pair, frozenset[Pair]] | None = field(
        default=None, compare=False, repr=False)

    def backward(self) -> dict[Pair, frozenset[Pair]]:
        if self._backward is None:
            back: dict[Pair, set[Pair]] = {}
            for src, tgts in self.forward.items():
                for t in tgts:
                    back.setdefault(t, set()).add(src)
            self._backward = {k: frozenset(v) for k, v in back.items()}
        return self._backward

    def converse(self) -> RelWitness:
        """The converse relation, sharing this one's maps."""
        return RelWitness(self.backward(), self.forward)

    def count(self) -> int:
        return sum(len(v) for v in self.forward.values())


Witness = BiKatTerm | RelWitness


def term_tags(bm: BiModel, w: BiKatTerm, sources: list[int]) -> Tagged:
    """One walk of a witness term from packed source pairs p = a * n + b:
    each pair state it reaches, packed, with the bitmask of the sources that
    reach it (bit i for `sources[i]`)."""
    return _pair_walker(bm, w, False)({p: 1 << i for i, p in enumerate(sources)})


def term_image(bm: BiModel, w: BiKatTerm, sources) -> ImageMap:
    """Per-source images of a witness term: a frozenset of pairs for each
    distinct source pair."""
    return _pair_images(bm, w, sources, backward=False)


def term_preimage(bm: BiModel, w: BiKatTerm, targets) -> ImageMap:
    """Per-target preimages (images under the converse)."""
    return _pair_images(bm, w, targets, backward=True)


def _pair_images(bm: BiModel, w: BiKatTerm, sources, backward: bool) -> ImageMap:
    """The tagged walk of `term_tags` (of the converse if `backward`), a
    batch of WALK_SOURCES sources at a time, decoded per source."""
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
            return _pair_filter(bm, u.test)
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


def _pair_filter(bm: BiModel, t: BiTestTerm) -> Walk:
    """The pair states of a walk step that pass a bitest: a test of one
    side reads its byte table at p // n or p % n, a keyed predicate
    compares the two keys, and any other runs its closure."""
    n = bm.space.size
    side = side_test(t)
    if side is not None:
        table = test_table(bm.base, side[1])
        if side[0] == "L":
            return lambda cur: {p: g for p, g in cur.items() if table[p // n]}
        return lambda cur: {p: g for p, g in cur.items() if table[p % n]}
    pred = pair_spec(bm, t).pred
    if pred.keyed:
        lk, rk = pred.lk, pred.rk
        return lambda cur: {p: g for p, g in cur.items() if lk[p // n] == rk[p % n]}
    holds = pred.holds
    return lambda cur: {p: g for p, g in cur.items() if holds(p // n, p % n)}


def _witness_images(bm: BiModel, w: Witness, sources, backward: bool) -> ImageMap:
    """The image of each source under the witness, or under its converse."""
    if isinstance(w, RelWitness):
        rel = w.backward() if backward else w.forward
        return {s: rel.get(s, frozenset()) for s in sources}
    return (term_preimage if backward else term_image)(bm, w, sources)


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
    return _check_valid(bm, w, j, backward=False)


def check_bvalid(bm: BiModel, w: Witness, j: Judgment) -> WitnessReport:
    """Backward validity (WCb, WOb, WUb): forward validity of the converse
    witness, evaluated backward from the post a chunk at a time."""
    return _check_valid(bm, w, j, backward=True)


def _views(bm: BiModel, j: Judgment, backward: bool):
    """The pre and post specs of `j` and the image maps of its programs; for
    the converse judgment if `backward`: the post and pre, and preimages."""
    r, s = pair_spec(bm, j.spec.pre), pair_spec(bm, j.spec.post)
    return ((s, r) if backward else (r, s)) + (
        post_map(bm.base, j.left, backward), post_map(bm.base, j.right, backward))


def _check_valid(bm: BiModel, w: Witness, j: Judgment, backward: bool) -> WitnessReport:
    """WC, WO and WU of `w` for `j`, or of w° for the converse of `j` if
    `backward`; a backward counterexample lists its parts in state order."""
    r, s, cpost, dpost = _views(bm, j, backward)
    wc, wo, wu = names = ("WCb", "WOb", "WUb") if backward else ("WC", "WO", "WU")
    conds = dict.fromkeys(names, True)
    cexs: dict[str, Counterexample] = {}

    def fail(name: str, src: tuple, tgt: tuple, why: str) -> None:
        ends = [r.render_pair(*p) if len(p) == 2 else bm.space.state_str(*p)
                for p in ((tgt, src) if backward else (src, tgt))]
        conds[name] = False
        cexs[name] = Counterexample(name, tgt + src if backward else src + tgt,
                                    f"{ends[0]} -> {ends[1]}: {why}")

    s_holds = s.pred.holds
    chunks = _pre_chunks(r, cpost, dpost, WALK_SOURCES)
    for src, tgts in _chunk_images(chunks, lambda ps: _witness_images(bm, w, ps, backward)):
        if conds[wc]:
            for t in tgts:
                if not s_holds(*t):
                    fail(wc, src, t, "witness run " + (
                        "starts outside the pre" if backward else "leaves the post"))
                    break
        if conds[wu]:
            for t in tgts:
                if t[1] not in dpost[src[1]]:
                    fail(wu, src, t, "witness right component is not a right-program run")
                    break
        if conds[wo]:
            lefts = {t for (t, _) in tgts}
            for t in cpost[src[0]]:
                if t not in lefts:
                    fail(wo, src, (t,), "left run is not covered by the witness")
                    break
        if not any(conds.values()):
            break

    report = WitnessReport("backward" if backward else "forward", conds, cexs)
    if report.valid:
        kind, check = ("bsim", check_bsim) if backward else ("fsim", check_fsim)
        oracle = check(bm, Judgment(kind, j.left, j.right, j.spec))
        report.oracle = oracle
        if not oracle.holds:
            raise RouteDisagreement(f"{report.direction}-valid witness but "
                                    f"{report.direction} simulation fails")
    return report


class WitnessRefused(Exception):
    """Synthesis refused because the judgment itself fails."""

    def __init__(self, result: JudgeResult):
        super().__init__(f"judgment does not hold: {result.counterexample}")
        self.result = result


def construct_fwitness(bm: BiModel, j: Judgment) -> RelWitness:
    """The completeness construction for forward simulation: for each
    pre-related pair and left run, keep the least matching right end."""
    return _construct(bm, j, backward=False)


def construct_bwitness(bm: BiModel, j: Judgment) -> RelWitness:
    """Completeness construction for backward simulation, the converse of
    the forward one on the converse judgment: for each left run and post
    partner of its end, keep the least pre-related start with a right run to
    that partner."""
    return _construct(bm, j, backward=True).converse()


def _construct(bm: BiModel, j: Judgment, backward: bool) -> RelWitness:
    """The forward construction for `j`, or for its converse if `backward`;
    refused unless the simulation holds."""
    kind, check = ("bsim", check_bsim) if backward else ("fsim", check_fsim)
    oracle = check(bm, Judgment(kind, j.left, j.right, j.spec))
    if not oracle.holds:
        raise WitnessRefused(oracle)
    r, s, cpost, dpost = _views(bm, j, backward)
    dimg, s_holds = dpost.images, s.pred.holds
    fwd: dict[Pair, frozenset[Pair]] = {}
    for a, bs, cs in _run_rows(r, cpost, dpost):
        for b in bs:
            fwd[(a, b)] = frozenset(
                (t, min(x for x in dimg[b] if s_holds(t, x))) for t in cs)
    return RelWitness(fwd)
