"""Alignment witnesses: source-driven evaluation, validity, and synthesis.

A witness is either a term (possibly with chooser bitests) or a concrete pair
relation.  Term evaluation is source-driven and sparse: images are computed
only from the pairs the validity conditions quantify over (forward from the
pre-relation, backward from the post-relation), so structured spaces with a
few thousand states per side stay tractable.

Validity conditions, with hav the full relation of the ambient full model:

  forward  (WC)  R;W <= R;W;S     (WO)  R;<c] <= W;[hav>   (WU)  R;W <= <hav|d>
  backward (WCb) W;S <= R;W;S     (WOb) <c];S <= [hav>;W   (WUb) W;S <= <hav|d>

Passing forward (backward) validity entails the forward (backward) simulation
judgment; the checker checks that entailment on every invocation and raises
`RouteDisagreement` if the oracle disagrees.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..bi.terms import (BEmbL, BEmbR, BiKatTerm, BPlus, BSeq, BStar, BTest)
from ..kat.terms import KatTerm
from ..models.bmodel import BiModel, bitest_holds
from ..models.kmodel import kat_post, kat_pre
from .core import (Counterexample, Judgment, PairSpec, PostMap, RelSpec,
                   pair_spec, post_map)
from .oracles import JudgeResult, RouteDisagreement, check_bsim, check_fsim

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
    """Per-source images of a witness term, computed structurally."""
    cur: ImageMap = {s: frozenset((s,)) for s in sources}
    return _apply(bm, w, cur, backward=False)


def term_preimage(bm: BiModel, w: BiKatTerm, targets) -> ImageMap:
    """Per-target preimages (images under the converse)."""
    cur: ImageMap = {t: frozenset((t,)) for t in targets}
    return _apply(bm, w, cur, backward=True)


def _apply(bm: BiModel, w: BiKatTerm, cur: ImageMap, backward: bool) -> ImageMap:
    if isinstance(w, BTest):
        from .core import compile_pred
        pred = compile_pred(bm, w.test)
        return {src: kept for src, pairs in cur.items()
                if (kept := frozenset(p for p in pairs if pred(p[0], p[1])))}
    if isinstance(w, BEmbL):
        step = post_map(bm.base, w.arg, backward=backward)
        return _map_side(cur, step, left=True)
    if isinstance(w, BEmbR):
        step = post_map(bm.base, w.arg, backward=backward)
        return _map_side(cur, step, left=False)
    if isinstance(w, BPlus):
        out: dict[Pair, set[Pair]] = {}
        for a in w.args:
            for src, pairs in _apply(bm, a, cur, backward).items():
                out.setdefault(src, set()).update(pairs)
        return {k: frozenset(v) for k, v in out.items()}
    if isinstance(w, BSeq):
        args = reversed(w.args) if backward else w.args
        for a in args:
            cur = _apply(bm, a, cur, backward)
            if not cur:
                break
        return cur
    # star: accumulate per-source reachable sets to a fixpoint
    acc = {src: set(pairs) for src, pairs in cur.items()}
    frontier = {src: pairs for src, pairs in cur.items()}
    while frontier:
        stepped = _apply(bm, w.arg, frontier, backward)
        nxt: ImageMap = {}
        for src, pairs in stepped.items():
            new = pairs - acc.get(src, set())
            if new:
                acc.setdefault(src, set()).update(new)
                nxt[src] = frozenset(new)
        frontier = nxt
    return {k: frozenset(v) for k, v in acc.items()}


def _map_side(cur: ImageMap, step: PostMap, left: bool) -> ImageMap:
    out: ImageMap = {}
    for src, pairs in cur.items():
        acc: set[Pair] = set()
        for (a, b) in pairs:
            if left:
                acc.update((t, b) for t in step[a])
            else:
                acc.update((a, t) for t in step[b])
        if acc:
            out[src] = frozenset(acc)
    return out


def _witness_image(bm: BiModel, w: Witness, sources) -> ImageMap:
    if isinstance(w, RelWitness):
        return {s: w.forward.get(s, frozenset()) for s in sources}
    return term_image(bm, w, sources)


def _witness_preimage(bm: BiModel, w: Witness, targets) -> ImageMap:
    if isinstance(w, RelWitness):
        back = w.backward()
        return {t: back.get(t, frozenset()) for t in targets}
    return term_preimage(bm, w, targets)


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
    """Forward validity (WC, WO, WU); on success asserts the simulation holds."""
    r, s = pair_spec(bm, j.spec.pre), pair_spec(bm, j.spec.post)
    cpost = post_map(bm.base, j.left)
    dpost = post_map(bm.base, j.right)
    sources = r.pairs()
    images = _witness_image(bm, w, sources)
    conds = {"WC": True, "WO": True, "WU": True}
    cexs: dict[str, Counterexample] = {}

    for src in sources:
        tgts = images.get(src, frozenset())
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
    """Backward validity (WCb, WOb, WUb), evaluated backward from the post."""
    r, s = pair_spec(bm, j.spec.pre), pair_spec(bm, j.spec.post)
    cpre = post_map(bm.base, j.left, backward=True)
    targets = s.pairs()
    back = _witness_preimage(bm, w, targets)
    dpost = post_map(bm.base, j.right)
    conds = {"WCb": True, "WOb": True, "WUb": True}
    cexs: dict[str, Counterexample] = {}

    for tgt in targets:
        srcs = back.get(tgt, frozenset())
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
