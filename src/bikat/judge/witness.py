"""Alignment witnesses: compiled pair-state walks, validity, and synthesis.

A witness is either a term (possibly with chooser bitests) or a concrete pair
relation.  A witness term is compiled once per model into closures over
frontiers of pair states, as `models.kmodel` compiles a KAT term over
states, and one walk carries a batch of sources: each reached pair is tagged
with the bitmask of the sources that reach it.  A frontier is a dict of rows,
{a: {b: tag}}: each left state a with the right states paired with it and
their tags.  No row is empty, and no step changes a row it is given, so
frontiers share rows.  Union, sequence and closure are `ROWS`, built by
`kmodel.kleene_walks` as `kmodel.WALKS` is: rows that meet at a left state
are merged, tags ORed, and the closure walks again only the tags new at a
pair.  A step pays per row, not per pair:

- a left step `<c]` reads one image per left state and moves the whole row
  to each of its ends; rows that meet at one end are merged, tags ORed;
- a right step `[d>` reads the ends of the frontier's distinct right states
  once (`PostMap.ends`) and maps each row through them at C level; a row in
  which two right states meet at one end, or one has several ends, is
  stepped pair by pair;
- a bitest keeps whole rows by a left test's byte table and filters a row
  by a right test's byte table or by comparing keys, `lk[a]` against each
  `rk[b]`, at C level; any other bitest calls its `PairPred` closure per
  pair.

`term_tags` returns the tagged rows as they are, for a caller that reads
coverage from the bits (adequacy); `term_image` and `term_preimage` decode
them into per-source images, at most WALK_SOURCES sources per walk.  Images
are computed only from the pairs the validity conditions quantify over
(forward from the pre-relation, backward from the post-relation), so
structured spaces with thousands of states per side stay tractable.  Those
pairs are taken in the oracles' chunks, and a check stops at the end of the
first chunk in which a condition has failed; a condition that has not failed
by then, with pairs left to visit, is reported as None (not evaluated).

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
from itertools import compress, repeat
from typing import Callable

from ..bi.terms import BEmbL, BiKatTerm, BiTestTerm, BTest, side_test
from ..kat.terms import kleene_map
from ..models.bmodel import BiModel
from ..models.kmodel import (WALK_SOURCES, kleene_walks, source_batches, split_tags,
                             test_table)
from .core import (NO_RUN, SEVERAL, Counterexample, Judgment, PostMap, pair_spec,
                   post_map)
from .oracles import (JudgeResult, RouteDisagreement, _fill_rows, _row_chunks,
                      _run_rows, check_bsim, check_fsim)

Pair = tuple[int, int]
ImageMap = dict[Pair, frozenset[Pair]]
# A frontier of pair states: left state -> {right state: tag}, no row empty.
Row = dict[int, int]
Rows = dict[int, Row]
RowWalk = Callable[[Rows], Rows]


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


def term_tags(bm: BiModel, w: BiKatTerm, rows: Rows) -> Rows:
    """One walk of a witness term from tagged source rows {a: {b: tag}}:
    each pair state it reaches, as rows, with the bitmask of the sources
    that reach it (the OR of their tags)."""
    return _pair_walker(bm, w, False)(rows)


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
    walk = _pair_walker(bm, w, backward)
    out: ImageMap = {}
    for batch in source_batches(list(dict.fromkeys(sources))):
        rows: Rows = {}
        for i, (a, b) in enumerate(batch):
            rows.setdefault(a, {})[b] = 1 << i
        tagged = (((a, b), g) for a, row in walk(rows).items() for b, g in row.items())
        out.update(zip(batch, map(frozenset, split_tags(tagged, len(batch)))))
    return out


def _or_rows(old: Row, row: Row) -> Row:
    """A new row with the states of both, tags ORed where they meet."""
    out = old | row
    if len(out) < len(old) + len(row):
        for b in old.keys() & row.keys():
            out[b] |= old[b]
    return out


def _new_tags(row: Row, old: Row) -> Row:
    """The pairs of `row` with the tag bits that `old` lacks, if any."""
    return {b: g for b, g0 in row.items() if (g := g0 & ~old.get(b, 0))}


# rows merged per left state; the closure walks the tags new at a pair
ROWS = kleene_walks(_or_rows, _new_tags)


def _pair_walker(bm: BiModel, w: BiKatTerm, backward: bool) -> RowWalk:
    """The witness term compiled over pair-state rows, once per model."""
    key = (w, backward)
    got = bm._walkers.get(key)
    if got is None:
        got = bm._walkers[key] = _compile_pairs(bm, w, backward)
    return got


def _compile_pairs(bm: BiModel, w: BiKatTerm, backward: bool) -> RowWalk:
    def leaf(u: BiKatTerm) -> RowWalk:
        if isinstance(u, BTest):
            return _pair_filter(bm, u.test)
        step = post_map(bm.base, u.arg, backward=backward)
        return (_left_step if isinstance(u, BEmbL) else _right_step)(step)
    return kleene_map(w, leaf, ROWS, reverse=backward)


def _left_step(step: PostMap) -> RowWalk:
    """<c]: each row moves whole to every end of its left state."""
    def left(cur: Rows) -> Rows:
        post = step.fill(cur)
        out: Rows = {}
        get = out.get
        for a, row in cur.items():
            for t in post[a]:
                old = get(t)
                out[t] = row if old is None else _or_rows(old, row)
        return out
    return left


def _right_step(step: PostMap) -> RowWalk:
    """[d>: each row mapped through the ends of its right states, read once
    for the frontier's distinct right states.  A row in which an end is
    SEVERAL, or two states meet at one end, is stepped pair by pair."""
    def right(cur: Rows) -> Rows:
        bs = list(set().union(*cur.values()))
        ends = step.ends(bs)
        end = dict(zip(bs, ends))
        images = step.fill(compress(bs, map(SEVERAL.__eq__, ends))) \
            if SEVERAL in ends else None
        out: Rows = {}
        for a, row in cur.items():
            es = list(map(end.__getitem__, row))
            tags = row.values()
            if NO_RUN in es:
                runs = list(map(NO_RUN.__ne__, es))
                es, tags = list(compress(es, runs)), list(compress(tags, runs))
                if not es:
                    continue
            new = dict(zip(es, tags))
            if SEVERAL in new:
                new = {}
                get = new.get
                for b, g in row.items():
                    e = end[b]
                    for t in (images[b] if e == SEVERAL else () if e == NO_RUN else (e,)):
                        new[t] = get(t, 0) | g
            elif len(new) < len(es):  # ends met: OR their tags
                new = {}
                get = new.get
                for e, g in zip(es, tags):
                    new[e] = get(e, 0) | g
            out[a] = new
        return out
    return right


def _pair_filter(bm: BiModel, t: BiTestTerm) -> RowWalk:
    """The pair states of a frontier that pass a bitest: a left test keeps
    or drops whole rows by its byte table; a right test reads its byte table
    and a keyed predicate compares `lk[a]` with each `rk[b]`, along a row;
    any other runs its closure per pair."""
    side = side_test(t)
    if side is not None:
        table = test_table(bm.base, side[1])
        if side[0] == "L":
            return lambda cur: {a: row for a, row in cur.items() if table[a]}
        return _row_filter(lambda a, row: map(table.__getitem__, row))
    pred = pair_spec(bm, t).pred
    if pred.keyed:
        lk, rk = pred.lk, pred.rk
        return _row_filter(lambda a, row: map(lk[a].__eq__, map(rk.__getitem__, row)))
    holds = pred.holds
    return _row_filter(lambda a, row: map(holds, repeat(a), row))


def _row_filter(keep) -> RowWalk:
    """Each row cut to the right states b where `keep(a, row)`, one truth
    value per b, is true; a row that keeps all is kept as it is."""
    def filt(cur: Rows) -> Rows:
        out: Rows = {}
        for a, row in cur.items():
            ks = list(keep(a, row))
            if all(ks):
                out[a] = row
            elif any(ks):
                out[a] = dict(compress(row.items(), ks))
        return out
    return filt


def _witness_images(bm: BiModel, w: Witness, sources, backward: bool) -> ImageMap:
    """The image of each source under the witness, or under its converse."""
    if isinstance(w, RelWitness):
        rel = w.backward() if backward else w.forward
        return {s: rel.get(s, frozenset()) for s in sources}
    return (term_preimage if backward else term_image)(bm, w, sources)


@dataclass
class WitnessReport:
    direction: str  # "forward" | "backward"
    conditions: dict[str, bool | None]  # None: not evaluated
    counterexamples: dict[str, Counterexample] = field(default_factory=dict)
    oracle: JudgeResult | None = None

    @property
    def valid(self) -> bool:
        return all(self.conditions.values())


def check_fvalid(bm: BiModel, w: Witness, j: Judgment) -> WitnessReport:
    """Forward validity (WC, WO, WU); on success asserts the simulation holds.
    The pre pairs are imaged a chunk at a time, and the check stops at the
    end of the first chunk in which a condition fails."""
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
    conds: dict[str, bool | None] = dict.fromkeys(names, True)
    cexs: dict[str, Counterexample] = {}

    def fail(name: str, src: tuple, tgt: tuple, why: str) -> None:
        ends = [r.render_pair(*p) if len(p) == 2 else bm.space.state_str(*p)
                for p in ((tgt, src) if backward else (src, tgt))]
        conds[name] = False
        cexs[name] = Counterexample(name, tgt + src if backward else src + tgt,
                                    f"{ends[0]} -> {ends[1]}: {why}")

    s_holds = s.pred.holds
    chunks = _row_chunks(r, WALK_SOURCES)
    chunk = next(chunks, None)
    while chunk is not None:
        _fill_rows(chunk, cpost, dpost)
        pairs = [(a, b) for a, bs in chunk for b in bs]
        images = _witness_images(bm, w, pairs, backward)
        for src in pairs:
            tgts = images.get(src, frozenset())
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
        if not all(conds.values()):
            # decided: a condition that has not failed, with pairs left to
            # visit, is not evaluated
            if any(conds.values()) and next(chunks, None) is not None:
                conds.update((k, None) for k, v in conds.items() if v)
            break
        chunk = next(chunks, None)

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
