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

`term_tags` returns the tagged rows as they are; `term_image` and
`term_preimage` decode them into per-source images.  Validity reads the
oracles' class walk (`oracles._class_walks`), as adequacy does: forward from
the pre at the witness's one-sided prefix, backward from the post at its
one-sided suffix; a relation witness is a row walk with an empty prefix.
Per class, WC reads the reached pairs that the post rejects, WU the reached
right states outside d(b), WO the left coverage of c(a); only a failing
source is decoded, for its counterexample.  A check stops at the end of the
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
from functools import lru_cache, partial, reduce
from itertools import compress, repeat
from operator import and_, not_, or_
from typing import Callable

from ..bi.terms import BEmbL, BiKatTerm, BiTestTerm, BTest, side_test
from ..kat.terms import K1, kleene_map
from ..models.bmodel import BiModel
from ..models.kmodel import compiled, kleene_walks, test_table, walk_sources
from ..stats import phase
from .core import (NO_RUN, SEVERAL, Counterexample, Judgment, PairPred, PostMap,
                   pair_spec, post_map)
from .oracles import (JudgeResult, RouteDisagreement, _check_sim, _class_walks, _grouped,
                      _one_sided_prefix, _run_rows, _spec_views)

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


def term_tags(bm: BiModel, w: BiKatTerm, rows: Rows, backward: bool = False) -> Rows:
    """One walk of a witness term (of its converse if `backward`) from
    tagged source rows {a: {b: tag}}: each pair state it reaches, as rows,
    with the bitmask of the sources that reach it (the OR of their tags)."""
    with phase("walks"):
        return compiled(bm, _compile_pairs, w, backward)(rows)


def term_image(bm: BiModel, w: BiKatTerm, sources) -> ImageMap:
    """Per-source images of a witness term: a frozenset of pairs for each
    distinct source pair."""
    return _pair_images(bm, w, sources, backward=False)


def term_preimage(bm: BiModel, w: BiKatTerm, targets) -> ImageMap:
    """Per-target preimages (images under the converse)."""
    return _pair_images(bm, w, targets, backward=True)


def _pair_images(bm: BiModel, w: BiKatTerm, sources, backward: bool) -> ImageMap:
    """The tagged walk of `term_tags` (of the converse if `backward`),
    decoded per source by `kmodel.walk_sources`."""
    walk = compiled(bm, _compile_pairs, w, backward)

    def pairs(tagged: dict[Pair, int]) -> dict[Pair, int]:
        rows: Rows = {}
        for (a, b), g in tagged.items():
            rows.setdefault(a, {})[b] = g
        return {(a, b): g for a, row in walk(rows).items() for b, g in row.items()}
    with phase("walks"):
        return {s: frozenset(f) for s, f in walk_sources(pairs, list(dict.fromkeys(sources)))}


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


def _compile_pairs(bm: BiModel, w: BiKatTerm, backward: bool) -> RowWalk:
    """The witness term compiled over pair-state rows (kept by `compiled`)."""
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
    return _row_filter(_keep(pair_spec(bm, t).pred))


def _keep(pred: PairPred):
    """keep(a, row): whether `pred` holds at (a, b) for each b of a row."""
    if pred.keyed:
        lk, rk = pred.lk, pred.rk
        return lambda a, row: map(lk[a].__eq__, map(rk.__getitem__, row))
    holds = pred.holds
    return lambda a, row: map(holds, repeat(a), row)


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


def _relation_walk(rel: ImageMap) -> RowWalk:
    """A witness relation as a row walk: each tagged source to its targets."""
    def walk(cur: Rows) -> Rows:
        out: Rows = {}
        for a, row in cur.items():
            for b, g in row.items():
                for t, t2 in rel.get((a, b), ()):
                    got = out.setdefault(t, {})
                    got[t2] = got.get(t2, 0) | g
        return out
    return walk


@dataclass
class WitnessReport:
    direction: str  # "forward" | "backward"
    conditions: dict[str, bool | None]  # None: not evaluated
    counterexamples: dict[str, Counterexample] = field(default_factory=dict)
    oracle: JudgeResult | None = None

    @property
    def valid(self) -> bool:
        return all(self.conditions.values())


def _check_valid(bm: BiModel, w: Witness, j: Judgment, backward: bool) -> WitnessReport:
    """WC, WO and WU of `w` for `j`, or of w° for the converse of `j` if
    `backward`; a backward counterexample lists its parts in state order."""
    r, s = _spec_views(bm, j, backward)
    wc, wo, wu = names = ("WCb", "WOb", "WUb") if backward else ("WC", "WO", "WU")
    why = {wc: "witness run " + ("starts outside the pre" if backward else "leaves the post"),
           wu: "witness right component is not a right-program run",
           wo: "left run is not covered by the witness"}
    conds: dict[str, bool | None] = dict.fromkeys(names, True)
    cexs: dict[str, Counterexample] = {}
    if isinstance(w, RelWitness):  # every source its own class
        rel = w.backward() if backward else w.forward
        p = q = K1
        walk, image = _relation_walk(rel), lambda src: rel.get(src, frozenset())
    else:
        p, q, rest = _one_sided_prefix(w, backward)
        walk = lambda rows: term_tags(bm, rest, rows, backward)  # noqa: E731
        image = lru_cache(1)(lambda src: _pair_images(bm, w, [src], backward)[src])
    keep = _keep(s.pred)
    for bits, tags, sources, more in _class_walks(bm, r, j.left, j.right, p, q, walk, backward):
        lefts = {t: reduce(or_, row.values()) for t, row in tags.items()}
        by_d = _grouped((k[3], bit) for k, bit in bits.items())
        inside = _grouped((t2, mask) for ds, mask in by_d.items() for t2 in ds)
        by_c = _grouped((k[1], bit) for k, bit in bits.items())
        failing = {  # the bits of the classes that fail each condition
            wc: reduce(or_, (g for t, row in tags.items()
                             for g in compress(row.values(), map(not_, keep(t, row)))), 0),
            wu: reduce(or_, (g & ~inside.get(t2, 0)
                             for row in tags.values() for t2, g in row.items()), 0),
            wo: reduce(or_, (mask & ~reduce(and_, map(lefts.get, cs, repeat(0)), mask)
                             for cs, mask in by_c.items()), 0)}
        if not any(failing.values()):
            continue
        # the first failing source of each condition, in pre order
        for src, k in sources():
            bit = bits.get(k, 0)
            for name in (wc, wu, wo):
                if not failing[name] & bit:
                    continue
                failing[name] = conds[name] = False
                if name == wo:  # its first uncovered left run
                    tgt = (next(t for t in k[1] if not lefts.get(t, 0) & bit),)
                else:  # its first failing target, in the order of its image
                    tgt = next(t for t in image(src) if (
                        t[1] not in k[3] if name == wu else not s.pred.holds(*t)))
                ends = [r.render_pair(*e) if len(e) == 2 else bm.space.state_str(*e)
                        for e in ((tgt, src) if backward else (src, tgt))]
                cexs[name] = Counterexample(name, tgt + src if backward else src + tgt,
                                            f"{ends[0]} -> {ends[1]}: {why[name]}")
            if not any(failing.values()):
                break
        # decided: a condition that has not failed, with pairs left to
        # visit, is not evaluated
        if any(conds.values()) and more():
            conds.update((k, None) for k, v in conds.items() if v)
        break
    report = WitnessReport("backward" if backward else "forward", conds, cexs)
    if report.valid:
        oracle = _check_sim(bm, j, backward)
        report.oracle = oracle
        if not oracle.holds:
            raise RouteDisagreement(f"{report.direction}-valid witness but "
                                    f"{report.direction} simulation fails")
    return report


# forward (WC, WO, WU) and backward validity (WCb, WOb, WUb), forward validity
# of the converse witness; on success each asserts the simulation holds
check_fvalid = partial(_check_valid, backward=False)
check_bvalid = partial(_check_valid, backward=True)


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
    oracle = _check_sim(bm, j, backward)
    if not oracle.holds:
        raise WitnessRefused(oracle)
    r, s = _spec_views(bm, j, backward)
    cpost, dpost = post_map(bm.base, j.left, backward), post_map(bm.base, j.right, backward)
    dimg, s_holds = dpost.images, s.pred.holds
    fwd: dict[Pair, frozenset[Pair]] = {}
    for a, bs, cs in _run_rows(r, cpost, dpost):
        for b in bs:
            fwd[(a, b)] = frozenset(
                (t, min(x for x in dimg[b] if s_holds(t, x))) for t in cs)
    return RelWitness(fwd)
