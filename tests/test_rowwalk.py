"""The pair-state walker steps frontiers of rows {a: {b: tag}}: its images
and preimages are compared with the per-pair reference of
`test_judgments.reference_image`, on sampled sources of the benchmark's
mutants and of guess-count's witness at declared widths, and on a hand-made
walk that takes every path of a right step and of a bitest.  The mutants'
declared-width adequacy records are replayed against the reference, and the
start pairs that adequacy walks once it has applied a goal's one-sided prefix
are pinned."""

import random
import textwrap

import pytest

from bikat.bi.terms import B1, BPlus, BStar
from bikat.judge import check_adequacy, term_image, term_preimage
from bikat.judge.core import NO_RUN, SEVERAL, pair_spec, post_map
from bikat.models import kat_post
from bikat.problem import load_problem

from test_corpus import corpus_problem
from test_judgments import assert_refutes, reference_image
from test_record import DECLARED, problem_at, record
from test_refute import MUTANTS


def assert_walks_match(bm, w, sources, targets=3):
    images = term_image(bm, w, sources)
    assert set(images) == set(sources)
    for src in sources:
        assert images[src] == reference_image(bm, w, {src}), src
    # a preimage may hold many pairs, so a few targets suffice
    ends = sorted({t for src in sources for t in images[src]})[:targets]
    preimages = term_preimage(bm, w, ends)
    for t in ends:
        assert preimages[t] == reference_image(bm, w, {t}, backward=True), t


@pytest.mark.parametrize("name", ["factorial-ni~mutant", "loop-tiling~mutant"])
def test_mutant_goals_match_reference(name):
    prob = problem_at(name)
    pre = pair_spec(prob.bm, prob.pre).pairs()
    sources = random.Random(13).sample(pre, min(32, len(pre)))
    assert_walks_match(prob.bm, prob.script_goal, sources)


def test_guess_count_witness_matches_reference():
    # the witness starts with `[k := any>`: right ends of several states
    prob = corpus_problem("guess-count")
    bm, w = prob.bm, prob.witness
    pre = pair_spec(bm, prob.pre).pairs()
    sources = random.Random(17).sample(pre, 32)
    havoc = post_map(bm.base, w.args[0].arg)
    assert set(havoc.ends([b for _, b in sources])) == {SEVERAL}
    assert_walks_match(bm, w, sources)


HAND = textwrap.dedent("""\
    width 2; vars x y;
    left  { x := x + 1; }
    right { x := x + 1; }
    kind allall;
    pre  { [x == x] }
    post { [x == x] }
""")
# `[y := 0>` maps the partners of a row that differ in y to one end;
# `[[x != 0] ; x := x - 1>` has no run from x = 0; `[x == x]` is keyed and
# `[x < x]` (left x below right x) is a residual comparison
HAND_WALK = ("[y := 0> ; ([x == x] ; <x := x + 1] + [x < x] ; "
             "[[x != 0] ; x := x - 1>)* ; (<y := y + 1] + [y := 1>)")


def test_hand_walk_takes_every_path():
    prob = load_problem(HAND)
    bm = prob.bm
    w = prob.parser.bikat(HAND_WALK)
    n = bm.space.size
    first, loop, last = w.args
    assert isinstance(loop, BStar) and isinstance(loop.arg, BPlus)
    assert isinstance(last, BPlus)
    keyed, residual = (pair_spec(bm, part.args[0].test).pred for part in loop.arg.args)
    assert keyed.keyed and not residual.keyed and residual.rest is not None
    ends = post_map(bm.base, first.arg).ends(list(range(n)))
    assert len(set(ends)) < n  # right ends meet
    down = loop.arg.args[1].args[1].arg
    assert NO_RUN in post_map(bm.base, down).ends(list(range(n)))
    pairs = [(a, b) for a in range(n) for b in range(n)]
    assert term_image(bm, w, pairs) == {p: reference_image(bm, w, {p}) for p in pairs}
    assert term_preimage(bm, w, pairs) == {
        p: reference_image(bm, w, {p}, backward=True) for p in pairs}


def test_hand_walk_adequacy_matches_images():
    # sources sharing a left state share one row; the uncovered source and
    # run pair are the first ones in pre order
    prob = load_problem(HAND)
    bm, j = prob.bm, prob.judgment()
    w = prob.parser.bikat(HAND_WALK)
    res = check_adequacy(bm, j.spec.pre, j.left, j.right, w)
    assert not res.holds
    a, b, t, t2 = res.counterexample.states
    first = next((src, (c, d)) for src in pair_spec(bm, j.spec.pre).pairs()
                 for c in post_map(bm.base, j.left)[src[0]]
                 for d in post_map(bm.base, j.right)[src[1]]
                 if (c, d) not in reference_image(bm, w, {src}))
    assert ((a, b), (t, t2)) == first


@pytest.mark.parametrize("source", MUTANTS)
def test_mutant_adequacy_counterexamples_are_pinned(source):
    # the record's run pair is one the goal misses; where the goal is
    # adequate, sampled sources' run pairs are in its reference image
    name = f"{source}~mutant"
    prob, rec = problem_at(name), record(DECLARED, name, "adequate")
    if rec["counterexample"]:
        assert_refutes(prob, *rec["counterexample"][:2])
        return
    bm, j = prob.bm, prob.judgment()
    pre = pair_spec(bm, j.spec.pre).pairs()
    for a, b in random.Random(19).sample(pre, min(16, len(pre))):
        runs = {(c, d) for c in kat_post(bm.base, j.left, (a,))
                for d in kat_post(bm.base, j.right, (b,))}
        assert runs <= reference_image(bm, prob.script_goal, {(a, b)}), (a, b)


# pre pairs and walked start pairs of adequacy at declared width: the goal's
# one-sided prefix is applied per state, and each class of sources, keyed by
# the images of the prefix and of the programs, starts one walk of the rest
QUOTIENT = {
    "factorial-ni": (32768, 8),
    "factorial-ni~mutant": (32768, 64),
}


@pytest.mark.parametrize("name", ["factorial-ni", "factorial-ni~mutant", "array-insert"])
def test_adequacy_walks_one_start_pair_per_class(name, monkeypatch):
    from bikat.judge import witness
    prob = problem_at(name)
    j = prob.judgment()
    walked = []
    tags = witness.term_tags

    def counting(bm, w, rows):
        walked.append((w, sum(map(len, rows.values()))))
        return tags(bm, w, rows)

    monkeypatch.setattr(witness, "term_tags", counting)
    assert check_adequacy(prob.bm, j.spec.pre, j.left, j.right, prob.script_goal).holds
    if name == "array-insert":
        # one-sided throughout: the rest of the goal is the identity
        assert walked and {w for w, _ in walked} == {B1}
        return
    pre, starts = QUOTIENT[name]
    assert len(pair_spec(prob.bm, j.spec.pre).pairs()) == pre
    assert sum(n for _, n in walked) == starts
