"""Columns built by arithmetic: footprint bits by mask, the flat lift and
the end column of a framed term.

`StateSpace.packed(fields, int)` masks the packed states slot by slot;
`lift` evaluates its function once per footprint value and assembles the
column from that one sequence; `StateSpace.moved` builds a successor table
and, for `PostMap`, a framed term's end column, once the states asked of the
map reach its build rule.  Each must equal its reference: the per-value
assembly that `lift` used before, kept here, and the unlifted walk
(`kmodel.image`).  An unframed term keeps no column: its ends are its
images decoded."""

import itertools
import random
from array import array

import pytest

from bikat.judge import core, dispatch
from bikat.judge.core import NO_RUN, SEVERAL, PostMap
from bikat.kat.terms import KAct, KPlus, KSeq, KStar, KTest, subterms
from bikat.models.kmodel import frame_mask, image
from bikat.models.space import ArrayDecl, StateSpace, VarDecl, packed_states, state_code
from bikat.problem import parse_stmts_text

from test_corpus import NAMES
from test_imp import env_for
from test_record import problem_at

KAT = (KTest, KAct, KPlus, KSeq, KStar)

# x at bits 0-1, y at 2, z at 3-4, a[0] at 5, a[1] at 6: 128 states
SPACE = StateSpace.structured([VarDecl("x", 2), VarDecl("y", 1), VarDecl("z", 2)],
                              [ArrayDecl("a", 2, 1)])
FIELDS = SPACE.fields()
SUBSETS = [list(c) for k in range(len(FIELDS) + 1)
           for c in itertools.combinations(FIELDS, k)]


def old_lift(space, fields, fn, into=list):
    """The assembly `lift` used before: one `into((v,))` per footprint
    value, then for each run of adjacent fields each column repeated across
    the gap to the run and concatenated."""
    n = space.size
    runs = []
    if fields is not None:
        for off, width in sorted({space.field(f) for f in fields}):
            if runs and sum(runs[-1]) == off:
                runs[-1][1] += width
            else:
                runs.append([off, width])
    if fields is None or 1 << sum(w for _, w in runs) == n:
        return into(map(fn, range(n)))
    reps = [0]
    for off, width in runs:
        reps = [r | v << off for v in range(1 << width) for r in reps]
    cols = [into((v,)) for v in map(fn, reps)]
    end = 0
    for off, width in runs:
        gap, step = 1 << (off - end), 1 << width
        cols = [_concat([c * gap for c in cols[i:i + step]])
                for i in range(0, len(cols), step)]
        end = off + width
    return cols[0] * (n >> end)


def _concat(parts):
    if isinstance(parts[0], bytes):
        return b"".join(parts)
    return list(itertools.chain.from_iterable(parts))


def _packer(space):
    code = state_code(space.size).upper()
    return lambda vals: array(code, vals).tobytes()


def test_the_subsets_cover_every_kind_of_footprint():
    runs = {str(f): SPACE.bits(f) for f in (["x", "y"], ["x", "z"], ["x"], FIELDS, [])}
    assert runs["['x', 'y']"] == 0b111  # adjacent fields, one run at offset 0
    assert runs["['x', 'z']"] == 0b11011  # two runs
    assert runs[str(FIELDS)] is None  # the whole state
    assert runs["[]"] == 0
    assert all(f in SUBSETS for f in (["x", "y"], ["x", "z"], ["x"], FIELDS, []))


@pytest.mark.parametrize("fields", SUBSETS, ids=str)
def test_footprint_bits_are_the_masked_states(fields):
    got = SPACE.packed(fields, int)
    assert got == int.from_bytes(old_lift(SPACE, fields, int, _packer(SPACE)), "little")
    mask = SPACE.bits(fields)
    assert list(SPACE.unpack(got)) == [s if mask is None else s & mask
                                       for s in range(SPACE.size)]
    assert SPACE.packed(None, int) == packed_states(SPACE.size)


@pytest.mark.parametrize("fields", SUBSETS, ids=str)
def test_the_flat_lift_equals_the_per_value_assembly(fields):
    n, mask = SPACE.size, SPACE.bits(fields)
    mask = n - 1 if mask is None else mask

    def fn(s):  # reads only the footprint
        return (s & mask) * 37 % n
    want = [fn(s) for s in range(n)]
    for into in (list, bytes, _packer(SPACE)):
        got = SPACE.lift(fields, fn, into)
        assert got == old_lift(SPACE, fields, fn, into), into
        assert got == into(want), into


def _moved_reference(space, mask, fn):
    out = []
    for s in range(space.size):
        r = s if mask is None else s & mask
        e = fn(r)
        out.append(e if e < 0 else s - r + e)
    return out


@pytest.mark.parametrize("fields", SUBSETS, ids=str)
def test_moved_keeps_the_frame_and_marks_negative_values(fields):
    mask = SPACE.bits(fields)
    full = SPACE.size - 1 if mask is None else mask
    ends = (lambda r: r * 5 + 1 & full,  # a state everywhere
            lambda r: -1 - r % 2 if r % 3 == 0 else r * 5 + 1 & full)
    for fn in ends:
        got = SPACE.moved(mask, fn)
        assert got.typecode == state_code(SPACE.size)
        assert list(got) == _moved_reference(SPACE, mask, fn)


def test_moved_over_four_byte_slots():
    space = StateSpace.structured([VarDecl("p", 8), VarDecl("q", 8)])
    assert state_code(space.size) == "i"
    for fields in (["p"], ["q"]):
        mask = space.bits(fields)
        fn = (lambda r: NO_RUN if r % 5 == 0 else SEVERAL if r % 5 == 1
              else r ^ mask)
        assert list(space.moved(mask, fn)) == _moved_reference(space, mask, fn)


def _end(img) -> int:
    return next(iter(img)) if len(img) == 1 else SEVERAL if img else NO_RUN


class _Traffic:
    """The projection sources the `PostMap`s walk, the states asked of their
    framed ends, and the columns they build."""

    def __init__(self, monkeypatch):
        self.walked = self.asked = self.built = 0
        walk, ends, column = core.image, PostMap._framed_ends, PostMap._column

        def walking(m, t, sources, backward=False):
            self.walked += len(sources)
            return walk(m, t, sources, backward)

        def asking(post, states):
            self.asked += len(states)
            return ends(post, states)

        def building(post):
            self.built += 1
            return column(post)
        monkeypatch.setattr(core, "image", walking)
        monkeypatch.setattr(PostMap, "_framed_ends", asking)
        monkeypatch.setattr(PostMap, "_column", building)

    def ask(self, m, t, backward, batches, want) -> PostMap:
        """A fresh map asked `batches` in order, alternately ends first and
        images first; each answer equals the walk's, the projections walked
        never exceed the states asked nor the projection count, and the
        column is built once, when the states asked reach the rule."""
        self.walked = self.asked = self.built = 0
        post = PostMap(m, t, backward)
        due, count = post._due, 1 << post._mask.bit_count()
        for i, batch in enumerate(batches):
            ends = [_end(want[s]) for s in batch]
            if i % 2 == 0:
                assert post.ends(batch) == ends, (t, backward)
            images = post.fill(batch)
            assert {s: images[s] for s in batch} == {s: want[s] for s in batch}, (t, backward)
            if i % 2 == 1:
                assert post.ends(batch) == ends, (t, backward)
            assert self.walked <= min(self.asked, count)
            assert self.built == (self.asked >= due)
            assert (post._ends is not None) == (self.asked >= due)
        return post


def _growing(states: list[int]) -> list[list[int]]:
    """`states` in batches of 1, 2, 4, ..."""
    return [states[(1 << k) - 1:(1 << k + 1) - 1]
            for k in range(len(states).bit_length())]


def _ask_every_way(traffic, m, t, backward, states, want) -> PostMap:
    """Ask all of `states` at once, in growing batches, and so few (each
    asked twice: ends and images) that no column is built; the map asked at
    once is returned."""
    due = PostMap(m, t, backward)._due
    post = traffic.ask(m, t, backward, [states], want)
    assert post._ends is not None  # the whole sample crosses the rule
    traffic.ask(m, t, backward, _growing(states), want)
    few = states[:min(8, (due - 1) // 2)]
    assert traffic.ask(m, t, backward, [few], want)._ends is None
    return post


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("width", [None, 2])
def test_corpus_end_columns_equal_the_walk(name, width, monkeypatch):
    prob = problem_at(name, width)
    j, m = prob.judgment(), prob.bm.base
    n = m.space.size
    # at least an eighth of the space, and every state of a small one
    states = sorted(random.Random(5).sample(range(n), min(n, 4096)))
    terms = sorted({u for t in (j.left, j.right) for u in subterms(t)
                    if isinstance(u, KAT) and frame_mask(m, u) is not None}, key=str)
    assert terms, name
    traffic = _Traffic(monkeypatch)
    for t in terms:
        for backward in (False, True):
            _ask_every_way(traffic, m, t, backward, states,
                           image(m, t, states, backward))


def test_corpus_unframed_ends_decode_the_walk():
    # an unframed term's ends are its images decoded: one end, NO_RUN or
    # SEVERAL, asked at once and in two overlapping batches
    marks, asked = set(), 0
    for name in NAMES:
        prob = problem_at(name, 2)
        j, m = prob.judgment(), prob.bm.base
        states = list(range(m.space.size))
        third = len(states) // 3
        terms = {u for t in (j.left, j.right) for u in subterms(t)
                 if isinstance(u, KAT) and frame_mask(m, u) is None}
        for t in sorted(terms, key=str):
            for backward in (False, True):
                want = image(m, t, states, backward)
                ends = [_end(want[s]) for s in states]
                assert PostMap(m, t, backward).ends(states) == ends, (t, backward)
                post = PostMap(m, t, backward)
                for part in (slice(0, 2 * third), slice(third, None)):
                    assert post.ends(states[part]) == ends[part], (t, backward)
                assert post.fill(states) == want
                marks |= set(ends) & {NO_RUN, SEVERAL}
                asked += 1
    assert asked == 28 and marks == {NO_RUN, SEVERAL}


def test_havoc_and_blocking_assumes_give_no_run_and_several(monkeypatch):
    env = env_for({"x": 2, "y": 2, "z": 2, "w": 2}, width=2)
    states = list(range(env.space.size))
    traffic = _Traffic(monkeypatch)
    marks = set()
    for text in ("assume(x != 1); y := y + x;",
                 "x := any; assume(x != 2);",
                 "if (x == 0) { y := any; } else { assume(y != 3); z := z + 1; }",
                 "while (x != 0) { x := x + 2; } y := any;"):
        t = env.compile_block(parse_stmts_text(text))
        m = env.kat_model()
        assert frame_mask(m, t) is not None, text
        for backward in (False, True):
            post = _ask_every_way(traffic, m, t, backward, states,
                                  image(m, t, states, backward))
            marks |= set(post._ends) & {NO_RUN, SEVERAL}
    assert marks == {NO_RUN, SEVERAL}


@pytest.mark.parametrize("name", NAMES)
def test_ends_of_a_range_equal_the_ends_of_its_list(name):
    # a range of states is read from the projections before the end column
    # is built, and as one slice of the column after; either way its ends
    # are those of the same states as a list
    prob = problem_at(name, 2)
    j, m = prob.judgment(), prob.bm.base
    n = m.space.size
    terms = sorted({u for t in (j.left, j.right) for u in subterms(t)
                    if isinstance(u, KAT) and frame_mask(m, u) is not None}, key=str)
    for t in terms:
        for backward in (False, True):
            images = image(m, t, range(n), backward)
            want = [_end(images[s]) for s in range(n)]
            post = PostMap(m, t, backward)
            run = range(n // 3, n // 3 + min(8, (post._due - 1) // 2))
            assert list(post.ends(run)) == post.ends(list(run)) == want[run.start:run.stop]
            assert post._ends is None, (t, backward)
            assert list(post.ends(range(n))) == want and post._ends is not None
            for run in (range(0), range(5, 6), range(n // 2, n), range(1, n - 1)):
                got = post.ends(run)
                assert list(got) == post.ends(list(run)) == want[run.start:run.stop]
                assert isinstance(got, array), (t, backward)  # one slice


def test_a_failing_bulk_chunk_asks_each_state_once(monkeypatch):
    # the loop-tiling mutant's ∀∀ fails in its first column chunk, states
    # 0..63: their ends are asked once of each program's map, and the row
    # loop's images are made from those ends, so no state is asked again
    prob = problem_at("loop-tiling~mutant")
    asked: dict = {}
    framed = PostMap._framed_ends

    def counting(post, states):
        counts = asked.setdefault(post.term, {})
        for s in states:
            counts[s] = counts.get(s, 0) + 1
        return framed(post, states)
    monkeypatch.setattr(PostMap, "_framed_ends", counting)
    j = prob.judgment()
    res = dispatch(prob.bm, j)
    assert not res.holds and res.counterexample.states[0] < 64
    assert set(asked) == {j.left, j.right}
    for counts in asked.values():
        assert set(counts) == set(range(64)) and set(counts.values()) == {1}
