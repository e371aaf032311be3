"""Framed images and the bulk ∀∀ chunk path.

A term reads and writes only its primitives' footprint, so `PostMap` lifts
its images and preimages from those of the footprint projections.  The
lifted images and the end column must equal the unlifted walk
(`kmodel.image`).  A ∀∀ pre with at most one partner per left state is read
as two columns, and a chunk of them under a keyed post is decided from the
end columns; its verdict, routes and counterexample must equal the per-pair
reference and those of the row loop over rows built one by one."""

import itertools
import random

import pytest

from bikat.judge import PostMap, core, dispatch, oracles
from bikat.judge.core import NO_RUN, SEVERAL
from bikat.kat.terms import KAct, KPlus, KSeq, KStar, KTest, subterms
from bikat.models import SAssign, SHavoc, SIf, SWhile
from bikat.models.bmodel import bitest_holds
from bikat.models.imp import SArrAssign, SAssume
from bikat.models.kmodel import frame_mask, image
from bikat.problem import load_problem, parse_stmts_text

from test_corpus import NAMES
from test_imp import _random_cond, _random_primitive, env_for
from test_record import problem_at

KAT = (KTest, KAct, KPlus, KSeq, KStar)


def _end(img) -> int:
    return next(iter(img)) if len(img) == 1 else SEVERAL if img else NO_RUN


def _check_lifted(m, t, states, backward) -> bool:
    """The images and ends of a fresh map equal the unlifted walk's, whether
    the ends are asked before the images or after; whether `t` is framed."""
    want = image(m, t, states, backward)
    ends = [_end(want[s]) for s in states]
    first = PostMap(m, t, backward)
    assert first.ends(states) == ends, (t, backward)
    got = first.fill(states)
    assert {s: got[s] for s in states} == want, (t, backward)
    second = PostMap(m, t, backward)
    got = second.fill(states)
    assert {s: got[s] for s in states} == want, (t, backward)
    assert second.ends(states) == ends, (t, backward)
    return first._mask is not None


def _sample(rng, n: int) -> list[int]:
    """States across the space, and above 4096 wherever the space reaches."""
    states = set(rng.sample(range(n), min(n, 120)))
    if n > 4096:
        states |= set(rng.sample(range(4096, n), 120))
    return sorted(states)


class TestLiftedImages:
    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize("width", [None, 2])
    def test_corpus_subterms(self, name, width):
        prob = problem_at(name, width)
        j, m = prob.judgment(), prob.bm.base
        states = _sample(random.Random(7), m.space.size)
        terms = {u for t in (j.left, j.right) for u in subterms(t) if isinstance(u, KAT)}
        lifted = [_check_lifted(m, t, states, backward)
                  for t in sorted(terms, key=str) for backward in (False, True)]
        assert any(lifted), name

    def test_seeded_random_programs(self):
        env = env_for({"x": 2, "y": 2, "z": 1}, width=3, arrays=[("a", 3, 2)],
                      ftables={"f": (3, 1, 4, 1, 5, 2, 6)})
        rng = random.Random(13)
        n = env.space.size
        states = sorted(rng.sample(range(n), 200))
        terms = [env.compile_block(_random_program(rng)) for _ in range(60)]
        m = env.kat_model()
        kinds, lifted = set(), 0
        for t in terms:
            for backward in (False, True):
                lifted += _check_lifted(m, t, states, backward)
                kinds |= set(PostMap(m, t, backward).ends(states))
        assert lifted > 60
        assert {NO_RUN, SEVERAL} <= kinds and max(kinds) >= 0

    def test_havoc_is_framed_by_its_variable(self):
        # havoc keeps one tuple of successors per state; its footprint, the
        # variable, frames every term it is in, forward and backward
        env = env_for({"x": 2, "y": 2, "z": 1}, width=2)
        n = env.space.size
        act = env.compile_action(SHavoc("x"))
        assert set(act.footprint()) == {"x"}
        assert isinstance(act.succ_table(), list)
        assert act.succ_table()[5] == tuple(sorted(env.step(SHavoc("x"), 5)))
        for text in ("x := any;", "x := any; y := y + x;",
                     "while (x != 3) { x := any; z := z + 1; }"):
            t = env.compile_block(parse_stmts_text(text))
            m = env.kat_model()
            assert frame_mask(m, t) is not None, text
            for backward in (False, True):
                assert _check_lifted(m, t, list(range(n)), backward), text

    @pytest.mark.parametrize("width", [None, 2])
    def test_predecessors_invert_the_successor_table(self, width):
        # an action's predecessors of a state, built from the inverse of the
        # action on its footprint values, are those its successor table
        # gives, ascending: framed or not, deterministic or havoc
        rng = random.Random(3)
        for name in NAMES:
            m = problem_at(name, width).bm.base
            states = set(_sample(rng, m.space.size))
            for act in m.acts.values():
                table, want = act.succ_table(), {t: [] for t in states}
                for s in range(m.space.size):
                    for t in (table[s],) if isinstance(table[s], int) else table[s]:
                        if t in want:
                            want[t].append(s)
                assert {t: act.pred_table()[t] for t in states} == {
                    t: tuple(ss) for t, ss in want.items()}, name

    def test_unframed_terms_keep_the_walk(self):
        # a footprint that is the whole state, or a primitive without one
        env = env_for({"x": 2, "y": 1}, width=2)
        t = env.compile_block(parse_stmts_text("x := x + y; y := x % 2;"))
        m = env.kat_model()
        assert frame_mask(m, t) is None
        assert not _check_lifted(m, t, list(range(env.space.size)), False)

    @pytest.mark.parametrize("text", ["x := x + y; y := x % 2;", "y := y + 1;"])
    def test_a_cached_image_is_read_without_a_fill(self, text, monkeypatch):
        # witness validity reads one image per target: a hit builds nothing
        env = env_for({"x": 2, "y": 1}, width=2)
        t = env.compile_block(parse_stmts_text(text))
        post = PostMap(env.kat_model(), t)
        got = post[3]
        assert got == post.fill((3,))[3]

        def no_fill(states):
            raise AssertionError("fill called on a cached image")
        monkeypatch.setattr(post, "fill", no_fill)
        assert post[3] is got


def _random_program(rng, depth=2) -> tuple:
    out = []
    for _ in range(rng.randint(1, 3)):
        pick = rng.random()
        if depth and pick < 0.2:
            out.append(SIf(_random_cond(rng, 1), _random_program(rng, depth - 1),
                           _random_program(rng, depth - 1)))
        elif depth and pick < 0.35:
            out.append(SWhile(_random_cond(rng, 1), _random_program(rng, depth - 1)))
        else:
            prim = _random_primitive(rng)
            out.append(prim if isinstance(prim, (SAssign, SArrAssign, SHavoc))
                       else SAssume(prim))
    return tuple(out)


def _all_single(ends) -> bool:
    """Whether the ends `oracles._single_ends` read of a column chunk hold
    one state or none each, so that the chunk may be decided in bulk."""
    dends = ends[3]
    return dends is not None and SEVERAL not in dends


class TestBulkAllall:
    """Pres that force every right field give one partner per row, one of
    them with left and right tests that filter the columns; programs
    without a run from some states (end NO_RUN) and with several ends
    (SEVERAL); keyed posts that hold and fail, and a post with a residual
    atom.  The reference reads the pre through rows built one by one
    (`PairSpec.one_partner` patched to None), so every chunk goes through
    the row loop."""
    DECL = "width 2; vars x y z; var w:1;\n"
    PROGRAMS = ["x := x + 1; y := y + x;",
                "if (x < 2) { y := y + 1; } else { z := z + 1; }",
                "while (x != 0) { x := x + 2; }",
                "w := any; x := x + w;",
                "skip;"]
    SAME = "[x == x] & [y == y] & [z == z] & [w == w]"
    PRES = [SAME,
            "[x + 1 == x] & [y == z] & [z == y] & [w == w]",
            "L[y != 3] & " + SAME,
            "[x == x] & [y == y] & [z == z] & [x + y == w]",
            "L[z != 1] & R[y != 2] & R[x + z != 3] & " + SAME]
    POSTS = [SAME, "[x == x] & [z == z]", "[y == y] & [x <= x]",
             "[x == x] & R[w == 0]", "[x == x] & [y == y] & [z == z]"]

    @staticmethod
    def _reference(prob, pre_pairs, runs):
        """Every (a, b, a2, b2): a pre pair, a run of each side from it, and
        ends outside the post, by the interpreter, in pre order."""
        return [(a, b, a2, b2) for a, b in pre_pairs
                for a2 in sorted(runs[0][a]) for b2 in sorted(runs[1][b])
                if not bitest_holds(prob.bm, prob.post, a2, b2)]

    def test_bulk_chunks_match_the_reference_and_the_row_loop(self, monkeypatch):
        seen = {"ends": [], "bulk": [], "keys": []}

        def spy(name, fn):
            def wrapped(*args):
                got = fn(*args)
                seen[name].append(got)
                return got
            return wrapped
        monkeypatch.setattr(PostMap, "ends", spy("ends", PostMap.ends))
        monkeypatch.setattr(oracles, "_keys_agree", spy("keys", oracles._keys_agree))
        bulk = spy("bulk", oracles._single_ends)

        rng = random.Random(3)
        cases = list(itertools.product(self.PROGRAMS, self.PROGRAMS, self.PRES, self.POSTS))
        cases = [c for c in cases if c[0] == c[1]] + rng.sample(cases, 60)
        pres, runs, verdicts = {}, {}, set()
        for case in cases:
            left, right, pre, post = case
            prob = load_problem(prob_text(self.DECL, *case))
            bm, j, n = prob.bm, prob.judgment(), prob.bm.space.size
            if pre not in pres:
                pres[pre] = [(a, b) for a in range(n) for b in range(n)
                             if bitest_holds(bm, prob.pre, a, b)]
                assert len({a for a, _ in pres[pre]}) == len(pres[pre])
                # the columns read whole are the pre pairs, in order
                assert list(zip(*core.PairSpec(bm, prob.pre).one_partner())) == pres[pre]
            for prog, stmts in ((left, prob.left), (right, prob.right)):
                if prog not in runs:
                    runs[prog] = [prob.env.run(stmts, frozenset((a,))) for a in range(n)]
            bad = self._reference(prob, pres[pre], (runs[left], runs[right]))
            monkeypatch.setattr(oracles, "_single_ends", bulk)
            res = dispatch(bm, j)
            with monkeypatch.context() as m:
                m.setattr(core.PairSpec, "one_partner", lambda spec: None)
                rows = dispatch(load_problem(prob_text(self.DECL, *case)).bm, j)
            assert res.holds == (not bad), case
            assert res.routes == {"pointwise": res.holds, "equational": res.holds}, case
            if bad:
                a, b, a2, b2 = res.counterexample.states
                assert (a, b, a2, b2) in bad and (a, b) == bad[0][:2], case
            assert (res.holds, res.routes, res.counterexample) == (
                rows.holds, rows.routes, rows.counterexample), case
            verdicts.add(res.holds)
        assert verdicts == {True, False}
        # chunks decided in bulk, chunks sent to the row loop by a failing
        # key comparison, and by an end with several states
        single = list(map(_all_single, seen["bulk"]))
        assert sum(single) > 20
        assert False in single and False in seen["keys"]
        assert {NO_RUN, SEVERAL} <= set(itertools.chain.from_iterable(seen["ends"]))

    # every field forced, and a residual atom that filters the columns
    RESIDUAL = SAME + " & [x == y]"

    def test_a_residual_atom_filters_the_columns(self, monkeypatch):
        """The whole product with the residual pre added, 750 cases: each
        matches the row loop, and the residual pre's cases match the
        reference too.  They take a bulk chunk wherever both programs have
        at most one end and the post is keyed: 4 x 4 x 4 = 64 cases."""
        bulk = []
        single = oracles._single_ends
        monkeypatch.setattr(oracles, "_single_ends",
                            lambda *a: bulk.append(single(*a)) or bulk[-1])
        pres = self.PRES + [self.RESIDUAL]
        runs, took, pre = {}, set(), None
        for case in itertools.product(self.PROGRAMS, self.PROGRAMS, pres, self.POSTS):
            bulk.clear()
            prob = load_problem(prob_text(self.DECL, *case))
            res = dispatch(prob.bm, prob.judgment())
            with monkeypatch.context() as m:
                m.setattr(core.PairSpec, "one_partner", lambda spec: None)
                rows = dispatch(load_problem(prob_text(self.DECL, *case)).bm, prob.judgment())
            assert (res.holds, res.routes, res.counterexample) == (
                rows.holds, rows.routes, rows.counterexample), case
            if case[2] != self.RESIDUAL:
                continue
            if any(map(_all_single, bulk)):
                took.add(case)
            n = prob.bm.space.size
            for prog, stmts in ((case[0], prob.left), (case[1], prob.right)):
                if prog not in runs:
                    runs[prog] = [prob.env.run(stmts, frozenset((a,))) for a in range(n)]
            if pre is None:
                pre = [(a, b) for a in range(n) for b in range(n)
                       if bitest_holds(prob.bm, prob.pre, a, b)]
            bad = self._reference(prob, pre, (runs[case[0]], runs[case[1]]))
            assert res.holds == (not bad), case
            if bad:
                assert res.counterexample.states[:2] == bad[0][:2], case
        several = self.PROGRAMS[3]  # w := any: two ends
        assert took == {c for c in itertools.product(
            self.PROGRAMS, self.PROGRAMS, [self.RESIDUAL], self.POSTS)
            if several not in c[:2] and c[3] != self.POSTS[2]}
        assert len(took) == 64

    def test_a_refused_equational_route_is_dropped_as_in_the_row_loop(self, monkeypatch):
        # a cap that refuses the post up front and then after 31 partner
        # sets: the bulk chunks ask for them in row order, as the row loop
        monkeypatch.setattr(core, "PAIR_ENUM_CAP", 1000)
        text = prob_text(self.DECL, "x := x + 1;", "x := x + 1;", self.SAME, "[x == x]")
        got = []
        for columns in (core.PairSpec.one_partner, lambda spec: None):
            monkeypatch.setattr(core.PairSpec, "one_partner", columns)
            prob = load_problem(text)
            res = dispatch(prob.bm, prob.judgment())
            got.append((res.holds, res.routes, res.counterexample))
        assert got[0] == got[1] == (True, {"pointwise": True}, None)

    @pytest.mark.parametrize("right, routes", [
        # fails from state 4 (y = 1), before the 32nd end: both routes fail
        ("if (y == 1) { x := x + 1; }", {"pointwise": False, "equational": False}),
        # fails from state 32 (z = 2), after it: the route is dropped
        ("if (z == 2) { x := x + 1; }", {"pointwise": False})])
    def test_the_capped_route_fails_or_drops_as_in_the_row_loop(self, monkeypatch,
                                                                 right, routes):
        monkeypatch.setattr(core, "PAIR_ENUM_CAP", 1000)
        text = prob_text(self.DECL, "skip;", right, self.SAME, "[x == x]")
        got = []
        for columns in (core.PairSpec.one_partner, lambda spec: None):
            monkeypatch.setattr(core.PairSpec, "one_partner", columns)
            prob = load_problem(text)
            res = dispatch(prob.bm, prob.judgment())
            got.append((res.holds, res.routes, res.counterexample))
        assert got[0] == got[1] and got[0][:2] == (False, routes)

    def test_within_asks_each_end_once_and_meets_the_cap_in_row_order(self, monkeypatch):
        # post [x == x] is refused up front (128 states x 32 candidates), so
        # its partner sets refuse the 32nd distinct state they are asked for
        monkeypatch.setattr(core, "PAIR_ENUM_CAP", 1000)
        prob = load_problem(prob_text(self.DECL, "skip;", "skip;", self.SAME, "[x == x]"))
        post = prob.judgment().spec.post

        def partners(asked):
            sets = core.PairSpec(prob.bm, post).partner_sets()
            return lambda t: asked.append(t) or sets(t)

        def outcome(within, cends, dends):
            asked = []
            try:
                got = within(partners(asked), cends, dends)
            except core.EnumRefused:
                got = "refused"
            return got, asked

        def row_order(p, cends, dends):
            return all(e == NO_RUN or e in s for s, e in zip(map(p, cends), dends))

        # 64 ends of 8 distinct states: each is asked for once, in order
        cends = [3, 9, 3, 40, 9, 17, 100, 5, 6, 40] * 6 + [3, 9, 3, 40]
        assert outcome(oracles._within, cends, cends) == (True, list(dict.fromkeys(cends)))
        wrong = {t: t ^ 1 for t in range(128)}  # x differs: not a post partner
        rng = random.Random(5)
        seen = set()
        for _ in range(200):
            pool = rng.sample(range(128), rng.randrange(4, 60))
            cends = [rng.choice(pool) for _ in range(64)]
            dends = list(cends)
            if rng.random() < 0.8:
                k = rng.randrange(64)
                dends[k] = wrong[cends[k]]
            if rng.random() < 0.3:
                dends[rng.randrange(64)] = NO_RUN
            got = outcome(oracles._within, cends, dends)[0]
            assert got == outcome(row_order, cends, dends)[0], (cends, dends)
            seen.add(got)
        # the failure before the cap is False, the cap before a failure refuses
        first = [t for t in range(128) if t % 3][:40]
        early, late = list(first), list(first)
        early[5], late[35] = wrong[first[5]], wrong[first[35]]
        assert outcome(oracles._within, first, early)[0] is False
        assert outcome(oracles._within, first, late)[0] == "refused"
        assert seen == {True, False, "refused"}


def prob_text(decl, left, right, pre, post) -> str:
    return (f"{decl}left {{ {left} }} right {{ {right} }}\n"
            f"kind allall; pre {{ {pre} }} post {{ {post} }}")
