"""Relation algebra, pair relations, projections, and the trace model."""

import random

import pytest

from bikat.kat import Alphabet, CapExceeded, parse_term
from bikat.models import (BiRel, Rel, StateSpace, check_projection_axioms,
                          havoc, interp_bikat, interp_kat, interp_kat_bounded,
                          interp_trace_bounded, lift_left, lift_right, pack,
                          proj_left, proj_right, random_bimodel,
                          random_kat_model, tensor)
from bikat.models.birel import DENSE_SIDE_CAP
from bikat.bi import BiAlphabet, lrc_normalize

from gen import random_bikat, random_kat

ALPH = Alphabet.make(["p", "q"], ["a", "b"])
BALPH = BiAlphabet(ALPH, ("P",))


def rrel(rng, n, density=0.4):
    return Rel.of_pairs(n, [(i, j) for i in range(n) for j in range(n)
                            if rng.random() < density])


class TestRel:
    def test_star_single_edge(self):
        r = Rel.of_pairs(2, [(0, 1)])
        assert set(r.star().pairs()) == {(0, 0), (1, 1), (0, 1)}

    def test_converse_involution(self):
        rng = random.Random(0)
        for _ in range(20):
            r = rrel(rng, 5)
            assert r.converse().converse() == r

    def test_compose_assoc(self):
        rng = random.Random(1)
        for _ in range(20):
            r, s, t = rrel(rng, 4), rrel(rng, 4), rrel(rng, 4)
            assert r.compose(s).compose(t) == r.compose(s.compose(t))

    def test_havoc_is_top(self):
        sp = StateSpace.plain(4)
        h = havoc(sp)
        rng = random.Random(2)
        for _ in range(10):
            assert rrel(rng, 4).leq(h)
        assert h.compose(h) == h

    def test_havoc_unit_space(self):
        assert havoc(StateSpace.plain(1)) == Rel.identity(1)


class TestBiRel:
    def test_tensor_pointwise(self):
        rng = random.Random(3)
        for _ in range(10):
            r, s = rrel(rng, 3), rrel(rng, 3)
            t = tensor(r, s)
            for a in range(3):
                for a2 in range(3):
                    for b in range(3):
                        for b2 in range(3):
                            assert t.has(pack(3, a, a2), pack(3, b, b2)) == \
                                (r.has(a, b) and s.has(a2, b2))

    def test_tensor_counts_multiply(self):
        rng = random.Random(4)
        for _ in range(10):
            r, s = rrel(rng, 4), rrel(rng, 4)
            assert tensor(r, s).count() == r.count() * s.count()

    def test_tensor_identity(self):
        assert tensor(Rel.identity(3), Rel.identity(3)) == BiRel.identity(3)

    def test_tensor_empty_annihilates(self):
        r = Rel.full(3)
        assert tensor(r, Rel.empty(3)).is_empty()

    def test_lifts_commute_and_fuse(self):
        rng = random.Random(5)
        for _ in range(10):
            r, s = rrel(rng, 4), rrel(rng, 4)
            lr = lift_left(r).compose(lift_right(s))
            rl = lift_right(s).compose(lift_left(r))
            assert lr == rl == tensor(r, s)

    def test_large_side_is_refused(self):
        n = DENSE_SIDE_CAP + 1
        for build in (lambda: BiRel.empty(n), lambda: BiRel.identity(n),
                      lambda: BiRel.subid(n, ()),
                      lambda: tensor(Rel.identity(n), Rel.identity(n))):
            with pytest.raises(CapExceeded) as e:
                build()
            assert "DENSE_SIDE_CAP = 64" in str(e.value)
            assert f"over {n} states" in str(e.value)
        assert BiRel.identity(DENSE_SIDE_CAP).count() == DENSE_SIDE_CAP ** 2

    def test_subid_idempotent(self):
        members = [pack(3, 0, 1), pack(3, 2, 2)]
        d = BiRel.subid(3, members)
        assert d.compose(d) == d
        assert BiRel.subid(3, []).is_empty()
        full = BiRel.subid(3, range(9))
        assert full == BiRel.identity(3)


class TestProjections:
    def test_inversion(self):
        rng = random.Random(7)
        for _ in range(10):
            r = rrel(rng, 4)
            assert proj_left(lift_left(r)) == r
            assert proj_right(lift_right(r)) == r

    def test_disjointness_needs_nonempty(self):
        r = rrel(random.Random(8), 4)
        if r.is_empty():
            r = Rel.of_pairs(4, [(0, 0)])
        assert proj_left(lift_right(r)) == Rel.identity(4)
        assert proj_left(BiRel.empty(4)) == Rel.empty(4)

    def test_axiom_report_all_pass(self):
        for seed in range(6):
            bm = random_bimodel(seed, 4, ALPH, ("P",))
            rep = check_projection_axioms(bm, seed=seed)
            assert all(r.passed for r in rep), [r.name for r in rep if not r.passed]


class TestInterp:
    def test_star_closure_example(self):
        m = random_kat_model(0, 2, Alphabet.make([], ["a"]), 0.0)
        from bikat.models import RelAction
        m.acts["a"] = RelAction(Rel.of_pairs(2, [(0, 1)]))
        r = interp_kat(m, parse_term("a*", Alphabet.make([], ["a"])))
        assert set(r.pairs()) == {(0, 0), (1, 1), (0, 1)}

    def test_test_is_subidentity(self):
        m = random_kat_model(1, 4, ALPH)
        r = interp_kat(m, parse_term("p", ALPH))
        assert r.leq(Rel.identity(4))

    def test_axioms_hold_pointwise(self):
        rng = random.Random(9)
        cases = [("a;(b;a)*", "(a;b)*;a"), ("(a+b)*", "a*;(b;a*)*"),
                 ("a;(b+1)", "a;b + a"), ("(a;b)*;a", "a;(b;a)*")]
        for seed in range(10):
            m = random_kat_model(seed, 4, ALPH, 0.35)
            for lhs, rhs in cases:
                assert interp_kat(m, parse_term(lhs, ALPH)) == \
                    interp_kat(m, parse_term(rhs, ALPH))

    def test_bikat_interp_validates_normalization(self):
        rng = random.Random(10)
        for seed in range(8):
            bm = random_bimodel(seed, 4, ALPH, ("P",))
            for _ in range(10):
                t = random_bikat(rng, ALPH, ("P",), depth=3)
                assert interp_bikat(bm, t) == interp_bikat(bm, lrc_normalize(t))

    def test_random_model_determinism_and_density(self):
        a = random_kat_model(42, 5, ALPH, 0.5)
        b = random_kat_model(42, 5, ALPH, 0.5)
        for name in ALPH.actions:
            assert a.acts[name].rel() == b.acts[name].rel()
        z = random_kat_model(3, 5, ALPH, 0.0)
        assert all(z.acts[n].rel().is_empty() for n in ALPH.actions)
        f = random_kat_model(3, 5, ALPH, 1.0)
        assert all(f.acts[n].rel() == Rel.full(5) for n in ALPH.actions)


class TestTraces:
    def test_tests_are_singleton_traces(self):
        m = random_kat_model(11, 3, ALPH)
        ts = interp_trace_bounded(m, parse_term("p", ALPH), 2)
        mask = m.tests["p"].mask()
        assert ts.traces == frozenset((s,) for s in range(3) if mask >> s & 1)

    def test_action_needs_budget(self):
        m = random_kat_model(12, 3, ALPH)
        assert interp_trace_bounded(m, parse_term("a", ALPH), 0).count() == 0

    def test_endpoints_match_bounded_relation(self):
        rng = random.Random(13)
        for seed in range(6):
            m = random_kat_model(seed, 3, ALPH, 0.4)
            for _ in range(8):
                t = random_kat(rng, ALPH, depth=2)
                ts = interp_trace_bounded(m, t, 3)
                assert ts.endpoints() == interp_kat_bounded(m, t, 3)

    def test_counts_agree_with_guarded_strings_on_atom_space(self):
        # state space = atoms of one test, all relations full: traces are
        # exactly guarded strings
        from bikat.kat import enumerate_guarded_strings
        alph = Alphabet.make(["p"], ["a"])
        m = random_kat_model(0, 2, alph, 1.0)
        from bikat.models import TestSem
        m.tests["p"] = TestSem(m.space, mask=0b10)  # state 1 satisfies p
        for src in ("p;a", "a;(a;p)*", "p + a"):
            t = parse_term(src, alph)
            traces = interp_trace_bounded(m, t, 3)
            strings = {g for g in enumerate_guarded_strings(t, 3, alph)}
            assert traces.count() == len(strings)
