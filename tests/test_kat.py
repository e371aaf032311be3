"""Term algebra and the guarded-string decision procedure."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bikat.kat import (Alphabet, CapExceeded, K0, K1, ZeroHypothesis,
                       atoms, eliminate_zero_hypotheses,
                       enumerate_guarded_strings, gs_member, hoare_valid,
                       kact, kat_equiv, kat_leq, kplus, kseq, kstar, ktest,
                       parse_term, parse_test, simplify, tnot, tprim)
from bikat.kat.guarded import gs_diff
from bikat.models import interp_kat, random_kat_model

from gen import random_kat

A2 = Alphabet.make(["p", "q"], ["a", "b"])
A3 = Alphabet.make(["p", "q", "r"], ["a", "b", "c"])


def t(src, alph=A3):
    return parse_term(src, alph)


class TestSimplify:
    def test_seq_unit(self):
        assert simplify(kseq(K1, kact("a"))) == kact("a")

    def test_plus_idempotent(self):
        assert simplify(kplus(kact("a"), kact("a"))) == kact("a")

    def test_seq_annihilation(self):
        assert simplify(kseq(K0, kstar(kact("a")))) == K0

    def test_assoc_flattening(self):
        assert simplify(t("a;(b;c)")) == simplify(t("(a;b);c"))
        assert simplify(t("a+(b+c)")) == simplify(t("(a+b)+c"))

    def test_sum_sorted(self):
        assert simplify(t("b+a")) == simplify(t("a+b"))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6))
    def test_simplify_preserves_language(self, seed):
        rng = random.Random(seed)
        term = random_kat(rng, A2, depth=3)
        alph = A2
        lang1 = enumerate_guarded_strings(term, 3, alph)
        lang2 = enumerate_guarded_strings(simplify(term), 3, alph)
        assert lang1 == lang2


class TestAtoms:
    def test_empty_alphabet(self):
        assert atoms(Alphabet.make([], ["a"])) == [0]

    def test_single(self):
        assert atoms(Alphabet.make(["p"], [])) == [0, 1]

    def test_two(self):
        assert len(atoms(A2)) == 4

    def test_cap_refused(self):
        with pytest.raises(CapExceeded):
            Alphabet.make([f"p{i}" for i in range(11)], [])


class TestGuardedStrings:
    def test_one_is_all_atoms(self):
        assert enumerate_guarded_strings(K1, 4, A2) == {(a,) for a in range(4)}

    def test_action_needs_budget(self):
        assert enumerate_guarded_strings(kact("a"), 0, A2) == set()

    def test_single_action(self):
        # every atom pair around the action, by definition of catenation
        got = enumerate_guarded_strings(kact("a"), 1, A2)
        idx = A2.actions.index("a")
        assert got == {(x, idx, y) for x in range(4) for y in range(4)}

    def test_member_agrees_with_enumeration(self):
        term = t("p;a;(b;!q)*", A2)
        lang = enumerate_guarded_strings(term, 3, A2)
        for gs in lang:
            assert gs_member(term, gs, A2)


class TestEquivalence:
    def test_sliding(self):
        assert kat_equiv(t("a;(b;a)*"), t("(a;b)*;a")).is_equal

    def test_excluded_middle(self):
        assert kat_equiv(t("p + !p"), t("1")).is_equal

    def test_denesting(self):
        assert kat_equiv(t("(a+b)*"), t("a*;(b;a*)*")).is_equal

    def test_not_equal_with_minimal_counterexample(self):
        v = kat_equiv(t("a;b"), t("b;a"))
        assert v.kind == "not_equal"
        # frozen from the bounded-enumeration oracle: shortest distinguishing
        # string has exactly two actions
        assert len(v.counterexample) == 5
        assert gs_member(t("a;b"), v.counterexample, v.alphabet) != \
            gs_member(t("b;a"), v.counterexample, v.alphabet)

    def test_leq_zero_bottom(self):
        assert kat_leq(t("0"), t("a")).is_equal

    def test_test_below_one(self):
        assert kat_leq(t("p"), t("1")).is_equal

    def test_a_not_below_aa(self):
        v = kat_leq(t("a"), t("a;a"))
        assert v.kind == "not_equal"
        # derived by diffing the guarded-string languages at lengths 1 vs 2
        assert len(v.counterexample) == 3

    def test_unknown_on_cap(self):
        v = kat_equiv(t("(a+b)*;(b+c)*"), t("(a+b+c)*"), max_pairs=2)
        assert v.kind == "unknown"


class TestHypotheses:
    def test_empty_hyps_identity(self):
        s, u = eliminate_zero_hypotheses(t("a"), t("b"), [])
        assert (s, u) == (t("a"), t("b"))

    def test_reflexivity_preserved(self):
        h = [ZeroHypothesis("h", t("p;a"))]
        s, u = eliminate_zero_hypotheses(t("a;b"), t("a;b"), h)
        assert kat_equiv(s, u).is_equal

    def test_invariance_law(self):
        h = [ZeroHypothesis("inv", t("p;a;!p"))]
        assert kat_leq(t("p;a*"), t("p;a*;p"), h).is_equal

    def test_hoare_from_hypothesis(self):
        h = [ZeroHypothesis("step", t("p;a;!q"))]
        assert hoare_valid(parse_test("p", A3), t("a"), parse_test("q", A3), h).is_equal

    def test_hypothesis_elimination_matches_model_oracle(self):
        # relational models satisfying the hypothesis must validate any
        # equation proved under it
        h = [ZeroHypothesis("inv", t("p;a;!p", A2))]
        lhs, rhs = t("p;a*", A2), t("p;a*;p", A2)
        assert kat_equiv(kplus(lhs, rhs), rhs, h).is_equal
        hits = 0
        for seed in range(40):
            m = random_kat_model(seed, 4, A2, 0.35)
            if interp_kat(m, t("p;a;!p", A2)).is_empty():
                hits += 1
                assert interp_kat(m, lhs).leq(interp_kat(m, rhs))
        assert hits > 0


class TestHoare:
    def test_false_pre(self):
        assert hoare_valid(parse_test("0", A3), t("a"), parse_test("q", A3)).is_equal

    def test_skip(self):
        assert hoare_valid(parse_test("p", A3), t("1"), parse_test("p", A3)).is_equal

    def test_three_equivalent_forms(self):
        rng = random.Random(7)
        agree = 0
        for _ in range(40):
            p = ktest(tprim(rng.choice(A2.tests)))
            c = random_kat(rng, A2, depth=2)
            q = ktest(tprim(rng.choice(A2.tests)))
            f1 = kat_equiv(kseq(p, c, ktest(tnot(q.test))), K0).is_equal
            f2 = kat_leq(kseq(p, c), kseq(p, c, q)).is_equal
            f3 = kat_equiv(kseq(p, c), kseq(p, c, q)).is_equal
            assert f1 == f2 == f3
            agree += f1
        assert 0 < agree  # some sampled triples are valid


class TestKatAxiomsSchematic:
    CASES = [
        ("a+(b+c)", "(a+b)+c"),
        ("a+b", "b+a"),
        ("a+0", "a"),
        ("a+a", "a"),
        ("a;(b;c)", "(a;b);c"),
        ("1;a", "a"),
        ("a;1", "a"),
        ("a;(b+c)", "a;b + a;c"),
        ("(a+b);c", "a;c + b;c"),
        ("0;a", "0"),
        ("a;0", "0"),
        ("1 + a;a*", "a*"),
        ("1 + a*;a", "a*"),
    ]

    @pytest.mark.parametrize("lhs,rhs", CASES)
    def test_equational_axioms(self, lhs, rhs):
        assert kat_equiv(t(lhs), t(rhs)).is_equal

    def test_star_induction_left(self):
        # b + a;c <= c for c := a*;b, hence a*;b <= c
        c = t("a*;b")
        assert kat_leq(kplus(t("b"), kseq(t("a"), c)), c).is_equal
        assert kat_leq(t("a*;b"), c).is_equal

    def test_star_induction_right(self):
        c = t("b;a*")
        assert kat_leq(kplus(t("b"), kseq(c, t("a"))), c).is_equal
        assert kat_leq(t("b;a*"), c).is_equal


class TestDecisionSoundnessAndCompleteness:
    def test_fuzz_against_models_and_enumeration(self):
        alph = A2
        rng = random.Random(2024)
        models = [random_kat_model(s, 4, alph, 0.3) for s in range(8)]
        for _ in range(120):
            s = random_kat(rng, alph, depth=3)
            u = random_kat(rng, alph, depth=3)
            v = kat_equiv(s, u)
            langs = enumerate_guarded_strings(s, 4, alph)
            langu = enumerate_guarded_strings(u, 4, alph)
            if v.is_equal:
                assert langs == langu
                for m in models:
                    assert interp_kat(m, s) == interp_kat(m, u)
            else:
                cex = v.counterexample
                assert gs_member(s, cex, v.alphabet) != gs_member(u, cex, v.alphabet)
                # bounded enumeration agrees whenever it can see the difference
                if langs != langu:
                    assert gs_diff(langs, langu) is not None
