"""Embeddings, commutation normal form, laws, encoding, and scripts."""

import random
import re
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bikat.bi import (B0, B1, BiAlphabet, Step, bembl, bembr, bikat_equiv,
                      bisimplify, check_script, decode_tagged_kat,
                      distribute_embeddings, emb_pair, encode_to_tagged_kat,
                      expand_conditional, expand_lockstep, lrc_normalize,
                      parse_biterm, term_side)
from bikat.bi.script import AlignmentScript, ScriptContext
from bikat.bi.terms import BPrim
from bikat.kat import Alphabet, ZeroHypothesis, kact, ktest, parse_term, tprim
from bikat.models import interp_bikat, random_bimodel
from bikat.problem import load_problem

from gen import random_bikat
from test_record import TEXTS, problem_at

ALPH = Alphabet.make(["p", "q"], ["a", "b", "c"])
BALPH = BiAlphabet(ALPH, ("P", "Q"))


def bt(src):
    return parse_biterm(src, BALPH)


def models(count=20, size=4):
    return [random_bimodel(seed, size, ALPH, ("P", "Q")) for seed in range(count)]


class TestEmbeddings:
    def test_pair_with_unit_right(self):
        assert emb_pair(kact("a"), ktest(tprim("p")).test and ktest(tprim("p"))) \
            is not None  # smoke: embedding accepts tests

    def test_left_unit(self):
        assert emb_pair(kact("a"), parse_term("1", ALPH)) == bembl(kact("a"))

    def test_both_units(self):
        assert emb_pair(parse_term("1", ALPH), parse_term("1", ALPH)) == B1

    def test_zero_annihilates(self):
        assert emb_pair(parse_term("0", ALPH), kact("b")) == B0


class TestDistribute:
    def test_seq(self):
        got = distribute_embeddings(bembl(parse_term("a;b", ALPH)))
        assert got == bt("<a] ; <b]")

    def test_star(self):
        got = distribute_embeddings(bembr(parse_term("a*", ALPH)))
        assert got == bt("[a>*")

    def test_plus_with_test(self):
        got = distribute_embeddings(bembl(parse_term("p + a;b", ALPH)))
        assert got == bisimplify(bt("<p] + <a];<b]"))

    def test_preserves_denotation(self):
        rng = random.Random(5)
        for bm in models(10):
            for _ in range(10):
                term = random_bikat(rng, ALPH, ("P", "Q"), depth=3)
                assert interp_bikat(bm, term) == \
                    interp_bikat(bm, distribute_embeddings(term))


class TestLrcNormalize:
    def test_right_left_swap(self):
        assert lrc_normalize(bt("[b> ; <a]")) == bt("<a] ; [b>")

    def test_same_side_kept(self):
        assert lrc_normalize(bt("<a] ; <b]")) == bt("<a] ; <b]")

    def test_bitest_is_barrier(self):
        term = bt("[c> ; P ; <a]")
        assert lrc_normalize(term) == term

    def test_idempotent_and_preserving(self):
        rng = random.Random(11)
        ms = models(8)
        for _ in range(40):
            term = random_bikat(rng, ALPH, ("P", "Q"), depth=3)
            norm = lrc_normalize(term)
            assert lrc_normalize(norm) == norm
            for bm in ms[:4]:
                assert interp_bikat(bm, term) == interp_bikat(bm, norm)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_normal_form_has_no_inversions(self, seed):
        rng = random.Random(seed)
        norm = lrc_normalize(random_bikat(rng, ALPH, ("P", "Q"), depth=3))

        def chains(t):
            from bikat.bi.terms import BPlus, BSeq, BStar
            if isinstance(t, BSeq):
                yield t.args
                for a in t.args:
                    yield from chains(a)
            elif isinstance(t, BPlus):
                for a in t.args:
                    yield from chains(a)
            elif isinstance(t, BStar):
                yield from chains(t.arg)

        for chain in chains(norm):
            for x, y in zip(chain, chain[1:]):
                assert not (term_side(x) == "R" and term_side(y) == "L")


class TestEncoding:
    def test_tag_map(self):
        assert str(encode_to_tagged_kat(bembl(kact("a")))) == "a@L"

    def test_pair(self):
        enc = encode_to_tagged_kat(emb_pair(kact("a"), kact("b")))
        assert str(enc) == "a@L ; b@R"

    def test_round_trip_on_distributed_terms(self):
        rng = random.Random(3)
        for _ in range(60):
            term = bisimplify(distribute_embeddings(
                random_bikat(rng, ALPH, ("P", "Q"), depth=3)))
            assert bisimplify(decode_tagged_kat(encode_to_tagged_kat(term))) == term


class TestLaws:
    def test_lockstep_sides_equal_in_models(self):
        e, c = tprim("p"), kact("a")
        e2, c2 = tprim("q"), kact("b")
        law = expand_lockstep(e, c, e2, c2)
        for bm in models(30, size=4):
            assert interp_bikat(bm, law.lhs) == interp_bikat(bm, law.rhs)

    def test_lockstep_zero_guards_collapse(self):
        from bikat.kat.terms import T0
        law = expand_lockstep(T0, kact("a"), T0, kact("b"))
        assert bisimplify(law.lhs) == B1
        assert bisimplify(law.rhs) == B1

    def test_conditional_sides_equal_in_relational_models(self):
        e, c = tprim("p"), kact("a")
        e2, c2 = tprim("q"), kact("b")
        law = expand_conditional(e, c, e2, c2, BPrim("P"), BPrim("Q"))
        assert law.star_continuous_only
        for bm in models(30, size=3):
            assert interp_bikat(bm, law.lhs) == interp_bikat(bm, law.rhs)

    def test_conditional_with_false_selectors_is_interleaving(self):
        from bikat.bi.terms import BZero
        e, c, e2, c2 = tprim("p"), kact("a"), tprim("q"), kact("b")
        law = expand_conditional(e, c, e2, c2, BZero(), BZero())
        # selector-free: the sum collapses to joint and one-sided remainders
        for bm in models(10, size=3):
            assert interp_bikat(bm, law.lhs) == interp_bikat(bm, law.rhs)


class TestBikatEquiv:
    def test_lrc_instance(self):
        assert bikat_equiv(bt("<a] ; [b>"), bt("[b> ; <a]")).is_equal

    def test_homomorphism_plus_sugar(self):
        assert bikat_equiv(bt("<a;b | c>"), bt("<a] ; <b] ; [c>")).is_equal

    def test_order_matters_on_one_side(self):
        v = bikat_equiv(bt("<a] ; <b]"), bt("<b] ; <a]"))
        assert v.kind == "not_equal"
        assert v.refuting_seed is not None

    def test_homomorphism_identities(self):
        for lhs, rhs in [("<0]", "0"), ("<1]", "1"), ("<!p]", "!(<p])"),
                         ("<p+q]", "<p] + <q]"), ("<a;b]", "<a];<b]"),
                         ("<a*]", "<a]*"), ("<0|a>", "0")]:
            assert bikat_equiv(bt(lhs), bt(rhs)).is_equal, (lhs, rhs)

    def test_unprovable_reports_third_verdict(self):
        # a true *-continuity consequence that plain encoding cannot prove
        # and no finite model refutes within the search budget
        law = expand_conditional(tprim("p"), kact("a"), tprim("q"), kact("b"),
                                 BPrim("P"), BPrim("Q"))
        v = bikat_equiv(law.lhs, law.rhs, refute_models=4, refute_sizes=(2,))
        assert v.kind == "not_proven_equal"


class TestScripts:
    def ctx(self, hyps=()):
        return ScriptContext(
            hypotheses={h.name: h for h in hyps},
            parse_kat=lambda s: parse_term(s, ALPH),
            parse_test=lambda s: parse_term(s, ALPH).test,
            parse_bitest=lambda s: parse_biterm(s, BALPH).test,
        )

    def test_empty_script_identity(self):
        s = AlignmentScript(bt("<a]"), (), bt("<a]"))
        assert check_script(s, self.ctx()).accepted

    def test_lrc_step(self):
        s = AlignmentScript(bt("[b> ; <a]"), (Step("lrc", (), {"at": 0}),),
                            bt("<a] ; [b>"))
        res = check_script(s, self.ctx())
        assert res.accepted, res.error

    def test_wrong_goal_rejected(self):
        s = AlignmentScript(bt("[b> ; <a]"), (Step("lrc", (), {"at": 0}),),
                            bt("[b> ; <a]"))
        res = check_script(s, self.ctx())
        assert not res.accepted

    def test_mismatched_redex_reports_step(self):
        s = AlignmentScript(bt("<a] ; <b]"), (Step("lrc", (), {"at": 0}),),
                            bt("<b] ; <a]"))
        res = check_script(s, self.ctx())
        assert not res.accepted and res.failed_step == 0

    def test_hom_and_unfold_chain(self):
        # <a;b] ; [c>   ->  <a];<b];[c>  ->  interleave
        script = AlignmentScript(
            bt("<a;b] ; [c>"),
            (Step("hom-seq", (0,), {}),
             Step("lrc", (), {"at": 1, "dir": "rev"}),),
            bt("<a] ; [c> ; <b]"))
        res = check_script(script, self.ctx())
        assert res.accepted, res.error

    def test_hyp_step_removes_branch(self):
        h = ZeroHypothesis("dead", parse_term("a;p", ALPH))
        start = bisimplify(bt("<a;p + b]"))
        script = AlignmentScript(
            start,
            (Step("hom-plus", (), {}),
             Step("hom-seq", (1,), {}),      # sums sort: <b] precedes <a;p]
             Step("hyp", (1,), {"at": 0, "name": "dead", "side": "L"}),),
            bt("<b]"))
        res = check_script(script, self.ctx([h]))
        assert res.accepted, res.error

    def test_kat_subterm_requires_provable_equality(self):
        script = AlignmentScript(
            bt("<a;(b;a)*]"),
            (Step("kat-subterm", (), {"to": "(a;b)*;a"}),),
            bt("<(a;b)*;a]"))
        assert check_script(script, self.ctx()).accepted
        bad = AlignmentScript(
            bt("<a;(b;a)*]"),
            (Step("kat-subterm", (), {"to": "(b;a)*;b"}),),
            bt("<(b;a)*;b]"))
        assert not check_script(bad, self.ctx()).accepted

    def test_kat_subterm_over_a_cap_fails_the_step(self):
        # 13 tests exceed TEST_CAP: the step fails, as one over the pair
        # budget does, and the cap's refusal does not escape the replay
        tests = " ; ".join(f"[x != {k}]" for k in range(1, 13))
        prob = load_problem(f"""width 4; vars x;
            script {{ start {{ <[x == 0] ; {tests} ; x := 0] }}
                      steps {{ kat-subterm @ root (to: [x == 0] ; x := 0) }}
                      goal {{ <[x == 0] ; x := 0] }} }}""")
        res = check_script(prob.script(), prob.script_context())
        assert not res.accepted and res.failed_step == 0
        assert "are not provably equal (13 primitive tests exceed the cap of 10" in res.error

    def test_expand_lockstep_step(self):
        start = bt("<(p;a)*|(q;b)*> ; <!p|!q>")
        law = expand_lockstep(tprim("p"), kact("a"), tprim("q"), kact("b"))
        script = AlignmentScript(
            start,
            (Step("expand-lockstep", (), {"at": 0, "e": "p", "c": "a",
                                          "e2": "q", "c2": "b"}),),
            law.rhs)
        res = check_script(script, self.ctx())
        assert res.accepted, res.error

    def test_every_step_instance_is_semantics_preserving(self):
        # replay a mixed script and check each recorded instance on models
        script = AlignmentScript(
            bt("<a;b] ; [c>"),
            (Step("hom-seq", (0,), {}),
             Step("lrc", (), {"at": 1, "dir": "rev"}),
             Step("lrc", (), {"at": 1}),),
            bt("<a] ; <b] ; [c>"))
        res = check_script(script, self.ctx())
        assert res.accepted, res.error
        for bm in models(12):
            for tr in res.trace:
                if tr.instance is not None:
                    assert interp_bikat(bm, tr.instance.lhs) == \
                        interp_bikat(bm, tr.instance.rhs)

    REV_CASES = [
        ("<p;a;b] ; [c>", Step("hom-seq", (0,)),
         Step("hom-seq", (), {"at": 0, "count": 3, "dir": "rev"})),
        ("<a + b;c] ; [c>", Step("hom-plus", (0,)),
         Step("hom-plus", (0,), {"dir": "rev"})),
        ("[(a;b)*> ; <c]", Step("hom-star", (0,)),
         Step("hom-star", (0,), {"dir": "rev"})),
        ("<a] ; ([b> + <c])", Step("distrib-left", (), {"at": 1}),
         Step("distrib-left", (), {"dir": "rev"})),
        ("(<a] + [b>) ; <c]", Step("distrib-right", ()),
         Step("distrib-right", (), {"dir": "rev"})),
        ("(<a] ; [b>)*", Step("unfold-star", ()),
         Step("unfold-star", (), {"dir": "rev"})),
        ("<c] ; <a] ; ([b> ; <a])*", Step("slide", (), {"at": 1}),
         Step("slide", (), {"at": 1, "dir": "rev"})),
    ]

    @pytest.mark.parametrize("start, forward, rev", REV_CASES,
                             ids=[case[1].law for case in REV_CASES])
    def test_rev_undoes_the_forward_step(self, start, forward, rev):
        # a law applied forward and then in the `dir: rev` direction gives
        # back the start term, and both recorded instances are sound
        term = bisimplify(bt(start))
        res = check_script(AlignmentScript(term, (forward, rev), term), self.ctx())
        assert res.accepted, res.error
        assert res.trace[0].after != term
        for bm in models(12):
            for tr in res.trace:
                assert interp_bikat(bm, tr.instance.lhs) == interp_bikat(bm, tr.instance.rhs)


def with_steps(stem: str, steps: str) -> str:
    """A corpus problem with its script steps replaced."""
    new, n = re.subn(r"steps \{.*?\n  \}", lambda _: f"steps {{\n    {steps}\n  }}",
                     TEXTS[stem], flags=re.S)
    assert n == 1
    return new


@pytest.mark.parametrize("step,message", [
    ("expand-lockstep @ root (at: 0)", "missing parameter 'e'"),
    ("lrc @ root (at: x)", "parameter 'at' is not an integer"),
    ("lrc @ 7.3", "no child 7"),
    ("hom-seq @ 99", "no child 99"),
])
def test_bad_step_parameters_reject_the_script(step, message):
    prob = load_problem(with_steps("factorial-ni", step))
    res = check_script(prob.script(), prob.script_context())
    assert not res.accepted and res.failed_step == 0
    assert res.error.startswith(f"step 1 ({step.split()[0]} @ ")
    assert message in res.error


def test_bad_term_in_step_parameter_rejects_the_script():
    prob = load_problem(with_steps(
        "factorial-ni", "expand-lockstep @ root (at: 4, e: [zz != 0], c: skip, "
        "e2: [i != 0], c2: skip)"))
    res = check_script(prob.script(), prob.script_context())
    assert not res.accepted and "undeclared variable or cell 'zz'" in res.error


class TestZeroHypotheses:
    BOGUS = textwrap.dedent("""\
        width 2; vars x;
        left  { if (x == 0) { x := 1; } else { skip; } }
        right { if (x == 0) { x := 1; } else { skip; } }
        kind allall;
        pre  { [x == x] }
        post { [x == x] }
        hyp bogus { [x == 0] ; x := 1 }
        script {
          steps {
            hom-plus @ 0
            distrib-right @ root (at: 0)
            hom-seq @ 1.0
            hyp @ 0 (at: 0, name: bogus, side: L)
          }
          goal { !L[x == 0] ; [![x == 0] + [x == 0] ; x := 1> }
        }
    """)

    def test_false_hypothesis_is_rejected_with_an_escaping_state(self):
        prob = load_problem(self.BOGUS)
        res = check_script(prob.script(), prob.script_context())
        assert not res.accepted and res.failed_step == 3
        assert "hypothesis 'bogus' is not zero" in res.error
        assert "from {x=0} reaches {x=1}" in res.error

    def test_without_a_model_the_hypothesis_is_a_proviso(self):
        prob = load_problem(self.BOGUS)
        ctx = prob.script_context()
        ctx.model = None
        res = check_script(prob.script(), ctx)
        assert res.accepted, res.error
        assert res.provisos == ["step 4 trusts hypothesis 'bogus' unchecked"]

    def test_true_hypothesis_is_checked_and_used(self):
        prob = problem_at("simple-sum")
        ctx = prob.script_context()
        res = check_script(prob.script(), ctx)
        assert res.accepted and not res.provisos
        assert ctx._checked == {"init_exits"}
