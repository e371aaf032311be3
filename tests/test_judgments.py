"""Relational judgment oracles, witnesses, and the triple-space route."""

import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from bikat.bi.terms import B0, BPrim, BT1, BZero, bnot, emb_pair
from bikat.judge import (JudgeResult, Judgment, PairSpec, RelSpec, RelWitness,
                         WitnessRefused, check_adequacy, check_allall,
                         check_bsim, check_bvalid, check_existsexists,
                         check_existsforall, check_fsim, check_fvalid,
                         check_incorrectness,
                         check_bsim_via_trikat, check_fsim_via_trikat,
                         construct_bwitness, construct_fwitness, dispatch,
                         tri_embed, tri_proj_left2, tricom)
from bikat.judge.oracles import DUALS, ORACLES
from bikat.kat import Alphabet, parse_term
from bikat.models import BiRel, Rel, interp_kat, lift_left, random_bimodel, tensor
from bikat.problem import load_problem

from gen import random_bikat, random_bitest, random_kat
from test_corpus import CORPUS, corpus_problem
from test_record import problem_at

ALPH = Alphabet.make([], ["a", "b"])


def mk_judgment(kind, left, right, pre="P", post="Q"):
    return Judgment(kind, parse_term(left, ALPH), parse_term(right, ALPH),
                    RelSpec(BPrim(pre), BPrim(post)))


def rand_instances(kinds, count, size=4, start_seed=0):
    made = 0
    seed = start_seed
    while made < count:
        bm = random_bimodel(seed, size, ALPH, ("P", "Q"))
        j = mk_judgment(kinds, "a", "b")
        yield bm, j
        made += 1
        seed += 1


class TestAllAll:
    def test_empty_pre_vacuous(self):
        bm = random_bimodel(0, 4, ALPH, ("P",))
        j = Judgment("allall", parse_term("a", ALPH), parse_term("b", ALPH),
                     RelSpec(BZero(), BPrim("P")))
        assert check_allall(bm, j).holds

    def test_routes_agree_on_random_instances(self):
        # both routes read the compiled predicates and images; the reference
        # is the dense relation algebra R;<c|d>;!S = 0 on BiRel matrices
        from bikat.models.bmodel import bitest_subid, interp_bikat
        verdicts = set()
        for bm, j in rand_instances("allall", 60):
            res = check_allall(bm, j)
            assert res.routes == {"pointwise": res.holds, "equational": res.holds}
            dense = (bitest_subid(bm, j.spec.pre)
                     .compose(interp_bikat(bm, emb_pair(j.left, j.right)))
                     .compose(bitest_subid(bm, bnot(j.spec.post))))
            assert res.holds == dense.is_empty()
            verdicts.add(res.holds)
        assert verdicts == {True, False}

    def test_counterexample_replays(self):
        for bm, j in rand_instances("allall", 40, start_seed=100):
            res = check_allall(bm, j)
            if not res.holds:
                a, b, a2, b2 = res.counterexample.states
                pre = PairSpec(bm, j.spec.pre)
                post = PairSpec(bm, j.spec.post)
                assert pre.holds(a, b)
                assert not post.holds(a2, b2)
                return
        pytest.fail("no failing instance sampled")


class TestAdequacy:
    def test_product_term_always_adequate(self):
        for bm, j in rand_instances("allall", 10):
            b = emb_pair(j.left, j.right)
            assert check_adequacy(bm, j.spec.pre, j.left, j.right, b).holds

    def test_zero_inadequate_when_runs_exist(self):
        for bm, j in rand_instances("allall", 10):
            res = check_adequacy(bm, j.spec.pre, j.left, j.right, B0)
            runs_exist = not res.holds
            if runs_exist:
                return
        pytest.fail("sampled models had no runs at all")

    def test_monotone_in_the_aligned_term(self):
        # adequacy survives enlarging the aligned term
        rng = random.Random(1)
        for bm, j in rand_instances("allall", 10):
            b = emb_pair(j.left, j.right)
            bigger = b
            from bikat.bi.terms import bplus
            bigger = bplus(b, random_bikat(rng, ALPH, ("P", "Q"), depth=2))
            assert check_adequacy(bm, j.spec.pre, j.left, j.right, bigger).holds


class TestSimulations:
    def test_havoc_right_total(self):
        prob = load_problem(
            "width 2; vars x;\nleft { x := x; } right { x := any; }\n"
            "kind fsim; pre { true } post { true }")
        assert dispatch(prob.bm, prob.judgment()).holds

    def test_empty_post_bsim_vacuous(self):
        bm = random_bimodel(0, 4, ALPH, ("P",))
        j = Judgment("bsim", parse_term("a", ALPH), parse_term("b", ALPH),
                     RelSpec(BPrim("P"), BZero()))
        assert check_bsim(bm, j).holds

    def test_incorrectness_is_reachability_underapproximation(self):
        # right-embedded program with one-sided pre/post decides whether every
        # post state is reachable from a pre state
        prob = load_problem(
            "width 2; vars x;\n"
            "left { skip; } right { x := x + 1; }\n"
            "kind incorrectness;\n"
            "pre { R[x <= 1] } post { R[x >= 1] & R[x <= 2] }")
        res = dispatch(prob.bm, prob.judgment())
        env = prob.env
        # independent route: image of the pre set under the program
        pre_states = {s for s in range(env.space.size) if env.space.get(s, "x") <= 1}
        post_states = {s for s in range(env.space.size)
                       if 1 <= env.space.get(s, "x") <= 2}
        image = set()
        for s in pre_states:
            image |= env.run(prob.right, frozenset((s,)))
        assert res.holds == (post_states <= image)
        assert res.holds

    def test_duality_existsforall(self):
        hits = 0
        for bm, j in rand_instances("existsforall", 100):
            ea = check_existsforall(bm, j)
            neg = Judgment("fsim", j.left, j.right,
                           RelSpec(j.spec.pre, bnot(j.spec.post)))
            assert ea.holds == (not check_fsim(bm, neg).holds)
            # both routes of the fsim sub-check, negated
            assert ea.routes == {"pointwise": ea.holds, "pointfree": ea.holds}
            # independent direct evaluation of the quantifier pattern
            direct = self._direct_ea(bm, j)
            assert ea.holds == direct
            hits += ea.holds
        assert 0 < hits < 100

    @staticmethod
    def _direct_ea(bm, j):
        from bikat.judge.core import PostMap
        pre = PairSpec(bm, j.spec.pre)
        post = PairSpec(bm, j.spec.post)
        cpost = PostMap(bm.base, j.left)
        dpost = PostMap(bm.base, j.right)
        for (a, b) in pre.pairs():
            for t in cpost[a]:
                if all(post.holds(t, t2) for t2 in dpost[b]):
                    return True
        return False

    def test_duality_existsexists(self):
        hits = 0
        for bm, j in rand_instances("existsexists", 100):
            ee = check_existsexists(bm, j)
            aa = check_allall(bm, Judgment("allall", j.left, j.right, j.spec))
            assert ee.holds == (not aa.holds)
            # both routes of the ∀∀ check, negated; its counterexample is the witness
            assert ee.routes == {route: not v for route, v in aa.routes.items()}
            assert set(ee.routes) == {"pointwise", "equational"}
            if ee.holds:
                assert ee.counterexample.condition == "existsexists-witness"
                assert ee.counterexample.states == aa.counterexample.states
            else:
                assert ee.counterexample is None
            hits += ee.holds
        assert 0 < hits < 100

    def test_incorrectness_is_backward_simulation(self):
        verdicts = set()
        for bm, j in rand_instances("incorrectness", 100):
            inc = check_incorrectness(bm, j)
            bs = check_bsim(bm, Judgment("bsim", j.left, j.right, j.spec))
            assert (inc.kind, inc.holds, inc.routes) == ("incorrectness", bs.holds, bs.routes)
            assert inc.counterexample == bs.counterexample
            verdicts.add(inc.holds)
        assert verdicts == {True, False}

    def test_every_derived_kind_reads_a_base_oracle(self):
        assert set(ORACLES) == {"allall", "fsim", "bsim"} | set(DUALS)
        for kind, (base, neg_post, neg_verdict) in DUALS.items():
            assert base in ORACLES and base not in DUALS, kind
            assert isinstance(neg_post, bool) and isinstance(neg_verdict, bool), kind

    def test_definite_nondeterminism(self):
        prob = load_problem(
            "width 2; vars x;\nleft { x := any; } right { x := any; }\n"
            "kind existsexists; pre { [x == x] } post { [x == x] }")
        assert dispatch(prob.bm, prob.judgment()).holds

    def test_existsexists_fails_on_full_post(self):
        bm = random_bimodel(0, 4, ALPH, ("P",))
        j = Judgment("existsexists", parse_term("a", ALPH), parse_term("b", ALPH),
                     RelSpec(BPrim("P"), BT1))
        assert not check_existsexists(bm, j).holds


class TestWitnesses:
    def test_zero_witness_fails_overapproximation(self):
        for bm, j in rand_instances("fsim", 20):
            rep = check_fvalid(bm, B0, j)
            pre = PairSpec(bm, j.spec.pre)
            from bikat.judge.core import PostMap
            cpost = PostMap(bm.base, j.left)
            nonempty = any(cpost[a] for (a, _) in pre.pairs())
            if nonempty:
                assert not rep.conditions["WO"]
                return
        pytest.fail("all sampled left programs were empty")

    def test_synthesized_forward_witnesses_valid(self):
        made = 0
        seed = 0
        while made < 25:
            bm = random_bimodel(seed, 4, ALPH, ("P", "Q"), density=0.5)
            j = mk_judgment("fsim", "a", "b")
            seed += 1
            if not check_fsim(bm, j).holds:
                continue
            w = construct_fwitness(bm, j)
            assert check_fvalid(bm, w, j).valid
            made += 1

    def test_synthesized_backward_witnesses_valid(self):
        made = 0
        seed = 1000
        while made < 25:
            bm = random_bimodel(seed, 4, ALPH, ("P", "Q"), density=0.5)
            j = mk_judgment("bsim", "a", "b")
            seed += 1
            if not check_bsim(bm, j).holds:
                continue
            w = construct_bwitness(bm, j)
            assert check_bvalid(bm, w, j).valid
            made += 1

    def test_synthesis_refuses_false_judgments(self):
        seed = 0
        while True:
            bm = random_bimodel(seed, 4, ALPH, ("P", "Q"), density=0.3)
            j = mk_judgment("fsim", "a", "b")
            if not check_fsim(bm, j).holds:
                with pytest.raises(WitnessRefused):
                    construct_fwitness(bm, j)
                return
            seed += 1

    def test_empty_pre_gives_empty_witness(self):
        bm = random_bimodel(0, 4, ALPH, ("P",))
        j = Judgment("fsim", parse_term("a", ALPH), parse_term("b", ALPH),
                     RelSpec(BZero(), BPrim("P")))
        w = construct_fwitness(bm, j)
        assert w.count() == 0
        assert check_fvalid(bm, w, j).valid

    def test_perturbed_witness_flips_a_condition(self):
        made = 0
        seed = 0
        rng = random.Random(9)
        while made < 10:
            bm = random_bimodel(seed, 4, ALPH, ("P", "Q"), density=0.5)
            j = mk_judgment("fsim", "a", "b")
            seed += 1
            if not check_fsim(bm, j).holds:
                continue
            w = construct_fwitness(bm, j)
            if w.count() == 0:
                continue
            # drop one witness edge: overapproximation (WO) must notice,
            # unless another edge still covers the same left run
            src = rng.choice(sorted(w.forward))
            tgts = sorted(w.forward[src])
            dropped = dict(w.forward)
            removed = tgts[0]
            rest = frozenset(t for t in tgts if t != removed)
            if rest:
                dropped[src] = rest
            else:
                del dropped[src]
            lefts_rest = {t[0] for t in rest}
            mutated = RelWitness(dropped)
            rep = check_fvalid(bm, mutated, j)
            if removed[0] not in lefts_rest:
                assert not rep.conditions["WO"]
            made += 1

    def test_equal_witnesses_stay_equal(self):
        # the preimage map is built on first use and is not part of the value
        fwd = {(0, 1): frozenset({(1, 1), (2, 0)}), (1, 1): frozenset({(2, 0)})}
        w, v = RelWitness(dict(fwd)), RelWitness(dict(fwd))
        assert w.backward() == {(1, 1): {(0, 1)}, (2, 0): {(0, 1), (1, 1)}}
        assert w == v and v == w
        c = w.converse()
        assert c.forward == w.backward() and c == RelWitness(w.backward())
        assert c.converse() == w == v
        assert v.converse() == c and v.converse().converse() == w
        assert "_backward" not in repr(w)

    def test_conditions_match_dense_relation_algebra(self):
        # the six conditions, as inclusions of BiRel matrices, for random
        # witness terms and for the constructed witnesses of both directions
        from bikat.models.bmodel import bitest_subid, interp_bikat
        from bikat.models import lift_right
        alph = Alphabet.make(["p"], ["a", "b"])
        rng = random.Random(11)
        outcomes, constructed = set(), 0
        for seed in range(240):
            n = rng.randint(1, 4)
            bm = random_bimodel(seed, n, alph, ("P", "Q"), density=rng.choice((0.2, 0.5)))
            c, d = random_kat(rng, alph, 2), random_kat(rng, alph, 2)
            pre, post = ((BPrim("P"), BPrim("Q")) if seed % 2 else
                         (random_bitest(rng, alph.tests, ("P", "Q")),
                          random_bitest(rng, alph.tests, ("P", "Q"))))
            j = Judgment("fsim", c, d, RelSpec(pre, post))
            r, s = bitest_subid(bm, pre), bitest_subid(bm, post)
            cl = lift_left(interp_kat(bm.base, c))
            hav_r = lift_right(Rel.full(n))
            hav_d = tensor(Rel.full(n), interp_kat(bm.base, d))
            witnesses = [random_bikat(rng, alph, ("P", "Q"))]
            for construct, kind in ((construct_fwitness, "fsim"), (construct_bwitness, "bsim")):
                if dispatch(bm, Judgment(kind, c, d, j.spec)).holds:
                    witnesses.append(construct(bm, j))
                    constructed += 1
            for w in witnesses:
                wr = (interp_bikat(bm, w) if not isinstance(w, RelWitness) else
                      BiRel.of_pairs(n, ((a * n + b, t * n + t2)
                                         for (a, b), ts in w.forward.items()
                                         for t, t2 in ts)))
                dense = {
                    "WC": r.compose(wr).leq(r.compose(wr).compose(s)),
                    "WO": r.compose(cl).leq(wr.compose(hav_r)),
                    "WU": r.compose(wr).leq(hav_d),
                    "WCb": wr.compose(s).leq(r.compose(wr).compose(s)),
                    "WOb": cl.compose(s).leq(hav_r.compose(wr)),
                    "WUb": wr.compose(s).leq(hav_d),
                }
                fwd, bwd = check_fvalid(bm, w, j), check_bvalid(bm, w, j)
                assert (fwd.direction, bwd.direction) == ("forward", "backward")
                got = {**fwd.conditions, **bwd.conditions}
                assert got == dense, (seed, w)
                outcomes.add(tuple(sorted(got.items())))
        assert constructed >= 100 and len(outcomes) >= 20


# Run under `python -O`: a valid witness whose simulation oracle is made to
# fail must still be refused, because the guard is not an assert.
_UNSOUND_WITNESS_SCRIPT = textwrap.dedent("""
    import sys
    from bikat.bi.terms import BPrim
    from bikat.judge import JudgeResult, Judgment, RelSpec, RouteDisagreement
    from bikat.judge import witness
    from bikat.kat import Alphabet, parse_term
    from bikat.models import random_bimodel

    kind = sys.argv[1]
    check, construct, validate = {
        "fsim": ("check_fsim", witness.construct_fwitness, witness.check_fvalid),
        "bsim": ("check_bsim", witness.construct_bwitness, witness.check_bvalid),
    }[kind]
    alph = Alphabet.make([], ["a", "b"])
    j = Judgment(kind, parse_term("a", alph), parse_term("b", alph),
                 RelSpec(BPrim("P"), BPrim("Q")))
    seed = 0
    while True:
        bm = random_bimodel(seed, 4, alph, ("P", "Q"), density=0.5)
        if getattr(witness, check)(bm, j).holds:
            break
        seed += 1
    w = construct(bm, j)
    setattr(witness, check, lambda bm, j: JudgeResult(kind, False))
    try:
        validate(bm, w, j)
    except RouteDisagreement as e:
        print("refused:", e)
        sys.exit(0)
    print("accepted")
    sys.exit(3)
""")


@pytest.mark.parametrize("kind", ["fsim", "bsim"])
def test_unsound_witness_refused_under_optimize(kind):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-O", "-c", _UNSOUND_WITNESS_SCRIPT, kind],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "refused: " in proc.stdout


class TestTrikat:
    def test_tricom_componentwise(self):
        rng = random.Random(2)
        n = 3
        rels = [Rel.of_pairs(n, [(rng.randrange(n), rng.randrange(n))
                                 for _ in range(4)]) for _ in range(3)]
        t = tricom(*rels)
        for (src, tgt) in t.pairs:
            assert rels[0].has(src[0], tgt[0])
            assert rels[1].has(src[1], tgt[1])
            assert rels[2].has(src[2], tgt[2])

    def test_embed_project_roundtrip(self):
        rng = random.Random(3)
        n = 3
        for _ in range(10):
            a = tensor(Rel.of_pairs(n, [(rng.randrange(n), rng.randrange(n))
                                        for _ in range(5)]),
                       Rel.of_pairs(n, [(rng.randrange(n), rng.randrange(n))
                                        for _ in range(5)]))
            full = tensor(Rel.full(n), Rel.full(n))
            assert tri_proj_left2(tri_embed(a, full)) == a

    def test_incompatible_middles_empty(self):
        n = 2
        a = tensor(Rel.identity(n), Rel.of_pairs(n, [(0, 0)]))
        b = tensor(Rel.of_pairs(n, [(1, 1)]), Rel.identity(n))
        assert tri_embed(a, b).count() == 0

    def test_agreement_with_direct_oracles(self):
        for bm, j in rand_instances("fsim", 60, size=3):
            check_fsim_via_trikat(bm, j)  # raises on disagreement
            check_bsim_via_trikat(bm, Judgment("bsim", j.left, j.right, j.spec))

    @pytest.mark.parametrize("kind", ["fsim", "bsim"])
    def test_disagreement_with_a_direct_oracle_raises(self, kind, monkeypatch):
        from bikat.judge import RouteDisagreement, trikat
        bm, j = next(rand_instances(kind, 1, size=3))
        direct = getattr(trikat, f"check_{kind}")
        monkeypatch.setattr(trikat, f"check_{kind}", lambda bm, j: JudgeResult(
            kind, not direct(bm, j).holds))
        via = getattr(trikat, f"check_{kind}_via_trikat")
        with pytest.raises(RouteDisagreement):
            via(bm, j)


def reference_image(bm, w, pairs, backward=False):
    """The pairs a witness term reaches from a set of pairs (from which it
    is reached if `backward`): a plain set recursion with the bitest
    interpreter, independent of the compiled pair walker."""
    from bikat.bi.terms import BEmbL, BEmbR, BPlus, BSeq, BTest
    from bikat.models import bitest_holds, kat_post, kat_pre
    step = kat_pre if backward else kat_post
    if isinstance(w, BTest):
        return frozenset(p for p in pairs if bitest_holds(bm, w.test, *p))
    if isinstance(w, BEmbL):
        return frozenset((t, b) for a, b in pairs for t in step(bm.base, w.arg, (a,)))
    if isinstance(w, BEmbR):
        return frozenset((a, t) for a, b in pairs for t in step(bm.base, w.arg, (b,)))
    if isinstance(w, BPlus):
        return frozenset().union(*(reference_image(bm, x, pairs, backward)
                                   for x in w.args))
    if isinstance(w, BSeq):
        for x in (reversed(w.args) if backward else w.args):
            pairs = reference_image(bm, x, pairs, backward)
        return frozenset(pairs)
    seen, frontier = set(pairs), set(pairs)
    while frontier:
        frontier = set(reference_image(bm, w.arg, frontier, backward)) - seen
        seen |= frontier
    return frozenset(seen)


def assert_refutes(prob, condition, states, goal=None):
    """`states` refute the check `condition` (allall, fsim or adequacy of
    `goal`, by default the script goal) of `prob`, replayed from the
    semantics apart from the oracles: the first pair is pre-related, the
    ends are runs of the programs from it, and the post fails on the two
    ends (∀∀), relates no right end to the left one (fsim), or the goal's
    reference image misses them (adequacy)."""
    from bikat.models import bitest_holds, kat_post
    bm, j = prob.bm, prob.judgment()
    a, b, c, *d = states
    assert bitest_holds(bm, j.spec.pre, a, b)
    assert c in kat_post(bm.base, j.left, (a,))
    rights = kat_post(bm.base, j.right, (b,))
    if condition == "fsim":
        assert not any(bitest_holds(bm, j.spec.post, c, e) for e in rights)
        return
    (d,) = d
    assert d in rights
    if condition == "allall":
        assert not bitest_holds(bm, j.spec.post, c, d)
    else:
        assert condition == "adequacy"
        goal = prob.script_goal if goal is None else goal
        assert (c, d) not in reference_image(bm, goal, {(a, b)})


class TestPairWalker:
    """term_image/term_preimage (one compiled pair-state walk per batch of
    sources) against the dense pair-relation semantics and a per-source
    reference."""

    @staticmethod
    def node_kinds(w, out):
        from bikat.bi.terms import BPlus, BSeq, BStar
        out.add(type(w).__name__)
        if isinstance(w, (BPlus, BSeq)):
            for x in w.args:
                TestPairWalker.node_kinds(x, out)
        elif isinstance(w, BStar):
            TestPairWalker.node_kinds(w.arg, out)
        return out

    def test_images_match_dense_semantics_on_random_models(self):
        from bikat.judge import term_image, term_preimage
        from bikat.models import interp_bikat, pack, unpack
        rng = random.Random(7)
        kinds = set()
        for seed in range(40):
            size = rng.randint(1, 8)
            bm = random_bimodel(seed, size, ALPH, ("P", "Q"))
            w = random_bikat(rng, ALPH, ("P", "Q"), depth=3)
            self.node_kinds(w, kinds)
            rel = interp_bikat(bm, w)
            back = rel.converse()
            pairs = [(a, b) for a in range(size) for b in range(size)]
            images, preimages = term_image(bm, w, pairs), term_preimage(bm, w, pairs)
            assert set(images) == set(preimages) == set(pairs)
            for a, b in pairs:
                p = pack(size, a, b)
                assert images[(a, b)] == {unpack(size, q) for q in rel.targets(p)}, (seed, w)
                assert preimages[(a, b)] == {unpack(size, q) for q in back.targets(p)}, (seed, w)
        assert {"BStar", "BPlus", "BSeq", "BTest", "BEmbL", "BEmbR"} <= kinds

    def test_batches_of_sources_give_per_source_images(self, monkeypatch):
        # tiny walks force several batches per call; images must not change
        from bikat.judge import term_image
        from bikat.models import kmodel
        rng = random.Random(3)
        bm = random_bimodel(5, 6, ALPH, ("P", "Q"))
        w = random_bikat(rng, ALPH, ("P", "Q"), depth=3)
        pairs = [(a, b) for a in range(6) for b in range(6)]
        whole = term_image(bm, w, pairs)
        monkeypatch.setattr(kmodel, "WALK_SOURCES", 5)
        assert term_image(bm, w, pairs) == whole

    @pytest.mark.parametrize("name", ["double-square", "factorial-ni", "simple-sum"])
    def test_corpus_goals_match_dense_semantics(self, name):
        from bikat.judge import term_image, term_preimage
        from bikat.models import interp_bikat, pack, unpack
        prob = problem_at(name, 2)
        bm, w, n = prob.bm, prob.script_goal, prob.bm.space.size
        assert n <= 64
        rel = interp_bikat(bm, w)
        back = rel.converse()
        pairs = [(a, b) for a in range(n) for b in range(n)]
        images, preimages = term_image(bm, w, pairs), term_preimage(bm, w, pairs)
        for a, b in pairs:
            p = pack(n, a, b)
            assert images[(a, b)] == {unpack(n, q) for q in rel.targets(p)}
            assert preimages[(a, b)] == {unpack(n, q) for q in back.targets(p)}

    @pytest.mark.parametrize("name", ["array-insert", "loop-tiling"])
    def test_wide_corpus_goals_match_reference(self, name):
        # these declare field widths, so no width override brings them to 64
        # states; sampled sources are compared with the per-source reference
        from bikat.judge import term_image, term_preimage
        from bikat.judge.core import pair_spec
        prob = corpus_problem(name)
        bm, w = prob.bm, prob.script_goal
        rng = random.Random(11)
        pre = pair_spec(bm, prob.pre).pairs()
        sources = rng.sample(pre, min(48, len(pre)))
        images = term_image(bm, w, sources)
        for src in sources:
            assert images[src] == reference_image(bm, w, {src})
        # a preimage here holds every initial array content, so a few suffice
        targets = sorted({t for src in sources for t in images[src]})[:3]
        preimages = term_preimage(bm, w, targets)
        for t in targets:
            assert preimages[t] == reference_image(bm, w, {t}, backward=True)


class TestAdequacyEarlyStop:
    PROBLEM = textwrap.dedent("""\
        width 3; vars x y z;
        left  { x := x + 1; }
        right { x := x + 1; }
        kind allall;
        pre  { [x == x] & [y == y] & [z == z] }
        post { [x == x] }
    """)
    # covers every run pair except the one from x = 0, y = 7, z = 7
    GOAL = "(L[x != 0] + L[y != 7] + L[z != 7]) ; <x := x + 1] ; [x := x + 1>"

    def test_uncovered_pair_after_the_first_chunk_replays(self):
        from bikat.judge.core import pair_spec
        prob = load_problem(self.PROBLEM)
        bm, j = prob.bm, prob.judgment()
        goal = prob.parser.bikat(self.GOAL)
        res = check_adequacy(bm, j.spec.pre, j.left, j.right, goal)
        assert not res.holds
        assert_refutes(prob, "adequacy", res.counterexample.states, goal)
        a, b, _, _ = res.counterexample.states
        assert pair_spec(bm, j.spec.pre).pairs().index((a, b)) >= 64
        assert bm.space.state_str(a) == bm.space.state_str(b) == "{x=0, y=7, z=7}"

    def test_stops_at_the_first_uncovered_chunk(self, monkeypatch):
        from bikat.judge import witness
        prob = load_problem(self.PROBLEM)
        bm, j = prob.bm, prob.judgment()
        seen = []
        tags = witness.term_tags

        def counting(bm, w, rows):
            # the sources come as rows {a: {b: tag}}: count their pairs
            seen.append(sum(map(len, rows.values())))
            return tags(bm, w, rows)

        monkeypatch.setattr(witness, "term_tags", counting)
        # uncovered only from the first pre pair: one chunk is walked
        first = prob.parser.bikat(self.GOAL.replace("7", "0"))
        res = check_adequacy(bm, j.spec.pre, j.left, j.right, first)
        assert not res.holds and res.counterexample.states[:2] == (0, 0)
        assert seen == [64]
        # an adequate term walks every pre pair, in doubling chunks
        seen.clear()
        assert check_adequacy(bm, j.spec.pre, j.left, j.right,
                              emb_pair(j.left, j.right)).holds
        assert seen == [64, 128, 256, 64]


    def test_right_class_keys_are_made_once_per_distinct_row(self, monkeypatch):
        # factorial-ni's pre [n == n]: 512 left states in 8 rows of 64
        # partners, one per value of n, read in chunks of at most 1024
        # pairs; each row's right class keys (q(b), d(b)) are made once for
        # the check, not once per chunk
        from bikat.judge import oracles
        made = []
        keys = oracles._PreRows.keys

        def counted(self, row):
            if id(row) not in self.classes:
                made.append(row)
            return keys(self, row)
        monkeypatch.setattr(oracles._PreRows, "keys", counted)
        prob = problem_at("factorial-ni")
        j = prob.judgment()
        assert check_adequacy(prob.bm, j.spec.pre, j.left, j.right, prob.script_goal).holds
        assert len(made) == len({id(r) for r in made}) == 8
        assert all(len(r) == 64 for r in made)


class TestRowPath:
    """The ∀∀, ∃∃ and forward simulation oracles read the pre-relation a row
    at a time (a left state and all its partners), backward simulation every
    left state in batches; compare them with a per-pair reference on spaces
    above DENSE_SIDE_CAP, where havoc gives images of several states and the
    pre relations give rows of many partners."""
    DECL = "width 2; vars x y z; var w:1;\n"
    LEFTS = ["x := any; y := y + 1;",
             "if (x < 2) { y := any; } else { z := z + 1; }",
             "w := any; x := x + w;",
             "skip;"]
    RIGHTS = ["x := any; y := y + 1;",
              "y := any; z := any;",
              "if (w == 0) { x := x + 1; }",
              "x := x + 1; y := y + 1;"]
    PRES = ["[x == x]", "[x == x] & L[y <= 1]", "[y <= y] & [w != w]",
            "R[z == 0] & ![x == y]", "[x == x] & [y == y] & [z == z]"]
    POSTS = ["[x == x]", "[y <= y] | [z == z]", "[w == w]",
             "L[y != 3] & [x != y]", "[z == z] & [w == w]"]
    # a negated left test and a disjunction of right tests next to a forced
    # field and a comparison: the enumeration reads the one-sided atoms as
    # tests of one side, as the keyed pair predicate does
    MIXED = "!L[y == 3] & (R[z == 0] | R[w == 1]) & [x == x] & [y <= z]"

    @classmethod
    def cases(cls):
        rng = random.Random(5)
        for _ in range(14):
            yield (rng.choice(cls.LEFTS), rng.choice(cls.RIGHTS),
                   rng.choice(cls.PRES), rng.choice(cls.POSTS))
        yield cls.LEFTS[0], cls.RIGHTS[0], cls.MIXED, cls.POSTS[0]
        yield cls.LEFTS[1], cls.RIGHTS[3], cls.MIXED, cls.POSTS[3]

    class PostPartners(dict):
        """t -> the set of states the bitest interpreter relates to t,
        computed on first use."""

        def __init__(self, bm, post):
            super().__init__()
            self.bm, self.post = bm, post

        def __missing__(self, t):
            from bikat.models.bmodel import bitest_holds
            got = self[t] = {t2 for t2 in range(self.bm.space.size)
                             if bitest_holds(self.bm, self.post, t, t2)}
            return got

    @staticmethod
    def references(prob, pre_pairs, post_partners):
        """The failures of each judgment, found pair by pair and state by
        state with the interpreter; `post_partners[t]` is the set of states
        the bitest interpreter relates to t.
        - ∀∀: every (a, b, a2, b2): a pre pair, a run of each side, and an
          end outside the post;
        - forward simulation: every (a, b, t): a pre pair and a left run
          a -> t with no post-related end among the right runs from b;
        - backward simulation: every (a, t, t2): a left run a -> t and a post
          partner t2 of t that no right run from a pre partner of a ends in."""
        env, n = prob.env, prob.bm.space.size
        lruns = [env.run(prob.left, frozenset((a,))) for a in range(n)]
        rruns = [env.run(prob.right, frozenset((b,))) for b in range(n)]
        bad = [(a, b, a2, b2) for a, b in pre_pairs for a2 in lruns[a]
               for b2 in rruns[b] if b2 not in post_partners[a2]]
        fbad = [(a, b, t) for a, b in pre_pairs for t in lruns[a]
                if rruns[b].isdisjoint(post_partners[t])]
        reached_from = [set() for _ in range(n)]
        for b in range(n):
            for b2 in rruns[b]:
                reached_from[b2].add(b)
        partners = [set() for _ in range(n)]
        for a, b in pre_pairs:
            partners[a].add(b)
        bbad = [(a, t, t2) for a in range(n) for t in lruns[a]
                for t2 in post_partners[t] if partners[a].isdisjoint(reached_from[t2])]
        return bad, fbad, bbad

    def test_rows_match_the_per_pair_reference(self):
        from bikat.models.birel import DENSE_SIDE_CAP
        from bikat.models.bmodel import bitest_holds
        pres: dict = {}
        posts: dict = {}
        verdicts, widest = set(), 0
        sim_verdicts = set()
        for left, right, pre, post in self.cases():
            prob = load_problem(
                f"{self.DECL}left {{ {left} }} right {{ {right} }}\n"
                f"kind allall; pre {{ {pre} }} post {{ {post} }}")
            bm, j = prob.bm, prob.judgment()
            n = bm.space.size
            assert n > DENSE_SIDE_CAP
            if pre not in pres:
                pres[pre] = [(a, b) for a in range(n) for b in range(n)
                             if bitest_holds(bm, prob.pre, a, b)]
            rows = dict(PairSpec(bm, j.spec.pre).rows())
            assert sorted((a, b) for a, bs in rows.items() for b in bs) == pres[pre]
            widest = max([widest] + [len(bs) for bs in rows.values()])
            if post not in posts:
                posts[post] = self.PostPartners(bm, prob.post)
            bad, fbad, bbad = self.references(prob, pres[pre], posts[post])
            aa = check_allall(bm, j)
            ee = check_existsexists(bm, Judgment("existsexists", j.left, j.right, j.spec))
            case = (left, right, pre, post)
            assert aa.holds == (not bad), case
            assert ee.holds == bool(bad), case
            assert set(aa.routes) == {"pointwise", "equational"}, case
            assert aa.routes["pointwise"] == aa.routes["equational"], case
            for res in (aa, ee):
                if res.counterexample is not None:
                    assert res.counterexample.states in bad, case
            assert (aa.counterexample is None) == aa.holds
            assert (ee.counterexample is None) == (not ee.holds)
            verdicts.add(aa.holds)
            for kind, sim_bad in (("fsim", fbad), ("bsim", bbad)):
                res = dispatch(bm, Judgment(kind, j.left, j.right, j.spec))
                assert res.holds == (not sim_bad), (kind, case)
                assert set(res.routes) == {"pointwise", "pointfree"}, (kind, case)
                assert res.routes["pointwise"] == res.routes["pointfree"], (kind, case)
                assert (res.counterexample is None) == res.holds, (kind, case)
                if res.counterexample is not None:
                    assert res.counterexample.states in sim_bad, (kind, case)
                sim_verdicts.add((kind, res.holds))
        assert verdicts == {True, False}
        assert widest >= 32
        assert sim_verdicts == {(k, v) for k in ("fsim", "bsim") for v in (True, False)}

    # every field equal; with skip on both sides backward simulation then
    # fails exactly at the left states the pre drops
    SAME = "[x == x] & [y == y] & [z == z] & [w == w]"
    BATCH_CASES = [("skip;", "skip;", SAME, None),
                   ("skip;", "skip;", SAME + " & L[x != 3 || y != 3 || z != 3 || w != 1]",
                    "{x=3, y=3, z=3, w=1}"),
                   ("x := x + 1;", "x := x + 1;", SAME + " & L[z != 2 || w != 1]",
                    "{x=0, y=0, z=2, w=1}")]

    def test_backward_batches_do_not_change_verdicts(self, monkeypatch):
        # backward simulation visits the left states WALK_SOURCES at a time;
        # batches of 5 states, the last one partial, give the same results
        from bikat.judge import oracles
        got = []
        for batch in (oracles.WALK_SOURCES, 5):
            monkeypatch.setattr(oracles, "WALK_SOURCES", batch)
            for left, right, pre, first in self.BATCH_CASES:
                prob = load_problem(
                    f"{self.DECL}left {{ {left} }} right {{ {right} }}\n"
                    f"kind bsim; pre {{ {pre} }} post {{ {self.SAME} }}")
                res = dispatch(prob.bm, prob.judgment())
                assert set(res.routes) == {"pointwise", "pointfree"}
                assert res.holds == (first is None), (batch, pre)
                if first is not None:
                    a, t, t2 = res.counterexample.states
                    assert prob.bm.space.state_str(a) == first, (batch, pre)
                got.append((res.holds, res.counterexample))
        assert got[:3] == got[3:]

    def test_second_routes_are_dropped_when_the_post_is_not_enumerable(self):
        # 4096 states a side; a negated or disjunctive post is enumerated as
        # the whole space per state, about 1.7e7 pairs, above PAIR_ENUM_CAP:
        # the routes that read the post's partners are refused before any
        # enumeration, and the pointwise route alone gives the verdict
        from bikat.bi.terms import bor, emb_test
        from bikat.judge import EnumRefused
        prob = corpus_problem("guess-count")
        bm, base = prob.bm, prob.judgment()
        post = base.spec.post
        noisy = bor(post, emb_test("L", prob.parser.test("s == 0")))
        for p in (bnot(post), noisy):
            with pytest.raises(EnumRefused):
                PairSpec(bm, p).check_enumerable()
        # right runs that guess another trip count end with another s
        ea = check_existsforall(bm, base)
        assert ea.routes == {"pointwise": False} and not ea.holds
        for kind, holds in (("fsim", True), ("allall", False)):
            res = dispatch(bm, Judgment(kind, base.left, base.right,
                                        RelSpec(base.spec.pre, noisy)))
            assert res.routes == {"pointwise": holds}, kind
            assert res.holds == holds, kind

    def test_compared_fields_count_toward_the_enumeration_cap(self):
        # 32768 left states; z is forced and x and y each keep up to 32
        # values, so the rows hold 528 * 528 * 32 = 8,921,088 pairs, above
        # PAIR_ENUM_CAP: the estimate must count every value of the compared
        # fields and refuse before any row is built
        from bikat.judge import EnumRefused
        from bikat.judge.core import PAIR_ENUM_CAP
        prob = load_problem("width 5; vars x y z; "
                            "pre { [x <= x] & [y <= y] & [z == z] }")
        assert 528 * 528 * 32 > PAIR_ENUM_CAP
        spec = PairSpec(prob.bm, prob.pre)
        with pytest.raises(EnumRefused):
            spec.check_enumerable()
        with pytest.raises(EnumRefused):
            spec.rows()

    def test_second_routes_stop_at_the_candidate_budget(self, monkeypatch):
        # guess-count's post pins one right field and leaves 512 candidates a
        # state; the left runs have 512 distinct ends, so with room for 100
        # states the routes that read the post's partners stop and are dropped
        from bikat.judge import core
        prob = corpus_problem("guess-count")
        bm, base = prob.bm, prob.judgment()
        monkeypatch.setattr(core, "PAIR_ENUM_CAP", 512 * 100)
        for kind, right in (("fsim", base.right), ("allall", base.left)):
            res = dispatch(bm, Judgment(kind, base.left, right, base.spec))
            assert res.routes == {"pointwise": True}, kind
            assert res.holds, kind

    def test_simulations_have_both_routes_above_the_matrix_cap(self):
        # 32768 states a side, above the 8192-state cap of relation matrices:
        # both routes of each simulation must still run
        from bikat.models import bitest_holds, kat_post
        prob = corpus_problem("loop-tiling")
        bm, base = prob.bm, prob.judgment()
        assert bm.space.size > 8192
        # the pre pairs equal states; each left run is matched, but a post
        # partner of a left end need not be the right end from the same state
        for kind, holds in (("fsim", True), ("bsim", False)):
            res = dispatch(bm, Judgment(kind, base.left, base.right, base.spec))
            assert set(res.routes) == {"pointwise", "pointfree"}, kind
            assert res.routes["pointwise"] == res.routes["pointfree"] == holds, kind
            assert res.holds == holds, kind
        a, t, t2 = res.counterexample.states
        assert t in kat_post(bm.base, base.left, (a,))
        assert bitest_holds(bm, base.spec.post, t, t2)
        assert PairSpec(bm, base.spec.pre).partners_left(a) == [a]
        assert t2 not in kat_post(bm.base, base.right, (a,))


class TestWitnessEarlyStop:
    PROBLEM = TestAdequacyEarlyStop.PROBLEM
    # moves only the right x, by 2: from every pair it leaves the post (WC),
    # is no right run (WU) and covers no left run (WO); backward likewise
    BAD = "[x := x + 2>"

    @staticmethod
    def counting(monkeypatch):
        # each walk of the class walk: the start pairs of its rows
        from bikat.judge import witness
        seen = []
        inner = witness.term_tags

        def counted(bm, w, rows, *args):
            seen.append(sum(map(len, rows.values())))
            return inner(bm, w, rows, *args)

        monkeypatch.setattr(witness, "term_tags", counted)
        return seen

    def test_failing_forward_witness_images_one_chunk(self, monkeypatch):
        # on the identity pre every source is its own class, with one start
        # pair: a chunk of 64 sources walks 64 start pairs
        prob = load_problem(self.PROBLEM)
        bm, j = prob.bm, prob.judgment()
        seen = self.counting(monkeypatch)
        rep = check_fvalid(bm, prob.parser.bikat(self.BAD), j)
        assert rep.conditions == {"WC": False, "WO": False, "WU": False}
        assert seen == [64]
        # a valid witness walks every pre pair, in doubling chunks
        seen.clear()
        rep = check_fvalid(bm, emb_pair(j.left, j.right), j)
        assert rep.valid and rep.oracle.holds
        assert seen == [64, 128, 256, 64]

    def test_failing_backward_witness_preimages_one_chunk(self, monkeypatch):
        prob = load_problem(self.PROBLEM)
        bm, j = prob.bm, prob.judgment()
        seen = self.counting(monkeypatch)
        rep = check_bvalid(bm, prob.parser.bikat(self.BAD), j)
        assert rep.conditions == {"WCb": False, "WOb": False, "WUb": False}
        assert seen == [64]
        # with the post [x == x] each left state has 64 post partners, so
        # backward simulation fails; with all fields equal it holds
        prob = load_problem(self.PROBLEM.replace("post { [x == x] }",
                                                 "post { [x == x] & [y == y] & [z == z] }"))
        bm, j = prob.bm, prob.judgment()
        seen.clear()
        rep = check_bvalid(bm, prob.parser.bikat(self.BAD), j)
        assert rep.conditions == {"WCb": False, "WOb": False, "WUb": False}
        assert seen == [64]
        seen.clear()
        rep = check_bvalid(bm, emb_pair(j.left, j.right), j)
        assert rep.valid and rep.oracle.holds
        assert seen == [64, 128, 256, 64]

    def test_decided_backward_check_stops_after_its_chunk(self, monkeypatch):
        # guess-count's witness fails WCb and WOb within its first post pairs
        # while WUb holds there: the check stops after the first chunk, one
        # post row of 512 partners (s pinned, n, i and k free), and WUb,
        # evaluated on part of the pairs only, is reported as None.  The
        # witness ends in the one-sided tests !L[i < n] ; !R[i < k], so the
        # converse walk starts only from the 288 partners with i >= k
        prob = corpus_problem("guess-count")
        seen = self.counting(monkeypatch)
        rep = check_bvalid(prob.bm, prob.witness, prob.judgment())
        assert rep.conditions == {"WCb": False, "WOb": False, "WUb": None}
        assert not rep.valid
        assert {k: c.states for k, c in rep.counterexamples.items()} == {
            "WCb": (64, 1216, 0, 0), "WOb": (0, 0, 64)}
        assert seen == [288]


def reference_validity(bm, w, j, backward):
    """Witness validity by the per-source loop: each source's image decoded
    from a walk of its chunk (`term_image`/`term_preimage`, or the relation's
    own image), each condition tested target by target.  (conditions,
    counterexample states), in the order a source loop finds them."""
    from bikat.judge import term_image, term_preimage
    from bikat.judge.core import post_map
    from bikat.judge.oracles import _row_chunks, _spec_views
    from bikat.models.kmodel import WALK_SOURCES
    r, s = _spec_views(bm, j, backward)
    cpost, dpost = post_map(bm.base, j.left, backward), post_map(bm.base, j.right, backward)
    wc, wo, wu = names = ("WCb", "WOb", "WUb") if backward else ("WC", "WO", "WU")
    conds, cexs = dict.fromkeys(names, True), {}

    def fail(name, src, tgt):
        conds[name] = False
        cexs[name] = tgt + src if backward else src + tgt

    chunks = _row_chunks(r, WALK_SOURCES)
    for chunk in chunks:
        pairs = [(a, b) for a, bs in chunk for b in bs]
        if isinstance(w, RelWitness):
            rel = w.backward() if backward else w.forward
            images = {p: rel.get(p, frozenset()) for p in pairs}
        else:
            images = (term_preimage if backward else term_image)(bm, w, pairs)
        for src in pairs:
            tgts = images[src]
            if conds[wc]:
                bad = [t for t in tgts if not s.holds(*t)]
                if bad:
                    fail(wc, src, bad[0])
            if conds[wu]:
                bad = [t for t in tgts if t[1] not in dpost[src[1]]]
                if bad:
                    fail(wu, src, bad[0])
            if conds[wo]:
                lefts = {t for t, _ in tgts}
                bad = [t for t in cpost[src[0]] if t not in lefts]
                if bad:
                    fail(wo, src, (bad[0],))
        if not all(conds.values()):
            if any(conds.values()) and next(chunks, None) is not None:
                conds.update((k, None) for k, v in conds.items() if v)
            break
    return conds, list(cexs.items())


class TestValidityReference:
    """check_fvalid/check_bvalid, read per class from the class walk,
    against the per-source reference, condition by condition and
    counterexample by counterexample."""

    @staticmethod
    def agree(bm, w, j):
        for check, backward in ((check_fvalid, False), (check_bvalid, True)):
            rep = check(bm, w, j)
            got = rep.conditions, [(k, c.states) for k, c in rep.counterexamples.items()]
            assert got == reference_validity(bm, w, j, backward), (w, backward)
            yield rep

    @staticmethod
    def mutants(rng, w, n):
        """`w` with one target dropped, and with one target added."""
        src = rng.choice(sorted(w.forward))
        tgts = sorted(w.forward[src])
        dropped = dict(w.forward)
        dropped[src] = frozenset(tgts[1:])
        added = dict(w.forward)
        extra = (rng.randrange(n), rng.randrange(n))
        added[src] = w.forward[src] | {extra}
        return RelWitness(dropped), RelWitness(added)

    def test_random_bimodels(self):
        alph = Alphabet.make(["p"], ["a", "b"])
        rng = random.Random(23)
        outcomes, relations = set(), 0
        for seed in range(160):
            n = rng.randint(1, 5)
            bm = random_bimodel(seed, n, alph, ("P", "Q"), density=rng.choice((0.2, 0.5)))
            c, d = random_kat(rng, alph, 2), random_kat(rng, alph, 2)
            pre, post = ((BPrim("P"), BPrim("Q")) if seed % 2 else
                         (random_bitest(rng, alph.tests, ("P", "Q")),
                          random_bitest(rng, alph.tests, ("P", "Q"))))
            j = Judgment("fsim", c, d, RelSpec(pre, post))
            witnesses = [random_bikat(rng, alph, ("P", "Q")), emb_pair(c, d)]
            for construct, kind in ((construct_fwitness, "fsim"), (construct_bwitness, "bsim")):
                if dispatch(bm, Judgment(kind, c, d, j.spec)).holds:
                    w = construct(bm, j)
                    witnesses.append(w)
                    if w.forward:
                        witnesses += self.mutants(rng, w, n)
                        relations += 1
            for w in witnesses:
                for rep in self.agree(bm, w, j):
                    outcomes.add(tuple(sorted(rep.conditions.items())))
        assert relations >= 45 and len(outcomes) >= 12

    @pytest.mark.parametrize("name, edits", [
        ("guess-count", []),
        ("guess-count", [("[n == k]", "[n == n]")]),
        ("guess-count", [("<i := 0 | i := 0>", "<i := 0 | i := 1>")]),
        ("guess-double", []),
        ("guess-double", [("[x == y]", "[x == x]")]),
        ("guess-double", [("[x := y ; y := y + x + z>", "[x := y ; y := y + x>")]),
    ])
    def test_corpus_witnesses_at_width_2(self, name, edits):
        text = (CORPUS / f"{name}.prob").read_text()
        for old, new in edits:
            assert old in text
            text = text.replace(old, new)
        prob = load_problem(text, name, width_override=2)
        bm, j = prob.bm, prob.judgment()
        reports = list(self.agree(bm, prob.witness, j))
        if not edits:
            assert any(rep.valid for rep in reports)
        else:
            assert not all(rep.valid for rep in reports)
        # the constructed relation of the simulation that holds, and mutants
        rng = random.Random(5)
        for construct, kind in ((construct_fwitness, "fsim"), (construct_bwitness, "bsim")):
            if dispatch(bm, Judgment(kind, j.left, j.right, j.spec)).holds:
                w = construct(bm, j)
                for v in (w,) + self.mutants(rng, w, bm.space.size):
                    list(self.agree(bm, v, j))


class TestStreamedRows:
    """`PairSpec.rows` builds each row when it is reached, and
    `PairSpec.one_partner` gives lazy columns, so a check that stops early
    enumerates few rows; a refusal comes before any row."""

    def test_refutation_enumerates_only_the_rows_it_reaches(self, monkeypatch):
        # the right program stores f(k) + 1 into 1-bit cells, so the post
        # fails from the first pre pair on: the check stops in the first chunk.
        # The pre has one partner per left state: ∀∀ reads its columns and
        # builds no row through `rows`
        text = (CORPUS / "loop-tiling.prob").read_text().replace(
            "A[2 * i + j] := f(2 * i + j);", "A[2 * i + j] := f(2 * i + j) + 1;")
        prob = load_problem(text, "loop-tiling~mutant")
        one_partner = PairSpec.one_partner
        reached = []

        def counted(spec):
            lefts, rights = one_partner(spec)

            def states():
                for s in lefts:
                    reached.append(s)
                    yield s
            return states(), rights

        def no_rows(spec):
            raise AssertionError("rows were built")
        monkeypatch.setattr(PairSpec, "one_partner", counted)
        monkeypatch.setattr(PairSpec, "rows", no_rows)
        res = dispatch(prob.bm, prob.judgment())
        assert not res.holds and res.counterexample.states[0] == 0
        n = prob.bm.space.size
        assert 0 < len(reached) <= 128 and n == 32768
        assert reached == sorted(reached)

    def test_refusal_comes_before_any_row(self, monkeypatch):
        # 32768 left states, x pinned and y, z free: 1024 candidates each
        from bikat.judge import EnumRefused
        prob = load_problem("width 5; vars x y z; pre { [x == x] }")
        spec = PairSpec(prob.bm, prob.pre)

        def no_rows(*args):
            raise AssertionError("a row was built")
        monkeypatch.setattr(PairSpec, "_columns", no_rows)
        monkeypatch.setattr(PairSpec, "_row", no_rows)
        with pytest.raises(EnumRefused):
            spec.rows()
        with pytest.raises(EnumRefused):
            spec.pairs()

    def test_rows_are_the_partners_of_each_left_state(self):
        # rows and partners_left build a row the same way, from one column
        prob = load_problem(
            "width 2; var x:2; var y:2; array a[2]:1;\n"
            "pre { [x + 1 == y] & [a[0] == a[1]] & L[x != 2] & R[a[1] == 0] }")
        spec = PairSpec(prob.bm, prob.pre)
        rows = dict(spec.rows())
        fresh = PairSpec(prob.bm, prob.pre)
        for a in range(prob.bm.space.size):
            assert fresh.partners_left(a) == rows.get(a, []), a
        assert rows and len(rows) < prob.bm.space.size
