"""Relational judgment oracles, witnesses, and the triple-space route."""

import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from bikat.bi.terms import B0, BPrim, BT1, BZero, band, bembl, bembr, bnot, btest, emb_pair
from bikat.judge import (Judgment, PairSpec, RelSpec, RelWitness,
                         WitnessRefused, check_adequacy, check_allall,
                         check_bsim, check_bvalid, check_existsexists,
                         check_existsforall, check_fsim, check_fvalid,
                         check_bsim_via_trikat, check_fsim_via_trikat,
                         construct_bwitness, construct_fwitness, dispatch,
                         tri_embed, tri_proj_left2, tricom)
from bikat.kat import Alphabet, K1, parse_term
from bikat.models import BiRel, Rel, interp_kat, lift_left, random_bimodel, tensor
from bikat.problem import load_problem

from gen import random_bikat

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
        for bm, j in rand_instances("allall", 60):
            res = check_allall(bm, j)
            assert res.routes["pointwise"] == res.routes["equational"]

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
            hits += ee.holds
        assert 0 < hits

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
