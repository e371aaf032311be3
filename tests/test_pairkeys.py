"""Keyed pair predicates and tag-domain adequacy against references.

`compile_pred` decides the keyed atoms of a conjunction by comparing two
packed state columns; each bitest is compared here, pair by pair, with a
reference that evaluates its atoms by `ImpEnv.eval` and `ImpEnv.holds`.
`check_adequacy` applies a goal's one-sided prefix per state and decides
coverage on the tags of one walk of the rest per chunk; it is compared with a
decode of every source's image under the whole goal through `term_image`."""

import random
import textwrap

import pytest

from bikat.bi.terms import (B1, BAnd, BEmbLTest, BEmbRTest, BNot, BOne, BOr, BPrim,
                            BZero, bseq, seq_chain)
from bikat.judge import check_adequacy, term_image
from bikat.judge.core import ExprBitest, pair_spec, post_map
from bikat.judge.oracles import _one_sided_prefix
from bikat.kat import Alphabet
from bikat.kat.parse import parse_all
from bikat.kat.terms import KPlus, KSeq, KTest, TAnd, TNot, TOne, TOr, TPrim, TZero
from bikat.models import random_bimodel
from bikat.models.imp import CMP_OPS
from bikat.problem import Cur, load_problem, parse_bool, parse_expr
from bikat.rhl.parse import parse_proof

from gen import random_bikat, random_kat
from test_corpus import PROBLEMS
from test_record import TEXTS, problem_at


class Reference:
    """A bitest evaluated on pairs from its syntax: expression bitests by
    `ImpEnv.eval`, one-sided tests by `ImpEnv.holds` on the condition their
    name prints, memoized per atom and state."""

    def __init__(self, prob):
        self.prob, self.env = prob, prob.env
        self.memo: dict = {}

    def _eval(self, e, s: int) -> int:
        key = ("e", e, s)
        if key not in self.memo:
            self.memo[key] = self.env.eval(e, s)
        return self.memo[key]

    def _test(self, t, s: int) -> bool:
        if isinstance(t, (TZero, TOne)):
            return isinstance(t, TOne)
        if isinstance(t, TNot):
            return not self._test(t.arg, s)
        if isinstance(t, (TAnd, TOr)):
            parts = [self._test(a, s) for a in t.args]
            return all(parts) if isinstance(t, TAnd) else any(parts)
        assert isinstance(t, TPrim)
        key = ("t", t.name, s)
        if key not in self.memo:
            self.memo[key] = self.env.holds(parse_all(t.name, parse_bool), s)
        return self.memo[key]

    def holds(self, t, a: int, b: int) -> bool:
        if isinstance(t, (BZero, BOne)):
            return isinstance(t, BOne)
        if isinstance(t, BEmbLTest):
            return self._test(t.test, a)
        if isinstance(t, BEmbRTest):
            return self._test(t.test, b)
        if isinstance(t, BNot):
            return not self.holds(t.arg, a, b)
        if isinstance(t, (BAnd, BOr)):
            parts = [self.holds(x, a, b) for x in t.args]
            return all(parts) if isinstance(t, BAnd) else any(parts)
        sem = self.prob.bm.bitest(t.name)
        assert isinstance(sem, ExprBitest)
        return CMP_OPS[sem.op](self._eval(sem.lexpr, a), self._eval(sem.rexpr, b))


def sample_pairs(n: int, rng: random.Random, lefts: int = 32):
    """Every pair when the space is small; else, for a sample of left
    states, the diagonal pair, the pairs one bit off it and random ones,
    so that equalities hold on some of them."""
    if n <= 64:
        return [(a, b) for a in range(n) for b in range(n)]
    out = []
    for a in rng.sample(range(n), lefts):
        out.append((a, a))
        out += [(a, a ^ 1 << k) for k in range(n.bit_length() - 1)]
        out += [(a, rng.randrange(n)) for _ in range(16)]
    return out


def assert_agrees(prob, t, pairs):
    ref, pred = Reference(prob), pair_spec(prob.bm, t).pred
    for a, b in pairs:
        assert pred.holds(a, b) == ref.holds(t, a, b), (str(t), a, b)
    # the row and set forms read the same keys
    by_left: dict[int, list[int]] = {}
    for a, b in pairs:
        by_left.setdefault(a, []).append(b)
    for a, bs in by_left.items():
        want = next(((a, b) for b in bs if not ref.holds(t, a, b)), None)
        assert pred.escape((a,), bs) == want, (str(t), a)
        assert pred.some(a, bs) == any(ref.holds(t, a, b) for b in bs), (str(t), a)


def corpus_bitests(prob, proof_text):
    found = [prob.pre, prob.post]
    for hyp in prob.rel_hyps.values():
        found += [hyp.judgment.pre, hyp.judgment.post]
    for hyp in prob.impl_hyps.values():
        found += [hyp.lhs, hyp.rhs]
    if proof_text is not None:
        todo = [parse_proof(proof_text, prob.parser.bitest,
                            lambda s: parse_expr(Cur(s)))]
        while todo:
            node = todo.pop()
            found += [v for k, v in node.ann.items() if k not in ("variant", "side")
                      and not isinstance(v, (str, int))]
            todo += node.premises
    return list(dict.fromkeys(found))


class TestKeyedPredicate:
    @pytest.mark.parametrize("path", PROBLEMS, ids=lambda p: p.stem)
    def test_corpus_bitests_at_width_2(self, path):
        prob = load_problem(path.read_text(), path.stem, width_override=2)
        proof = path.with_suffix(".proof")
        bitests = corpus_bitests(prob, proof.read_text() if proof.exists() else None)
        pairs = sample_pairs(prob.bm.space.size, random.Random(path.stem))
        for t in bitests:
            assert_agrees(prob, t, pairs)

    SPACE = textwrap.dedent("""\
        width 2; var x:3; var z:3; var y:1; array A[2]:1;
        left { skip; } right { skip; }
        kind allall;
    """)

    def test_wide_fields_do_not_collide(self):
        # x and z are 3 bits under width 2: slots of 2 bits would pack
        # (x, z) = (1, 0) like (0, 4), or (0, 1) like (4, 0)
        prob = load_problem(self.SPACE)
        t = prob.parser.bitest("[x == x] & [z == z]")
        pred, sp = pair_spec(prob.bm, t).pred, prob.bm.space
        assert pred.keyed
        assert len(set(pred.lk)) == 64
        for one, four in (("x", "z"), ("z", "x")):
            a, b = sp.set(0, one, 1), sp.set(0, four, 4)
            assert not pred.holds(a, b) and not pred.holds(b, a)
        assert_agrees(prob, t, sample_pairs(prob.bm.space.size, random.Random(0)))

    def test_failing_sides_do_not_match(self):
        prob = load_problem(self.SPACE)
        t = prob.parser.bitest("L[x == 0] & R[x == 0] & [y == y]")
        pred = pair_spec(prob.bm, t).pred
        a = b = prob.bm.space.set(0, "x", 1)
        assert pred.lk[a] == -1 and pred.rk[b] == -2
        assert not pred.holds(a, b)
        assert pred.escape((a,), [b]) == (a, b)
        assert_agrees(prob, t, sample_pairs(prob.bm.space.size, random.Random(1)))

    EXPRS = ("x", "z", "y", "A[0]", "A[y]", "x + 1", "3", "z - x", "A[1] + y")
    CONDS = ("x == 0", "y != 1", "A[0] <= z", "x + z == 2", "A[y] == 1")

    def random_conjunction(self, rng: random.Random) -> str:
        def atom(depth: int) -> str:
            pick = rng.random()
            if depth and pick < 0.12:
                return f"!({atom(depth - 1)})"
            if depth and pick < 0.22:
                return f"({atom(depth - 1)} | {atom(depth - 1)})"
            if pick < 0.3:
                return rng.choice(("true", "false"))
            if pick < 0.5:
                return f"{rng.choice('LR')}[{rng.choice(self.CONDS)}]"
            op = rng.choice(("==", "==", "==", "<=", "!="))
            return f"[{rng.choice(self.EXPRS)} {op} {rng.choice(self.EXPRS)}]"
        return " & ".join(atom(1) for _ in range(rng.randint(1, 5)))

    def test_random_conjunctions(self):
        rng = random.Random(2024)
        prob = load_problem(self.SPACE)
        n = prob.bm.space.size
        kinds = set()
        for _ in range(40):
            t = prob.parser.bitest(self.random_conjunction(rng))
            pred = pair_spec(prob.bm, t).pred
            kinds.add((pred.lk is not None, pred.rest is not None))
            assert_agrees(prob, t, sample_pairs(n, rng))
        # keys alone, keys and a residual, and a residual alone all occur
        assert {(True, False), (True, True), (False, True)} <= kinds


def adequacy_by_images(bm, pre, c, d, goal):
    """The first run pair, in pre order, that the images of `goal` do not
    cover, as (a, b, t, t2); None if every one is covered."""
    cpost, dpost = post_map(bm.base, c), post_map(bm.base, d)
    pairs = pair_spec(bm, pre).pairs()
    cimg = cpost.fill(a for a, _ in pairs)
    dimg = dpost.fill(b for _, b in pairs)
    sources = [(a, b) for a, b in pairs if cimg[a] and dimg[b]]
    images = term_image(bm, goal, sources)
    for a, b in sources:
        for t in cimg[a]:
            for t2 in dimg[b]:
                if (t, t2) not in images[(a, b)]:
                    return a, b, t, t2
    return None


def assert_same_adequacy(bm, pre, c, d, goal):
    res = check_adequacy(bm, pre, c, d, goal)
    want = adequacy_by_images(bm, pre, c, d, goal)
    assert res.holds == (want is None)
    assert (None if res.holds else res.counterexample.states) == want
    return res.holds


GOAL_NAMES = [name for name, text in TEXTS.items() if "goal {" in text]
# loop-tiling keeps 32768 states a side at width 2: its dozen variants
# would take seconds
VARIANT_NAMES = [n for n in GOAL_NAMES if not n.startswith("loop-tiling")]


def _chain_variants(goal):
    """The goal, and its chain with one factor dropped or two adjacent
    factors swapped: one-sided prefixes that are empty, partial or whole."""
    ch = seq_chain(goal)
    return [goal] + [bseq(*ch[:i], *ch[i + 1:]) for i in range(len(ch))] + [
        bseq(*ch[:i], ch[i + 1], ch[i], *ch[i + 2:]) for i in range(len(ch) - 1)]


def _width_2_goals(name):
    prob = problem_at(name, 2)
    assert prob.script_goal is not None
    return prob, _chain_variants(prob.script_goal)


class TestTagAdequacy:
    @pytest.mark.parametrize("name", GOAL_NAMES)
    def test_script_goals_at_width_2(self, name):
        prob = problem_at(name, 2)
        assert prob.script_goal is not None
        j = prob.judgment()
        assert_same_adequacy(prob.bm, j.spec.pre, j.left, j.right, prob.script_goal)

    @pytest.mark.parametrize("name", VARIANT_NAMES)
    def test_chain_variants_at_width_2(self, name):
        prob, goals = _width_2_goals(name)
        j = prob.judgment()
        for goal in goals:
            assert_same_adequacy(prob.bm, j.spec.pre, j.left, j.right, goal)

    def test_chain_variants_reach_every_kind_of_prefix(self):
        """Prefixes that are empty, partial and whole, one with a
        non-deterministic left part (double-square's `<1 + ...]`) and one
        that carries a left test (simple-sum's `L[i <= N]`)."""
        kinds, lefts = set(), {}
        for name in VARIANT_NAMES:
            for goal in _width_2_goals(name)[1]:
                p, q, rest = _one_sided_prefix(goal)
                kinds.add("whole" if rest == B1 else "empty" if rest == goal else "partial")
                lefts.setdefault(name, set()).update(
                    map(type, p.args if isinstance(p, KSeq) else (p,)))
        assert kinds == {"empty", "partial", "whole"}
        assert KPlus in lefts["double-square"] and KTest in lefts["simple-sum"]

    @pytest.mark.parametrize("test", ["[n == n]", "[n != n]", "[n == n] & L[r == 0]"])
    def test_two_sided_test_ends_the_prefix(self, test):
        prob, goals = _width_2_goals("factorial-ni")
        j = prob.judgment()
        goal = bseq(prob.parser.bikat(test), goals[0])
        assert _one_sided_prefix(goal)[2] == goal
        assert assert_same_adequacy(prob.bm, j.spec.pre, j.left, j.right, goal) == (
            test == "[n == n]")

    @pytest.mark.parametrize("test", ["R[n != 0]", "R[n != n]"])
    def test_failing_right_test_starts_no_empty_row(self, test, monkeypatch):
        """A right test at the head of the prefix that fails at some (or
        every) right state: those classes have no start pair, so they are
        uncovered, and no row of the walk's frontier is empty."""
        from bikat.judge import witness
        prob, goals = _width_2_goals("factorial-ni")
        j = prob.judgment()
        frontiers = []
        tags = witness.term_tags

        def recording(bm, w, rows):
            frontiers.append(rows)
            return tags(bm, w, rows)

        monkeypatch.setattr(witness, "term_tags", recording)
        goal = bseq(prob.parser.bikat(test), goals[0])
        assert not assert_same_adequacy(prob.bm, j.spec.pre, j.left, j.right, goal)
        assert all(all(rows.values()) for rows in frontiers)
        assert bool(frontiers) == (test == "R[n != 0]")

    def test_random_bimodels(self):
        alph = Alphabet.make(["p"], ["a", "b"])
        verdicts = set()
        for seed in range(80):
            rng = random.Random(seed)
            bm = random_bimodel(seed, rng.choice((3, 4, 5)), alph, ("P",))
            c, d = random_kat(rng, alph, 2), random_kat(rng, alph, 2)
            goal = random_bikat(rng, alph, ("P",), 3)
            verdicts.add(assert_same_adequacy(bm, BPrim("P"), c, d, goal))
        assert verdicts == {True, False}
