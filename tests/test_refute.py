"""The benchmark's mutants: every expected verdict of `perfbench/workloads.py`
`MUTANTS` holds on the mutated corpus file.  Their refutations are the
checks that stop at a first counterexample."""

import pytest

from bikat.judge.oracles import dispatch
from bikat.problem import load_problem

from test_corpus import CORPUS, proof_tree, verdict
from test_record import RECORDER

WORKLOADS = RECORDER._workloads()


def _mutant_problem(m):
    text = WORKLOADS.apply_mutant((CORPUS / f"{m.source}.prob").read_text(), m)
    return load_problem(text, f"{m.source}~mutant")


@pytest.mark.parametrize("mutant", WORKLOADS.MUTANTS, ids=lambda m: m.source)
def test_mutant_verdicts(mutant):
    prob = _mutant_problem(mutant)
    for check in mutant.checks:
        got = verdict(check.kind, prob, CORPUS / f"{mutant.source}.proof")
        assert got == check.expected, (mutant.source, check.kind, check.reason)


# the ∀∀ counterexample of each mutant, its states and its text: the first
# failing pair in row order, which sharing rows must not move
MUTANT_ALLALL = {
    "loop-tiling": ((0, 0, 4, 30800),
                    "pre left={x=0, i=0, j=0, a=[0,0,0,0], A=[0,0,0,0]} "
                    "right={x=0, i=0, j=0, a=[0,0,0,0], A=[0,0,0,0]} -> post "
                    "left={x=4, i=0, j=0, a=[0,0,0,0], A=[0,0,0,0]} "
                    "right={x=0, i=2, j=2, a=[0,0,0,0], A=[1,1,1,1]}"),
    "factorial-ni": ((0, 2, 64, 130),
                     "pre left={n=0, i=0, r=0} right={n=2, i=0, r=0} -> post "
                     "left={n=0, i=0, r=1} right={n=2, i=0, r=2}"),
    "double-square": ((0, 0, 0, 16),
                      "pre left={x=0, y=0, z=0} right={x=0, y=0, z=0} -> post "
                      "left={x=0, y=0, z=0} right={x=0, y=1, z=0}"),
    "simple-sum": ((8, 8, 74, 10),
                   "pre left={i=0, N=1, x=0} right={i=0, N=1, x=0} -> post "
                   "left={i=2, N=1, x=1} right={i=2, N=1, x=0}"),
    "array-insert": ((0, 32, 5, 293),
                     "pre left={i=0, len=0, h=0, k=0, A=[0,0,0]} "
                     "right={i=0, len=0, h=1, k=0, A=[0,0,0]} -> post "
                     "left={i=1, len=1, h=0, k=0, A=[0,0,0]} "
                     "right={i=1, len=1, h=1, k=0, A=[1,0,0]}"),
}


@pytest.mark.parametrize("mutant", WORKLOADS.MUTANTS, ids=lambda m: m.source)
def test_mutant_allall_counterexamples_are_pinned(mutant):
    assert {m.source for m in WORKLOADS.MUTANTS} == set(MUTANT_ALLALL)
    prob = _mutant_problem(mutant)
    res = dispatch(prob.bm, prob.judgment())
    assert not res.holds and res.routes == {"pointwise": False, "equational": False}
    cex = res.counterexample
    assert (cex.states, cex.rendered) == MUTANT_ALLALL[mutant.source]


# the one failing node of each mutant proof: its path, rule and message
MUTANT_PROOF = {
    "factorial-ni": ((), "rconseq",
                     "side condition failed: conclusion pre implies premise pre: "
                     "fails at left={n=0, i=0, r=0} right={n=1, i=0, r=0}"),
    "array-insert": ((1, 1, 1), "dprim",
                     "oracle refutes the leaf judgment: pre "
                     "left={i=0, len=0, h=0, k=0, A=[0,0,0]} "
                     "right={i=0, len=0, h=1, k=1, A=[1,0,1]} -> post "
                     "left={i=0, len=0, h=0, k=0, A=[0,0,0]} "
                     "right={i=0, len=0, h=1, k=1, A=[1,0,1]}"),
}


@pytest.mark.parametrize("source", sorted(MUTANT_PROOF))
def test_mutant_proof_failures_are_pinned(source):
    mutant = next(m for m in WORKLOADS.MUTANTS if m.source == source)
    prob = _mutant_problem(mutant)
    res = prob.checks(proof_tree(prob, CORPUS / f"{source}.proof"))["proof_accepted"]()
    assert not res.accepted
    assert [(n.path, n.rule, n.message) for n in res.reports if not n.ok] == [
        MUTANT_PROOF[source]]


# every refute mutant at its declared width and every corpus file at width
# 2: the counterexample states of ∀∀ and fsim, and of adequacy where the
# problem has a script goal, None where the check holds; then the first
# failing node of its proof, (path, rule), where it has one (None: accepted)
PINNED = {
    "loop-tiling~mutant": ((0, 0, 4, 30800), (0, 0, 4), (0, 0, 4, 30800)),
    "factorial-ni~mutant": ((0, 2, 64, 130), (0, 2, 64), None, ((), "rconseq")),
    "double-square~mutant": ((0, 0, 0, 16), (0, 0, 0), (0, 0, 0, 16)),
    "simple-sum~mutant": ((8, 8, 74, 10), (8, 8, 74), (0, 0, 1, 2)),
    "array-insert~mutant": ((0, 32, 5, 293), (0, 32, 5), None, ((1, 1, 1), "dprim")),
    "array-insert": ((12, 44, 0, 483), (12, 44, 0), None, ((), "(root)")),
    "count-cond": (None, None, None),
    "double-square": (None, None, None),
    "factorial-ni": (None, None, None, None),
    "guess-count": ((0, 0, 0, 81), None),
    "guess-double": ((0, 0, 0, 2), None),
    "loop-tiling": ((0, 0, 0, 6224), (0, 0, 0), None),
    "simple-sum": (None, None, None),
}


def _pinned_problem(name: str):
    if name.endswith("~mutant"):
        source = name.removesuffix("~mutant")
        return _mutant_problem(next(m for m in WORKLOADS.MUTANTS if m.source == source)), source
    return load_problem((CORPUS / f"{name}.prob").read_text(), name, width_override=2), name


@pytest.mark.parametrize("name", sorted(PINNED))
def test_counterexamples_and_failing_proof_nodes_are_pinned(name):
    assert {n.removesuffix("~mutant") for n in PINNED if n.endswith("~mutant")} == set(
        MUTANT_ALLALL)
    assert {n for n in PINNED if "~" not in n} == {p.stem for p in CORPUS.glob("*.prob")}
    prob, source = _pinned_problem(name)
    checks = prob.checks(proof_tree(prob, CORPUS / f"{source}.proof"))
    got = []
    for kind in ("allall", "fsim"):
        res = checks[kind]()
        assert set(res.routes.values()) == {res.holds}, (name, kind, res.routes)
        got.append(None if res.holds else res.counterexample.states)
    if "adequate" in checks:
        res = checks["adequate"]()
        got.append(None if res.holds else res.counterexample.states)
    if "proof_accepted" in checks:
        res = checks["proof_accepted"]()
        bad = [(n.path, n.rule) for n in res.reports if not n.ok]
        assert res.accepted == (not bad)
        got.append(bad[0] if bad else None)
    assert tuple(got) == PINNED[name]
