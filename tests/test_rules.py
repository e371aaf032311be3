"""Every rule of the three RHL systems, pinned.  Each rule has one instance
that `check_proof` accepts and whose root oracle holds, and one perturbed
instance (a wrong conclusion kind, a bad annotation, a failing side condition
or premise) that it rejects at a named node with a named class of message.
All instances live on a 2-bit space of two variables, 16 states a side."""

import random
import re
from collections import Counter
from dataclasses import dataclass, replace

import pytest

from bikat.problem import Cur, load_problem, parse_expr
from bikat.rhl import proof
from bikat.rhl.parse import parse_proof
from bikat.rhl.proof import check_proof

from test_corpus import CORPUS
from test_record import problem_at

SPACE = "width 2; vars x y;"

# the classes of failure message
SCHEMA = "schema: "
SIDE = "side condition failed: "
MISSING = "missing annotation "
REFUTED = "oracle refutes the leaf judgment"

STEP = "x := x + 1; y := x;"
COPY = "y := x;"
ADD = "x := x + y;"
IF = "if (x == 0) { y := 1; } else { y := 0; }"
DOWN = "while (x != 0) { x := x - 1; y := y + 1; }"
DOWN_X = "while (x != 0) { x := x - 1; }"
DOWN_Y = "while (y != 0) { y := y - 1; }"
# a backward premise runs its left body from every state, so this body
# runs only where the guard holds
DOWN_GUARDED = "while (x != 0) { assume(x != 0); x := x - 1; }"
INV = "[x == x] & [y == y]"
DONE = "!L[x != 0] & !R[x != 0]"
DONE_XY = "!L[x != 0] & !R[y != 0]"
BOTH = "[x == x] & [y == y]"
# the left conditional's own outcome: backward posts relate only its ends
IF_END = f"{BOTH} & (L[x == 0] & L[y == 1] | L[x != 0] & L[y == 0])"
CASES = "[x == x] & L[x == 0] | [x == x] & L[x != 0]"
GUARDS = "L[x == 0] & R[x == 0] | !L[x == 0] & !R[x == 0]"


@dataclass(frozen=True)
class Instance:
    kind: str
    left: str
    right: str
    pre: str
    post: str
    proof: str
    decls: str = ""

    def check(self):
        prob = load_problem(
            f"{SPACE} {self.decls} left {{ {self.left} }} right {{ {self.right} }} "
            f"kind {self.kind}; pre {{ {self.pre} }} post {{ {self.post} }}")
        tree = parse_proof(self.proof, prob.parser.bitest, lambda s: parse_expr(Cur(s)))
        return check_proof(prob.rhl_context(), tree, prob.rhl_judgment())


def same(kind, prog, pre, post, proof, decls=""):
    """An instance whose two programs are the same."""
    return Instance(kind, prog, prog, pre, post, proof, decls)


def relhyp(kind: str, prog: str, pre: str, post: str) -> str:
    return (f"relhyp h {kind} {{ left {{ {prog} }} right {{ {prog} }} "
            f"pre {{ {pre} }} post {{ {post} }} }}")


# rule -> (accepted instance, the perturbation of it that is rejected,
#          the failing node's path, its message class)
INSTANCES = {
    # forall-forall
    "dseq": (same("allall", STEP, "[x == x]", "[y == y]",
                  "(dseq :mid {[x == x]} (dprim) (dprim))"),
             {"proof": "(dseq :mid {true} (dprim) (dprim))"}, (1,), REFUTED),
    "dif": (same("allall", IF, "[x == x]", "[y == y]",
                 "(dif :side hyp=agree (dprim) (dprim))",
                 f"implhyp agree {{ [x == x] }} {{ {GUARDS} }}"),
            {"pre": "true"}, (), SIDE),
    "dwh": (same("allall", DOWN, INV, f"{INV} & {DONE}", f"(dwh :inv {{{INV}}} (dprim))"),
            {"proof": "(dwh (dprim))"}, (), MISSING),
    "cawh": (Instance("allall", DOWN_X, DOWN_Y, "true", DONE_XY,
                      "(cawh :inv {true} :q {[x > y]} :r {[x < y]} (dprim) (dprim) (dprim))"),
             {"proof": "(cawh :inv {true} :q {[x > y]} :r {false} (dprim) (dprim) (dprim))"},
             (), SIDE),
    "rdisj": (same("allall", COPY, CASES, "[y == y]",
                   "(rdisj :first {[x == x] & L[x == 0]} :second {[x == x] & L[x != 0]} "
                   "(dprim) (dprim))"),
              {"pre": "[x == x]"}, (), SCHEMA),
    "rconseq": (same("allall", COPY, BOTH, "[y == y]",
                     "(rconseq :pre {[x == x]} :post {[y == y] & [x == x]} (dprim))"),
                {"proof": "(rconseq :pre {[x == x] & L[x == 0]} :post {[y == y]} (dprim))"},
                (), SIDE),
    "seqsk": (Instance("allall", "x := 0; y := x;", "skip;", "true", "L[y == 0]",
                       "(seqsk :mid {L[x == 0]} (dprim) (dprim))"),
              {"right": "x := 0;"}, (), SCHEMA),
    "dass": (same("allall", "x := y;", "[y == y]", "[x == x]", "(dass)"),
             {"pre": "[x == x]"}, (), SCHEMA),
    "dprim": (same("allall", ADD, BOTH, "[x == x]", "(dprim)"),
              {"pre": "[x == x]"}, (), REFUTED),
    "dcall": (same("allall", ADD, BOTH, "[x == x]", "(dcall :hyp h)",
                   relhyp("allall", ADD, BOTH, "[x == x]")),
              {"proof": "(dcall :hyp g)"}, (), SCHEMA),
    "selfcomp": (same("allall", ADD, BOTH, "[x == x]", "(selfcomp)"),
                 {"pre": "[x == x]"}, (), REFUTED),
    # forward simulation
    "eseq": (same("fsim", STEP, "[x == x]", "[y == y]",
                  "(eseq :mid {[x == x]} (eprim) (eprim))"),
             {"kind": "allall"}, (), SCHEMA),
    "eif": (same("fsim", IF, "[x == x]", "[y == y]", "(eif (eprim) (eprim))"),
            {"proof": "(eif (eprim) (dprim))"}, (1,), SCHEMA),
    "ewh": (same("fsim", DOWN, INV, f"{INV} & {DONE}", f"(ewh :inv {{{INV}}} (eprim))"),
            {"proof": "(ewh :inv {[x == x]} (eprim))"}, (), SCHEMA),
    "ewhl": (Instance("fsim", DOWN_X, DOWN_Y, "R[y == 0]", f"R[y == 0] & {DONE_XY}",
                      "(ewhl :inv {R[y == 0]} (eprim) (eprim))"),
             {"pre": "true", "post": DONE_XY,
              "proof": "(ewhl :inv {true} (eprim) (eprim))"}, (), SIDE),
    "ewhr": (Instance("fsim", DOWN_X, DOWN_Y, "L[x == 0]", f"L[x == 0] & {DONE_XY}",
                      "(ewhr :inv {L[x == 0]} :variant {y} (eprim))"),
             {"proof": "(ewhr :inv {L[x == 0]} :variant {x} (eprim))"}, (), SIDE),
    "ehav": (same("fsim", "x := any; y := any;", "true", BOTH, "(ehav)"),
             {"post": "[x == x] & L[x == 0]"}, (), SIDE),
    "enass": (same("fsim", "x := any;", "true", "[x == x]", "(enass)"),
              {"pre": "[y == y]"}, (), SCHEMA),
    "edisj": (same("fsim", COPY, CASES, "[y == y]",
                   "(edisj :first {[x == x] & L[x == 0]} :second {[x == x] & L[x != 0]} "
                   "(eprim) (eprim))"),
              {"pre": "[x == x] & L[x == 0] | L[x != 0]",
               "proof": "(edisj :first {[x == x] & L[x == 0]} :second {L[x != 0]} "
                        "(eprim) (eprim))"}, (1,), REFUTED),
    "econseq": (same("fsim", COPY, BOTH, "[y == y]",
                     "(econseq :pre {[x == x]} :post {[y == y] & [x == x]} (eprim))"),
                {"proof": "(econseq :pre {[x == x]} :post {true} (eprim))"}, (), SIDE),
    "eass": (same("fsim", "x := y;", "[y == y]", "[x == x]", "(eass)"),
             {"kind": "bsim"}, (), SCHEMA),
    "eprim": (same("fsim", ADD, BOTH, "[x == x]", "(eprim)"),
              {"pre": "[x == x]"}, (), REFUTED),
    "ecall": (same("fsim", ADD, BOTH, "[x == x]", "(ecall :hyp h)",
                   relhyp("fsim", ADD, BOTH, "[x == x]")),
              {"decls": relhyp("fsim", ADD, BOTH, "[y == y]")}, (), SCHEMA),
    # backward simulation
    "bseq": (same("bsim", STEP, "[x == x]", BOTH, "(bseq :mid {[x == x]} (bprim) (bprim))"),
             {"proof": "(bseq :mid {[x == x]} :lsplit 2 (bprim) (bprim))"}, (), SCHEMA),
    "bif": (same("bsim", IF, "[x == x]", IF_END, "(bif (bprim) (bprim))"),
            {"kind": "allall"}, (), SCHEMA),
    "bwh": (same("bsim", DOWN_GUARDED, "[x == x]", f"[x == x] & {DONE}",
                 "(bwh :inv {[x == x]} (bprim))"),
            {"proof": "(bwh :inv {[x == x]} (dprim))"}, (0,), SCHEMA),
    "bnass": (same("bsim", "x := any;", "[x == x]", "true", "(bnass)"),
              {"pre": BOTH}, (), SIDE),
    "bconseq": (same("bsim", COPY, "[x == x]", BOTH,
                     f"(bconseq :pre {{{BOTH}}} :post {{{BOTH}}} (bprim))"),
                {"proof": f"(bconseq :pre {{true}} :post {{{BOTH}}} (bprim))"}, (), SIDE),
    "bdisj": (same("bsim", COPY, "[x == x]", f"{BOTH} & L[x == 0] | {BOTH} & L[x != 0]",
                   f"(bdisj :first {{{BOTH} & L[x == 0]}} :second {{{BOTH} & L[x != 0]}} "
                   "(bprim) (bprim))"),
              {"post": f"{BOTH} & L[x == 0] | [x == x] & L[x != 0]",
               "proof": f"(bdisj :first {{{BOTH} & L[x == 0]}} :second {{[x == x] & L[x != 0]}} "
                        "(bprim) (bprim))"}, (1,), REFUTED),
    "bprim": (same("bsim", COPY, "[x == x]", BOTH, "(bprim)"),
              {"post": "[y == y]"}, (), REFUTED),
    "bcall": (same("bsim", COPY, "[x == x]", BOTH, "(bcall :hyp h)",
                   relhyp("bsim", COPY, "[x == x]", BOTH)),
              {"decls": relhyp("allall", COPY, "[x == x]", BOTH)}, (), SCHEMA),
}

# the rules whose node is discharged by an oracle rather than by premises
LEAVES = ["dprim", "eprim", "bprim", "dass", "eass", "selfcomp"]

# bIf and bWh instances whose premises hold only because a left branch or
# body assumes its guard: the bsim oracle runs it from every state
GUARDED = {
    "bif": (same("bsim", IF, "[x == x]", BOTH, "(bif (bprim) (bprim))"),
            ["assume(x == 0); y := 1; | y := 1;", "assume(!(x == 0)); y := 0; | y := 0;"]),
    "bwh": (same("bsim", DOWN_X, "[x == x]", f"[x == x] & {DONE}",
                 "(bwh :inv {[x == x]} (bprim))"),
            ["assume(x != 0); x := x - 1; | x := x - 1;"]),
}


def inventory() -> dict[str, str]:
    """Rule name, case-folded, to the kind it concludes, as the rule
    inventory of the proof module's docstring lists them."""
    kinds = {"forall-forall": "allall", "forward sim": "fsim", "backward sim": "bsim"}
    got = {}
    for label, names in re.findall(r"^  ([a-z -]+):\s+(.+)$", proof.__doc__, re.M):
        for name in names.split():
            got[name.casefold()] = kinds[label]
    return got


def test_every_documented_rule_has_instances():
    assert len(INSTANCES) == 31
    assert inventory() == {rule: inst.kind for rule, (inst, *_) in INSTANCES.items()}


@pytest.mark.parametrize("rule", sorted(INSTANCES))
def test_rule_accepts(rule):
    inst = INSTANCES[rule][0]
    res = inst.check()
    assert res.accepted and res.root_oracle.holds, [r.message for r in res.reports]
    assert all(r.ok for r in res.reports)
    assert res.reports[0].rule == rule


@pytest.mark.parametrize("rule", sorted(INSTANCES))
def test_rule_rejects_a_perturbed_instance(rule):
    inst, perturbation, path, message = INSTANCES[rule]
    res = replace(inst, **perturbation).check()
    assert not res.accepted and res.root_oracle is None
    (failed,) = [r for r in res.reports if not r.ok]
    assert failed.path == path and failed.message.startswith(message), failed


def test_leaf_rules_refuse_premises():
    for rule in LEAVES:
        inst = INSTANCES[rule][0]
        res = replace(inst, proof=inst.proof[:-1] + " (bogus) (dseq))").check()
        assert not res.accepted
        assert [(r.path, r.rule, r.ok, r.message) for r in res.reports] == [
            ((), rule, False, "rule needs 0 premises, proof has 2")]
    # factorial-ni's proof with premises under the leaf of its loop body
    prob = problem_at("factorial-ni", 2)
    text = (CORPUS / "factorial-ni.proof").read_text().replace(
        "(dprim))))", "(dprim (bogus) (dseq)))))")
    tree = parse_proof(text, prob.parser.bitest, lambda s: parse_expr(Cur(s)))
    res = check_proof(prob.rhl_context(), tree, prob.rhl_judgment())
    assert not res.accepted
    assert [(r.path, r.rule, r.message) for r in res.reports if not r.ok] == [
        ((0, 1, 0), "dprim", "rule needs 0 premises, proof has 2")]


@pytest.mark.parametrize("kind", ["existsforall", "existsexists", "incorrectness"])
def test_kinds_without_rules_fail_at_the_root(kind):
    inst = same(kind, ADD, BOTH, "[x == x]", "(dprim)")
    res = inst.check()
    assert not res.accepted and res.root_oracle is None
    (rep,) = res.reports
    assert (rep.path, rep.rule, rep.ok, rep.message) == (
        (), "dprim", False, f"schema: dprim applies to allall judgments, not {kind}")
    assert kind in rep.judgment


@pytest.mark.parametrize("rule", sorted(GUARDED))
def test_backward_premises_assume_the_left_guard(rule):
    inst, premises = GUARDED[rule]
    res = inst.check()
    assert res.accepted and res.root_oracle.holds, [r.message for r in res.reports]
    assert [r.judgment.split(" : ")[0] for r in res.reports[1:]] == premises


@pytest.mark.parametrize("rule", sorted(INSTANCES))
def test_an_annotation_the_rule_does_not_read_is_refused(rule):
    inst = INSTANCES[rule][0]
    res = replace(inst, proof=inst.proof.replace(f"({rule}", f"({rule} :bogus 3", 1)).check()
    assert [(r.path, r.ok, r.message) for r in res.reports] == [
        ((), False, f"schema: {rule} does not read :bogus")]


@pytest.mark.parametrize("rule, proof, unread", [
    ("bif", "(bif :side hyp=nope :inv {false} (bprim) (bprim))", ":inv, :side"),
    ("dprim", "(dprim :mid {false} :side hyp=nope)", ":mid, :side"),
    ("seqsk", "(seqsk :mid {L[x == 0]} :rsplit 1 (dprim) (dprim))", ":rsplit"),
    ("bwh", "(bwh :inv {[x == x]} :side hyp=nope (bprim))", ":side"),
    ("dwh", f"(dwh :inv {{{INV}}} :q {{true}} (dprim))", ":q"),
    ("ewh", f"(ewh :inv {{{INV}}} :variant {{y}} (eprim))", ":variant"),
])
def test_annotations_of_another_rule_are_refused(rule, proof, unread):
    # each rule reads its family's annotations but these, which differ
    res = replace(INSTANCES[rule][0], proof=proof).check()
    assert [(r.path, r.ok, r.message) for r in res.reports] == [
        ((), False, f"schema: {rule} does not read {unread}")]


CONDS = ["x == 0", "x != 0", "y == 0", "x < 2", "y != 1", "x == y"]
STMTS = ["x := x + 1;", "y := x;", "x := x - 1;", "y := y + 1;", "skip;", "x := y;", "y := 0;"]
RELS = ["true", "[x == x]", "[y == y]", BOTH, "[x == y]", "L[x == 0]", "[x == x] & R[y == 0]",
        "[x == x] & L[y == 0] & R[y == 0]", "[y == y] & L[x != 0]"]


def random_backward(rng: random.Random) -> Instance:
    """A bIf or bWh instance on random programs and relations."""
    def body():
        return " ".join(rng.choice(STMTS) for _ in range(rng.randint(1, 2)))

    def same_or(prog, fresh):
        return prog if rng.random() < 0.5 else fresh()

    if rng.random() < 0.5:
        def cond():
            return f"if ({rng.choice(CONDS)}) {{ {body()} }} else {{ {body()} }}"
        left = cond()
        return Instance("bsim", left, same_or(left, cond), rng.choice(RELS), rng.choice(RELS),
                        "(bif (bprim) (bprim))")
    c1 = rng.choice(CONDS)
    c2 = same_or(c1, lambda: rng.choice(CONDS))
    inv = rng.choice(RELS)
    return Instance("bsim", f"while ({c1}) {{ {body()} }}", f"while ({c2}) {{ {body()} }}",
                    inv, f"{inv} & !L[{c1}] & !R[{c2}]", f"(bwh :inv {{{inv}}} (bprim))")


def test_backward_rules_accept_nothing_the_root_oracle_refutes():
    # derandomized: whenever bIf or bWh accepts, the conclusion holds
    rng, accepted = random.Random(0), Counter()
    for _ in range(300):
        inst = random_backward(rng)
        res = inst.check()
        assert not [r for r in res.reports if r.rule == "(root)"], inst
        accepted[inst.proof.split()[0][1:]] += res.accepted
    assert accepted["bif"] >= 5 and accepted["bwh"] >= 10, accepted
