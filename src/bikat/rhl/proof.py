"""Proof checker for the three relational rule systems.

Proof trees are explicit data: each node names a rule, carries the rule's
annotations (invariants, alignment selectors, variant, split points,
hypothesis names), and lists its premise subtrees.  The checker derives every
premise judgment from the node's conclusion per the rule schema, discharges
side conditions semantically (or against a named hypothesis), and at the root
re-verifies the conclusion with the judgment oracle.  A failing node reports
its path and reason.

Rule inventory, the keys of `RULES` case-folded (a test keeps the two equal):

  forall-forall: dSeq dIf dWh caWh rDisj rConseq SeqSk dAss dPrim dCall selfComp
  forward sim:   eSeq eIf eWh eWhL eWhR eHav enAss eDisj eConseq eAss ePrim eCall
  backward sim:  bSeq bIf bWh bnAss bConseq bDisj bPrim bCall

An e-rule concludes fsim judgments, a b-rule bsim, every other rule allall;
the other judgment kinds have no rules.  dPrim/ePrim/bPrim and dAss/eAss
are leaves that the judgment oracle discharges, and selfComp a leaf that the
walk of the sequential alignment <c] ; [d> discharges (`selfcomp`);
dCall-style leaves discharge against a declared relational hypothesis, the
way procedure-call specs are axiomatized.  bIf and bWh need no
guard-agreement side condition; their premises run a left branch or body, as
the bsim oracle does, from every state, so it first assumes its guard.  A
node may carry only the annotations its rule reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial

from ..bi.terms import (BAnd, BEmbLTest, BEmbRTest, BiTestTerm, BOne,
                        BPrim, band, bnot, bor, simplify_bitest)
from ..judge.core import ExprBitest, Judgment, RelSpec, pair_spec, post_map
from ..judge.oracles import JudgeResult, dispatch
from ..models.imp import (BNotE, BoolExpr, ImpEnv, Program, SAssign, SAssume,
                          SHavoc, SIf, SSkip, SWhile, bool_str, expr_str, stmt_str,
                          subst_expr)
from ..models.bmodel import BiModel


@dataclass(frozen=True)
class RhlJudgment:
    kind: str  # "allall" | "fsim" | "bsim" have rules; oracle kinds have none
    left: Program
    right: Program
    pre: BiTestTerm
    post: BiTestTerm

    def describe(self) -> str:
        arrow = {"allall": "=>>", "fsim": "=E>", "bsim": "<E="}.get(
            self.kind, f"={self.kind}=>")
        lp = " ".join(stmt_str(s) + ";" for s in self.left) or "skip"
        rp = " ".join(stmt_str(s) + ";" for s in self.right) or "skip"
        return f"{lp} | {rp} : {self.pre} {arrow} {self.post}"


@dataclass(frozen=True)
class RelHypothesis:
    """A declared relational spec, usable to discharge call-style leaves."""

    name: str
    judgment: RhlJudgment


@dataclass(frozen=True)
class ImplicationHypothesis:
    """A declared bitest implication, usable to discharge side conditions."""

    name: str
    lhs: BiTestTerm
    rhs: BiTestTerm


@dataclass(frozen=True)
class SideCondition:
    shape: str  # implication | domain-totality | variant-decrease
    description: str
    lhs: BiTestTerm | None = None
    rhs: BiTestTerm | None = None
    payload: tuple = ()
    discharge: str = "oracle"  # or "hypothesis:<name>"


@dataclass(frozen=True)
class ProofTree:
    rule: str
    ann: dict = field(default_factory=dict)
    premises: tuple["ProofTree", ...] = ()


@dataclass
class NodeReport:
    path: tuple[int, ...]
    rule: str
    judgment: str
    ok: bool
    message: str = ""


@dataclass
class ProofResult:
    accepted: bool
    reports: list[NodeReport]
    root_oracle: JudgeResult | None = None


@dataclass
class RhlContext:
    env: ImpEnv
    bm: BiModel
    rel_hyps: dict[str, RelHypothesis] = field(default_factory=dict)
    impl_hyps: dict[str, ImplicationHypothesis] = field(default_factory=dict)

    def compile(self, prog: Program):
        return self.env.compile_block(prog)

    def oracle(self, rj: RhlJudgment) -> JudgeResult:
        j = Judgment(rj.kind, self.compile(rj.left), self.compile(rj.right),
                     RelSpec(rj.pre, rj.post))
        return dispatch(self.bm, j)

    def side_test(self, side: str, b: BoolExpr) -> BiTestTerm:
        prim = self.env.compile_bool(b)
        return BEmbLTest(prim) if side == "L" else BEmbRTest(prim)

    def guards_agree(self, e: BoolExpr, e2: BoolExpr) -> BiTestTerm:
        le, re = self.side_test("L", e), self.side_test("R", e2)
        return bor(band(le, re), band(bnot(le), bnot(re)))


def _bt_eq(a: BiTestTerm, b: BiTestTerm) -> bool:
    return simplify_bitest(a) == simplify_bitest(b)


def _strip_skips(p: Program) -> Program:
    return tuple(s for s in p if not isinstance(s, SSkip))


def check_implication(ctx: RhlContext, lhs: BiTestTerm, rhs: BiTestTerm):
    """All pairs satisfying lhs satisfy rhs; the first counterexample pair
    otherwise.  The lhs rows are streamed, so a failure stops the
    enumeration at its row.  A keyed rhs decides a row by the left state's
    key alone, so where the lhs shares its rows (`PairSpec.shares_rows`)
    each (left key, row) is tested once, at its first left state."""
    spec = pair_spec(ctx.bm, lhs)
    rows = spec.rows()
    rhs_pred = pair_spec(ctx.bm, rhs).pred
    lk, seen = rhs_pred.lk, set() if rhs_pred.keyed and spec.shares_rows else None
    for a, bs in rows:
        if seen is not None:
            if (lk[a], id(bs)) in seen:
                continue
            seen.add((lk[a], id(bs)))
        hit = rhs_pred.escape((a,), bs)
        if hit is not None:
            return hit
    return None


def discharge_side_condition(ctx: RhlContext, sc: SideCondition) -> tuple[bool, str]:
    if sc.discharge.startswith("hypothesis:"):
        name = sc.discharge.split(":", 1)[1]
        hyp = ctx.impl_hyps.get(name)
        if hyp is None:
            return False, f"unknown hypothesis {name!r}"
        if sc.shape != "implication":
            return False, f"hypothesis discharge only applies to implications, not {sc.shape}"
        if _bt_eq(hyp.lhs, sc.lhs) and _bt_eq(hyp.rhs, sc.rhs):
            return True, f"by hypothesis {name}"
        return False, f"hypothesis {name} states a different implication"

    if sc.shape == "implication":
        cex = check_implication(ctx, sc.lhs, sc.rhs)
        if cex is None:
            return True, "by oracle"
        sp = ctx.bm.space
        return False, (f"{sc.description}: fails at left={sp.state_str(cex[0])} "
                       f"right={sp.state_str(cex[1])}")

    if sc.shape == "domain-totality":
        post_spec, havoc_var = sc.payload
        sp = ctx.bm.space
        rows = dict(pair_spec(ctx.bm, post_spec).rows())
        if havoc_var is None:
            # full-state nondeterminism on the right: need a partner per left state
            for s in range(sp.size):
                if s not in rows:
                    return False, (f"{sc.description}: no partner for "
                                   f"left={sp.state_str(s)}")
            return True, "by oracle"
        # s2 has a witnessing value for s iff s2 with the havocked field
        # cleared is a partner of s with that field cleared
        off, width = sp.field(havoc_var)
        keep = ~(((1 << width) - 1) << off)
        cleared = [s2 for s2 in range(sp.size) if s2 & keep == s2]
        for s in range(sp.size):
            got = {t2 & keep for t2 in rows.get(s, ())}
            if len(got) < len(cleared):
                s2 = next(c for c in cleared if c not in got)
                return False, (f"{sc.description}: no witnessing value of "
                               f"{havoc_var} for left={sp.state_str(s)} "
                               f"right={sp.state_str(s2)}")
        return True, "by oracle"

    if sc.shape == "variant-decrease":
        inv, guard2, body2, variant = sc.payload
        rows = dict(pair_spec(ctx.bm, band(inv, guard2)).rows())
        images = post_map(ctx.bm.base, ctx.compile(body2)).fill(
            {b for row in rows.values() for b in row})
        holds, vals = pair_spec(ctx.bm, inv).pred.holds, ctx.env.values(variant)
        for a, row in rows.items():
            for b in row:
                if not any(vals[t2] < vals[b] and holds(a, t2) for t2 in images[b]):
                    sp = ctx.bm.space
                    return False, (f"{sc.description}: no decreasing right iteration from "
                                   f"left={sp.state_str(a)} right={sp.state_str(b)}")
        return True, "by oracle"

    return False, f"unknown side-condition shape {sc.shape!r}"


# --- rule schemas -----------------------------------------------------------

# rule -> schema family.  An e-rule concludes fsim judgments, a b-rule bsim,
# every other rule allall; the backward rules of a family are its `backward`
# branch.  A node of a LEAVES family has no premises: an oracle discharges it.
RULES = {
    "dseq": "seq", "eseq": "seq", "bseq": "seq", "seqsk": "seq",
    "dif": "if", "eif": "if", "bif": "if",
    "dwh": "wh", "ewh": "wh", "bwh": "wh", "cawh": "wh", "ewhl": "wh", "ewhr": "wh",
    "rconseq": "conseq", "econseq": "conseq", "bconseq": "conseq",
    "rdisj": "disj", "edisj": "disj", "bdisj": "disj",
    "dass": "ass", "eass": "ass", "enass": "nass", "bnass": "nass", "ehav": "hav",
    "dprim": "prim", "eprim": "prim", "bprim": "prim", "selfcomp": "selfcomp",
    "dcall": "call", "ecall": "call", "bcall": "call",
}
LEAVES = {"prim", "ass", "selfcomp"}
# rule or family -> the annotations it reads (a rule not listed reads its family's)
READS = {"seq": "mid lsplit rsplit", "seqsk": "mid lsplit", "if": "side", "bif": "",
         "wh": "inv side", "bwh": "inv", "cawh": "inv q r side", "ewhr": "inv variant side",
         "conseq": "pre post side", "disj": "first second", "call": "hyp"}


class SchemaError(Exception):
    pass


def _single(p: Program, cls, what: str):
    p = _strip_skips(p)
    if len(p) != 1 or not isinstance(p[0], cls):
        raise SchemaError(f"expected a single {what}, found: "
                          + (" ".join(stmt_str(s) for s in p) or "skip"))
    return p[0]


def _split(p: Program, k: int, what: str) -> tuple[Program, Program]:
    if not 0 < k < len(p):
        raise SchemaError(f"{what} split index {k} out of range for {len(p)} statements")
    return p[:k], p[k:]


def _loops(ctx: RhlContext, ann: dict, rj: RhlJudgment):
    """The two loops of a loop rule's conclusion, its invariant and the two
    guard tests, once the conclusion is checked to be pre = inv and
    post = inv & !e & !e'."""
    w = _single(rj.left, SWhile, "while loop")
    w2 = _single(rj.right, SWhile, "while loop")
    inv = ann["inv"]
    le, re = ctx.side_test("L", w.cond), ctx.side_test("R", w2.cond)
    if not _bt_eq(rj.pre, inv):
        raise SchemaError(f"loop rule needs pre = invariant; pre is {rj.pre}, "
                          f"invariant is {inv}")
    want_post = band(inv, bnot(le), bnot(re))
    if not _bt_eq(rj.post, want_post):
        raise SchemaError(f"loop rule concludes post {want_post}, node says {rj.post}")
    return w, w2, inv, le, re


def premise_judgments(
    ctx: RhlContext, rule: str, ann: dict, rj: RhlJudgment
) -> tuple[list[RhlJudgment], list[SideCondition]]:
    """Instantiate the rule schema at this conclusion: the derived premise
    judgments, in order, plus the side conditions to discharge."""
    r = rule.lower()
    family = RULES.get(r)
    if family is None:
        raise SchemaError(f"unknown rule {rule!r}")
    kind = {"e": "fsim", "b": "bsim"}.get(r[0], "allall")
    if rj.kind != kind:
        raise SchemaError(f"{rule} applies to {kind} judgments, not {rj.kind}")
    unread = sorted(set(ann) - set(READS.get(r, READS.get(family, "")).split()))
    if unread:
        raise SchemaError(f"{rule} does not read " + ", ".join(f":{k}" for k in unread))
    backward = kind == "bsim"
    prem = partial(RhlJudgment, kind)

    def implies(what: str, lhs: BiTestTerm, rhs: BiTestTerm) -> SideCondition:
        return SideCondition("implication", what, lhs=lhs, rhs=rhs,
                             discharge=ann.get("side", "oracle"))

    if family == "seq":
        if r == "seqsk" and _strip_skips(rj.right):
            raise SchemaError("SeqSk requires a skip right program")
        mid = ann["mid"]
        l1, l2 = _split(rj.left, int(ann.get("lsplit", 1)), "left")
        r1, r2 = (((), ()) if r == "seqsk"
                  else _split(rj.right, int(ann.get("rsplit", 1)), "right"))
        return [prem(l1, r1, rj.pre, mid), prem(l2, r2, mid, rj.post)], []

    if family == "if":
        si = _single(rj.left, SIf, "if statement")
        si2 = _single(rj.right, SIf, "if statement")
        le, re = ctx.side_test("L", si.cond), ctx.side_test("R", si2.cond)
        then, els = si.then, si.els
        if backward:  # a left branch runs from every state, so it assumes its guard
            then, els = (SAssume(si.cond),) + then, (SAssume(BNotE(si.cond)),) + els
        prems = [prem(then, si2.then, band(rj.pre, le, re), rj.post),
                 prem(els, si2.els, band(rj.pre, bnot(le), bnot(re)), rj.post)]
        if backward:  # backward conditionals need no guard agreement
            return prems, []
        return prems, [implies(
            f"pre implies guard agreement ({bool_str(si.cond)} vs {bool_str(si2.cond)})",
            rj.pre, ctx.guards_agree(si.cond, si2.cond))]

    if family == "wh":
        w, w2, inv, le, re = _loops(ctx, ann, rj)
        lockstep = prem(w.body, w2.body, band(inv, le, re), inv)
        if r == "cawh":
            q, rr = ann["q"], ann["r"]
            return [prem(w.body, w2.body, band(inv, le, re, bnot(q), bnot(rr)), inv),
                    prem(w.body, (), band(inv, q, le), inv),
                    prem((), w2.body, band(inv, rr, re), inv)], [implies(
                "invariant implies guard agreement or an enabled one-sided selector",
                inv, bor(ctx.guards_agree(w.cond, w2.cond), band(q, le), band(rr, re)))]
        if r == "ewhl":
            return [lockstep, prem(w.body, (), band(inv, le), inv)], [implies(
                "invariant and right guard imply left guard", band(inv, re), le)]
        if r == "ewhr":
            variant = ann["variant"]
            return [lockstep], [
                implies("invariant implies left-done-or-right-enabled", inv, bor(bnot(le), re)),
                SideCondition(
                    "variant-decrease",
                    f"right iterations decrease {expr_str(variant)} under the invariant",
                    payload=(inv, re, w2.body, variant))]
        if backward:  # no guard agreement; the left body assumes its guard
            return [prem((SAssume(w.cond),) + w.body, w2.body, band(inv, le, re), inv)], []
        return [lockstep], [implies("invariant implies guard agreement",
                                    inv, ctx.guards_agree(w.cond, w2.cond))]

    if family == "conseq":
        pre2, post2 = ann["pre"], ann["post"]
        prems = [prem(rj.left, rj.right, pre2, post2)]
        if backward:  # reversed: weaken the pre, strengthen the post
            return prems, [implies("premise pre implies conclusion pre", pre2, rj.pre),
                           implies("conclusion post implies premise post", rj.post, post2)]
        return prems, [implies("conclusion pre implies premise pre", rj.pre, pre2),
                       implies("premise post implies conclusion post", post2, rj.post)]

    if family == "disj":
        a, b = ann["first"], ann["second"]
        end = "post" if backward else "pre"  # the end that splits into two cases
        if not _bt_eq(getattr(rj, end), bor(a, b)):
            raise SchemaError(f"{end} must be the disjunction of the two cases")
        return [replace(rj, **{end: a}), replace(rj, **{end: b})], []

    if family == "nass":
        _single(rj.left, SHavoc, "nondeterministic assignment")
        h2 = _single(rj.right, SHavoc, "nondeterministic assignment")
        # the relation is the post going forward, the pre going backward,
        # and the other end is true
        true_end, rel = ("post", rj.pre) if backward else ("pre", rj.post)
        if not _bt_eq(getattr(rj, true_end), BOne()):
            raise SchemaError(f"nondeterministic assignment rule needs {true_end} = true")
        return [], [SideCondition("domain-totality",
                                  f"relation is total in the right-hand {h2.var}",
                                  payload=(rel, h2.var))]

    if family == "hav":
        _expect_full_havoc(ctx, rj.left, "left")
        _expect_full_havoc(ctx, rj.right, "right")
        if not _bt_eq(rj.pre, BOne()):
            raise SchemaError("havoc rule needs precondition true")
        return [], [SideCondition("domain-totality", "post relation is domain-total",
                                  payload=(rj.post, None))]

    if family == "ass":
        a = _single(rj.left, SAssign, "assignment")
        a2 = _single(rj.right, SAssign, "assignment")
        want = substitute_bitest(ctx, rj.post, a.var, a.expr, a2.var, a2.expr)
        if not _bt_eq(rj.pre, want):
            raise SchemaError(
                f"assignment axiom needs pre = post with substitutions applied: {want}")

    if family == "call":
        name = ann["hyp"]
        hyp = ctx.rel_hyps.get(name)
        if hyp is None:
            raise SchemaError(f"unknown relational hypothesis {name!r}")
        want = hyp.judgment
        if (want.kind != rj.kind or _strip_skips(want.left) != _strip_skips(rj.left)
                or _strip_skips(want.right) != _strip_skips(rj.right)
                or not _bt_eq(want.pre, rj.pre) or not _bt_eq(want.post, rj.post)):
            raise SchemaError(
                f"conclusion does not match hypothesis {name}: {want.describe()}")
    return [], []


def _expect_full_havoc(ctx: RhlContext, p: Program, side: str):
    p = _strip_skips(p)
    if not all(isinstance(s, SHavoc) for s in p):
        raise SchemaError(f"havoc rule: {side} program must be nondeterministic "
                          "assignments only")
    havocked = {s.var for s in p}
    declared = {v.name for v in ctx.env.space.vars}
    if havocked != declared or ctx.env.space.arrays:
        raise SchemaError(f"havoc rule: {side} program must assign every "
                          f"declared variable (got {sorted(havocked)}, "
                          f"declared {sorted(declared)})")


def substitute_bitest(ctx: RhlContext, t: BiTestTerm, lv: str, le, rv: str, re) -> BiTestTerm:
    """Substitute assignment expressions into an expression-level bitest:
    left variable in left expressions, right variable in right expressions.
    Only expression-agreement conjunctions are substitution-closed."""
    if isinstance(t, (BOne,)):
        return t
    if isinstance(t, BAnd):
        return band(*[substitute_bitest(ctx, a, lv, le, rv, re) for a in t.args])
    if isinstance(t, BPrim):
        sem = ctx.bm.bitest(t.name)
        if not isinstance(sem, ExprBitest):
            raise SchemaError(
                f"assignment axiom needs expression bitests; {t.name} is opaque")
        return rel_bitest_term(ctx, subst_expr(sem.lexpr, lv, le), sem.op,
                               subst_expr(sem.rexpr, rv, re))
    if isinstance(t, BEmbLTest) or isinstance(t, BEmbRTest):
        raise SchemaError("assignment axiom: one-sided tests are not "
                          "substitution-closed here; use expression bitests")
    raise SchemaError(f"assignment axiom cannot substitute into {t}")


def rel_bitest_term(ctx: RhlContext, lexpr, op: str, rexpr) -> BiTestTerm:
    """Register (or reuse) the expression bitest `lexpr op rexpr`."""
    name = f"{expr_str(lexpr)} {op} {expr_str(rexpr)}"
    if name not in ctx.bm.bitests:
        ctx.bm.bitests[name] = ExprBitest(ctx.env, lexpr, op, rexpr)
    return BPrim(name)


def check_proof(ctx: RhlContext, tree: ProofTree, conclusion: RhlJudgment) -> ProofResult:
    reports: list[NodeReport] = []

    def walk(node: ProofTree, rj: RhlJudgment, path: tuple[int, ...]) -> bool:
        rep = NodeReport(path, node.rule, rj.describe(), True)
        reports.append(rep)
        try:
            prems, sides = premise_judgments(ctx, node.rule, node.ann, rj)
        except SchemaError as e:
            rep.ok, rep.message = False, f"schema: {e}"
            return False
        except KeyError as e:
            rep.ok, rep.message = False, f"missing annotation {e}"
            return False
        for sc in sides:
            ok, msg = discharge_side_condition(ctx, sc)
            if not ok:
                rep.ok, rep.message = False, f"side condition failed: {msg}"
                return False
        if len(node.premises) != len(prems):
            rep.ok, rep.message = False, (
                f"rule needs {len(prems)} premises, proof has {len(node.premises)}")
            return False
        family = RULES[node.rule.lower()]
        if family in LEAVES:
            if family == "selfcomp":
                from .selfcomp import check_selfcomp
                res = check_selfcomp(ctx, rj)
            else:
                res = ctx.oracle(rj)
            if not res.holds:
                rep.ok = False
                rep.message = (f"oracle refutes the leaf judgment: "
                               f"{res.counterexample.rendered if res.counterexample else ''}")
            return res.holds
        return all(walk(sub, pj, path + (i,))
                   for i, (sub, pj) in enumerate(zip(node.premises, prems)))

    ok = walk(tree, conclusion, ())
    result = ProofResult(ok, reports)
    if ok:
        res = ctx.oracle(conclusion)
        result.root_oracle = res
        if not res.holds:
            result.accepted = False
            reports.append(NodeReport(
                (), "(root)", conclusion.describe(), False,
                "accepted by the rules but refuted by the oracle: "
                + (res.counterexample.rendered if res.counterexample else "")))
            return result
    result.accepted = ok
    return result
