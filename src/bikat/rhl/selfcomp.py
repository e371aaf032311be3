"""Self-composition: reduce a relational judgment to a unary triple over a
doubled, renamed state.

The right program runs on a disjoint copy of the variables inside one larger
state space; the relational pre/post become state predicates of the doubled
space.  The most degenerate alignment, but a complete one, and an independent
route to cross-check the pairwise oracle.
"""

from __future__ import annotations

from ..judge.core import pair_spec
from ..judge.oracles import JudgeResult
from ..models.bmodel import bitest_holds
from ..models.imp import (BAndE, BCmp, BConst, BNotE, BOrE, EArr, EBin, ECall,
                          EConst, EVar, ImpEnv, Program, SArrAssign, SAssign,
                          SAssume, SHavoc, SIf, SSkip, SWhile, Stmt)
from ..models.space import ArrayDecl, StateSpace, VarDecl
from ..judge.core import Counterexample
from .proof import RhlContext, RhlJudgment

RENAME_SUFFIX = "_r"


def _rename_expr(e, sfx: str):
    if isinstance(e, EConst):
        return e
    if isinstance(e, EVar):
        return EVar(e.name + sfx)
    if isinstance(e, EArr):
        return EArr(e.name + sfx, _rename_expr(e.index, sfx))
    if isinstance(e, ECall):
        return ECall(e.fn, tuple(_rename_expr(a, sfx) for a in e.args))
    return EBin(e.op, _rename_expr(e.left, sfx), _rename_expr(e.right, sfx))


def _rename_bool(b, sfx: str):
    if isinstance(b, BConst):
        return b
    if isinstance(b, BCmp):
        return BCmp(b.op, _rename_expr(b.left, sfx), _rename_expr(b.right, sfx))
    if isinstance(b, BNotE):
        return BNotE(_rename_bool(b.arg, sfx))
    if isinstance(b, BAndE):
        return BAndE(tuple(_rename_bool(a, sfx) for a in b.args))
    return BOrE(tuple(_rename_bool(a, sfx) for a in b.args))


def rename_program(p: Program, sfx: str = RENAME_SUFFIX) -> Program:
    def go(s: Stmt) -> Stmt:
        if isinstance(s, SSkip):
            return s
        if isinstance(s, SAssign):
            return SAssign(s.var + sfx, _rename_expr(s.expr, sfx))
        if isinstance(s, SHavoc):
            return SHavoc(s.var + sfx)
        if isinstance(s, SArrAssign):
            return SArrAssign(s.name + sfx, _rename_expr(s.index, sfx),
                              _rename_expr(s.value, sfx))
        if isinstance(s, SAssume):
            return SAssume(_rename_bool(s.cond, sfx))
        if isinstance(s, SIf):
            return SIf(_rename_bool(s.cond, sfx), tuple(go(x) for x in s.then),
                       tuple(go(x) for x in s.els))
        return SWhile(_rename_bool(s.cond, sfx), tuple(go(x) for x in s.body))

    return tuple(go(s) for s in p)


def check_selfcomp(ctx: RhlContext, rj: RhlJudgment) -> JudgeResult:
    """Run c then the renamed d on the doubled space; the unary triple
    {pre-as-predicate} c;d_renamed {post-as-predicate} decides the judgment."""
    if rj.kind != "allall":
        return JudgeResult("selfcomp", False,
                           notes=["self-composition applies to forall-forall only"])
    space = ctx.env.space
    for d in [*space.vars, *space.arrays]:
        if d.name.endswith(RENAME_SUFFIX):
            return JudgeResult("selfcomp", False,
                               notes=[f"variable {d.name} collides with the renaming"])
    dvars = list(space.vars) + [VarDecl(v.name + RENAME_SUFFIX, v.width)
                                for v in space.vars]
    darrs = list(space.arrays) + [ArrayDecl(a.name + RENAME_SUFFIX, a.length, a.width)
                                  for a in space.arrays]
    dspace = StateSpace.structured(dvars, darrs)
    denv = ImpEnv(dspace, ctx.env.width, ctx.env.ftables)

    fields = [v.name for v in space.vars] + [
        (a.name, i) for a in space.arrays for i in range(a.length)]

    def doubled(s: int, s2: int) -> int:
        st = 0
        for f in fields:
            st = dspace.set(st, f, space.get(s, f))
            f2 = (f + RENAME_SUFFIX) if isinstance(f, str) else (f[0] + RENAME_SUFFIX, f[1])
            st = dspace.set(st, f2, space.get(s2, f))
        return st

    def split(st: int) -> tuple[int, int]:
        s = s2 = 0
        for f in fields:
            s = space.set(s, f, dspace.get(st, f))
            f2 = (f + RENAME_SUFFIX) if isinstance(f, str) else (f[0] + RENAME_SUFFIX, f[1])
            s2 = space.set(s2, f, dspace.get(st, f2))
        return s, s2

    prog = tuple(rj.left) + rename_program(tuple(rj.right))
    pre = pair_spec(ctx.bm, rj.pre)
    for (a, b) in pre.pairs():
        for final in denv.run(prog, frozenset((doubled(a, b),))):
            t, t2 = split(final)
            if not bitest_holds(ctx.bm, rj.post, t, t2):
                res = JudgeResult("selfcomp", False)
                res.counterexample = Counterexample(
                    "selfcomp", (a, b, t, t2),
                    f"doubled-state run violates the post: "
                    f"left={space.state_str(t)} right={space.state_str(t2)}")
                return res
    return JudgeResult("selfcomp", True)
