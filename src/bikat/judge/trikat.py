"""Three-execution relations and the closed-form simulation equations.

`tri_embed(A, B)` glues two pair relations that agree on the shared middle
execution; `tricom(a, b, c)` runs three programs componentwise.  Projecting
the left two executions turns the middle existential into relation algebra,
giving a closed form for forward simulation that this module evaluates and
cross-checks against the direct oracle.  Backward simulation is the same form
on the converse programs with pre and post swapped.  Triple spaces grow with
the cube of the state count, so sizes are capped.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..kat.terms import CapExceeded
from ..models.birel import BiRel, pack, tensor
from ..models.bmodel import BiModel, bitest_pairs
from ..models.kmodel import interp_kat
from ..models.rel import Rel
from .core import Judgment
from .oracles import JudgeResult, RouteDisagreement, check_bsim, check_fsim

TRI_SIDE_CAP = 6

Triple = tuple[int, int, int]


@dataclass(frozen=True)
class TriRel:
    n: int
    pairs: frozenset[tuple[Triple, Triple]]

    def compose(self, other: "TriRel") -> "TriRel":
        index: dict[Triple, set[Triple]] = {}
        for (a, b) in other.pairs:
            index.setdefault(a, set()).add(b)
        out = set()
        for (a, m) in self.pairs:
            for b in index.get(m, ()):
                out.add((a, b))
        return TriRel(self.n, frozenset(out))

    def count(self) -> int:
        return len(self.pairs)


def _check_cap(n: int) -> None:
    if n > TRI_SIDE_CAP:
        raise CapExceeded(
            f"triple space over {n} states has {n ** 6} relation points; "
            f"cap is {TRI_SIDE_CAP} states per side")


def tri_embed(a: BiRel, b: BiRel) -> TriRel:
    """Triples whose left pair steps by `a` and right pair by `b`, agreeing on
    the shared middle execution."""
    if a.n != b.n:
        raise ValueError("side mismatch")
    n = a.n
    _check_cap(n)
    bidx: dict[int, list[tuple[int, int, int]]] = {}
    for src, tgt in b.items():
        bs, bs3 = divmod(src, n)
        bt, bt3 = divmod(tgt, n)
        bidx.setdefault(bs, []).append((bs3, bt, bt3))
    out = set()
    for src, tgt in a.items():
        (s, s2), (t, t2) = divmod(src, n), divmod(tgt, n)
        for (s3, bt, t3) in bidx.get(s2, ()):
            if bt == t2:
                out.add(((s, s2, s3), (t, t2, t3)))
    return TriRel(n, frozenset(out))


def tricom(a: Rel, b: Rel, c: Rel) -> TriRel:
    """Componentwise product: each execution steps by its own relation."""
    n = a.n
    _check_cap(n)
    out = set()
    asucc = [list(a.succ(i)) for i in range(n)]
    bsucc = [list(b.succ(i)) for i in range(n)]
    csucc = [list(c.succ(i)) for i in range(n)]
    for s in range(n):
        for s2 in range(n):
            for s3 in range(n):
                for t in asucc[s]:
                    for t2 in bsucc[s2]:
                        for t3 in csucc[s3]:
                            out.add(((s, s2, s3), (t, t2, t3)))
    return TriRel(n, frozenset(out))


def tri_proj_left2(x: TriRel) -> BiRel:
    """Existential image onto the left two of the three executions."""
    n = x.n
    return BiRel.of_pairs(n, ((pack(n, s, s2), pack(n, t, t2))
                              for ((s, s2, _), (t, t2, _)) in x.pairs))


def _subid_pairs(pairs, n: int) -> BiRel:
    return BiRel.subid(n, (pack(n, a, b) for (a, b) in pairs))


def _id_dot(n: int) -> BiRel:
    return BiRel.subid(n, (pack(n, s, s) for s in range(n)))


def check_fsim_via_trikat(bm: BiModel, j: Judgment) -> JudgeResult:
    """Closed-form forward simulation (`_forward_closed_form`).  The verdict
    must agree with the direct oracle; disagreement raises
    `RouteDisagreement`."""
    return _via_trikat(bm, j, backward=False)


def check_bsim_via_trikat(bm: BiModel, j: Judgment) -> JudgeResult:
    """Closed-form backward simulation:

        id. ; <c|hav> ; S.  <=  proj( <id. || R.> ; <c|hav|d> ; <S. || id.> )

    which is, taking converses of both sides, the forward closed form for
    c° and d° with pre S and post R."""
    return _via_trikat(bm, j, backward=True)


def _forward_closed_form(n: int, c: Rel, d: Rel, rdot: BiRel, sdot: BiRel) -> bool:
    """R. ; <c|hav> ; id.  <=  proj( <R. || id.> ; <c|hav|d> ; <id. || S.> )"""
    hav = Rel.full(n)
    iddot = _id_dot(n)
    lhs = rdot.compose(tensor(c, hav)).compose(iddot)
    tri = tri_embed(rdot, iddot).compose(tricom(c, hav, d)).compose(
        tri_embed(iddot, sdot))
    return lhs.leq(tri_proj_left2(tri))


def _via_trikat(bm: BiModel, j: Judgment, backward: bool) -> JudgeResult:
    n = bm.space.size
    _check_cap(n)
    c = interp_kat(bm.base, j.left)
    d = interp_kat(bm.base, j.right)
    rdot = _subid_pairs(bitest_pairs(bm, j.spec.pre), n)
    sdot = _subid_pairs(bitest_pairs(bm, j.spec.post), n)
    if backward:
        c, d, rdot, sdot = c.converse(), d.converse(), sdot, rdot
    holds = _forward_closed_form(n, c, d, rdot, sdot)

    kind, check = ("bsim", check_bsim) if backward else ("fsim", check_fsim)
    direct = check(bm, Judgment(kind, j.left, j.right, j.spec))
    if holds != direct.holds:
        raise RouteDisagreement(
            f"trikat route ({holds}) disagrees with direct {kind} ({direct.holds})")
    res = JudgeResult(f"{kind}-trikat", holds)
    res.routes["trikat"] = holds
    res.routes["direct"] = direct.holds
    return res
