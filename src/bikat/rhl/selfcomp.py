"""Self-composition (Barthe, D'Argenio and Rezk): run c, then d, and read the
relational pre and post on the pair of states.  In BiKAT it is the sequential
alignment <c] ; [d>, which equals <c|d> since one-sided actions on different
sides commute, so R;<c];[d>;!S = 0 is the ∀∀ judgment.  It walks pair states
(`witness.term_image`) where the ∀∀ oracle reads images per side."""

from __future__ import annotations

from ..bi.terms import emb_pair
from ..judge.core import Counterexample, pair_spec
from ..judge.oracles import JudgeResult, _row_chunks
from ..judge.witness import term_image
from .proof import RhlContext, RhlJudgment


def check_selfcomp(ctx: RhlContext, rj: RhlJudgment) -> JudgeResult:
    """R;<c];[d>;!S = 0, walked from a chunk of pre rows at a time: the first
    pre pair, in pre order, whose image holds a pair that the post rejects,
    with the first such pair in state order, refutes it."""
    if rj.kind != "allall":
        return JudgeResult("selfcomp", False,
                           notes=["self-composition applies to forall-forall only"])
    r, post = pair_spec(ctx.bm, rj.pre), pair_spec(ctx.bm, rj.post).pred
    term = emb_pair(ctx.compile(rj.left), ctx.compile(rj.right))
    for chunk in _row_chunks(r):
        images = term_image(ctx.bm, term, [(a, b) for a, bs in chunk for b in bs])
        for src, image in images.items():
            bad = min((t for t in image if not post.holds(*t)), default=None)
            if bad is not None:
                return JudgeResult("selfcomp", False, Counterexample(
                    "selfcomp", src + bad, f"run of <c] ; [d> from "
                    f"{r.render_pair(*src)} to {r.render_pair(*bad)} violates the post"))
    return JudgeResult("selfcomp", True)
