"""Named rewrite laws over two-execution terms.

Every law instance carries its two sides as terms; scripts apply instances at
explicit paths, and the test suite checks each instance semantically on
sampled finite models.  The conditional expansion law is flagged: it is known
to hold in *-continuous models (which includes all finite relational models)
and its status in arbitrary models is open, so the checker reports the proviso.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..kat.terms import KatTerm, TestTerm, kseq, kstar, ktest, tnot
from .terms import (BiKatTerm, BiTestTerm, band, bembl, bembr, bnot, bplus,
                    bseq, bstar, btest, emb_pair)


@dataclass(frozen=True)
class LawInstance:
    name: str
    lhs: BiKatTerm
    rhs: BiKatTerm
    star_continuous_only: bool = False


def expand_lockstep(
    e: TestTerm, c: KatTerm, e2: TestTerm, c2: KatTerm
) -> LawInstance:
    """Lockstep loop alignment under a common star, with one-sided remainders
    for whichever loop iterates longer:

        <(e;c)* | (e2;c2)*> ; <!e | !e2>
          =  <e;c | e2;c2>* ; (<e;c | !e2>* + <!e | e2;c2>*) ; <!e | !e2>

    Valid in every model of the algebra.
    """
    ec = kseq(ktest(e), c)
    ec2 = kseq(ktest(e2), c2)
    ne = ktest(tnot(e))
    ne2 = ktest(tnot(e2))
    lhs = bseq(emb_pair(kstar(ec), kstar(ec2)), emb_pair(ne, ne2))
    rhs = bseq(
        bstar(emb_pair(ec, ec2)),
        bplus(bstar(emb_pair(ec, ne2)), bstar(emb_pair(ne, ec2))),
        emb_pair(ne, ne2),
    )
    return LawInstance("expand-lockstep", lhs, rhs)


def expand_conditional(
    e: TestTerm, c: KatTerm, e2: TestTerm, c2: KatTerm,
    q: BiTestTerm, r: BiTestTerm,
) -> LawInstance:
    """Data-dependent loop alignment: selector Q steps the left loop alone,
    R steps the right alone, otherwise the loops step jointly:

        <e;c]* ; <!e] ; [e2;c2>* ; [!e2>
          =  ( Q;<e;c] + R;[e2;c2> + !Q;!R;<e;c | e2;c2>
               + !Q;<e;c | !e2> + !R;<!e | e2;c2> )* ; <!e | !e2>

    Proven for *-continuous models only; general validity is open.
    """
    ec = kseq(ktest(e), c)
    ec2 = kseq(ktest(e2), c2)
    ne = ktest(tnot(e))
    ne2 = ktest(tnot(e2))
    lhs = bseq(bstar(bembl(ec)), bembl(ne), bstar(bembr(ec2)), bembr(ne2))
    rhs = bseq(
        bstar(bplus(
            bseq(btest(q), bembl(ec)),
            bseq(btest(r), bembr(ec2)),
            bseq(btest(band(bnot(q), bnot(r))), emb_pair(ec, ec2)),
            bseq(btest(bnot(q)), emb_pair(ec, ne2)),
            bseq(btest(bnot(r)), emb_pair(ne, ec2)),
        )),
        emb_pair(ne, ne2),
    )
    return LawInstance("expand-cond", lhs, rhs, star_continuous_only=True)
